"""Sullivan-style sphere models, towers, pile bounds, Hopf invariants."""

from fractions import Fraction

import pytest

from dglevels.algebra import DGAlgebraPresentation, Generator
from dglevels.errors import (
    MTooSmall,
    PresentationError,
    WrongTargetCohomology,
)
from dglevels import rational
from dglevels.field import QQ, coordinates
from dglevels.graded import DegreeWindow, cohomology
from dglevels.module import DGModulePresentation
from dglevels.rational import (
    TowerSpec,
    build_P_tower,
    hopf_invariant,
    pile_upper_bound,
    sphere_model,
    tower_level_bounds,
)
from dglevels.resolve import filtration_class, level_upper_bound


def acyclic_closure_model(d=4):
    """(∧(x, ξ, ρ), δξ = x², δρ = x): the model of the total space of a
    Hopf-invariant-one map."""
    gens = [Generator("x", d, "polynomial"), Generator("ξ", 2 * d - 1, "exterior"),
            Generator("ρ", d - 1, "exterior")]
    diff = {"ξ": {(2, 0, 0): Fraction(1)}, "ρ": {(1, 0, 0): Fraction(1)}}
    return DGAlgebraPresentation(QQ, gens, diff)


# -- sphere models ---------------------------------------------------------------


def test_sphere_models():
    assert cohomology(sphere_model(4).to_complex(DegreeWindow(0, 12)))[0] == {0: 1, 4: 1}
    assert cohomology(sphere_model(3).to_complex(DegreeWindow(0, 12)))[0] == {0: 1, 3: 1}
    assert cohomology(sphere_model(2).to_complex(DegreeWindow(0, 12)))[0] == {0: 1, 2: 1}


# -- towers ------------------------------------------------------------------------


def test_even_tower_generator_degrees():
    t = build_P_tower(3, 4, m=13)
    # deg ρ = d - 1; deg w_i = i(2d-1) + (2m-1) - i
    assert dict(t.extension) == {"ρ": 3, "w0": 25, "w1": 31}
    dw1 = t.full.differential["w1"]
    # D(w1) = (ρx - ξ)·w0: two monomials, coefficients ±1
    assert sorted(dw1.values()) == [Fraction(-1), Fraction(1)]
    t2 = build_P_tower(2, 4, m=9)
    assert dict(t2.extension) == {"ρ": 3, "w0": 17}
    assert t2.full.differential["ρ"] == {(1, 0, 0, 0): Fraction(1)}


def test_odd_tower_generator_degrees():
    t = build_P_tower(2, 3, m=7)
    assert dict(t.extension) == {"w0": 13, "w1": 15}
    dw1 = t.full.differential["w1"]
    assert list(dw1.values()) == [Fraction(1)]
    mono = next(iter(dw1))
    assert t.full.monomial_degree(mono) == 16   # x·w0


def test_tower_m_guard():
    with pytest.raises(MTooSmall):
        build_P_tower(2, 4, m=8)


def test_tower_extension_property_enforced():
    gens = [Generator("x", 3, "exterior"), Generator("a", 5, "exterior"),
            Generator("b", 7, "exterior")]
    # D(a) involves b, which comes later: not a Koszul-Sullivan extension
    diff = {"a": {(0, 0, 1): Fraction(1)}}
    with pytest.raises(PresentationError):
        full = DGAlgebraPresentation(QQ, gens, diff)
        TowerSpec(3, 2, 8, full, (("a", 5), ("b", 7)))


def test_fibre_complex_is_finite_and_odd():
    for l, d in [(2, 3), (2, 4), (3, 3)]:
        t = build_P_tower(l, d)
        assert t.fibre_cohomology_finite()
        fib = t.fibre_complex()
        dims, _ = cohomology(fib.to_complex(DegreeWindow(0, sum(g.degree for g in fib.generators) + 2)))
        assert all(v >= 0 for v in dims.values())
        assert sum(dims.values()) == 2 ** len(t.extension)


def test_tower_level_bounds_odd_sphere():
    assert tower_level_bounds(build_P_tower(1, 3)).to_json() == {"kind": "exact", "level": 1}
    assert tower_level_bounds(build_P_tower(2, 3, 7)).to_json() == {"kind": "exact", "level": 2}
    assert tower_level_bounds(build_P_tower(3, 3, 10)).to_json() == {"kind": "exact", "level": 3}


def test_tower_level_bounds_even_sphere():
    assert tower_level_bounds(build_P_tower(1, 4)).to_json() == {"kind": "exact", "level": 1}
    assert tower_level_bounds(build_P_tower(2, 4, 9)).to_json() == {"kind": "exact", "level": 2}


def test_even_sphere_level_three_tower_computes_four():
    # The three-stage tower over S^4 decomposes with a forced height-3
    # molecule: the class in degree 2m-1 has no partner within height 2, so
    # the exact level is 4, not 3.  Upper and lower bounds agree on 4.
    res = tower_level_bounds(build_P_tower(3, 4, 13))
    assert res.to_json() == {"kind": "exact", "level": 4}


@pytest.mark.parametrize("l, d, level", [(4, 3, 5), (5, 3, 7), (6, 3, 10),
                                         (4, 4, 6), (5, 4, 10), (6, 4, 14)])
def test_tower_level_table(l, d, level):
    # the levels the recipe reaches beyond its target (module docstring)
    res = tower_level_bounds(build_P_tower(l, d))
    assert res.kind == "exact"
    assert res.value == level


def fibre_product_tower(l, d=3):
    """l-1 factors u_i, v_i over S^d with D(v_i) = x·u_i."""
    gens = [Generator("x", d, "exterior")]
    extension = []
    for i in range(l - 1):
        a = 2 * (l * d + 1 + 7 * i) - 1
        extension += [(f"u{i}", a), (f"v{i}", a + d - 1)]
    gens += [Generator(label, deg, "exterior") for label, deg in extension]
    diff = {}
    for i in range(l - 1):
        mono = [0] * len(gens)
        mono[0] = mono[1 + 2 * i] = 1
        diff[f"v{i}"] = {tuple(mono): Fraction(1)}
    full = DGAlgebraPresentation(QQ, gens, diff)
    return TowerSpec(d, l, 0, full, tuple(extension))


def mixed_tower():
    """Over S^3: D(w) = u·v + x·u and D(t) = x·w - v·w, so D has scalar
    terms and x moves past odd prefixes."""
    labels = [("x", 3), ("u", 5), ("v", 3), ("w", 7), ("t", 9)]
    gens = [Generator(label, deg, "exterior") for label, deg in labels]
    diff = {"w": {(0, 1, 1, 0, 0): Fraction(1), (1, 1, 0, 0, 0): Fraction(1)},
            "t": {(1, 0, 0, 1, 0): Fraction(1), (0, 0, 1, 1, 0): Fraction(-1)}}
    full = DGAlgebraPresentation(QQ, gens, diff)
    return TowerSpec(3, 0, 0, full, tuple(labels[1:]))


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_fibre_product_of_two_stage_towers_reaches_its_level(l):
    # over S^3: the x-action is the (l-1)-fold tensor power of a size-2
    # Jordan block, largest block size l
    res = tower_level_bounds(fibre_product_tower(l))
    assert res.to_json() == {"kind": "exact", "level": l}


def pushed_monomial_by_monomial(tower):
    """The base module the direct way: D of every monomial in the full
    algebra, pushed onto H*(S^d) term by term."""
    F = tower.full
    A = DGAlgebraPresentation.sphere_cohomology(tower.d, QQ)
    nb = F.n - len(tower.extension)
    gens, diff = [], {}
    for mask in range(2 ** len(tower.extension)):
        mono = tuple([0] * nb + [mask >> k & 1 for k in range(len(tower.extension))])
        label = tower._ext_label(mask)
        gens.append((label, F.monomial_degree(mono)))
        for tmono, c in F.mono_differential(mono).items():
            if tmono[0] > 1 or any(tmono[1:nb]):
                continue                # x² and ξ map to zero
            tmask = sum(1 << k for k in range(len(tower.extension)) if tmono[nb + k])
            # x^e·w^β = (-1)^{e|x||β|} w^β·x^e
            odd = tmono[0] * F.generators[0].degree * sum(
                tmono[nb + k] * deg for k, (_, deg) in enumerate(tower.extension)) % 2
            poly = diff.setdefault(label, {}).setdefault(tower._ext_label(tmask), {})
            key = (tmono[0],)
            poly[key] = poly.get(key, 0) + (-c if odd else c)
    return DGModulePresentation.free(A, gens, diff)


@pytest.mark.parametrize("make", [lambda: mixed_tower(), lambda: fibre_product_tower(4)] + [
    lambda l=l, d=d: build_P_tower(l, d) for d in range(3, 7) for l in range(1, 6)])
def test_base_module_blocks_match_the_monomial_route(make):
    tower = make()
    assert tower.as_base_module().to_json() == pushed_monomial_by_monomial(tower).to_json()


def test_mixed_tower_has_scalar_terms():
    blocks = mixed_tower().sphere_module()
    assert any(any(cols) for cols in blocks.delta.values())
    assert tower_level_bounds(mixed_tower()).kind == "exact"


def test_tower_cohomology_two_routes_agree():
    # the tower-as-base-module expansion against the raw Sullivan algebra
    for l, d, m in [(2, 3, 7), (2, 4, 9), (3, 4, 13)]:
        t = build_P_tower(l, d, m)
        route_module = t.as_base_module().cohomology_dims(t.auto_window())
        top = sum(deg for _, deg in t.extension) + 2 * d
        route_algebra = cohomology(t.full.to_complex(DegreeWindow(0, top + 4)))[0]
        assert route_module == route_algebra


def test_tower_upper_bound_at_least_lower():
    for l, d in [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4)]:
        t = build_P_tower(l, d)
        module = t.as_base_module()
        from dglevels.resolve import generator_depth_filtration

        upper = level_upper_bound(generator_depth_filtration(module))
        res = tower_level_bounds(t)
        assert res.kind == "exact"
        assert upper >= res.value


# -- pile -----------------------------------------------------------------------------


def test_pile_upper_bound_degenerate():
    bound, filt = pile_upper_bound(0, 2)
    assert bound == 1
    assert filtration_class(filt) == 0


def test_pile_upper_bound_two_stages():
    bound, filt = pile_upper_bound(2, 1)
    assert bound == 3
    assert filtration_class(filt) == 2


def test_sci_wrapper():
    assert pile_upper_bound(3)[0] == 4
    assert pile_upper_bound(0)[0] == 1


# -- Hopf invariant ---------------------------------------------------------------------


def test_hopf_invariant_of_the_acyclic_closure():
    C = acyclic_closure_model(4)
    gx = {(1, 0, 0): Fraction(1)}
    gxi = {(0, 1, 0): Fraction(1)}
    gen = {(1, 0, 1): Fraction(1), (0, 1, 0): Fraction(-1)}   # ρx - ξ
    assert hopf_invariant(C, gx, gxi, d=4, generator_choice=gen) == Fraction(1)
    auto = hopf_invariant(C, gx, gxi, d=4)
    assert auto != 0


def test_hopf_invariant_trivial_map():
    C = DGAlgebraPresentation(QQ, [Generator("y", 7, "exterior")])
    assert hopf_invariant(C, {}, {}, d=4) == Fraction(0)


def test_hopf_invariant_odd_dimension_is_zero():
    C = acyclic_closure_model(4)
    assert hopf_invariant(C, {}, {}, d=5) == Fraction(0)
    assert hopf_invariant(C, {}, {}, d=3) == Fraction(0)


@pytest.mark.parametrize("d", [1, 0, -2])
def test_hopf_invariant_rejects_sphere_dimension_one_and_below(d):
    with pytest.raises(PresentationError, match="sphere dimension must exceed 1") as info:
        hopf_invariant(acyclic_closure_model(4), {}, {}, d=d)
    assert info.value.code == "invalid-presentation"


def test_hopf_invariant_guards():
    # wrong target cohomology
    C = DGAlgebraPresentation(QQ, [Generator("y", 6, "exterior")])
    with pytest.raises(WrongTargetCohomology):
        hopf_invariant(C, {}, {}, d=4)
    # x not exact in the target
    C2 = DGAlgebraPresentation(QQ, [Generator("y", 7, "exterior"),
                                    Generator("z", 4, "exterior")])
    with pytest.raises(WrongTargetCohomology):
        hopf_invariant(C2, {(0, 1): Fraction(1)}, {}, d=4)


def test_hopf_invariant_lift_independence(monkeypatch):
    # scaling the map scales the invariant
    C = acyclic_closure_model(4)
    gx = {(1, 0, 0): Fraction(2)}
    gxi = {(0, 1, 0): Fraction(4)}
    gen = {(1, 0, 1): Fraction(1), (0, 1, 0): Fraction(-1)}
    assert hopf_invariant(C, gx, gxi, d=4, generator_choice=gen) == Fraction(4)

    # ⊗ the contractible pair (u, v), Du = v, |v| = 3: v is a nonzero cocycle
    # in degree d - 1, so the invariant is read off ρ and off ρ + v too
    gens = list(C.generators) + [Generator("u", 2, "polynomial"), Generator("v", 3, "exterior")]
    diff = {"ξ": {(2, 0, 0, 0, 0): Fraction(1)}, "ρ": {(1, 0, 0, 0, 0): Fraction(1)},
            "u": {(0, 0, 0, 0, 1): Fraction(1)}}
    CC = DGAlgebraPresentation(QQ, gens, diff)
    pad = {m + (0, 0): c for m, c in gen.items()}
    reads = []
    monkeypatch.setattr(rational, "coordinates",
                        lambda *a: reads.append(a[1]) or coordinates(*a))
    assert hopf_invariant(CC, {(1, 0, 0, 0, 0): Fraction(2)}, {(0, 1, 0, 0, 0): Fraction(4)},
                          d=4, generator_choice=pad) == Fraction(4)
    assert len(reads) == 2 and reads[0] != reads[1]
