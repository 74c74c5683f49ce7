"""Sullivan-style sphere models, towers, pile bounds, Hopf invariants."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dglevels.algebra import DGAlgebraPresentation, Generator
from dglevels.errors import (
    FieldMismatch,
    MTooSmall,
    PresentationError,
    WrongTargetCohomology,
)
from dglevels import rational
from dglevels.field import QQ, FieldTag, coordinates, rank_and_kernel
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
from dglevels.resolve import filtration_class
from dglevels.spheres import decompose_module, extension_module
from helpers import matrix as dense_matrix


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
    # D(a) = x·b involves b, which comes later: not a Koszul-Sullivan extension
    with pytest.raises(PresentationError, match="not x, ξ or an earlier generator"):
        TowerSpec(3, 2, 8, (("a", 5, {("x", "b"): 1}), ("b", 3, {})))


@pytest.mark.parametrize("D", [{("x", "y"): 1}, {("ξ", "u"): 1}, {("x", "v"): 1}])
def test_a_differential_naming_an_unknown_label_is_refused(D):
    # y is no generator, ξ is none over an odd sphere, v is the generator itself
    with pytest.raises(PresentationError) as info:
        TowerSpec(3, 2, 8, (("u", 5, {}), ("v", 7, D)))
    assert info.value.code == "invalid-presentation"


@pytest.mark.parametrize("D", [{("u", "x"): 1}, {("x", "x", "u"): 1}])
def test_a_differential_key_lists_a_monomial_in_generator_order(D):
    # the sign of u·x differs from x·u's, and x·x = 0 over an odd sphere
    with pytest.raises(PresentationError, match="generator order"):
        TowerSpec(3, 2, 8, (("u", 5, {}), ("v", 7, D)))


def test_an_even_extension_generator_is_refused():
    with pytest.raises(PresentationError, match="must be odd"):
        TowerSpec(3, 2, 8, (("u", 6, {}),))


def test_a_float_coefficient_is_no_scalar():
    with pytest.raises(FieldMismatch):
        TowerSpec(3, 2, 8, (("u", 5, {}), ("v", 7, {("x", "u"): 0.5})))


def test_the_extension_is_read_off_the_generators():
    t = TowerSpec(3, 2, 0, (("u", 5, {}), ("v", 7, {("x", "u"): 1})))
    assert t.extension == (("u", 5), ("v", 7))
    assert [g.label for g in t.full.generators] == ["x", "u", "v"]
    assert t.full.differential == {"v": {(1, 1, 0): 1}}
    assert tower_level_bounds(t).to_json() == {"kind": "exact", "level": 2}


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


# the levels of build_P_tower(l, d) over Q, F_2, F_3, F_5, F_7 and F_11: in
# characteristic p <= l the Jordan type of Λ^k of a Jordan block changes
CHARACTERISTIC_LEVELS = {
    (4, 3): (5, 4, 5, 5, 5, 5),
    (5, 3): (7, 7, 7, 5, 7, 7),
    (6, 3): (10, 8, 9, 10, 7, 10),
    (7, 3): (13, 8, 9, 13, 7, 11),
    (5, 4): (10, 8, 10, 10, 10, 10),
    (6, 4): (14, 14, 14, 10, 14, 14),
    (7, 4): (20, 16, 18, 20, 14, 20),
}


@pytest.mark.parametrize("l, d", sorted(CHARACTERISTIC_LEVELS))
def test_tower_levels_by_characteristic(l, d):
    # one call of the extension builder per field, on the tower's own triples
    gens = build_P_tower(l, d).generators
    levels = tuple(decompose_module(extension_module(d, FieldTag(p), gens, "a tower"), d).level()
                   for p in (0, 2, 3, 5, 7, 11))
    assert levels == CHARACTERISTIC_LEVELS[l, d]


# the levels of the prefixes of build_P_tower(7, d), by the parity of d and
# the characteristic: over F_2, F_3 and F_5 some stages fall below Q's
PREFIX_LEVELS = {
    (0, 0): (1, 2, 2, 4, 6, 10, 14, 20), (0, 2): (1, 2, 2, 4, 6, 8, 14, 16),
    (0, 3): (1, 2, 2, 4, 6, 10, 14, 18), (0, 5): (1, 2, 2, 4, 6, 10, 10, 20),
    (1, 0): (1, 1, 2, 3, 5, 7, 10, 13), (1, 2): (1, 1, 2, 3, 4, 7, 8, 8),
    (1, 3): (1, 1, 2, 3, 5, 7, 9, 9), (1, 5): (1, 1, 2, 3, 5, 5, 10, 13),
}


def test_each_tower_stage_at_most_doubles_the_level():
    # stage k + 1 adds one exterior generator w to stage k, so it is the cone
    # of D(w) on a shift of stage k, and its level is at most twice stage
    # k's; checked on every prefix of every tower l <= 7, d = 2..7, over four
    # fields (816 decompositions)
    for d in range(2, 8):
        for p in (0, 2, 3, 5):
            for l in range(1, 8):
                gens = build_P_tower(l, d).generators
                levels = tuple(decompose_module(extension_module(d, FieldTag(p), gens[:k],
                                                                 "a tower"), d).level()
                               for k in range(len(gens) + 1))
                assert all(b <= 2 * a for a, b in zip(levels, levels[1:])), (d, p, l, levels)
                if l == 7:
                    assert levels == PREFIX_LEVELS[d % 2, p]


def fibre_product_tower(l, d=3):
    """l-1 factors u_i, v_i over S^d with D(v_i) = x·u_i."""
    gens = []
    for i in range(l - 1):
        a = 2 * (l * d + 1 + 7 * i) - 1
        gens += [(f"u{i}", a, {}), (f"v{i}", a + d - 1, {("x", f"u{i}"): Fraction(1)})]
    return TowerSpec(d, l, 0, tuple(gens))


def mixed_tower():
    """Over S^3: D(w) = u·v + x·u and D(t) = x·w - v·w, so D has scalar
    terms and x moves past odd prefixes."""
    return TowerSpec(3, 0, 0, (
        ("u", 5, {}), ("v", 3, {}),
        ("w", 7, {("u", "v"): Fraction(1), ("x", "u"): Fraction(1)}),
        ("t", 9, {("x", "w"): Fraction(1), ("v", "w"): Fraction(-1)})))


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
    x, xi = F.index["x"], F.index.get("ξ")
    ext = [F.index[label] for label, _ in tower.extension]

    def name(mono):
        return "·".join(F.generators[i].label for i in ext if mono[i]) or "1"

    gens, diff = [], {}
    for mask in range(2 ** len(ext)):
        on = {i for k, i in enumerate(ext) if mask >> k & 1}
        mono = tuple(int(i in on) for i in range(F.n))
        gens.append((name(mono), F.monomial_degree(mono)))
        for tmono, c in F.mono_differential(mono).items():
            if tmono[x] > 1 or xi is not None and tmono[xi]:
                continue                # x² and ξ map to zero
            # x^e·w^β = (-1)^{e|x||β|} w^β·x^e
            odd = tmono[x] * tower.d * sum(tmono[i] * F.generators[i].degree for i in ext) % 2
            poly = diff.setdefault(name(mono), {}).setdefault(name(tmono), {})
            key = (tmono[x],)
            poly[key] = poly.get(key, 0) + (-c if odd else c)
    return DGModulePresentation.free(A, gens, diff)


@pytest.mark.parametrize("make", [lambda: mixed_tower(), lambda: fibre_product_tower(4)] + [
    lambda l=l, d=d: build_P_tower(l, d) for d in range(3, 7) for l in range(1, 6)])
def test_base_module_blocks_match_the_monomial_route(make):
    tower = make()
    assert tower.as_base_module().to_json() == pushed_monomial_by_monomial(tower).to_json()


# sha256 of the molecule names, in order, recorded before TowerSpec took its
# generators as (label, degree, D) triples
FIBRE_PRODUCT_MOLECULES = {
    2: "c2d2ab5b3cf3147a5055f7d9953e8933014711bec3edf3403647d04efcc8c880",
    3: "01f1b636b6a9471ee0124a85e7589b9b4378330e64437271b270256642353d61",
    4: "8c8dd0e4c96a2f373faeb45147ba421b7c399e002d91d351a332cf14621d57c7",
    5: "ee480d5c909f45fcf86141ce5be993a849b40ee1f9c947b2bf6875cca0aca5f0",
    6: "26af091726871ef8ea360f42107ebdcc7e864ce2e48aa7777c2848451c8ec9af",
}


def test_tower_molecules_are_pinned():
    for l, digest in FIBRE_PRODUCT_MOLECULES.items():
        names = [str(m) for m in tower_level_bounds(fibre_product_tower(l)).decomposition.molecules]
        assert hashlib.sha256("\n".join(names).encode()).hexdigest() == digest, l
    names = [str(m) for m in tower_level_bounds(mixed_tower()).decomposition.molecules]
    assert names == ["Z_0", "Σ^{-3}Z_0", "Σ^{-5}Z_0", "Σ^{-12}Z_0", "Σ^{-12}Z_0",
                     "Σ^{-19}Z_0", "Σ^{-21}Z_0", "Σ^{-24}Z_0"]


@st.composite
def odd_towers(draw):
    """Up to four odd generators over S^3…S^6, each D a ±1 sum of cocycles
    of the earlier model (kernel vectors of its differential), so D² = 0.
    The ξ terms of an even sphere are rare here; the build_P_tower cases of
    the monomial-route test cover them."""
    d = draw(st.integers(3, 6))
    gens = []
    for label in "abcd"[:draw(st.integers(1, 4))]:
        F = TowerSpec(d, 0, 0, tuple(gens)).full
        basis = F.monomial_basis(24)
        degrees = [n for n in sorted(basis) if n >= 2 and n % 2 == 0]
        if not degrees or not draw(st.integers(0, 3)):
            gens.append((label, 2 * draw(st.integers(1, 10)) + 1, {}))
            continue
        n = draw(st.sampled_from(degrees))
        matrix = dense_matrix(F.to_complex(DegreeWindow(0, n + 1)), n)
        size = len(basis[n])
        kernel = rank_and_kernel(matrix, QQ)[1] if matrix else \
            [[int(i == j) for i in range(size)] for j in range(size)]
        picks = draw(st.lists(st.sampled_from(range(len(kernel))), unique=True,
                              min_size=1, max_size=3)) if kernel else []
        poly = {}
        for j in picks:
            sign = draw(st.sampled_from((1, -1)))
            for m, c in zip(basis[n], kernel[j]):
                poly[m] = poly.get(m, 0) + sign * c
        D = {tuple(g.label for g, e in zip(F.generators, m) for _ in range(e)): c
             for m, c in poly.items() if c}
        gens.append((label, n - 1, D))
    return TowerSpec(d, 0, 0, tuple(gens))


@settings(max_examples=100, deadline=None)
@given(odd_towers())
def test_label_keyed_towers_push_and_keep_their_cohomology(tower):
    module = tower.as_base_module()
    assert module.to_json() == pushed_monomial_by_monomial(tower).to_json()
    top = sum(deg for _, deg in tower.extension) + 2 * tower.d
    assert module.cohomology_dims(tower.auto_window()) == \
        cohomology(tower.full.to_complex(DegreeWindow(0, top + 4)))[0]


def test_mixed_tower_has_scalar_terms():
    blocks = mixed_tower().as_base_module()
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

        upper = filtration_class(generator_depth_filtration(module)) + 1
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


@pytest.mark.parametrize("call", [
    lambda: build_P_tower(2.5, 3), lambda: build_P_tower(True, 3), lambda: pile_upper_bound(2.5),
    lambda: pile_upper_bound(True), lambda: pile_upper_bound(1, 1.0),
    lambda: hopf_invariant(acyclic_closure_model(4), {}, {}, d=5.0)],
    ids=["tower-float-l", "tower-bool-l", "pile-float", "pile-bool", "pile-float-spheres",
         "hopf-float-d"])
def test_an_integer_input_that_is_no_int_is_refused(call):
    # 2.5 stopped with a TypeError, pile_upper_bound(True) answered 2 and a
    # Hopf invariant over S^5.0 answered 0
    with pytest.raises(PresentationError) as info:
        call()
    assert info.value.code == "invalid-presentation"
