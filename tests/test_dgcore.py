"""Algebra and module presentations: expansion, shift, cone, sums, Hom, idempotents."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dglevels.module
from dglevels.algebra import DGAlgebraPresentation, Generator
from dglevels.errors import (
    AlgebraMismatch,
    BudgetExceeded,
    EndTooLarge,
    FieldMismatch,
    NotAChainMap,
    NotCompactlyDecomposable,
    PresentationError,
    SourceNotFree,
    Undecided,
)
from dglevels.field import QQ, GF2, GF3, GF5, FieldTag
from dglevels.graded import CochainComplex, DegreeWindow, GradedVectorSpace, cohomology
from dglevels.module import (
    HOM_BASIS_BUDGET,
    DGModulePresentation,
    EndomorphismH0,
    block_sum,
    cone,
    direct_sum,
    find_idempotents,
    hom_complex,
    idempotent_split,
    shift,
)
from dglevels.resolve import (KOSZUL, _resolve, koszul_resolution_poly, koszul_resolution_sphere,
                              residue_module, tensor_reach)
from dglevels.spheres import MoleculeId, molecule_model, sphere_level
from helpers import differential, shift_degrees


def sphere(d, field=QQ):
    return DGAlgebraPresentation.sphere_cohomology(d, field)


def even_sphere_model(d=4):
    """Minimal free model of an even sphere: (∧(x, ξ), δξ = x²)."""
    x = Generator("x", d, "polynomial")
    xi = Generator("ξ", 2 * d - 1, "exterior")
    alg = DGAlgebraPresentation(QQ, [x, xi])
    dxi = {(2, 0): Fraction(1)}
    return DGAlgebraPresentation(QQ, [x, xi], {"ξ": dxi})


# -- algebra expansion -------------------------------------------------------


def test_even_sphere_model_cohomology():
    alg = even_sphere_model(4)
    cx = alg.to_complex(DegreeWindow(0, 12))
    dims, _ = cohomology(cx)
    assert dims == {0: 1, 4: 1}


def test_algebra_d_squared_is_checked():
    x = Generator("x", 2, "polynomial")
    y = Generator("y", 3, "exterior")
    z = Generator("z", 4, "exterior")
    # d(y) = x^2, d(z) = x·y makes d² (z) = x^3 ≠ 0
    with pytest.raises(PresentationError):
        DGAlgebraPresentation(
            QQ, [x, y, z],
            {"y": {(2, 0, 0): Fraction(1)}, "z": {(1, 1, 0): Fraction(1)}},
        )


def test_divided_power_multiplication_coefficients():
    w = Generator("w", 6, "divided")
    alg = DGAlgebraPresentation(QQ, [w])
    c, mono = alg.mono_mul((1,), (1,))
    assert (c, mono) == (Fraction(2), (2,))   # γ1·γ1 = 2 γ2

    alg2 = DGAlgebraPresentation(GF2, [w])
    assert alg2.mono_mul((1,), (1,)) is None  # 2 γ2 = 0 in characteristic 2
    c3, _ = alg2.mono_mul((1,), (2,))
    assert c3 == 1                            # binom(3,1) = 3 ≡ 1 mod 2


def test_polynomials_are_stored_reduced():
    # over F_3 the coefficient 3 is zero and -1 is stored as 2
    alg = DGAlgebraPresentation.sphere_cohomology(4, GF3)
    assert alg.normalize_poly({(1,): 3, (0,): -1}) == {(0,): 2}
    M = DGModulePresentation.free(alg, [("u", 0), ("v", 3)], {"v": {"u": {(1,): 3}}})
    assert M.differential == {}


def test_char2_polynomial_odd_generator_guard():
    with pytest.raises(PresentationError):
        DGAlgebraPresentation.polynomial(QQ, [("y7", 7)])
    alg = DGAlgebraPresentation.polynomial(GF2, [("y7", 7)], char2_polynomial_odd=True)
    assert alg.monomial_degree((2,)) == 14


def test_koszul_sign_in_monomial_product():
    a = Generator("a", 3, "exterior")
    b = Generator("b", 5, "exterior")
    alg = DGAlgebraPresentation(QQ, [a, b])
    # b·a = -a·b
    c, mono = alg.mono_mul((0, 1), (1, 0))
    assert mono == (1, 1) and c == Fraction(-1)
    c2, _ = alg.mono_mul((1, 0), (0, 1))
    assert c2 == Fraction(1)


# -- memoized monomial arithmetic --------------------------------------------


def acyclic_closure(d, field):
    """K over H*(S^d), d even, closed up: ∧(x) ⊗ ∧(y) ⊗ Γ(w) with x² = 0,
    dy = x, dw = x·y, so d(γ_e(w)) = x·y·γ_{e-1}(w)."""
    gens = [Generator("x", d, "exterior"), Generator("y", d - 1, "exterior"),
            Generator("w", 2 * d - 2, "divided")]
    one = field.one()
    return DGAlgebraPresentation(field, gens, {"y": {(1, 0, 0): one},
                                               "w": {(1, 1, 0): one}})


def sphere_model(d, field):
    """(∧(x, ξ, ρ), dξ = x², dρ = x), d even."""
    gens = [Generator("x", d, "polynomial"), Generator("ξ", 2 * d - 1, "exterior"),
            Generator("ρ", d - 1, "exterior")]
    one = field.one()
    return DGAlgebraPresentation(field, gens, {"ξ": {(2, 0, 0): one},
                                               "ρ": {(1, 0, 0): one}})


@st.composite
def algebras(draw):
    """Exterior, polynomial and divided generators over Q, F2 and F3, with
    zero differential or one of two differential families."""
    field = draw(st.sampled_from([QQ, GF2, GF3]))
    family = draw(st.sampled_from(["free", "closure", "model"]))
    d = draw(st.sampled_from([2, 4, 6]))
    if family == "closure":
        return acyclic_closure(d, field)
    if family == "model":
        return sphere_model(d, field)
    gens = []
    for i in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["exterior", "polynomial", "divided"]))
        deg = draw(st.integers(1, 5))
        if kind != "exterior":
            deg = 2 * deg
        gens.append(Generator(f"g{i}", deg, kind))
    return DGAlgebraPresentation(field, gens)


@settings(deadline=None, max_examples=150)
@given(algebras(), st.data())
def test_memoized_monomial_arithmetic_matches_recomputation(alg, data):
    basis = [m for monos in alg.monomial_basis(20).values() for m in monos]
    monos = data.draw(st.lists(st.sampled_from(basis), min_size=1, max_size=6))
    one = alg.field.one()
    for _ in range(2):                       # the second round reads the tables
        for m1 in monos:
            assert dict(alg.mono_differential(m1)) == alg._mono_derivative(m1)
            assert alg.monomial_degree(m1) == sum(e * g.degree
                                                  for e, g in zip(m1, alg.generators))
            for m2 in monos:
                assert alg.mono_mul(m1, m2) == alg._mono_product(m1, m2)
    # the Leibniz rule ties the two tables together
    for m1 in monos:
        for m2 in monos:
            if alg.mono_mul(m1, m2) is None:
                continue
            c, m = alg.mono_mul(m1, m2)
            sign = alg.field.from_int(-1 if alg.monomial_degree(m1) % 2 else 1)
            d1 = alg.poly_mul(alg.poly_differential({m1: one}), {m2: one})
            d2 = alg.poly_mul({m1: one}, alg.poly_differential({m2: one}))
            assert alg.poly_differential({m: c}) == alg.poly_add(d1, alg.poly_scale(d2, sign))


def test_divided_power_products_that_vanish_mod_p_are_cached_as_zero():
    w = Generator("w", 4, "divided")
    f2 = DGAlgebraPresentation(GF2, [w])
    f3 = DGAlgebraPresentation(GF3, [w])
    q = DGAlgebraPresentation(QQ, [w])
    for _ in range(2):
        assert f2.mono_mul((1,), (1,)) is None          # binom(2, 1) = 2
        assert f2.mono_mul((2,), (2,)) is None          # binom(4, 2) = 6
        assert f3.mono_mul((1,), (2,)) is None          # binom(3, 1) = 3
        assert f3.mono_mul((1,), (1,)) == (2, (2,))
        assert q.mono_mul((1,), (2,)) == (Fraction(3), (3,))
    closure = acyclic_closure(4, GF2)
    # d(γ_2(w)) = x·y·γ_1(w), and x·y·γ_1(w)·γ_1(w) = 0 over F2
    assert dict(closure.mono_differential((0, 0, 2))) == {(1, 1, 1): 1}
    assert closure.mono_mul((1, 1, 1), (0, 0, 1)) is None


def test_cached_results_cannot_be_changed_by_callers():
    alg = acyclic_closure(4, QQ)
    m = (0, 0, 2)
    expected = alg._mono_derivative(m)
    first = alg.mono_differential(m)
    with pytest.raises(TypeError):
        first[(0, 0, 0)] = Fraction(5)
    copy = alg.poly_differential({m: Fraction(1)})
    copy[(0, 0, 0)] = Fraction(5)
    product = alg.mono_mul((0, 0, 1), (0, 0, 1))
    with pytest.raises(TypeError):
        product[1][0] = 7
    assert dict(alg.mono_differential(m)) == expected
    assert alg.poly_differential({m: Fraction(1)}) == expected
    assert alg.mono_mul((0, 0, 1), (0, 0, 1)) == (Fraction(2), (0, 0, 2))


def test_zero_differential_shortcuts():
    alg = sphere(4)
    assert alg.poly_differential({(1,): Fraction(1)}) == {}
    assert dict(alg.mono_differential((1,))) == {}
    assert alg._mono_derivative((1,)) == {}


# -- free modules -------------------------------------------------------------


def molecule_like(d=4, m=1, field=QQ):
    """Free module e_0, ..., e_m over H*(S^d) with D(e_j) = e_{j-1}·x."""
    A = sphere(d, field)
    gens = [(f"e{j}", j * (d - 1)) for j in range(m + 1)]
    diff = {f"e{j}": {f"e{j-1}": A.generator_poly(f"x{d}")} for j in range(1, m + 1)}
    return DGModulePresentation.free(A, gens, diff)


def test_free_module_cohomology_is_the_two_class_pattern():
    M = molecule_like(4, 1)
    assert M.cohomology_dims() == {0: 1, 7: 1}


def test_module_d_squared_symbolic_check():
    A = sphere(3, QQ)
    gens = [("a", 0), ("b", 2), ("c", 4)]
    diff = {
        "b": {"a": A.generator_poly("x3")},
        "c": {"b": A.generator_poly("x3")},
    }
    # D²(c) = a·x² = 0 over the sphere algebra, so this is fine
    DGModulePresentation.free(A, gens, diff)
    # over a polynomial algebra the same pattern violates D² = 0
    P = DGAlgebraPresentation.polynomial(QQ, [("t", 3 + 1)])
    with pytest.raises(PresentationError):
        DGModulePresentation.free(
            P,
            [("a", 0), ("b", 3), ("c", 6)],
            {"b": {"a": P.generator_poly("t")}, "c": {"b": P.generator_poly("t")}},
        )


# -- the D² check against the whole-polynomial reference ------------------------


def reference_validate_free(M):
    """The free-module checks as whole-polynomial arithmetic: the degree of
    each coefficient by ``poly_degree``, and D² of each generator as one
    ``poly_mul`` per pair and one ``poly_differential`` per coefficient,
    summed by ``sparse_sum``."""
    from dglevels.field import sparse_sum

    A = M.algebra
    for src, terms in M.differential.items():
        for tgt, poly in terms.items():
            deg = A.poly_degree(poly)
            if M.gen_degree[tgt] + deg != M.gen_degree[src] + 1:
                raise PresentationError(
                    f"D({src}) term on {tgt} has total degree "
                    f"{M.gen_degree[tgt] + deg}, expected {M.gen_degree[src] + 1}")
    for src in M.differential:
        if M.truncation_degree is not None and M.gen_degree[src] + 2 >= M.truncation_degree:
            continue
        terms = []
        for h, a in M.differential[src].items():
            for k, b in M.differential.get(h, {}).items():
                terms.extend(((k, m), c) for m, c in A.poly_mul(b, a).items())
            if not A.has_zero_differential():
                odd = M.gen_degree[h] % 2
                terms.extend(((h, m), -c if odd else c)
                             for m, c in A.poly_differential(a).items())
        for k, _ in sparse_sum(terms, M.field):     # keys: (generator, monomial)
            raise PresentationError(f"D∘D ≠ 0 on generator {src!r} (lands on {k!r})")


class Unchecked(DGModulePresentation):
    """A free presentation built without the free-module checks."""

    def _validate_free(self):
        pass


def model_module(d, field):
    """e, f, g over the S^d model (∧(x, ξ), dξ = x²), d even, with D(f) = e·x
    and D(g) = f·x − e·ξ: D²(g) = 0 needs dA(ξ) = x²."""
    A = DGAlgebraPresentation(field, [Generator("x", d, "polynomial"),
                                      Generator("ξ", 2 * d - 1, "exterior")],
                              {"ξ": {(2, 0): field.one()}})
    return DGModulePresentation.free(
        A, [("e", 0), ("f", d - 1), ("g", 2 * d - 2)],
        {"f": {"e": {(1, 0): field.one()}},
         "g": {"f": {(1, 0): field.one()}, "e": {(0, 1): field.from_int(-1)}}})


def cancelling_module(field, moved=False):
    """Over ∧(y, z), |y| = |z| = 3: D(f) = e·(y+z), D(f2) = e2·y, D(f3) = e2·(−y)
    and D(g) = f·(y+z) + f2·z + f3·z.  The product (y+z)·(y+z) cancels inside
    itself, and f2, f3 cancel each other on e2.  ``moved`` sends D(f3) to e
    instead, so D²(g) is nonzero on e2 and on e."""
    A = DGAlgebraPresentation(field, [Generator("y", 3, "exterior"), Generator("z", 3, "exterior")])
    one, y, z = field.one(), (1, 0), (0, 1)
    return DGModulePresentation.free(
        A, [("e", 0), ("e2", 0), ("f", 2), ("f2", 2), ("f3", 2), ("g", 4)],
        {"f": {"e": {y: one, z: one}}, "f2": {"e2": {y: one}},
         "f3": {"e" if moved else "e2": {y: -one}},
         "g": {"f": {y: one, z: one}, "f2": {z: one}, "f3": {z: one}}})


def d_squared_recipe(kind, field):
    from dglevels.resolve import (bar_resolution, koszul_resolution_poly,
                                  koszul_resolution_sphere, residue_module)

    if kind == "koszul sphere":
        return koszul_resolution_sphere(4, field, cap=20).module
    if kind == "koszul poly":
        return koszul_resolution_poly([2, 4, 6], field).module
    if kind == "bar poly":
        A = DGAlgebraPresentation.polynomial(field, [("a", 2), ("b", 4)])
        return bar_resolution(residue_module(A), A, window=DegreeWindow(0, 6)).module
    if kind == "bar model":
        A = model_module(2, field).algebra
        return bar_resolution(residue_module(A), A, window=DegreeWindow(0, 6)).module
    if kind == "cancelling":
        return cancelling_module(field)
    if kind == "molecule sum":
        return direct_sum([molecule_model(MoleculeId(4, l, m), field)
                           for l, m in ((0, 2), (3, 1), (5, 0))])
    return direct_sum([model_module(4, field), shift(model_module(4, field), 3)])


D2_KINDS = ["koszul sphere", "koszul poly", "bar poly", "bar model", "molecule sum",
            "model", "cancelling"]
D2_RECIPES = {(kind, field): d_squared_recipe(kind, field)
              for kind in D2_KINDS for field in (QQ, GF2, GF3)}


def check_outcome(check, M):
    try:
        check(M)
    except PresentationError as e:
        return str(e)
    return None


def test_d_squared_names_the_first_term_left_by_a_nonzero_product():
    # the product on f cancels inside itself, so e enters only with f3's
    # product, after the e2 term of f2's
    with pytest.raises(PresentationError) as e:
        cancelling_module(QQ, moved=True)
    assert str(e.value) == "D∘D ≠ 0 on generator 'g' (lands on 'e2')"


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(list(D2_RECIPES)), st.data())
def test_d_squared_check_agrees_with_the_whole_polynomial_reference(key, data):
    base = D2_RECIPES[key]
    field = base.field
    assert check_outcome(DGModulePresentation._validate_free, base) is None
    assert check_outcome(reference_validate_free, base) is None
    diff = {s: {t: dict(p) for t, p in terms.items()} for s, terms in base.differential.items()}
    src, tgt, mono = data.draw(st.sampled_from(
        [(s, t, m) for s, terms in sorted(diff.items()) for t, p in sorted(terms.items())
         for m in sorted(p)]))
    if data.draw(st.booleans()):
        # one coefficient moves by c; it may cancel, dropping the term
        c = field.from_int(data.draw(st.sampled_from([1, 2, -1])))
        diff[src][tgt][mono] = diff[src][tgt][mono] + c
    else:
        # one term moves to another target, of the same degree or not
        same = [g for g, n in base.generators if n == base.gen_degree[tgt] and g != tgt]
        new = data.draw(st.sampled_from(same or [g for g, _ in base.generators]))
        moved = diff[src][tgt].pop(mono)
        poly = diff[src].setdefault(new, {})
        poly[mono] = poly.get(mono, field.zero()) + moved
    M = Unchecked(base.algebra, generators=base.generators, differential=diff,
                  truncation_degree=base.truncation_degree)
    assert check_outcome(DGModulePresentation._validate_free, M) == \
        check_outcome(reference_validate_free, M)


def test_shift_is_an_exact_degree_translation():
    A = sphere(4)
    M = DGModulePresentation.free_rank_one(A)
    assert shift(M, 0).cohomology_dims() == M.cohomology_dims()
    back = shift(shift(molecule_like(), 3), -3)
    assert back.cohomology_dims() == molecule_like().cohomology_dims()
    k = 2
    dims = molecule_like().cohomology_dims()
    shifted = shift(molecule_like(), k).cohomology_dims()
    assert shifted == {n - k: v for n, v in dims.items()}


def test_shift_odd_amount_keeps_d_squared_zero():
    shifted = shift(molecule_like(4, 2), 3)
    assert shifted.cohomology_dims() == {n - 3: v for n, v in molecule_like(4, 2).cohomology_dims().items()}


def test_cone_of_identity_is_acyclic():
    A = sphere(4)
    M = DGModulePresentation.free_rank_one(A)
    c = cone({"e": {"e": {A.unit_monomial(): Fraction(1)}}}, M, M)
    assert c.cohomology_dims() == {}


def test_cone_of_zero_sums_dimensions():
    A = sphere(4)
    M = DGModulePresentation.free_rank_one(A)
    c = cone({}, M, M)
    dims = c.cohomology_dims()
    assert dims == {-1: 1, 0: 1, 3: 1, 4: 1}


def test_cone_of_multiplication_by_x_is_the_height_one_molecule():
    d = 4
    A = sphere(d)
    M = DGModulePresentation.free_rank_one(A)
    N = DGModulePresentation.free(A, [("u", d)])          # Σ^{-d} A
    c = cone({"u": {"e": A.generator_poly("x4")}}, N, M)
    assert c.cohomology_dims() == {0: 1, 2 * d - 1: 1}


def test_cone_rejects_non_chain_maps():
    A = even_sphere_model(4)
    M = DGModulePresentation.free(A, [("a", 0), ("b", 3)],
                                  {"b": {"a": A.generator_poly("x")}})
    N = DGModulePresentation.free_rank_one(A)
    # sending b to the unit is not degree-compatible with a chain map
    with pytest.raises(NotAChainMap):
        cone({"b": {"e": {A.unit_monomial(): Fraction(1)}}}, M, N)


def test_cone_rejects_a_degree_zero_map_that_is_no_chain_map():
    A = sphere(4)
    M = DGModulePresentation.free_rank_one(A)
    N = molecule_model(MoleculeId(4, 0, 1))          # D(e1) = e0·x
    # e ↦ e1 has degree 0, but D(e1) ≠ 0 = f(D e)
    with pytest.raises(NotAChainMap) as err:
        cone({"e": {"e1": {A.unit_monomial(): Fraction(1)}}}, M, N)
    assert err.value.code == "not-a-chain-map"
    # e1 ↦ e is one: D(e1) = e0·x and e0 ↦ 0
    assert cone({"e1": {"e": {A.unit_monomial(): Fraction(1)}}}, N, M).is_free
    # a generator-label clash stays a presentation error
    with pytest.raises(PresentationError, match="duplicate"):
        cone({}, M, cone({}, M, M))


def test_direct_sum_adds_cohomology():
    A = sphere(4)
    M = DGModulePresentation.free_rank_one(A)
    s = direct_sum([M, shift(M, 1)])
    assert s.cohomology_dims() == {-1: 1, 0: 1, 3: 1, 4: 1}
    assert direct_sum([M]).cohomology_dims() == {0: 1, 4: 1}
    with pytest.raises(AlgebraMismatch):
        direct_sum([])


def test_direct_sum_rejects_mixed_algebras():
    with pytest.raises(AlgebraMismatch):
        direct_sum([
            DGModulePresentation.free_rank_one(sphere(4)),
            DGModulePresentation.free_rank_one(sphere(5)),
        ])


def test_cone_rejects_a_map_onto_an_unknown_target_generator():
    A = sphere(4)
    M = DGModulePresentation.free_rank_one(A)
    with pytest.raises(NotAChainMap, match="'zz'"):
        cone({"e": {"zz": {A.unit_monomial(): 1}}}, M, M)


def test_shift_direct_sum_and_cone_keep_the_truncation():
    M = koszul_resolution_sphere(4, QQ, cap=18).module       # truncated at degree 19
    N = molecule_model(MoleculeId(4, 0, 1))
    assert M.truncation_degree == 19
    assert shift(M, 2).truncation_degree == 17
    assert direct_sum([M, M]).truncation_degree == 19
    assert direct_sum([N, shift(M, -3)]).truncation_degree == 22
    # the cone's truncation is min(target, source − 1)
    assert cone({}, M, M).truncation_degree == 18
    assert cone({}, N, M).truncation_degree == 19
    assert cone({}, N, N).truncation_degree is None
    # M resolves K, whose level is ∞: no truncated copy of it has a finite level
    for X in (M, shift(M, 2), direct_sum([M, M])):
        with pytest.raises(NotCompactlyDecomposable, match="truncated at degree"):
            sphere_level(X, 4)


# -- block sums of checked modules -----------------------------------------------


@st.composite
def block_sum_parts(draw):
    """(module, label prefix, degree offset) parts over one algebra: molecule
    models and Koszul resolutions over H*(S^d), Koszul complexes over
    K[x₂, x₄], or the module over the S^d model (∧(x, ξ), dξ = x²), whose
    nonzero differential makes the sign of an odd offset matter."""
    field = draw(st.sampled_from([QQ, GF2, GF3]))
    family = draw(st.sampled_from(["sphere", "poly", "model"]))
    d = draw(st.sampled_from([2, 4] if family == "model" else [2, 3, 4, 5]))

    def part():
        if family == "poly":
            return koszul_resolution_poly([2, 4], field).module
        if family == "model":
            return model_module(d, field)
        if draw(st.booleans()):
            return koszul_resolution_sphere(d, field, cap=draw(st.integers(0, 12))).module
        mol = MoleculeId(d, draw(st.integers(-6, 6)), draw(st.integers(0, 3)))
        return molecule_model(mol, field, verify=False)

    tags = draw(st.lists(st.text("ab⟨⟩·", max_size=2), min_size=1, max_size=3))
    return [(part(), f"{tag}{i}·", draw(st.integers(-5, 5))) for i, tag in enumerate(tags)]


def scalars(differential):
    """Every stored scalar with its place and type, in dict order."""
    return [(src, tgt, mono, c, type(c)) for src, terms in differential.items()
            for tgt, poly in terms.items() for mono, c in poly.items()]


@settings(deadline=None, max_examples=150)
@given(block_sum_parts())
def test_block_sum_is_what_the_checking_constructor_builds(parts):
    s = block_sum(parts)
    checked = DGModulePresentation.free(s.algebra, s.generators, s.differential,
                                        truncation_degree=s.truncation_degree)
    assert checked.generators == s.generators
    assert scalars(checked.differential) == scalars(s.differential)
    assert checked.truncation_degree == s.truncation_degree == min(
        (m.truncation_degree + offset for m, _, offset in parts
         if m.truncation_degree is not None), default=None)


def counted_checks(monkeypatch):
    """The modules `_validate_free` runs on from here on."""
    seen, check = [], DGModulePresentation._validate_free

    def counting(self):
        seen.append(self)
        check(self)

    monkeypatch.setattr(DGModulePresentation, "_validate_free", counting)
    return seen


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_koszul_strategy_checks_its_recipe_once(monkeypatch, k):
    # once per call: the resolution of K is built and checked for each Tor,
    # and its blocks share it
    shifts = tuple(range(0, 3 * k, 3))
    seen = counted_checks(monkeypatch)
    for calls in (1, 2):
        M = DGModulePresentation.trivial(sphere(4, GF3), shifts=shifts)
        reach = tensor_reach(DegreeWindow(0, 30), M, residue_module(M.algebra), KOSZUL)
        res = _resolve(M, KOSZUL, reach)
        assert len(seen) == calls
        assert len(res.module.generators) == k * len(seen[-1].generators)
    assert seen[0] is not seen[1]


def test_shift_and_direct_sum_do_not_recheck_and_cone_checks_once(monkeypatch):
    M, N = molecule_like(4, 2), molecule_like(4, 1)
    seen = counted_checks(monkeypatch)
    shift(M, 3)
    direct_sum([M, shift(N, 1), M])
    assert seen == []
    one = {M.algebra.unit_monomial(): Fraction(1)}
    cone({"e0": {"e0": one}, "e1": {"e1": one}}, N, M)          # the inclusion
    assert len(seen) == 1


# -- hom complexes ---------------------------------------------------------------


def test_hom_out_of_free_rank_one_is_the_target():
    A = sphere(4)
    M = DGModulePresentation.free_rank_one(A)
    E = hom_complex(M, M)
    dims = cohomology(E.complex)[0]
    assert dims.get(0) == 1 and dims.get(4) == 1


def test_hom_into_molecule_model():
    A = sphere(4)
    M = DGModulePresentation.free_rank_one(A)
    Z = molecule_like(4, 1)
    dims = cohomology(hom_complex(M, Z).complex)[0]
    assert dims.get(0) == 1


def test_hom_basis_budget():
    # 60 generators in degree 0 over H*(S^2): 60² maps in hom degrees 0 and 2
    A = sphere(2)
    M = DGModulePresentation.free(A, [(f"g{i}", 0) for i in range(60)])
    with pytest.raises(BudgetExceeded, match=f"more than {HOM_BASIS_BUDGET} basis maps"):
        hom_complex(M, M)
    small = DGModulePresentation.free(A, [(f"g{i}", 0) for i in range(8)])
    assert cohomology(hom_complex(small, small).complex)[0] == {0: 8 * 8, 2: 8 * 8}


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_hom_out_of_a_truncated_source_certifies_only_what_a_larger_cap_keeps(d, field):
    # a source truncated at T lacks its generators from T on, which reach the
    # hom degrees through (target top) - T: Ext(K, K) over H*(S^d) read
    # through cap c agrees with cap 4d + 20 on every degree it certifies
    A = sphere(d, field)
    window = DegreeWindow(-4 * d - 12, 2)
    line = DGModulePresentation.raw(A, CochainComplex(
        GradedVectorSpace(field, {0: ["u"], d: ["v"]}), {}), {f"x{d}": {0: [[field.one()]]}})
    for target in (residue_module(A), line):
        wide = hom_complex(koszul_resolution_sphere(d, field, cap=4 * d + 20).module, target,
                           window).complex
        assert wide.certified(window) == (window.lo + 1, window.hi - 1)
        whole = cohomology(wide, window)[0]
        for cap in (d, 2 * d + 1, 3 * d):
            cx = hom_complex(koszul_resolution_sphere(d, field, cap=cap).module, target,
                             window).complex
            lo, hi = cx.certified(window)
            top = max(target.complex.space.degrees())
            assert lo == max(window.lo + 1, top - cap + 1), (cap, top)
            assert cohomology(cx, window)[0] == \
                {n: h for n, h in whole.items() if lo <= n <= hi}, (cap, top)


def test_hom_requires_free_source():
    A = sphere(4)
    raw = DGModulePresentation.trivial(A, shifts=(0,))
    with pytest.raises(SourceNotFree):
        hom_complex(raw, raw)


def test_hom_end_of_two_summands_d7():
    A = sphere(7)
    M = direct_sum([
        DGModulePresentation.free_rank_one(A),
        DGModulePresentation.free(A, [("u", 3)]),   # Σ^{-3} copy
    ])
    dims = cohomology(hom_complex(M, M).complex)[0]
    assert dims.get(0) == 2


# -- idempotents ---------------------------------------------------------------------


def test_molecule_model_has_no_nontrivial_idempotents():
    assert find_idempotents(molecule_like(4, 1)) == []
    assert find_idempotents(molecule_like(4, 3)) == []


def test_split_module_has_two_projections():
    A = sphere(4)
    M = DGModulePresentation.free_rank_one(A)
    s = direct_sum([M, shift(M, 1)])
    idems = find_idempotents(s)
    assert len(idems) == 2


def test_split_module_idempotents_mod_p():
    A = sphere(4, GF3)
    M = DGModulePresentation.free_rank_one(A)
    s = direct_sum([M, shift(M, 1)])
    assert len(find_idempotents(s)) == 2


def test_zero_module_has_no_idempotents():
    A = sphere(4)
    assert find_idempotents(DGModulePresentation.zero(A)) == []


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_a_truncated_module_is_not_certified_indecomposable(field):
    # A<a> + A<b> truncated at 10 may hold more generators from degree 10 on,
    # so hom degree 0 of End M is not certified: no split and no certificate
    A = sphere(4, field)
    M = DGModulePresentation.free(A, [("a", 0), ("b", 0)], truncation_degree=10)
    for module in (M, DGModulePresentation.free(A, [], truncation_degree=10)):
        with pytest.raises(Undecided, match="truncated at degree 10"):
            find_idempotents(module)
    assert len(find_idempotents(DGModulePresentation.free(A, [("a", 0), ("b", 0)]))) == 2


def test_end_dimension_guard():
    A = sphere(4)
    M = DGModulePresentation.free_rank_one(A)
    big = direct_sum([M] * 3)
    with pytest.raises(EndTooLarge):
        find_idempotents(big)


def structure(module):
    """(multiplication, unit) of H^0(End M) in the basis find_idempotents uses."""
    end = EndomorphismH0(module)
    f, k = module.field, end.dim
    table, unit = end.structure()

    def mul(x, y):
        out = [f.zero()] * k
        for i in range(k):
            for j in range(k):
                for t in range(k):
                    out[t] = f.reduce(out[t] + x[i] * y[j] * table[i][j][t])
        return tuple(out)

    return mul, tuple(unit)


def assert_complementary_pair(module, idems):
    mul, unit = structure(module)
    f = module.field
    assert len(idems) == 2
    e, rest = idems
    zero = tuple(f.zero() for _ in unit)
    assert tuple(f.reduce(a + b) for a, b in zip(e, rest)) == unit
    for x in (e, rest):
        assert x != zero and x != unit
        assert mul(x, x) == x
    assert mul(e, rest) == zero and mul(rest, e) == zero


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([QQ, GF2, GF3, GF5]), st.integers(2, 5),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 2), st.integers(-3, 3)),
                min_size=1, max_size=3))
def test_molecule_sums_split_and_molecules_are_local(field, d, parts):
    models = [shift(molecule_model(MoleculeId(d, l, m), field, verify=False), k)
              for l, m, k in parts]
    module = direct_sum(models) if len(models) > 1 else models[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dglevels.module, "END_DIM_GUARD", 16)
        idems = find_idempotents(module)
    if len(models) == 1:
        assert idems == []
    else:
        assert_complementary_pair(module, idems)


def composed_by_action(end, outer, inner, index):
    """outer ∘ inner as a cocycle vector, each term through `act_element`:
    inner(g) = Σ c·h·m, and outer sends h·m to outer(h)·m."""
    texp, A, f = end.hom.target_expansion, end.module.algebra, end.field
    out = [f.zero()] * len(index)
    for g, terms in inner.items():
        acc = {}
        for c, (h, m) in terms:
            for x, e in outer[h]:
                for tgt, y in texp.act_element(e, A.mono_poly(m)).items():
                    acc[tgt] = acc.get(tgt, f.zero()) + c * x * y
        for tgt, v in acc.items():
            out[index[g, tgt]] = f.reduce(v)
    return out


@st.composite
def end_modules(draw):
    """Free modules of three kinds: shifted sums of molecule models; plain
    presentations over H*(S^d) of x-chains e_j → e_{j-1}·x and pairs
    D(v) = u·c (+ w·x); over ∧(a₃, b₃), where b·a = −a·b, three parts 3
    degrees apart, so that maps compose through a·b and b·a, each R, the
    pair D(f) = e·αa or the square D(f) = e·αa, D(g) = e·βb,
    D(h) = f·γb + g·δa, where δ = αγ/β makes D²(h) = (αγ − βδ)·e·ab vanish."""
    field = draw(st.sampled_from([QQ, GF2, GF3, GF5]))
    kind = draw(st.sampled_from(["molecules", "plain", "exterior"]))
    unit = lambda: field.from_int(draw(st.sampled_from([1, -1, 2]))) or field.one()
    count = draw(st.integers(1, 3))
    if kind == "molecules":
        d = draw(st.integers(2, 5))
        return direct_sum([shift(molecule_model(MoleculeId(d, draw(st.integers(0, 4)),
                                                           draw(st.integers(0, 2))),
                                                field, verify=False), draw(st.integers(-3, 3)))
                           for _ in range(count)])
    if kind == "plain":
        d = draw(st.integers(2, 5))
        A, gens, diff = sphere(d, field), [], {}
        for i in range(count):
            n = draw(st.integers(-3, 4))
            if draw(st.booleans()):
                chain = [(f"c{i}e{j}", n + j * (d - 1)) for j in range(draw(st.integers(1, 3)))]
                for (top, _), (low, _) in zip(chain[1:], chain):
                    diff[top] = {low: {(1,): unit()}}
                gens += chain
            else:
                gens += [(f"p{i}u", n), (f"p{i}v", n - 1)]
                diff[f"p{i}v"] = {f"p{i}u": {(0,): unit()}}
                if draw(st.booleans()):
                    gens.append((f"p{i}w", n - d))
                    diff[f"p{i}v"][f"p{i}w"] = {(1,): unit()}
        return DGModulePresentation.free(A, gens, diff)
    A = DGAlgebraPresentation(field, [Generator("a", 3, "exterior"),
                                      Generator("b", 3, "exterior")])
    a, b = (1, 0), (0, 1)
    parts, base = [], draw(st.integers(-3, 3))
    for i in range(3):
        size = draw(st.sampled_from([1, 2, 4]))
        alpha, beta, gamma = unit(), unit(), unit()
        gens = [("e", 0), ("f", 2), ("g", 2), ("h", 4)][:size]
        diff = {"f": {"e": {a: alpha}}} if size > 1 else {}
        if size == 4:
            diff["g"] = {"e": {b: beta}}
            diff["h"] = {"f": {b: gamma}, "g": {a: field.reduce(alpha * gamma * field.inv(beta))}}
        parts.append(shift(DGModulePresentation.free(A, gens, diff), base + 3 * i))
    return direct_sum(parts)


@settings(deadline=None, max_examples=80)
@given(end_modules())
def test_end_structure_agrees_with_composition_through_the_action(module):
    # the structure constants of H^0(End M) from one monomial product per
    # pair of terms equal those from acting on each element in turn
    end = EndomorphismH0(module)
    fast = end.structure()
    end._compose = lambda outer, inner, index: composed_by_action(end, outer, inner, index)
    assert fast == end.structure()


def test_two_free_summands_split_into_one_pair_of_an_infinite_family():
    # End(Z_0 ⊕ Z_0) = M_2(Q): the answer is one complementary pair, not a
    # list of all idempotents, which form an infinite family over Q
    A = sphere(4)
    M = DGModulePresentation.free_rank_one(A)
    s = direct_sum([M, M])
    idems = find_idempotents(s)
    assert_complementary_pair(s, idems)
    mul, unit = structure(s)
    e, rest = idems
    basis = [tuple(Fraction(int(i == j)) for j in range(len(unit))) for i in range(len(unit))]
    off = [mul(mul(e, b), rest) for b in basis]
    x = next(v for v in off if any(v))
    for t in (Fraction(1), Fraction(-3, 2)):
        other = tuple(a + t * b for a, b in zip(e, x))
        assert mul(other, other) == other and other not in idems


# F_3[ω]/(ω² + 1) = F_9 and Q[ω]/(ω² + 1) = Q(i): local, but ω has no
# eigenvalue in the ground field, so neither certificate applies
QUADRATIC_FIELD = [[(1, 0), (0, 1)], [(0, 1), (-1, 0)]]


@pytest.mark.parametrize("field", [QQ, GF3])
def test_quadratic_extension_is_undecided(field):
    struct = [[tuple(field.from_int(c) for c in v) for v in row] for row in QUADRATIC_FIELD]
    with pytest.raises(Undecided) as e:
        idempotent_split(struct, (field.one(), field.zero()), field)
    assert e.value.code == "undecided"


def truncated_polynomial_algebra(coeffs, field):
    """K[t]/(μ) for a monic μ (coefficients from the constant term up), in
    the basis 1, t, …, t^{n-1}."""
    n = len(coeffs) - 1

    def power(a):
        v = [field.zero()] * (2 * n)
        v[a] = field.one()
        for top in range(2 * n - 1, n - 1, -1):
            c = v[top]
            v[top] = field.zero()
            for i in range(n):
                v[top - n + i] = field.reduce(v[top - n + i] - c * field.from_int(coeffs[i]))
        return tuple(v[:n])

    struct = [[power(i + j) for j in range(n)] for i in range(n)]
    return struct, power(0)


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5])
def test_split_through_a_repeated_root(field):
    # μ = t²(t − 1): the idempotent is the CRT element ≡ 1 mod t², ≡ 0 mod t − 1
    struct, unit = truncated_polynomial_algebra([0, 0, -1, 1], field)
    e = idempotent_split(struct, unit, field)
    one, zero = field.one(), field.zero()
    assert e in ((one, zero, field.reduce(-one)), (zero, zero, one))   # 1 − t², t²


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5])
def test_truncated_polynomial_algebra_is_local(field):
    # K[t]/((t − 2)³) with every basis element 2^i + nilpotent
    struct, unit = truncated_polynomial_algebra([-8, 12, -6, 1], field)
    assert idempotent_split(struct, unit, field) is None


def test_root_search_guard_over_large_primes():
    field = FieldTag(200_003)
    struct, unit = truncated_polynomial_algebra([0, 0, 1], field)
    with pytest.raises(EndTooLarge, match="root search over F_200003"):
        idempotent_split(struct, unit, field)


def test_find_idempotents_needs_no_sympy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from dglevels import QQ, DGAlgebraPresentation, DGModulePresentation, direct_sum, find_idempotents\n"
        "M = DGModulePresentation.free_rank_one(DGAlgebraPresentation.sphere_cohomology(4, QQ))\n"
        "assert len(find_idempotents(direct_sum([M, M]))) == 2\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# -- cone long exact sequence ----------------------------------------------------------


def induced_map_rank(f_map, M, N, n, window=None):
    """Rank of H^n(f) for a chain map between free modules."""
    window = window or DegreeWindow(-4, 16)
    from dglevels.field import coordinates

    mexp = M.expand(window)
    nexp = N.expand(window)
    mdims, mreps = cohomology(mexp.complex)
    ndims, nreps = cohomology(nexp.complex)
    if not mdims.get(n):
        return 0
    f = M.field
    images = []
    for v in mreps[n]:
        acc = {}
        for j, c in enumerate(v):
            if f.is_zero(c):
                continue
            g, mono = mexp.elements[n][j]
            for tgt_gen, poly in f_map.get(g, {}).items():
                prod = M.algebra.poly_mul(poly, M.algebra.mono_poly(mono))
                for tm, tc in prod.items():
                    key = (tgt_gen, tm)
                    if key in nexp.pos:
                        acc[key] = f.reduce(acc.get(key, f.zero()) + c * tc)
        v = [f.zero()] * len(nexp.elements.get(n, []))
        for key, c in acc.items():
            assert nexp.pos[key][0] == n
            v[nexp.pos[key][1]] = c
        images.append(tuple(v))
    # rank of the induced map = dim of span of images modulo coboundaries
    boundaries = []
    mat = differential(nexp.complex).get(n - 1)
    if mat is not None:
        for j in range(nexp.complex.dim(n - 1)):
            boundaries.append(tuple(mat[i][j] for i in range(nexp.complex.dim(n))))
    count = 0
    chosen = list(boundaries)
    for v in images:
        if coordinates(chosen, v, f) is None:
            count += 1
            chosen.append(v)
    return count


def test_cone_long_exact_sequence_dimension_count():
    # dim H^n(C_f) = dim coker(H^n f) + dim ker(H^{n+1} f) on random x-multiples
    rng = random.Random(7)
    d = 4
    A = sphere(d)
    for _ in range(6):
        c1 = Fraction(rng.randint(-2, 2))
        M = DGModulePresentation.free(A, [("u", d)])
        N = DGModulePresentation.free_rank_one(A)
        f_map = {"u": {"e": A.poly_scale(A.generator_poly("x4"), c1)}} if c1 else {}
        C = cone(f_map, M, N)
        cdims = C.cohomology_dims(DegreeWindow(-4, 16))
        for n in range(-2, 12):
            hm = M.cohomology_dims(DegreeWindow(-4, 16))
            hn = N.cohomology_dims(DegreeWindow(-4, 16))
            rk_n = induced_map_rank(f_map, M, N, n)
            rk_n1 = induced_map_rank(f_map, M, N, n + 1)
            coker = hn.get(n, 0) - rk_n
            ker = hm.get(n + 1, 0) - rk_n1
            assert cdims.get(n, 0) == coker + ker, (c1, n)


# -- raw modules ---------------------------------------------------------------------


def test_trivial_module_detection():
    A = sphere(4)
    K = DGModulePresentation.trivial(A)
    assert K.is_trivial()
    assert shift_degrees(K) == [0]
    two = DGModulePresentation.trivial(A, shifts=(0, 7))
    assert shift_degrees(two) == [0, 7]


def test_raw_action_axioms_checked():
    from dglevels.graded import CochainComplex, GradedVectorSpace

    A = sphere(4)
    space = GradedVectorSpace(QQ, {0: ["u"], 4: ["v"], 5: ["w"]})
    cx = CochainComplex(space, {4: [[Fraction(1)]]})
    # action of x4 sends u to v, but v is not a cocycle: Leibniz fails
    with pytest.raises(PresentationError):
        DGModulePresentation.raw(A, cx, {"x4": {0: [[Fraction(1)]]}})


def test_raw_action_missing_matrix_is_the_zero_action():
    from dglevels.graded import CochainComplex, GradedVectorSpace

    # u (0) → w (1) with d(u) = w and only w·x = z given: u·x = 0, so
    # d(u·x) = 0 while d(u)·x = z; the missing matrix at degree 0 is zero
    A = sphere(4)
    space = GradedVectorSpace(QQ, {0: ["u"], 1: ["w"], 5: ["z"]})
    cx = CochainComplex(space, {0: [[Fraction(1)]]})
    with pytest.raises(PresentationError, match="does not commute with d at degree 0"):
        DGModulePresentation.raw(A, cx, {"x4": {1: [[Fraction(1)]]}})
    # the action u·x = v, w·x = z is a chain map when d(v) = z as well
    space = GradedVectorSpace(QQ, {0: ["u"], 1: ["w"], 4: ["v"], 5: ["z"]})
    cx = CochainComplex(space, {0: [[Fraction(1)]], 4: [[Fraction(1)]]})
    DGModulePresentation.raw(A, cx, {"x4": {0: [[Fraction(1)]], 1: [[Fraction(1)]]}})


def test_raw_action_must_square_to_zero_on_an_exterior_generator():
    from dglevels.graded import CochainComplex, GradedVectorSpace

    A = sphere(2)
    space = GradedVectorSpace(QQ, {0: ["1"], 2: ["b"], 4: ["c"]})
    cx = CochainComplex(space, {})
    one = [[Fraction(1)]]
    # 1 ↦ b ↦ c makes x·x ≠ 0 in H*(S²)
    with pytest.raises(PresentationError, match="x2·x2 = 0"):
        DGModulePresentation.raw(A, cx, {"x2": {0: one, 2: one}})
    DGModulePresentation.raw(A, cx, {"x2": {0: one}})


@pytest.mark.parametrize("field", [QQ, GF3])
def test_raw_action_must_be_graded_commutative(field):
    from dglevels.graded import CochainComplex, GradedVectorSpace

    A = DGAlgebraPresentation(field, [Generator("x", 2, "exterior"), Generator("y", 2, "exterior")])
    space = GradedVectorSpace(field, {0: ["u"], 2: ["p", "q"], 4: ["t"]})
    cx = CochainComplex(space, {})
    one, minus = field.one(), field.from_int(-1)

    def actions(q_x, p_y):
        # u·x = p, u·y = q, q·x = q_x·t, p·y = p_y·t
        return {"x": {0: [[one], [0]], 2: [[0, q_x]]},
                "y": {0: [[0], [one]], 2: [[p_y, 0]]}}

    M = DGModulePresentation.raw(A, cx, actions(one, one))     # u·x·y = u·y·x
    assert not M.is_trivial()
    with pytest.raises(PresentationError, match="x·y = ±y·x"):
        DGModulePresentation.raw(A, cx, actions(one, minus))


def test_raw_scalars_are_checked_where_they_enter():
    from dglevels.graded import CochainComplex, GradedVectorSpace
    from dglevels.resolve import auto_strategy, phi

    # over F3 the entry 3 is 0: the module is K ⊕ Σ^{-4}K, trivial and infinite
    space = GradedVectorSpace(GF3, {0: ["a"], 4: ["b"]})
    M = DGModulePresentation.raw(sphere(4, GF3), CochainComplex(space, {}), {"x4": {0: [[3]]}})
    assert M.is_trivial() and auto_strategy(M) == KOSZUL
    verdict = phi(M, DegreeWindow(0, 30))
    assert (verdict.kind, verdict.period) == ("infinite", 6)
    # over Q a float is no scalar, in an action or in the differential
    space = GradedVectorSpace(QQ, {0: ["a"], 1: ["c"], 4: ["b"]})
    for d, action in (({}, [[0.5]]), ({0: [[0.5]]}, [[1]])):
        with pytest.raises(FieldMismatch) as info:
            DGModulePresentation.raw(sphere(4), CochainComplex(space, d), {"x4": {0: action}})
        assert info.value.code == "field-mismatch"


def float_inputs():
    """Builders that each hand a constructor a coefficient that is no scalar
    of its field: a float, or over F_3 a fraction."""
    from dglevels.rational import hopf_invariant
    from dglevels.spheres import SphereModule

    S4 = sphere(4)
    gens = [("a", 0), ("b", 3)]
    free = DGModulePresentation.free(S4, gens, {"b": {"a": {(1,): 1}}})
    return {
        "module differential": lambda: DGModulePresentation.free(
            S4, gens, {"b": {"a": {(1,): 0.5}}}),
        "algebra differential": lambda: DGAlgebraPresentation(
            QQ, [Generator("x", 4, "polynomial"), Generator("ξ", 7, "exterior")],
            {"ξ": {(2, 0): 0.5}}),
        "cone map": lambda: cone({"a": {"a": {(0,): 0.5}}}, free, free),
        "Hopf polynomial": lambda: hopf_invariant(even_sphere_model(4), {(1, 0): 0.5}),
        "sphere blocks": lambda: SphereModule(4, QQ, gens, phi={1: {0: 0.5}}),
        "sphere blocks over F3": lambda: SphereModule(4, GF3, gens, phi={1: {0: Fraction(1, 2)}}),
    }


@pytest.mark.parametrize("name", sorted(float_inputs()))
def test_scalars_are_checked_where_polynomials_and_blocks_enter(name):
    # a float used to be stored, written as "1/2" and make the Jordan engine
    # raise AttributeError; over F_p a fraction is no residue
    with pytest.raises(FieldMismatch, match="is not a") as info:
        float_inputs()[name]()
    assert info.value.code == "field-mismatch"


def raw_refusals():
    """(algebra, basis, actions, message) for each input ``_validate_raw`` refuses."""
    S4 = sphere(4)
    divided = DGAlgebraPresentation(QQ, [Generator("w", 2, "divided")])
    one = [[Fraction(1)]]
    uv = {0: ["u"], 4: ["v"]}
    return {
        "unknown generator": (S4, uv, {"y": {0: one}},
                              "action for unknown algebra generator 'y'"),
        "dA ≠ 0": (even_sphere_model(4), uv, {"x": {0: one}},
                   "raw modules with nontrivial action require a zero-differential algebra"),
        "divided powers": (divided, {0: ["u"], 2: ["v"]}, {"w": {0: one}},
                           "raw modules over divided-power algebras are unsupported"),
        "wrong shape": (S4, uv, {"x4": {0: [[Fraction(1), Fraction(0)]]}},
                        "action of x4 at degree 0 has wrong shape"),
    }


@pytest.mark.parametrize("case", sorted(raw_refusals()))
def test_raw_module_refusals_by_constructor_and_json(case):
    import re

    from dglevels.graded import CochainComplex, GradedVectorSpace, complex_to_json

    A, basis, actions, message = raw_refusals()[case]
    cx = CochainComplex(GradedVectorSpace(QQ, basis), {})
    with pytest.raises(PresentationError, match=f"^{re.escape(message)}$"):
        DGModulePresentation.raw(A, cx, actions)
    data = {"algebra": A.to_json(), "complex": complex_to_json(cx),
            "actions": {g: {str(n): [[QQ.scalar_to_json(x) for x in row] for row in mat]
                            for n, mat in mats.items()} for g, mats in actions.items()}}
    with pytest.raises(PresentationError, match=f"^{re.escape(message)}$"):
        DGModulePresentation.from_json(data)


def test_module_presentation_json_round_trip():
    M = molecule_like(4, 2)
    back = DGModulePresentation.from_json(M.to_json())
    assert back.generators == M.generators
    assert back.cohomology_dims() == M.cohomology_dims()

    A = sphere(4)
    raw = DGModulePresentation.trivial(A, shifts=(0, 7), labels=["1", "x7"])
    again = DGModulePresentation.from_json(raw.to_json())
    assert again.is_trivial()
    assert shift_degrees(again) == [0, 7]

    # an explicit zero action is the zero action: no map is stored or written
    from dglevels.graded import CochainComplex, GradedVectorSpace

    cx = CochainComplex(GradedVectorSpace(GF3, {0: ["a"], 4: ["b"]}), {})
    zero = DGModulePresentation.raw(sphere(4, GF3), cx, {"x4": {0: [[3]]}})
    assert zero.is_trivial() and zero.actions == {} and zero.to_json()["actions"] == {}
    # over F3 the entry 4 is the residue 1, stored and written so
    one = DGModulePresentation.raw(sphere(4, GF3), cx, {"x4": {0: [[4]]}})
    assert one.actions == {"x4": {0: [[(0, 1)]]}}
    assert one.to_json()["actions"] == {"x4": {"0": [[1]]}}
    assert DGModulePresentation.from_json(one.to_json()).actions == one.actions


def test_module_json_round_trips_odd_polynomial_generators_in_char_2():
    A = DGAlgebraPresentation.polynomial(GF2, [("y4", 4), ("y7", 7)],
                                         char2_polynomial_odd=True)
    data = DGModulePresentation.trivial(A).to_json()
    assert data["algebra"]["char2PolynomialOdd"] is True
    back = DGModulePresentation.from_json(data)
    assert back.algebra.char2_polynomial_odd and back.to_json() == data
    # an algebra that does not use the permission writes no such key
    even = DGAlgebraPresentation.polynomial(GF2, [("y4", 4)], char2_polynomial_odd=True)
    assert "char2PolynomialOdd" not in even.to_json()
    assert even.to_json() == DGAlgebraPresentation.polynomial(GF2, [("y4", 4)]).to_json()


def test_module_json_keeps_the_truncation_degree():
    from dglevels.resolve import koszul_resolution_sphere

    M = koszul_resolution_sphere(4, QQ, cap=18).module
    data = M.to_json()
    assert data["truncationDegree"] == 19
    back = DGModulePresentation.from_json(data)
    assert back.truncation_degree == 19 and back.to_json() == data
    # untruncated payloads carry no such key
    assert "truncationDegree" not in molecule_like(4, 2).to_json()


def test_complex_json_round_trip():
    from dglevels.graded import complex_from_json, complex_to_json, cohomology

    M = molecule_like(4, 1)
    cx = M.expand(M.default_window()).complex
    back = complex_from_json(complex_to_json(cx))
    assert cohomology(back)[0] == cohomology(cx)[0]
