"""Molecule catalog, quiver, decomposition, levels, bundle pipelines."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from dglevels import resolve, spheres
from dglevels.algebra import DGAlgebraPresentation
from dglevels.errors import (
    BudgetExceeded,
    FormalizabilityNotDeclared,
    InvalidFiltration,
    NoValidMatching,
    NotCompactlyDecomposable,
    OddGenerator,
    PresentationError,
    VerificationFailed,
)
from dglevels.field import QQ, GF2, GF3, GF5, row_reduce
from dglevels.graded import CochainComplex, DegreeWindow, GradedVectorSpace, cohomology
from dglevels.module import (DGModulePresentation, SphereModule, cone, direct_sum, hom_complex,
                             shift)
from dglevels.resolve import (
    _resolve,
    derived_tensor,
    filtration_class,
    generator_depth_filtration,
    koszul_resolution_poly,
    koszul_resolution_sphere,
    phi,
    residue_module,
    tensor_reach,
)
from dglevels.spheres import (
    MATCHING_BUDGET,
    QUIVER_VERTEX_BUDGET,
    Decomposition,
    MoleculeId,
    _checked_tor,
    all_matchings,
    bundle_level,
    component_index,
    decompose,
    decompose_module,
    free_pullback_level,
    molecule_cohomology,
    molecule_level,
    molecule_model,
    quiver_component,
    realizable,
    sphere_level,
)
from helpers import rank, raw_expansion

GRID = [(d, l, m) for d in range(2, 7) for l in range(0, 11) for m in range(0, 6)]


# -- catalog -----------------------------------------------------------------


def test_molecule_cohomology_examples():
    assert molecule_cohomology(MoleculeId(4, 3, 1)) == {0: 1, 7: 1}
    assert molecule_cohomology(MoleculeId(5, 0, 0)) == {0: 1, 5: 1}
    assert molecule_cohomology(MoleculeId(4, 8, 1)) == {5: 1, 12: 1}


def test_molecule_level_examples():
    assert molecule_level(MoleculeId(4, 0, 0)) == 1
    assert molecule_level(MoleculeId(4, 3, 1)) == 2
    assert molecule_level(MoleculeId(4, 0, 4)) == 5


def test_molecule_names():
    # Σ^{-l}Z_m names the shift -l once, with its own sign
    assert str(MoleculeId(4, 0, 2)) == "Z_2"
    assert str(MoleculeId(4, 3, 1)) == "Σ^{-3}Z_1"
    assert str(MoleculeId(4, -1, 2)) == "Σ^{1}Z_2"
    assert MoleculeId(4, -5, 0).to_json()["name"] == "Σ^{5}Z_0"


def test_catalog_formula_on_grid():
    for d, l, m in GRID:
        mol = MoleculeId(d, l, m)
        dims = molecule_cohomology(mol)
        assert dims == {-m * (d - 1) + l: 1, d + l: 1}
        assert molecule_level(mol) == m + 1
        assert max(dims) - min(dims) == (m + 1) * d - m


def test_component_index_examples():
    assert component_index(MoleculeId(4, 8, 1)) == 2
    assert component_index(MoleculeId(4, 10, 1)) == 1
    assert component_index(MoleculeId(4, 0, 3)) == 0
    assert component_index(MoleculeId(4, 9, 1)) == 0


# -- quiver -------------------------------------------------------------------


def test_quiver_contains_the_first_arrow():
    qc = quiver_component(4, 0, rows=2, cols=3)
    assert (MoleculeId(4, 0, 0), MoleculeId(4, 3, 1)) in qc.arrows


def test_quiver_component_count():
    d = 4
    comps = [quiver_component(d, c, 2, 2) for c in range(d - 1)]
    assert len(comps) == d - 1


def test_quiver_arrows_stay_in_component():
    qc = quiver_component(5, 2, rows=3, cols=4)
    for src, tgt in qc.arrows:
        assert component_index(src) == component_index(tgt) == 2


def _h0_reps(src, tgt, field):
    """The Hom complex between two molecule models and its H⁰ cocycles."""
    hom = hom_complex(molecule_model(src, field), molecule_model(tgt, field),
                      DegreeWindow(-1, 1))
    return hom, cohomology(hom.complex, DegreeWindow(0, 0))[1].get(0, [])


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_every_quiver_arrow_carries_a_map(d, field):
    # the down arrow Σ^{-l}Z_m → Σ^{-l}Z_{m-1} stays in its column: there is
    # no nonzero H⁰ map Σ^{-l}Z_1 → Σ^{-l-(d-1)}Z_0 one column to the right
    for c in range(d - 1):
        arrows = quiver_component(d, c, 4, 4).arrows
        assert [a for a in arrows if not _h0_reps(*a, field)[1]] == []
        assert len(arrows) == 21


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_quiver_meshes_close(d, field):
    # Z_m → Σ^{-(d-1)}Z_{m+1} ⊕ Z_{m-1}, both H⁰ coefficients 1, has the
    # translate Σ^{-(d-1)}Z_m as its cone: one molecule, no split
    for m in (1, 2, 3):
        src = MoleculeId(d, 0, m)
        middle = [MoleculeId(d, d - 1, m + 1), MoleculeId(d, 0, m - 1)]
        f_map = {}
        for i, tgt in enumerate(middle):
            hom, reps = _h0_reps(src, tgt, field)
            assert len(reps) == 1
            for (g, (h, mono)), c in zip(hom.basis[0], reps[0]):
                if c:
                    f_map.setdefault(g, {}).setdefault(f"{i}·{h}", {})[tuple(mono)] = c
        C = cone(f_map, molecule_model(src, field),
                 direct_sum([molecule_model(t, field) for t in middle]))
        assert decompose_module(C, d).molecules == (MoleculeId(d, d - 1, m),)


def test_quiver_grid_stops_at_its_budget():
    assert QUIVER_VERTEX_BUDGET == 10_000
    assert len(quiver_component(4, 0, 100, 100).vertices) == 100
    for rows, cols in ((100, 101), (1, 10_001), (10**9, 10**9)):
        with pytest.raises(BudgetExceeded, match=f"a {rows} × {cols} quiver grid has "
                                                 f"{rows * cols} vertices, more than 10000"):
            quiver_component(4, 0, rows, cols)


def test_quiver_dot_output_shape():
    dot = quiver_component(4, 0, 2, 2).to_dot(QQ)
    assert dot.startswith("digraph")
    assert "[level 1]" in dot and "realizable" in dot


# -- realizability -----------------------------------------------------------------


def test_realizable_examples():
    assert realizable(MoleculeId(4, 3, 1), QQ).kind == "yes"
    assert realizable(MoleculeId(3, 2, 1), QQ).kind == "no"
    assert realizable(MoleculeId(4, 6, 2), QQ).kind == "no"
    assert realizable(MoleculeId(4, 3, 1), GF2).kind == "char2"


def test_realizable_grid_is_exactly_the_two_families():
    for d in range(2, 9):
        for m in range(0, 5):
            for l in range(0, 3 * (d - 1) + 2):
                verdict = realizable(MoleculeId(d, l, m), QQ)
                expected = (l == 0 and m == 0) or (l == d - 1 and m == 1 and d % 2 == 0)
                assert (verdict.kind == "yes") == expected, (d, l, m)


def test_realizable_candidates_have_degree_zero_class():
    for d, l, m in GRID:
        v = realizable(MoleculeId(d, l, m), QQ)
        if v.kind == "yes":
            assert l == m * (d - 1)
            assert min(molecule_cohomology(MoleculeId(d, l, m))) == 0


# -- decomposition -----------------------------------------------------------------


def test_decompose_g2_pattern():
    dec = decompose({0: 1, 5: 1, 6: 1, 7: 1, 12: 1, 13: 1}, 4)
    assert not dec.ambiguous
    assert [str(m) for m in dec.molecules] == ["Σ^{-3}Z_1", "Σ^{-8}Z_1", "Σ^{-9}Z_1"]


def test_decompose_d7_unique():
    dec = decompose({0: 1, 3: 1, 7: 1, 10: 1}, 7)
    assert not dec.ambiguous
    assert [str(m) for m in dec.molecules] == ["Z_0", "Σ^{-3}Z_0"]


def test_decompose_ambiguous_d4():
    dec = decompose({0: 1, 3: 1, 7: 1, 10: 1}, 4)
    assert dec.ambiguous
    assert [str(m) for m in dec.molecules] == ["Σ^{-3}Z_1", "Σ^{-6}Z_1"]
    assert [[str(m) for m in alt] for alt in dec.alternatives] == [["Σ^{-3}Z_0", "Σ^{-6}Z_2"]]


def test_decompose_rejects_non_molecule_input():
    with pytest.raises(Exception) as e:
        decompose({0: 1, 1: 1}, 4)
    assert "molecule" in str(e.value)


def test_decompose_round_trip_random_multisets():
    rng = random.Random(11)
    for _ in range(25):
        d = rng.choice([3, 4, 5])
        mols = [MoleculeId(d, rng.randint(0, 8), rng.randint(0, 3))
                for _ in range(rng.randint(1, 4))]
        dims = {}
        for mol in mols:
            for n, v in molecule_cohomology(mol).items():
                dims[n] = dims.get(n, 0) + v
        dec = decompose(dims, d)
        target = tuple(sorted(mols, key=lambda mol: (mol.m, mol.l)))
        assert target in [dec.molecules] + list(dec.alternatives)



def reference_decompose(dims, d):
    """Decomposition as first written: every matching from a search over
    degree lists, one MoleculeId per pair per matching, deduplicated and
    scored on the molecule tuples."""
    dims = {n: v for n, v in dims.items() if v}
    if sum(dims.values()) % 2:
        raise NoValidMatching("odd total dimension cannot split into molecules")
    degrees = [n for n in sorted(dims) for _ in range(dims[n])]
    matchings = []

    def search(remaining, acc):
        if not remaining:
            matchings.append(tuple(acc))
            return
        a = remaining[0]
        tried = set()
        for i in range(1, len(remaining)):
            b = remaining[i]
            if b in tried:
                continue
            tried.add(b)
            if b - a >= d and (b - a - d) % (d - 1) == 0:
                search(remaining[1:i] + remaining[i + 1:], acc + [(a, b)])

    search(degrees, [])
    if not matchings:
        raise NoValidMatching("no matching")
    scored = []
    seen = set()
    for match in matchings:
        molecules = tuple(sorted((MoleculeId(d, b - d, (b - a - d) // (d - 1))
                                  for a, b in match), key=lambda mol: (mol.m, mol.l)))
        if molecules in seen:
            continue
        seen.add(molecules)
        score = (max((mol.m for mol in molecules), default=-1),
                 tuple((mol.m, mol.l) for mol in molecules))
        scored.append((score, molecules, match))
    scored.sort(key=lambda t: t[0])
    default = scored[0]
    return Decomposition(default[1], default[2], len(scored) > 1,
                         tuple(mols for _, mols, _ in scored[1:]))


def assert_same_decomposition(dims, d):
    want = reference_decompose(dims, d)
    got = decompose(dims, d)
    assert got.molecules == want.molecules
    assert got.matching == want.matching
    assert got.ambiguous == want.ambiguous
    assert got.alternatives == want.alternatives


@settings(deadline=None)
@given(st.integers(2, 6), st.lists(st.tuples(st.integers(0, 10), st.integers(0, 3)),
                                   min_size=1, max_size=5))
def test_decompose_matches_reference_on_random_tables(d, pairs):
    dims = {}
    for l, m in pairs:
        for n, v in molecule_cohomology(MoleculeId(d, l, m)).items():
            dims[n] = dims.get(n, 0) + v
    assert_same_decomposition(dims, d)


def test_decompose_matches_reference_on_tower_5_3_table():
    # the 16-class cohomology of build_P_tower(5, 3): 40,320 matchings, all
    # giving distinct molecule multisets
    dims = dict.fromkeys([0, 3, 31, 42, 64, 68, 75, 79, 99, 103, 110, 114,
                          136, 147, 175, 178], 1)
    assert_same_decomposition(dims, 3)


def test_all_matchings_stops_at_its_budget():
    # sixteen distinct even degrees over S^2: every pair is a molecule, so
    # the table has 15!! = 2,027,025 matchings
    dims = dict.fromkeys(range(0, 32, 2), 1)
    with pytest.raises(BudgetExceeded, match=f"more than {MATCHING_BUDGET} matchings"):
        all_matchings(dims, 2, tuple)
    with pytest.raises(BudgetExceeded) as e:
        decompose(dims, 2)
    assert e.value.code == "budget-exceeded"
    # the 40,320 matchings of the tower[5, 3] table stay inside the budget
    tower_5_3 = dict.fromkeys([0, 3, 31, 42, 64, 68, 75, 79, 99, 103, 110, 114,
                               136, 147, 175, 178], 1)
    assert len(all_matchings(tower_5_3, 3, tuple)) == 40320 < MATCHING_BUDGET


def recursive_matchings(dims, d):
    """The recursive listing `all_matchings` replaced, kept as its reference:
    the lowest class left pairs with each distinct valid partner in turn."""
    degrees = []
    for n in sorted(dims):
        degrees.extend([n] * dims[n])
    out = []

    def search(remaining, acc):
        if not remaining:
            if len(out) == MATCHING_BUDGET:
                raise BudgetExceeded("over budget")
            out.append(acc)
            return
        a, prev = remaining[0], None
        for i in range(1, len(remaining)):
            b = remaining[i]
            if b != prev and b - a >= d and (b - a - d) % (d - 1) == 0:
                search(remaining[1:i] + remaining[i + 1:], acc + ((a, b),))
            prev = b

    search(degrees, ())
    return out


def matchings_or_budget(search, dims, d):
    try:
        return search(dims, d)
    except BudgetExceeded:
        return "budget-exceeded"


@settings(deadline=None, max_examples=300)
@given(st.integers(2, 6), st.dictionaries(st.integers(-6, 24), st.integers(0, 3), max_size=5))
def test_all_matchings_lists_what_the_recursive_search_lists(d, dims):
    # keyed by the matching itself it keeps every one: the same matchings in
    # the same order, hence the same default and the same order of
    # alternatives in every decompose payload
    keyed = matchings_or_budget(lambda t, d: all_matchings(t, d, tuple), dims, d)
    listed = matchings_or_budget(recursive_matchings, dims, d)
    assert keyed == listed if listed == "budget-exceeded" else \
        list(keyed) == list(keyed.values()) == listed


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 6), st.dictionaries(st.integers(-6, 24), st.integers(0, 4), max_size=5))
def test_keyed_matchings_are_the_first_of_each_key_in_listing_order(d, dims):
    # the budget still counts every matching, the ones the key drops included
    def multiset(pairs):
        return tuple(sorted(pairs))

    listed = matchings_or_budget(recursive_matchings, dims, d)
    keyed = matchings_or_budget(lambda t, d: all_matchings(t, d, multiset), dims, d)
    if listed == "budget-exceeded":
        assert keyed == listed
    else:
        first = {}
        for match in listed:
            first.setdefault(multiset(match), match)
        assert list(keyed.items()) == list(first.items())


def test_a_table_with_no_matching_is_refused_without_walking_its_partial_ones():
    # 32 classes in degree 0 and only 30 partners: the count vectors left
    # that complete to nothing are remembered, so the search is polynomial
    # (at exponential cost it had not ended after 30 s)
    start = time.perf_counter()
    assert all_matchings({0: 32, 4: 15, 7: 15}, 4, tuple) == {}
    assert time.perf_counter() - start < 1


def test_a_table_of_thousands_of_pairs_is_matched():
    # one pair per molecule: more pairs than Python's recursion limit allows
    # frames, and the one matching is 1,200 copies of Σ^{-3}Z_1
    dec = decompose({0: 1200, 7: 1200}, 4)
    assert dec.molecules == (MoleculeId(4, 3, 1),) * 1200
    assert dec.matching == ((0, 7),) * 1200 and not dec.ambiguous
    assert dec.level_result().to_json() == {"kind": "exact", "level": 2}
    assert sphere_level({0: 5000, 7: 5000}, 4).value == 2
    with pytest.raises(NoValidMatching):
        decompose({0: 3000, 7: 2000}, 4)


def test_decompose_rejects_sphere_dimension_one():
    with pytest.raises(PresentationError, match="sphere dimension must exceed 1"):
        decompose({0: 1, 1: 1}, 1)

# -- decomposition of modules by Jordan strings -----------------------------------


def planted_module(field, d, strings, pairs, rng):
    """A free module over H*(S^d) that is the sum of the molecule models
    Σ^{-l}Z_m for (l, m) in ``strings`` and of acyclic pairs u' → u with u in
    the degrees ``pairs``, presented in a random basis of each degree."""
    A = DGAlgebraPresentation.sphere_cohomology(d, field)
    gens, scalar, by_x = [], {}, {}      # D(g) = Σ h·(scalar + by_x·x)
    for i, (l, m) in enumerate(strings):
        for j in range(m + 1):
            gens.append((f"s{i}e{j}", l - (m - j) * (d - 1)))
            if j:
                by_x[f"s{i}e{j}"] = {f"s{i}e{j - 1}": field.one()}
    for i, n in enumerate(pairs):
        gens += [(f"p{i}u", n), (f"p{i}v", n - 1)]
        scalar[f"p{i}v"] = {f"p{i}u": field.one()}
    degree = dict(gens)
    old = {}
    for g, n in gens:
        old.setdefault(n, []).append(g)
    # new basis f_i = Σ_j P_ij g_j per degree, and Q = P^{-1} to rewrite
    # g_j = Σ_i Q_ji f_i
    P, Q = {}, {}
    for n, labels in old.items():
        k = len(labels)
        while True:
            mat = [[field.from_int(rng.randint(-2, 2)) for _ in range(k)] for _ in range(k)]
            if rank(mat, field) == k:
                break
        unit = [[field.one() if i == j else field.zero() for j in range(k)] for i in range(k)]
        rref, _ = row_reduce([row + u for row, u in zip(mat, unit)], field)
        P[n], Q[n] = mat, [row[k:] for row in rref]

    def new_label(n, i):
        return f"f{n}_{i}"

    diff = {}
    for n, labels in old.items():
        for i in range(len(labels)):
            terms = {}
            for part, mono in ((scalar, (0,)), (by_x, (1,))):
                for j, g in enumerate(labels):
                    for h, c in part.get(g, {}).items():
                        tn = degree[h]
                        t = old[tn].index(h)
                        for s, q in enumerate(Q[tn][t]):
                            coeff = field.reduce(P[n][i][j] * c * q)
                            poly = terms.setdefault(new_label(tn, s), {})
                            poly[mono] = field.reduce(poly.get(mono, field.zero()) + coeff)
            if terms:
                diff[new_label(n, i)] = terms
    new_gens = [(new_label(n, i), n) for n, labels in old.items() for i in range(len(labels))]
    return DGModulePresentation.free(A, new_gens, diff)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from([QQ, GF2, GF3, GF5]), st.integers(2, 5),
       st.lists(st.tuples(st.integers(-4, 8), st.integers(0, 3)), max_size=4),
       st.lists(st.integers(-4, 8), max_size=3), st.integers(0, 2**32 - 1))
def test_decompose_module_recovers_planted_strings(field, d, strings, pairs, seed):
    # the basis change comes from a seeded generator: drawing its entries one
    # by one from hypothesis can overrun the example buffer over F2, where
    # most random matrices are singular
    M = planted_module(field, d, strings, pairs, random.Random(seed))
    dec = decompose_module(M, d)
    planted = tuple(sorted((MoleculeId(d, l, m) for l, m in strings),
                           key=lambda mol: (mol.m, mol.l)))
    assert dec.molecules == planted
    assert not dec.ambiguous and dec.alternatives == ()
    assert dec.matching == tuple(tuple(sorted(molecule_cohomology(mol))) for mol in planted)
    dims = {}
    for mol in planted:
        for n, v in molecule_cohomology(mol).items():
            dims[n] = dims.get(n, 0) + v
    assert M.cohomology_dims() == dims
    try:
        assert dec.level() <= filtration_class(generator_depth_filtration(M)) + 1
    except InvalidFiltration:
        pass        # a random basis can make D(g) reach back to g: no depth filtration
    if dims:
        by_matching = decompose(dims, d)
        candidates = [by_matching.molecules, *by_matching.alternatives]
        assert dec.molecules in candidates
        levels = [max(mol.m for mol in c) + 1 for c in candidates]
        assert min(levels) <= dec.level() <= max(levels)


def test_decompose_module_of_the_c2_bundles():
    # the Koszul tensor module of bundle_level([4, 6, 7]) over F2, in a form
    # small enough to read: four Z_1 strings a_3 → 1, a_3a_5 → a_5, ...
    lvl, dec, _ = bundle_level([4, 6, 7], True, GF2, formalizable_declared=True)
    assert lvl == 2 and not dec.ambiguous
    assert dec.matching == ((0, 7), (5, 12), (6, 13), (11, 18))


def test_decompose_module_guards():
    A = DGAlgebraPresentation.sphere_cohomology(4, QQ)
    M = molecule_model(MoleculeId(4, 3, 1), verify=False)
    with pytest.raises(PresentationError, match="does not live over"):
        decompose_module(M, 5)
    with pytest.raises(PresentationError, match="sphere dimension"):
        decompose_module(M, 1)
    raw = DGModulePresentation.trivial(A, shifts=(0, 4))
    with pytest.raises(PresentationError, match="untruncated free module"):
        decompose_module(raw, 4)
    truncated = DGModulePresentation.free(A, [("a", 0)], truncation_degree=10)
    with pytest.raises(PresentationError, match="untruncated free module"):
        decompose_module(truncated, 4)
    assert decompose_module(DGModulePresentation.free(A, []), 4).molecules == ()


# -- molecule models --------------------------------------------------------------


def test_molecule_model_examples():
    mm = molecule_model(MoleculeId(4, 3, 1))
    assert mm.generators == (("e0", 0), ("e1", 3))
    assert mm.cohomology_dims() == {0: 1, 7: 1}

    alg_like = molecule_model(MoleculeId(5, 0, 0))
    assert alg_like.generators == (("e0", 0),)

    big = molecule_model(MoleculeId(4, 6, 2))
    assert len(big.generators) == 3
    assert big.cohomology_dims() == {0: 1, 10: 1}


def test_molecule_model_grid_verifies():
    for d, l, m in GRID:
        mol = MoleculeId(d, l, m)
        module = molecule_model(mol, QQ, verify=False)
        assert module.cohomology_dims() == molecule_cohomology(mol), (d, l, m)
        filt = generator_depth_filtration(module)
        assert filtration_class(filt) == m
        assert filtration_class(filt) + 1 == molecule_level(mol)


def test_molecule_model_indecomposable_sample():
    # full idempotent verification on a sample of the grid (the whole grid
    # runs in the acceptance suite)
    for d, l, m in [(2, 5, 3), (3, 4, 2), (4, 3, 1), (5, 0, 0), (6, 10, 5)]:
        molecule_model(MoleculeId(d, l, m), QQ, verify=True)


# -- sphere_level -------------------------------------------------------------------


def test_sphere_level_of_pullback_data_d7():
    res = sphere_level({0: 1, 3: 1, 7: 1, 10: 1}, 7)
    assert res.kind == "exact" and res.value == 1


def test_sphere_level_of_g2_bundle_data():
    res = sphere_level({0: 1, 5: 1, 6: 1, 7: 1, 11: 1, 12: 1, 13: 1, 18: 1}, 4)
    assert res.kind == "exact" and res.value == 2


def test_sphere_level_infinite_from_tor():
    A4 = DGAlgebraPresentation.sphere_cohomology(4, QQ)
    hs7 = DGModulePresentation.trivial(A4, shifts=(0, 7))
    tor = derived_tensor(hs7, hs7, strategy="koszul", window=DegreeWindow(0, 40))
    res = sphere_level(tor, 7)
    assert res.kind == "infinite"
    assert res.certificate.period == 6


def test_sphere_level_of_a_finite_tor_matches_its_dims():
    # Tor(A, N) = N is bounded, so the verdict is finite and the dims match
    A4 = DGAlgebraPresentation.sphere_cohomology(4, QQ)
    hs7 = DGModulePresentation.trivial(A4, shifts=(0, 7))
    tor = derived_tensor(DGModulePresentation.free_rank_one(A4), hs7, strategy="koszul",
                         window=DegreeWindow(0, 12))
    assert tor.verdict().is_finite
    res = sphere_level(tor, 4)
    assert res.kind == "exact" and res.value == 2
    assert res.decomposition.molecules == (MoleculeId(4, 3, 1),)


def test_sphere_level_of_a_tor_with_unknown_verdict_refuses():
    # the bar resolution is truncated and has no period: no verdict
    A4 = DGAlgebraPresentation.sphere_cohomology(4, QQ)
    K = DGModulePresentation.trivial(A4)
    tor = derived_tensor(K, K, strategy="bar", window=DegreeWindow(0, 12))
    assert tor.verdict().kind == "unknown"
    with pytest.raises(NotCompactlyDecomposable, match="could not be certified") as e:
        sphere_level(tor, 4)
    assert e.value.code == "not-compactly-decomposable"


def test_phi_resolves_only_what_can_certify(monkeypatch):
    # a truncated free module, and a raw module with no Koszul resolution, have
    # no resolution whose Tor could be finite or periodic: phi answers unknown
    # with nothing built.  sphere_level reads a raw module through its own
    # Koszul resolution, with no phi and no matching, and answers exactly
    def refuse(*args, **kwargs):
        raise AssertionError("phi built a resolution it cannot read")

    def no_matching(*args, **kwargs):
        raise AssertionError("a module's cohomology was matched")

    monkeypatch.setattr(resolve, "_bar", refuse)
    monkeypatch.setattr(resolve, "derived_tensor", refuse)
    assert not hasattr(spheres, "phi")
    truncated = koszul_resolution_sphere(4, QQ, cap=18).module
    assert resolve.auto_strategy(truncated) is None and \
        phi(truncated, DegreeWindow(0, 30)).kind == "unknown"
    with pytest.raises(NotCompactlyDecomposable, match="truncated at degree 19 and phi"):
        sphere_level(truncated, 4)
    for field in (QQ, GF2, GF3):
        for mols, level in (([(4, 3, 1), (4, 6, 1)], 2),
                            ([(4, 3, 2), (4, 6, 3), (4, 10, 1)], 4),
                            ([(3, 0, 4), (3, 5, 3)], 5)):
            raw = raw_expansion(direct_sum([molecule_model(MoleculeId(*m), field)
                                            for m in mols]))
            assert resolve.auto_strategy(raw) is None and \
                phi(raw, DegreeWindow(0, 30)).kind == "unknown"
            with monkeypatch.context() as m:
                m.setattr(spheres, "all_matchings", no_matching)
                res = sphere_level(raw, mols[0][0])
            assert (res.kind, res.value) == ("exact", level)
            assert sorted(res.decomposition.molecules, key=lambda mol: mol.l) == \
                [MoleculeId(*mol) for mol in mols]


@pytest.mark.parametrize("d", range(2, 13))
def test_k_has_infinite_level_over_every_sphere(d):
    # K is one tower of its Koszul resolution: three terms of the period from
    # its bottom, the lowest shift
    period = 2 * (d - 1) if d % 2 == 0 else d - 1
    res = sphere_level(DGModulePresentation.trivial(DGAlgebraPresentation.sphere_cohomology(d, QQ)), d)
    assert res.kind == "infinite"
    assert (res.certificate.period, res.certificate.witnesses[:3]) == (period, (0, period, 2 * period))


def test_a_raw_module_resolution_has_a_generator_budget():
    # K ⊕ Σ^{-s}K over H*(S^2) is cut at layer s - 1: 2s generators
    A = DGAlgebraPresentation.sphere_cohomology(2, QQ)
    res = sphere_level(DGModulePresentation.trivial(A, shifts=(0, 5000)), 2)
    assert res.kind == "infinite" and res.certificate.witnesses == (0, 2, 4)
    start = time.perf_counter()
    for top in (5001, 10**12):
        with pytest.raises(BudgetExceeded, match=f"more than {resolve.KOSZUL_GENERATOR_BUDGET}$"):
            sphere_level(DGModulePresentation.trivial(A, shifts=(0, top)), 2)
    assert time.perf_counter() - start < 1.0


def test_negative_multiplicities_are_refused():
    for dims in ({0: -1, 7: -1}, {0: 1, 7: -1}):
        with pytest.raises(PresentationError, match="negative multiplicity at degree") as info:
            sphere_level(dims, 4)
        assert info.value.code == "invalid-presentation"


def raw_k():
    """K over H*(S^4) as a raw module."""
    return DGModulePresentation.trivial(DGAlgebraPresentation.sphere_cohomology(4, QQ))


@pytest.mark.parametrize("call", [
    lambda: sphere_level({0.5: 1, 7.5: 1}, 4), lambda: sphere_level({0: True, 7: True}, 4),
    lambda: sphere_level({0: 1, 7: 1}, 4.0), lambda: decompose({0: 1.5, 7: 1.5}, 4),
    lambda: decompose({0: 1, 7: 1}, 4.0), lambda: MoleculeId(4, 0, True),
    lambda: MoleculeId(4.0, 0, 1), lambda: MoleculeId(4, 0.5, 1),
    lambda: quiver_component(4, 0, 2.5, 3), lambda: quiver_component(4, True, 2, 3),
    lambda: decompose_module(molecule_model(MoleculeId(4, 3, 1)), 4.0),
    lambda: sphere_level(raw_k(), 4.0)],
    ids=["level-float-degrees", "level-bool-multiplicities", "level-float-d",
         "decompose-float-multiplicities", "decompose-float-d", "molecule-bool-m",
         "molecule-float-d", "molecule-float-l", "quiver-float-rows", "quiver-bool-component",
         "decompose-module-float-d", "level-raw-float-d"])
def test_an_integer_input_that_is_no_int_is_refused(call):
    # a float read as level 2.0, True as 1, and 2.5 rows stopped with a TypeError
    with pytest.raises(PresentationError) as info:
        call()
    assert info.value.code == "invalid-presentation"


def test_sphere_level_interval_on_ambiguous_dims():
    res = sphere_level({0: 1, 3: 1, 7: 1, 10: 1}, 4)
    assert res.kind == "interval" and (res.lo, res.hi) == (2, 3)
    # the raw complex of Σ^{-3}Z_1 ⊕ Σ^{-6}Z_1, where phi is unknown, has the
    # same cohomology, and its Koszul resolution picks the molecules: level 2
    A = DGAlgebraPresentation.sphere_cohomology(4, QQ)
    raw = raw_expansion(direct_sum([molecule_model(MoleculeId(4, 3, 1)),
                                    molecule_model(MoleculeId(4, 6, 1))]))
    assert raw.cohomology_dims() == {0: 1, 3: 1, 7: 1, 10: 1}
    assert phi(raw, DegreeWindow(0, 30)).kind == "unknown"
    res = sphere_level(raw, 4)
    assert res.kind == "exact" and res.value == 2
    # four shifts of K with zero action: each is a tower of the resolution,
    # so the level is ∞ although the same dimensions match into molecules
    res = sphere_level(DGModulePresentation.trivial(A, shifts=(0, 3, 7, 10)), 4)
    assert res.kind == "infinite" and res.certificate.period == 6
    # the same cohomology over H*(S^7) is not a module over H*(S^4)
    S7 = DGAlgebraPresentation.sphere_cohomology(7, QQ)
    with pytest.raises(PresentationError, match="does not live over"):
        sphere_level(DGModulePresentation.trivial(S7, shifts=(0, 3, 7, 10)), 4)


def test_sphere_level_of_raw_modules_puts_a_koszul_tower_first():
    # H*(S^4) with zero x-action: its cohomology matches Z_0, but each shift
    # of K is a tower of its Koszul resolution, and a tower makes the level
    # infinite
    A = DGAlgebraPresentation.sphere_cohomology(4, QQ)
    res = sphere_level(DGModulePresentation.trivial(A, shifts=(0, 4)), 4)
    assert res.kind == "infinite" and res.certificate.period == 6
    # with the action x·1 = x4 it is A itself: Z_0, level 1
    res = sphere_level(raw_expansion(DGModulePresentation.free_rank_one(A)), 4)
    assert res.kind == "exact" and res.value == 1
    assert [str(m) for m in res.decomposition.molecules] == ["Z_0"]


def s7_over_s4():
    A = DGAlgebraPresentation.sphere_cohomology(4, QQ)
    return DGModulePresentation.trivial(A, shifts=(0, 7), labels=["1", "x7"])


def resolution_of_s7(strategy):
    M = s7_over_s4()
    reach = tensor_reach(DegreeWindow(0, 30), M, residue_module(M.algebra), strategy)
    return _resolve(M, strategy, reach)


TRUNCATED = {
    "bar of s7": lambda: resolution_of_s7("bar").module,
    "koszul of s7": lambda: resolution_of_s7("koszul").module,
    "koszul of k": lambda: koszul_resolution_sphere(4, QQ).module,
}


@pytest.mark.parametrize("name", sorted(TRUNCATED))
def test_sphere_level_refuses_the_partial_cohomology_of_a_truncated_module(name):
    # each resolves a module of level ∞, but phi sees only a free module with
    # no period; matching its partial cohomology gave level 2 for s7
    M = TRUNCATED[name]()
    assert M.truncation_degree is not None
    with pytest.raises(NotCompactlyDecomposable,
                       match=f"truncated at degree {M.truncation_degree}"):
        sphere_level(M, 4)
    assert sphere_level(s7_over_s4(), 4).kind == "infinite"


def test_sphere_level_module_bound_disambiguates():
    # the module Z_0 ⊕ Σ^{-3}Z_0 ⊕ ... with zero differential has class 0
    A = DGAlgebraPresentation.sphere_cohomology(4, QQ)
    M = DGModulePresentation.free(A, [("a", 0), ("b", 3)])
    res = sphere_level(M, 4)
    assert res.kind == "exact" and res.value == 1


def test_sphere_level_direct_sum_is_max():
    A = DGAlgebraPresentation.sphere_cohomology(4, QQ)
    M0 = molecule_model(MoleculeId(4, 0, 0), verify=False)
    M1 = molecule_model(MoleculeId(4, 3, 1), verify=False)
    s = direct_sum([M0, M1])
    res = sphere_level(s, 4)
    assert res.kind == "exact"
    assert res.value == max(molecule_level(MoleculeId(4, 0, 0)),
                            molecule_level(MoleculeId(4, 3, 1)))


def test_sphere_level_shift_invariance():
    M = molecule_model(MoleculeId(4, 6, 2), verify=False)
    base = sphere_level(M, 4)
    for k in (-3, 2):
        res = sphere_level(shift(M, k), 4)
        assert res.kind == base.kind == "exact"
        assert res.value == base.value


def test_sphere_level_rejects_odd_total():
    with pytest.raises(NotCompactlyDecomposable):
        sphere_level({0: 1, 4: 1, 8: 1}, 4)


# -- bundle pipelines ------------------------------------------------------------------


def test_bundle_level_g2():
    lvl, dec, dims = bundle_level([4, 6, 7], True, GF2, formalizable_declared=True)
    assert lvl == 2
    names = [str(m) for m in dec.molecules]
    assert {"Σ^{-3}Z_1", "Σ^{-8}Z_1", "Σ^{-9}Z_1"} <= set(names)
    assert dims[0] == 1 and dims[7] == 1 and dims[5] == 1


def test_bundle_level_su4():
    lvl, dec, _ = bundle_level([4, 6, 8], True, GF2)
    assert lvl == 2
    names = [str(m) for m in dec.molecules]
    assert {"Σ^{-3}Z_1", "Σ^{-8}Z_1", "Σ^{-10}Z_1"} <= set(names)


def test_bundle_level_trivial_classifying_map():
    lvl, dec, _ = bundle_level([4, 6, 8], False, GF2)
    assert lvl == 1
    assert all(m.m == 0 for m in dec.molecules)
    lvl_q, _, _ = bundle_level([6, 8, 12], False, QQ)
    assert lvl_q == 1


def test_bundle_level_guards():
    with pytest.raises(OddGenerator):
        bundle_level([4, 7], True, QQ)
    with pytest.raises(FormalizabilityNotDeclared):
        bundle_level([4, 6, 7], True, GF2)


@pytest.mark.parametrize("gens", [[4, 5], [4, 5, 6], [4, 5, 8], [4, 5, 10], [4, 5, 12]])
def test_bundle_level_degree_five_over_f2(gens):
    # the class s⁻¹y_5 sits in the sphere degree 4, so cohomology alone
    # brackets the level in [1, 2]; the Jordan strings settle it
    lvl, dec, _ = bundle_level(gens, True, GF2, formalizable_declared=True)
    assert lvl == 2
    assert [str(m) for m in dec.molecules][:2] == ["Σ^{-3}Z_1", "Σ^{-7}Z_1"]


def test_bundle_level_five_generators():
    lvl, dec, dims = bundle_level([4, 6, 8, 10, 12], True, QQ)
    assert lvl == 2
    assert len(dec.molecules) == 16 and all(mol.m == 1 for mol in dec.molecules)
    assert sum(dims.values()) == 32


def sphere_over(P, f4_nonzero):
    """H*(S^4) as a raw module over P through the classifying map: only the
    first generator can act, sending 1 to the sphere class."""
    space = GradedVectorSpace(P.field, {0: ["1"], 4: ["z4"]})
    actions = {P.generators[0].label: {0: [[P.field.one()]]}} if f4_nonzero else {}
    return DGModulePresentation.raw(P, CochainComplex(space, {}), actions)


EVENS = range(6, 17, 2)
BUNDLE_GENS = ([[4], [4, 4], [4, 8, 8], [6, 8, 12], [4, 6, 8, 10, 12]]
               + [[4, a] for a in EVENS]
               + [[4, a, b] for a, b in itertools.combinations(EVENS, 2)]
               + [[4, *abc] for abc in itertools.combinations(EVENS, 3)])
ODD_BUNDLE_GENS = [[4, o, *e] for o in (5, 7, 9, 11) for e in ((), (6,), (8,), (10,), (12,))]


def test_bundle_tor_matches_the_generic_koszul_route():
    # the oracle: K ⊗^L_P H*(S^4) by the generic derived tensor, with H*(S^4)
    # a raw P-module and K resolved by its Koszul complex, in a window past
    # the top class
    grid = [(gens, field) for gens in BUNDLE_GENS for field in (QQ, GF2, GF3, GF5)]
    grid += [(gens, GF2) for gens in ODD_BUNDLE_GENS]
    for gens, field in grid:
        odd = any(g % 2 for g in gens)
        P = DGAlgebraPresentation.polynomial(field, [(f"y{i}", g) for i, g in enumerate(gens)],
                                             char2_polynomial_odd=odd)
        K = DGModulePresentation.trivial(P)
        for f4 in (True, False) if gens[0] == 4 else (False,):
            _, _, dims = bundle_level(gens, f4, field, formalizable_declared=odd)
            tor = derived_tensor(K, sphere_over(P, f4), strategy="koszul",
                                 window=DegreeWindow(0, sum(gens) + 4))
            assert tor.bounded and dims == tor.dims, (gens, f4, field)


def koszul_tensor_down(gens, f4_nonzero, field):
    """The bundle's module by the Koszul route `bundle_level` once took: the
    Koszul resolution of K over P, tensored down to H*(S^4), where a
    coefficient that is y₄ alone becomes x when y₄ acts and any other dies."""
    F = koszul_resolution_poly(gens, field).module
    index = {label: i for i, (label, _) in enumerate(F.generators)}
    y4 = (1,) + (0,) * (len(gens) - 1)
    phi = {index[src]: {index[tgt]: poly[y4] for tgt, poly in terms.items() if y4 in poly}
           for src, terms in F.differential.items()} if f4_nonzero else {}
    return SphereModule(4, field, F.generators, phi=phi)


def test_bundle_molecules_match_the_koszul_tensor_down():
    grid = [(gens, field) for gens in BUNDLE_GENS for field in (QQ, GF2, GF3, GF5)]
    grid += [(gens, GF2) for gens in ODD_BUNDLE_GENS]
    for gens, field in grid:
        odd = any(g % 2 for g in gens)
        for f4 in (True, False) if gens[0] == 4 else (False,):
            _, dec, _ = bundle_level(gens, f4, field, formalizable_declared=odd)
            want = decompose_module(koszul_tensor_down(gens, f4, field), 4).molecules
            assert dec.molecules == want, (gens, f4, field)


def test_the_closed_form_tor_check_refuses_wrong_molecules():
    _, dec, dims = bundle_level([4, 6], True, QQ)
    assert _checked_tor(dec, [4, 6], True) == dims
    # the same heights one degree up: the level still agrees, Tor does not
    moved = Decomposition(tuple(MoleculeId(4, mol.l + 1, mol.m) for mol in dec.molecules),
                          (), False, ())
    assert moved.level() == dec.level()
    with pytest.raises(VerificationFailed, match="Koszul closed form of Tor"):
        _checked_tor(moved, [4, 6], True)
    with pytest.raises(VerificationFailed, match="Koszul closed form of Tor"):
        _checked_tor(Decomposition(dec.molecules[:1], (), False, ()), [4, 6], True)


def test_free_pullback_level():
    lvl, mols = free_pullback_level([0, 4, 8])
    assert lvl == 1 and all(m.m == 0 for m in mols)
    lvl2, _ = free_pullback_level([0])
    assert lvl2 == 1


def test_free_pullback_level_reads_jordan_strings_not_matchings():
    # fourteen basis degrees 0, 2, …, 26 give a table with more than 100,000
    # matchings; the free module's strings are read off at once
    start = time.perf_counter()
    lvl, mols = free_pullback_level(range(0, 27, 2))
    assert time.perf_counter() - start < 1.0
    assert lvl == 1 and [(m.l, m.m) for m in mols] == [(b, 0) for b in range(0, 27, 2)]
