"""Molecule catalog, quiver, decomposition, levels, bundle pipelines."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dglevels.algebra import DGAlgebraPresentation
from dglevels.errors import (
    FormalizabilityNotDeclared,
    NoValidMatching,
    NotCompactlyDecomposable,
    NotFree,
    OddGenerator,
    PresentationError,
)
from dglevels.field import QQ, GF2
from dglevels.graded import DegreeWindow, amplitude
from dglevels.module import DGModulePresentation, direct_sum, shift
from dglevels.resolve import (
    derived_tensor,
    filtration_class,
    generator_depth_filtration,
    level_upper_bound,
)
from dglevels.spheres import (
    Decomposition,
    MoleculeId,
    bundle_level,
    component_index,
    decompose,
    formalizability_check,
    free_pullback_level,
    molecule_cohomology,
    molecule_level,
    molecule_model,
    quiver_component,
    realizable,
    sphere_level,
)

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


def test_catalog_formula_on_grid():
    for d, l, m in GRID:
        mol = MoleculeId(d, l, m)
        dims = molecule_cohomology(mol)
        assert dims == {-m * (d - 1) + l: 1, d + l: 1}
        assert molecule_level(mol) == m + 1
        assert amplitude(dims) == (m + 1) * d - m


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


def test_decompose_rejects_sphere_dimension_one():
    with pytest.raises(PresentationError, match="sphere dimension must exceed 1"):
        decompose({0: 1, 1: 1}, 1)

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
        assert level_upper_bound(filt) == molecule_level(mol)


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


def test_sphere_level_interval_on_ambiguous_dims():
    res = sphere_level({0: 1, 3: 1, 7: 1, 10: 1}, 4)
    assert res.kind == "interval" and (res.lo, res.hi) == (2, 3)


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


def test_free_pullback_level():
    lvl, mols = free_pullback_level([0, 4, 8])
    assert lvl == 1 and all(m.m == 0 for m in mols)
    lvl2, _ = free_pullback_level([0])
    assert lvl2 == 1
    with pytest.raises(NotFree):
        free_pullback_level(None, dims={0: 1, 7: 1})   # the Z_1 pattern is not free


# -- formalizability -----------------------------------------------------------------


def test_formalizability_cond_ii_for_bundle_pair():
    verdict = formalizability_check(
        source_reduced={4: 1},
        loops_of_target_reduced={3: 1, 5: 1, 6: 1, 11: 1},
        target_indecomposables={4: 1, 6: 1, 7: 1},
    )
    assert verdict == "cond-ii"


def test_formalizability_cond_i_for_polynomial_pairs():
    assert formalizability_check(source_polynomial=True, target_polynomial=True) == "cond-i"
    assert formalizability_check(source_polynomial=True, target_polynomial=True,
                                 field=GF2, sq1_vanishes=False,
                                 source_reduced={}, loops_of_target_reduced={},
                                 target_indecomposables={}) == "cond-ii"


def test_formalizability_hopf_map_is_neither():
    verdict = formalizability_check(
        source_reduced={7: 1},
        loops_of_target_reduced={3 * k: 1 for k in range(1, 12)},
        target_indecomposables={4: 1},
    )
    assert verdict == "neither"
