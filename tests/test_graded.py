from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from dglevels.errors import PresentationError, WindowTooSmall, ZeroModule
from dglevels.field import QQ, GF2, FieldTag, in_span, rank_and_kernel
from dglevels.graded import (
    CochainComplex,
    DegreeWindow,
    GradedVectorSpace,
    amplitude,
    cohomology,
    cohomology_in_degree,
    dims_from_text,
)


def two_step(field, mat):
    space = GradedVectorSpace(field, {0: [f"a{i}" for i in range(len(mat[0]))],
                                      1: [f"b{i}" for i in range(len(mat))]})
    return CochainComplex(space, {0: mat})


def test_zero_differential_dims():
    space = GradedVectorSpace(QQ, {0: ["a"], 3: ["b"]})
    cx = CochainComplex(space, {})
    dims, reps = cohomology(cx)
    assert dims == {0: 1, 3: 1}
    assert reps[0] == [(Fraction(1),)]


def test_identity_complex_is_acyclic():
    cx = two_step(QQ, [[Fraction(1)]])
    dims, _ = cohomology(cx)
    assert dims == {}


def test_d_squared_enforced_at_construction():
    space = GradedVectorSpace(QQ, {0: ["a"], 1: ["b"], 2: ["c"]})
    with pytest.raises(PresentationError):
        CochainComplex(space, {0: [[Fraction(1)]], 1: [[Fraction(1)]]})


def test_cohomology_over_f2():
    # d(a0) = b0 + b1, d(a1) = b0 + b1: kernel a0 + a1, image rank 1.
    cx = two_step(GF2, [[1, 1], [1, 1]])
    dims, reps = cohomology(cx)
    assert dims == {0: 1, 1: 1}
    assert reps[0] == [(1, 1)]


def test_representatives_complement_coboundaries():
    # 0 -> K^2 -d-> K^2 -> 0 with rank-1 d: H^1 is 1-dimensional.
    cx = two_step(QQ, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
    dims, reps = cohomology(cx)
    assert dims == {0: 1, 1: 1}
    assert len(reps[1]) == 1


def test_certification_respects_truncation():
    space = GradedVectorSpace(QQ, {0: ["a"], 1: ["b"]})
    cx = CochainComplex(space, {}, truncated_above=2)
    assert cohomology_in_degree(cx, 0) == 1
    with pytest.raises(WindowTooSmall):
        cohomology_in_degree(cx, 1)
    with pytest.raises(WindowTooSmall):
        cohomology_in_degree(cx, 2)


def test_enlarging_window_is_stable():
    space = GradedVectorSpace(QQ, {0: ["a"], 4: ["b"]})
    cx = CochainComplex(space, {})
    small = cohomology(cx, DegreeWindow(0, 4))[0]
    large = cohomology(cx, DegreeWindow(-8, 12))[0]
    for n, d in small.items():
        assert large.get(n) == d


def test_basis_order_invariance():
    m1 = two_step(QQ, [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]])
    m2 = two_step(QQ, [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(0)]])
    assert cohomology(m1)[0] == cohomology(m2)[0]


def test_amplitude_of_sphere_pattern():
    assert amplitude({0: 1, 7: 1}) == 7


def test_amplitude_molecule_grid():
    # Amplitude of the two-class pattern {-m(d-1)+l, d+l} is (m+1)d - m.
    for d in range(2, 7):
        for m in range(0, 6):
            for l in range(0, 11):
                dims = {-m * (d - 1) + l: 1, d + l: 1}
                assert amplitude(dims) == (m + 1) * d - m
    # At m = 2l - 1 this specializes to 2ld - 2l + 1.
    for d in (3, 4):
        for l in (1, 2, 3):
            m = 2 * l - 1
            assert (m + 1) * d - m == 2 * l * d - 2 * l + 1


def test_amplitude_single_degree_and_zero():
    assert amplitude({5: 2}) == 0
    with pytest.raises(ZeroModule):
        amplitude({})


def test_dims_from_text():
    assert dims_from_text("0:1,5:1,7:2") == {0: 1, 5: 1, 7: 2}


# -- properties on random complexes ------------------------------------------------

FIELDS = [QQ, GF2, FieldTag(3), FieldTag(5)]


def field_entries(f):
    if f.p == 0:
        return st.one_of(st.just(Fraction(0)),
                         st.fractions(min_value=-4, max_value=4, max_denominator=3))
    return st.integers(0, f.p - 1)


def unit_vectors(f, n):
    return [tuple(f.one() if i == j else f.zero() for i in range(n)) for j in range(n)]


@st.composite
def random_complexes(draw):
    """A field, basis sizes in degrees 0..3 and differentials with d∘d = 0:
    the rows of each d^n are random combinations of a basis of the vectors y
    with y·d^{n-1} = 0."""
    f = draw(st.sampled_from(FIELDS))
    dims = draw(st.lists(st.integers(0, 4), min_size=4, max_size=4))
    entry = field_entries(f)
    diff = {}
    for n in range(3):
        prev = diff.get(n - 1)
        if prev and prev[0]:
            left = rank_and_kernel([list(col) for col in zip(*prev)], f)[1]
        else:
            left = unit_vectors(f, dims[n])
        coeffs = draw(st.lists(st.lists(entry, min_size=len(left), max_size=len(left)),
                               min_size=dims[n + 1], max_size=dims[n + 1]))
        diff[n] = [[f.zero()] * dims[n] for _ in coeffs]
        for row, cs in zip(diff[n], coeffs):
            for c, y in zip(cs, left):
                for k in range(dims[n]):
                    row[k] = f.add(row[k], f.mul(c, y[k]))
    space = GradedVectorSpace(f, {n: [f"e{n}_{i}" for i in range(k)]
                                  for n, k in enumerate(dims)})
    return space, diff


def greedy_cohomology(cx):
    """Representatives picked one kernel vector at a time: keep v when it is
    not in the span of the coboundaries and the vectors kept before it."""
    f = cx.field
    dims, reps = {}, {}
    for n in cx.degrees():
        if not cx.certifiable(n):
            continue
        dim_n = cx.dim(n)
        mat = cx.matrix(n)
        kernel = rank_and_kernel(mat, f)[1] if mat else unit_vectors(f, dim_n)
        prev = cx.differential.get(n - 1)
        chosen = [c for c in zip(*prev) if any(c)] if prev else []
        picked = []
        for v in kernel:
            if not in_span(chosen, v, f):
                picked.append(v)
                chosen.append(v)
        if picked:
            dims[n], reps[n] = len(picked), picked
    return dims, reps


def naive_d_squared_message(space, diff):
    """The d∘d check entry by entry in the constructor's order: degrees in
    insertion order, then source j, then target i."""
    f = space.field
    live = {n: m for n, m in diff.items() if any(any(x for x in row) for row in m)}
    for n in live:
        if n + 1 not in live:
            continue
        a, b = live[n], live[n + 1]
        for j in range(space.dim(n)):
            for i in range(space.dim(n + 2)):
                acc = f.zero()
                for k in range(space.dim(n + 1)):
                    acc = f.add(acc, f.mul(b[i][k], a[k][j]))
                if not f.is_zero(acc):
                    return f"d∘d ≠ 0 from degree {n} (source {space.labels(n)[j]!r})"
    return None


@settings(deadline=None)
@given(random_complexes())
def test_cohomology_reps_match_greedy_in_span_choice(case):
    space, diff = case
    cx = CochainComplex(space, diff)
    assert cohomology(cx) == greedy_cohomology(cx)


@settings(deadline=None)
@given(random_complexes(), st.data())
def test_perturbed_complex_raises_the_same_d_squared_message(case, data):
    space, diff = case
    f = space.field
    # bumping entry (i, k) of d^n, where row k of d^{n-1} is nonzero, breaks d∘d
    spots = [(n, i, k) for n in (1, 2) for k, row in enumerate(diff[n - 1])
             if any(row) for i in range(len(diff[n]))]
    assume(spots)
    n, i, k = data.draw(st.sampled_from(spots))
    diff[n][i][k] = f.add(diff[n][i][k], f.one())
    expected = naive_d_squared_message(space, diff)
    assert expected is not None
    with pytest.raises(PresentationError) as e:
        CochainComplex(space, diff)
    assert str(e.value) == expected
