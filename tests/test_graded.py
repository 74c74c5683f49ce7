from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from dglevels.errors import PresentationError
from dglevels.field import QQ, GF2, FieldTag, coordinates, rank_and_kernel
from dglevels.graded import (
    CochainComplex,
    DegreeWindow,
    GradedVectorSpace,
    assemble,
    cohomology,
    cohomology_dims,
    complex_to_json,
    dims_from_text,
)
from helpers import differential, matrix


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
    assert cohomology(cx)[0] == {0: 1}
    # degree 1 is listed, but degree 2 past it is not known
    assert cohomology(cx, DegreeWindow(1, 2)) == ({}, {})
    assert cohomology_dims(cx) == {0: 1}


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
                    row[k] = f.reduce(row[k] + c * y[k])
    space = GradedVectorSpace(f, {n: [f"e{n}_{i}" for i in range(k)]
                                  for n, k in enumerate(dims)})
    return space, diff


def certifiable(cx, n):
    """The per-degree rule: degrees n - 1, n and n + 1 are all known, that is
    below ``truncated_above`` and above ``truncated_below``."""
    above, below = cx.truncated_above, cx.truncated_below
    return all((above is None or k < above) and (below is None or k > below)
               for k in (n - 1, n, n + 1))


def greedy_cohomology(cx):
    """Representatives picked one kernel vector at a time: keep v when it is
    not in the span of the coboundaries and the vectors kept before it."""
    f = cx.field
    dims, reps = {}, {}
    for n in cx.space.degrees():
        if not certifiable(cx, n):
            continue
        dim_n = cx.dim(n)
        mat = matrix(cx, n)
        kernel = rank_and_kernel(mat, f)[1] if mat else unit_vectors(f, dim_n)
        prev = differential(cx).get(n - 1)
        chosen = [c for c in zip(*prev) if any(c)] if prev else []
        picked = []
        for v in kernel:
            if coordinates(chosen, v, f) is None:
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
                    acc = f.reduce(acc + b[i][k] * a[k][j])
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
    diff[n][i][k] = f.reduce(diff[n][i][k] + f.one())
    expected = naive_d_squared_message(space, diff)
    assert expected is not None
    with pytest.raises(PresentationError) as e:
        CochainComplex(space, diff)
    assert str(e.value) == expected


@settings(deadline=None)
@given(random_complexes(), st.sampled_from([None, 1, 2, 3, 4]), st.sampled_from([None, -1, 0, 1]),
       st.sampled_from([None, DegreeWindow(0, 3), DegreeWindow(1, 2), DegreeWindow(2, 5)]))
def test_cohomology_dims_from_ranks_match_the_representatives(case, above, below, window):
    space, diff = case
    cx = CochainComplex(space, diff, truncated_above=above, truncated_below=below)
    assert cohomology_dims(cx, window) == cohomology(cx, window)[0]


@pytest.mark.parametrize("above, below", [(3, None), (None, 0), (5, -1), (4, 0), (3, 1)],
                         ids=["above", "below", "both", "one degree", "none certified"])
@settings(deadline=None, max_examples=60)
@given(random_complexes(),
       st.sampled_from([None, DegreeWindow(-3, 1), DegreeWindow(0, 3), DegreeWindow(2, 9)]))
def test_cohomology_reads_the_degrees_certifiable_one_by_one(above, below, case, window):
    # the certified range is found once; it must be the per-degree rule
    space, diff = case
    cx = CochainComplex(space, diff, truncated_above=above, truncated_below=below)
    dims, reps = greedy_cohomology(cx)
    wanted = [n for n in dims if window is None or window.contains(n)]
    assert cohomology(cx, window) == ({n: dims[n] for n in wanted}, {n: reps[n] for n in wanted})
    assert cohomology_dims(cx, window) == {n: dims[n] for n in wanted}


BROKEN = {
    # d^2 ∘ d^1 kills the first source only; over Q the entries need the
    # integer rescaling of rows and columns to compose on ints
    QQ: ([[Fraction(2, 3), Fraction(0), Fraction(1)], [Fraction(-1), Fraction(3, 2), Fraction(0)]],
         [[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(0)]]),
    FieldTag(3): ([[1, 0, 1], [2, 1, 0]], [[1, 1], [0, 0]]),
}


@pytest.mark.parametrize("field", list(BROKEN))
def test_sparse_d_squared_check_names_the_first_broken_source(field):
    a, b = BROKEN[field]
    space = GradedVectorSpace(field, {1: ["s0", "s1", "s2"], 2: ["m0", "m1"], 3: ["t0", "t1"]})
    diff = {1: a, 2: b}
    expected = "d∘d ≠ 0 from degree 1 (source 's1')"
    assert naive_d_squared_message(space, diff) == expected
    with pytest.raises(PresentationError) as e:
        CochainComplex(space, diff)
    assert str(e.value) == expected


# -- assemble -------------------------------------------------------------------


def test_assemble_sums_repeated_targets_and_drops_out_of_degree_ones():
    elements = {0: ["a"], 1: ["b", "c"], 2: ["z"]}
    labels = {0: ["A"], 1: ["B", "C"], 2: ["Z"]}
    rule = {"a": [("b", Fraction(1)), ("c", Fraction(2)), ("b", Fraction(3)),
                  ("z", Fraction(5)), ("nowhere", Fraction(7)), ("a", Fraction(1))],
            "b": [("z", Fraction(2))], "c": [("z", Fraction(-4))]}
    cx, pos = assemble(QQ, elements, labels, lambda n, e: rule.get(e, ()), truncated_above=9)
    assert differential(cx) == {0: [[Fraction(4)], [Fraction(2)]],
                                1: [[Fraction(2), Fraction(-4)]]}
    assert pos == {"a": (0, 0), "b": (1, 0), "c": (1, 1), "z": (2, 0)}
    assert cx.space.labels(1) == ("B", "C")
    assert (cx.truncated_above, cx.truncated_below) == (9, None)
    assert cx.column(0, 0) == [(0, Fraction(4)), (1, Fraction(2))]
    assert cx.column(2, 0) == []


def test_assemble_stores_no_all_zero_map():
    elements = {0: ["a"], 1: ["b"], 2: ["c"]}
    labels = {n: [str(e) for e in es] for n, es in elements.items()}
    rule = {"a": [("b", 1), ("b", 2)], "b": [("c", 1)]}
    cx, _ = assemble(FieldTag(3), elements, labels, lambda n, e: rule.get(e, ()))
    # over F_3 the two terms of d(a) cancel, and no map leaves degree 2
    assert differential(cx) == {1: [[1]]}
    assert cx.column(0, 0) == []
    # a rule whose every pair lands outside degree n + 1 leaves no map either
    rule = {"a": [("c", 1), ("a", 2)], "b": [("c", 1)]}
    cx, _ = assemble(FieldTag(3), elements, labels, lambda n, e: rule.get(e, ()))
    assert differential(cx) == {1: [[1]]}


def test_a_complex_stores_reduced_residues():
    # over F_3 the given entry 3 is zero: no stored pair, and JSON writes 0
    space = GradedVectorSpace(FieldTag(3), {0: ["a", "b"], 1: ["c"]})
    cx = CochainComplex(space, {0: [[3, 1]]})
    assert cx.cols[0] == [[], [(0, 1)]]
    assert complex_to_json(cx)["d"] == {"0": [[0, 1]]}
    assert CochainComplex(space, {0: [[4, 3]]}).cols[0] == [[(0, 1)], []]
    assert CochainComplex(space, {0: [[3, 6]]}).cols == {}
    # every map is checked for its shape, a zero one too
    with pytest.raises(PresentationError, match="^differential at degree 0 has wrong shape$"):
        CochainComplex(space, {0: [[0]]})


def rule_entries(f):
    """Scalars a column rule may yield: over Q Fractions and plain ints, over
    F_p ints inside and outside [0, p)."""
    if f.p == 0:
        return st.one_of(st.integers(-3, 3),
                         st.fractions(min_value=-4, max_value=4, max_denominator=3))
    return st.integers(-f.p, 2 * f.p)


@st.composite
def column_rules(draw):
    """A field, an ordered basis in degrees 0..3, a column rule and the ends
    of what is known.  Each rule repeats targets, adds pairs that cancel and
    names targets outside degree n + 1 (in other degrees or in none); in
    the drawn quiet degrees only such noise is listed, so some maps vanish
    and many rules have d∘d = 0."""
    f = draw(st.sampled_from(FIELDS))
    sizes = draw(st.lists(st.integers(1, 3), min_size=4, max_size=4))
    elements = {n: [f"e{n}_{i}" for i in range(k)] for n, k in enumerate(sizes)}
    quiet = draw(st.sets(st.integers(0, 2), max_size=2))
    entry = rule_entries(f)
    rule = {}
    for n, es in elements.items():
        inside = elements.get(n + 1, [])
        outside = [e for m, other in elements.items() if m != n + 1 for e in other] + ["nowhere"]
        for e in es:
            pairs = []
            if inside and n not in quiet:
                pairs += draw(st.lists(st.tuples(st.sampled_from(inside), entry), max_size=4))
            if inside:
                cancel = draw(st.lists(st.tuples(st.sampled_from(inside), entry), max_size=2))
                pairs += [p for t, c in cancel for p in ((t, c), (t, -c))]
            pairs += draw(st.lists(st.tuples(st.sampled_from(outside), entry), max_size=2))
            rule[e] = draw(st.permutations(pairs))
    above = draw(st.sampled_from([None, 2, 3, 4]))
    below = draw(st.sampled_from([None, -1, 0, 1]))
    return f, elements, rule, above, below


def dense_reference(f, elements, rule):
    """The maps a column rule gives, entry by entry: zero plus the pairs on
    that entry, reduced at each step, with every map that is all zero left
    out."""
    pos = {e: (n, j) for n, es in elements.items() for j, e in enumerate(es)}
    ref = {}
    for n, es in elements.items():
        mat = [[f.zero()] * len(es) for _ in elements.get(n + 1, [])]
        for j, e in enumerate(es):
            for t, c in rule[e]:
                if pos.get(t, (None,))[0] == n + 1:
                    i = pos[t][1]
                    mat[i][j] = f.reduce(mat[i][j] + c)
        if any(x for row in mat for x in row):
            ref[n] = mat
    return ref


def reference_d_squared_message(space, ref, lo, hi):
    """The first source, degrees in basis order, whose d∘d is nonzero on a
    pair of maps around a certified degree, as the constructor names it."""
    f = space.field
    for n in ref:
        if n + 1 not in ref or not lo <= n + 1 <= hi:
            continue
        a, b = ref[n], ref[n + 1]
        for j in range(space.dim(n)):
            if any(f.reduce(sum(b[i][k] * a[k][j] for k in range(space.dim(n + 1))))
                   for i in range(space.dim(n + 2))):
                return f"d∘d ≠ 0 from degree {n} (source {space.labels(n)[j]!r})"
    return None


@settings(deadline=None, max_examples=150)
@given(column_rules())
def test_assembled_columns_read_back_as_the_dense_reference(case):
    f, elements, rule, above, below = case
    labels = {n: [e.upper() for e in es] for n, es in elements.items()}
    ref = dense_reference(f, elements, rule)
    space = GradedVectorSpace(f, labels)
    lo, hi = CochainComplex(space, {}, above, below).certified()
    message = reference_d_squared_message(space, ref, lo, hi)
    if message is not None:
        with pytest.raises(PresentationError) as e:
            assemble(f, elements, labels, lambda n, e: rule[e], above, below)
        assert str(e.value) == message
        return
    cx, _ = assemble(f, elements, labels, lambda n, e: rule[e], above, below)
    assert set(cx.cols) == set(ref)
    assert all(any(cols) for cols in cx.cols.values())
    assert differential(cx) == ref
    def type_names(maps):
        return {n: [[type(x).__name__ for x in row] for row in mat] for n, mat in maps.items()}

    assert type_names(differential(cx)) == type_names(ref)
    ranks = {n: rank_and_kernel(mat, f)[0] for n, mat in ref.items()}
    dims = {n: d for n in space.degrees() if lo <= n <= hi
            and (d := space.dim(n) - ranks.get(n, 0) - ranks.get(n - 1, 0))}
    assert cohomology_dims(cx) == dims


@pytest.mark.parametrize("strategy", ["bar", "koszul"])
def test_tor_and_its_dims_never_build_the_dense_view(strategy):
    # a complex has no dense view to build (tests/test_hygiene.py guards it);
    # Tor's dims are the ranks of the stored columns
    from dglevels.algebra import DGAlgebraPresentation
    from dglevels.module import DGModulePresentation
    from dglevels.resolve import derived_tensor, residue_module

    P = DGAlgebraPresentation.polynomial(GF2, [("a", 2), ("b", 4)])
    S = DGAlgebraPresentation.sphere_cohomology(4, QQ)
    for M, N, window in ((residue_module(P), residue_module(P), DegreeWindow(0, 8)),
                         (DGModulePresentation.trivial(S, shifts=(0, 3)), residue_module(S),
                          DegreeWindow(0, 30))):
        tor = derived_tensor(M, N, strategy=strategy, window=window)
        assert tor.dims and cohomology_dims(tor.complex, window) == {
            n: h for n, h in tor.dims.items() if n <= tor.complex.certified(window)[1]}
