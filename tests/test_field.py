from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dglevels.errors import DivisionByZero, FieldMismatch
from dglevels.field import (
    QQ, GF2, GF3, GF5, FieldTag, _is_prime, coordinates, parse_field, pivot_columns,
    rank_and_kernel, row_reduce, solve, sparse_sum,
)
from dglevels.graded import sparse_columns
from helpers import rank


def test_rational_addition_is_exact():
    assert QQ.reduce(Fraction(1, 2) + Fraction(1, 3)) == Fraction(5, 6)


def test_prime_field_inverse():
    f7 = FieldTag(7)
    assert f7.inv(f7.from_int(3)) == 5


def test_modular_reduction():
    assert GF5.reduce(GF5.from_int(2) + GF5.from_int(3)) == 0


def test_sparse_sum_reduces_each_sum_once_and_drops_zeros():
    terms = [("a", 3), ("b", -1), ("a", 2), ("c", 7)]
    assert sparse_sum(terms, GF5) == {"b": 4, "c": 2}
    half = Fraction(1, 2)
    got = sparse_sum([("a", half), ("b", half), ("a", -half)], QQ)
    assert got == {"b": half} and type(got["b"]) is Fraction


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        QQ.inv(Fraction(0))
    with pytest.raises(DivisionByZero):
        GF5.inv(0)


def test_is_zero_compares_reduced_values():
    assert GF3.is_zero(3) and GF3.is_zero(-6) and not GF3.is_zero(4)
    # a matrix converts to the zero map exactly when its reduced entries are 0
    assert sparse_columns([[3, 0], [0, 9]], 2, 2, GF3, "m") is None
    assert sparse_columns([[3]], 1, 1, GF5, "m") == [[(0, 3)]]
    assert QQ.is_zero(Fraction(0)) and not QQ.is_zero(Fraction(1, 3))
    with pytest.raises(DivisionByZero):
        GF3.inv(3)


def test_field_tag_rejects_composite_modulus():
    with pytest.raises(FieldMismatch):
        FieldTag(6)


@pytest.mark.parametrize("field, bad", [
    (QQ, True), (QQ, 0.5), (QQ, "1"), (GF3, 1.0), (GF3, "2"),
    (GF3, Fraction(1, 2)), (GF3, True),
])
def test_entries_that_are_no_scalars_are_rejected_before_every_reduction(field, bad):
    for run in (row_reduce, rank, rank_and_kernel):
        with pytest.raises(FieldMismatch, match="is not a"):
            run([[field.one(), bad], [field.zero(), field.one()]], field)


def test_integral_fractions_and_plain_ints_pass_as_scalars():
    assert rank([[Fraction(4), 1], [2, Fraction(1, 2)]], QQ) == 1
    assert rank([[Fraction(4), 1], [2, 2]], GF3) == 1
    assert rank([[-1, 5], [2, -10]], GF3) == 1


def test_parse_field():
    assert parse_field("q") == QQ
    assert parse_field("f2") == GF2
    assert parse_field("f101").characteristic() == 101


def test_rank_identity():
    m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert rank_and_kernel(m, QQ) == (2, [])


def test_kernel_mod_two():
    m = [[1, 1], [1, 1]]
    r, basis = rank_and_kernel(m, GF2)
    assert r == 1
    assert basis == [(1, 1)]


def test_kernel_proportional_rows():
    m = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]]
    r, basis = rank_and_kernel(m, QQ)
    assert r == 1
    assert basis == [(Fraction(-2), Fraction(1))]


def test_solve_and_consistency():
    m = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    x = solve(m, [Fraction(5), Fraction(2)], QQ)
    assert x == (Fraction(1), Fraction(2))
    assert solve([[Fraction(0)]], [Fraction(1)], QQ) is None


@given(st.integers(-50, 50), st.integers(1, 50))
def test_double_inverse_rational(num, den):
    a = Fraction(num, den)
    if a != 0:
        assert QQ.inv(QQ.inv(a)) == a


@given(st.integers(1, 6))
def test_double_inverse_mod_seven(a):
    f7 = FieldTag(7)
    assert f7.inv(f7.inv(a)) == a


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3))
def test_rank_agrees_between_q_and_fp_for_unimodular_like_inputs(entries):
    # For integer matrices, the rank over Q bounds the rank over F_p; equality
    # holds whenever no elimination pivot degenerates mod p.  Checked here via
    # the kernel dimension identity rank + dim ker = ncols in both worlds.
    mq = [[Fraction(x) for x in row] for row in entries]
    rq, kq = rank_and_kernel(mq, QQ)
    assert rq + len(kq) == 3
    for p in (2, 3, 5, 7):
        fp = FieldTag(p)
        mp = [[fp.from_int(x) for x in row] for row in entries]
        rp, kp = rank_and_kernel(mp, fp)
        assert rp + len(kp) == 3
        assert rp <= rq


def test_rank_equality_on_permutation_matrices():
    # Unimodular row operations keep every pivot a unit in each F_p.
    perm = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    mq = [[Fraction(x) for x in row] for row in perm]
    assert rank(mq, QQ) == 3
    for p in (2, 3, 5, 7):
        fp = FieldTag(p)
        assert rank([[fp.from_int(x) for x in row] for row in perm], fp) == 3


def test_rank_agreement_under_unimodular_row_operations():
    # start from rank-r 0/1 diagonals and apply unimodular integer row ops:
    # the rank over Q equals the rank over every F_p.
    import random

    rng = random.Random(3)
    for _ in range(15):
        n, r = 4, rng.randint(0, 4)
        m = [[1 if (i == j and i < r) else 0 for j in range(n)] for i in range(n)]
        for _ in range(8):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        mq = [[Fraction(x) for x in row] for row in m]
        assert rank(mq, QQ) == r
        for p in (2, 3, 5, 7):
            fp = FieldTag(p)
            assert rank([[fp.from_int(x) for x in row] for row in m], fp) == r


def unimodular(draw, n):
    """A random n×n integer matrix of determinant ±1: row operations and a
    sign change applied to the identity."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-a for a in m[i]]
        else:
            c = draw(st.integers(-9, 9))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def int_mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def unimodular_rank_cases(draw):
    """U·D·V with U, V unimodular and D a 0/1 diagonal of rank r, and a prime
    p drawn from [2^30, 2^31)."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = draw(st.integers(0, min(n, m)))
    d = [[int(i == j and i < r) for j in range(m)] for i in range(n)]
    p = draw(st.integers(2**30, 2**31 - 1))
    while not _is_prime(p):
        p -= 1
    return int_mat_mul(int_mat_mul(unimodular(draw, n), d), unimodular(draw, m)), r, p


@settings(deadline=None, max_examples=150)
@given(unimodular_rank_cases())
def test_rank_over_q_equals_rank_mod_a_large_prime(case):
    m, r, p = case
    fp = FieldTag(p)
    assert rank([[Fraction(x) for x in row] for row in m], QQ) == r
    assert rank([[fp.from_int(x) for x in row] for row in m], fp) == r


def test_scalar_json_round_trip():
    assert QQ.scalar_to_json(Fraction(-5, 6)) == "-5/6"
    assert QQ.scalar_from_json("-5/6") == Fraction(-5, 6)
    assert GF5.scalar_to_json(3) == 3
    assert GF5.scalar_from_json("7") == 2


@pytest.mark.parametrize("field", [QQ, GF2, GF5])
@pytest.mark.parametrize("value", [True, False, 1.0, 0.5])
def test_json_booleans_and_floats_are_no_scalars(field, value):
    # a bool is an int to Python, but JSON true is no coefficient
    kind = f"mod-{field.p}" if field.p else "rational"
    with pytest.raises(FieldMismatch, match=f"cannot read {kind} scalar from {value!r}"):
        field.scalar_from_json(value)


# -- row reduction against a naive Gauss-Jordan oracle ---------------------------


def naive_rref(rows, p):
    """Textbook Gauss-Jordan on Fractions; over F_p every entry is kept as
    its residue in [0, p)."""
    def red(x):
        return x if p == 0 else Fraction(int(x) % p)

    m = [[red(Fraction(x)) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c] if p == 0 else pow(int(m[r][c]), -1, p)
        m[r] = [red(x * inv) for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [red(a - f * b) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


@st.composite
def matrices(draw, entries):
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


RATIONAL_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-20, 20),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
)


@settings(deadline=None)
@given(matrices(RATIONAL_ENTRIES))
@example([])
@example([[]])
@example([[0, 0], [0, 0], [0, 0]])
@example([[Fraction(1, 2), 0, Fraction(-3, 4)], [0, 0, 0], [3, 0, Fraction(5, 7)]])
def test_row_reduce_matches_naive_oracle_over_q(rows):
    rref, pivots = row_reduce(rows, QQ)
    assert (rref, pivots) == naive_rref(rows, 0)
    assert all(type(x) is Fraction for row in rref for x in row)


@settings(deadline=None)
@given(st.sampled_from([2, 3, 5, 2**31 - 1]).flatmap(
    lambda p: st.tuples(st.just(p), matrices(st.one_of(
        st.just(0), st.integers(0, p - 1), st.integers(-2 * p, 2 * p))))))
@example((2, []))
@example((3, [[], []]))
@example((2**31 - 1, [[2**31 - 2, 1], [1, 2**31 - 2]]))
def test_row_reduce_matches_naive_oracle_over_fp(case):
    p, rows = case
    rref, pivots = row_reduce(rows, FieldTag(p))
    assert (rref, pivots) == naive_rref(rows, p)
    assert all(type(x) is int and 0 <= x < p for row in rref for x in row)


@settings(deadline=None)
@given(st.sampled_from([0, 2, 3, 5, 2**31 - 1]).flatmap(
    lambda p: st.tuples(st.just(p), matrices(
        RATIONAL_ENTRIES if p == 0 else st.one_of(
            st.just(0), st.integers(0, p - 1), st.integers(-2 * p, 2 * p),
            st.integers(-2 * p, 2 * p).map(Fraction))))))
@example((0, [[0, 0], [0, 0]]))
@example((0, [[Fraction(1, 2), 1, 0], [1, 2, 0], [0, 0, 3]]))
@example((2, [[1, 1, 0], [1, 1, 0], [0, 1, 1]]))
@example((3, [[Fraction(4), 1], [2, Fraction(-1)], [Fraction(3), 3]]))
def test_rank_and_kernel_agree_with_row_reduce(case):
    # pivot_columns runs the sparse forward elimination and rank_and_kernel
    # reads the kernel off the unnormalised pivot rows; both must match the
    # RREF.  Over F_p the entries include integral Fractions and residues
    # outside [0, p)
    p, rows = case
    field = FieldTag(p)
    rref, pivots = row_reduce(rows, field)
    assert pivot_columns(rows, field) == pivots
    assert rank(rows, field) == len(pivots)
    ncols = len(rows[0]) if rows else 0
    kernel = []
    for free in (j for j in range(ncols) if j not in pivots):
        v = [field.zero()] * ncols
        v[free] = field.one()
        for r, c in enumerate(pivots):
            v[c] = field.reduce(-rref[r][free])
        kernel.append(tuple(v))
    got_rank, got_kernel = rank_and_kernel(rows, field)
    assert (got_rank, got_kernel) == (len(pivots), kernel)
    assert all(type(x) is (int if p else Fraction) for v in got_kernel for x in v)


# -- solve and coordinates against the naive oracle --------------------------------


def field_entries(p):
    """Entries over Q, or over F_p residues, ints outside [0, p) and integral
    Fractions."""
    if p == 0:
        return RATIONAL_ENTRIES
    return st.one_of(st.just(0), st.integers(0, p - 1), st.integers(-2 * p, 2 * p),
                     st.integers(-2 * p, 2 * p).map(Fraction))


def reduced_product(field, row, x):
    return field.reduce(sum((a * b for a, b in zip(row, x)), Fraction(0)))


@st.composite
def linear_systems(draw):
    """(p, rows, rhs): half the right-hand sides are rows · x₀ for a drawn
    x₀, so consistent; the others are drawn freely, and often inconsistent."""
    p = draw(st.sampled_from([0, 2, 3, 5]))
    entry = field_entries(p)
    rows = draw(matrices(entry))
    if draw(st.booleans()):
        x0 = draw(st.lists(entry, min_size=len(rows[0]) if rows else 0,
                           max_size=len(rows[0]) if rows else 0))
        rhs = [reduced_product(FieldTag(p), row, x0) for row in rows]
    else:
        rhs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    return p, rows, rhs


@settings(deadline=None)
@given(linear_systems())
@example((0, [], []))
@example((2, [[]], [1]))
@example((3, [[0, 0], [3, 6]], [Fraction(3), 0]))
@example((5, [[1, 2], [2, 4]], [1, 3]))
@example((0, [[Fraction(1, 2), 1, 0], [1, 2, 0]], [1, 2]))
def test_solve_matches_naive_oracle(case):
    # None exactly when the augmented column is a pivot; otherwise the pivot
    # coordinates are the RREF's last column and the free ones are 0
    p, rows, rhs = case
    field = FieldTag(p)
    ncols = len(rows[0]) if rows else 0
    rref, pivots = naive_rref([list(row) + [b] for row, b in zip(rows, rhs)], p)
    x = solve(rows, rhs, field)
    if ncols in pivots:
        assert x is None
        return
    assert x is not None
    expected = [0] * ncols
    for r, c in enumerate(pivots):
        expected[c] = rref[r][ncols]
    assert list(x) == expected
    assert all(type(c).__name__ == ("int" if p else "Fraction") for c in x)
    assert all(0 <= c < p for c in x) if p else True
    assert all(reduced_product(field, row, x) == field.reduce(b) for row, b in zip(rows, rhs))


@st.composite
def spans(draw):
    """(p, vectors, target): k vectors of length n and a target that is a
    combination of them half the time."""
    p = draw(st.sampled_from([0, 2, 3, 5]))
    entry = field_entries(p)
    n, k = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    vectors = draw(st.lists(st.lists(entry, min_size=n, max_size=n).map(tuple),
                            min_size=k, max_size=k))
    if draw(st.booleans()):
        c = draw(st.lists(entry, min_size=k, max_size=k))
        target = tuple(reduced_product(FieldTag(p), col, c) for col in zip(*vectors)) \
            if vectors else (0,) * n
    else:
        target = tuple(draw(st.lists(entry, min_size=n, max_size=n)))
    return p, vectors, target


@settings(deadline=None)
@given(spans())
@example((0, [], ()))
@example((3, [], (3, 0)))
@example((2, [], (1,)))
@example((5, [(1, 2), (2, 4)], (3, 6)))
@example((3, [(Fraction(2), 1), (1, 2)], (0, 0)))
@example((0, [(), ()], ()))
def test_coordinates_match_naive_oracle(case):
    # None exactly when the target raises the rank; otherwise the coordinates
    # give the target back, and those of the vectors dependent on earlier
    # ones are 0
    p, vectors, target = case
    field = FieldTag(p)
    span_rank = len(naive_rref([list(v) for v in vectors], p)[1])
    in_span = len(naive_rref([list(v) for v in vectors] + [list(target)], p)[1]) == span_rank
    coords = coordinates(vectors, target, field)
    if not in_span:
        assert coords is None
        return
    assert coords is not None and len(coords) == len(vectors)
    assert all(type(c).__name__ == ("int" if p else "Fraction") for c in coords)
    if not coords:
        return
    assert [reduced_product(field, row, coords) for row in zip(*vectors)] == \
        [field.reduce(t) for t in target]
    pivots = naive_rref([list(row) for row in zip(*vectors)], p)[1]
    assert all(coords[j] == 0 for j in range(len(vectors)) if j not in pivots)
