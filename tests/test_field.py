from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dglevels.errors import DivisionByZero, FieldMismatch
from dglevels.field import (
    QQ, GF2, GF5, FieldTag, parse_field, rank, rank_and_kernel, row_reduce, solve,
)


def test_rational_addition_is_exact():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_prime_field_inverse():
    f7 = FieldTag(7)
    assert f7.inv(f7.from_int(3)) == 5


def test_modular_reduction():
    assert GF5.add(GF5.from_int(2), GF5.from_int(3)) == 0


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        QQ.inv(Fraction(0))
    with pytest.raises(DivisionByZero):
        GF5.inv(0)


def test_field_tag_rejects_composite_modulus():
    with pytest.raises(FieldMismatch):
        FieldTag(6)


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


def test_scalar_json_round_trip():
    assert QQ.scalar_to_json(Fraction(-5, 6)) == "-5/6"
    assert QQ.scalar_from_json("-5/6") == Fraction(-5, 6)
    assert GF5.scalar_to_json(3) == 3
    assert GF5.scalar_from_json("7") == 2


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
