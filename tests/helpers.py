"""Helpers shared by the test modules."""

from dglevels.field import pivot_columns
from dglevels.graded import dense_rows


def rank(rows, field):
    """The rank of a dense matrix: the number of its pivot columns."""
    return len(pivot_columns(rows, field))


def matrix(cx, n):
    """d^n of a complex as dense rows, all zero for a map it does not store."""
    return dense_rows(cx.cols.get(n) or [()] * cx.dim(n), cx.dim(n + 1), cx.field)


def differential(cx):
    """{n: d^n as dense rows} for every map the complex stores."""
    return {n: matrix(cx, n) for n in cx.cols}
