"""Helpers shared by the test modules."""

from dglevels.field import pivot_columns


def rank(rows, field):
    """The rank of a dense matrix: the number of its pivot columns."""
    return len(pivot_columns(rows, field))
