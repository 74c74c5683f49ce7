"""Exact scalar arithmetic over the rationals and prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals
(always stored reduced with positive denominator) and ints in ``[0, p)`` over
a prime field.  A :class:`FieldTag` carries the choice of field and provides
the arithmetic; no floating point appears anywhere.

Row reduction over the rationals clears each row's denominators once and
eliminates on plain ints, dividing every combined row by its content (gcd)
to keep the entries small; Fractions appear only in the returned RREF.
Over F_p it eliminates on residues and touches only the pivot row's nonzero
columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DivisionByZero, FieldMismatch


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldTag:
    """Ground field: ``p == 0`` means the rationals, otherwise F_p."""

    p: int = 0

    def __post_init__(self):
        if self.p != 0:
            if self.p >= 2**31 or not _is_prime(self.p):
                raise FieldMismatch(f"modulus {self.p} is not a prime below 2^31")

    # -- classification ----------------------------------------------------

    def characteristic(self) -> int:
        return self.p

    @property
    def is_rational(self) -> bool:
        return self.p == 0

    def __str__(self):
        return "Q" if self.p == 0 else f"F{self.p}"

    # -- element construction ----------------------------------------------

    def zero(self):
        return Fraction(0) if self.p == 0 else 0

    def one(self):
        return Fraction(1) if self.p == 0 else 1

    def from_int(self, n: int):
        return Fraction(n) if self.p == 0 else n % self.p

    def from_fraction(self, num: int, den: int = 1):
        if self.p == 0:
            return Fraction(num, den)
        if den % self.p == 0:
            raise DivisionByZero(f"denominator {den} is zero mod {self.p}")
        return (num * pow(den, -1, self.p)) % self.p

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return a + b if self.p == 0 else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p == 0 else (a - b) % self.p

    def neg(self, a):
        return -a if self.p == 0 else (-a) % self.p

    def mul(self, a, b):
        return a * b if self.p == 0 else (a * b) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero("inverse of zero")
        return 1 / Fraction(a) if self.p == 0 else pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    # -- serialization -------------------------------------------------------

    def scalar_to_json(self, a):
        """Rationals serialize as "num/den" strings, residues as ints."""
        if self.p == 0:
            f = Fraction(a)
            return f"{f.numerator}/{f.denominator}"
        return int(a)

    def scalar_from_json(self, v):
        if self.p == 0:
            if isinstance(v, str):
                if "/" in v:
                    num, den = v.split("/", 1)
                    return Fraction(int(num), int(den))
                return Fraction(int(v))
            if isinstance(v, int):
                return Fraction(v)
            raise FieldMismatch(f"cannot read rational scalar from {v!r}")
        if isinstance(v, str):
            return self.from_fraction(*map(int, v.split("/"))) if "/" in v else self.from_int(int(v))
        if isinstance(v, int):
            return self.from_int(v)
        raise FieldMismatch(f"cannot read mod-{self.p} scalar from {v!r}")


QQ = FieldTag(0)
GF2 = FieldTag(2)
GF3 = FieldTag(3)
GF5 = FieldTag(5)


def parse_field(name: str) -> FieldTag:
    """Parse CLI field names: "q" or "f<p>"."""
    name = name.strip().lower()
    if name in ("q", "qq", "rational", "rationals"):
        return QQ
    if name.startswith("f") and name[1:].isdigit():
        return FieldTag(int(name[1:]))
    raise FieldMismatch(f"unknown field {name!r} (expected q or f<prime>)")


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def _validate_entries(rows, field):
    want = Fraction if field.p == 0 else int
    for row in rows:
        for x in row:
            if field.p == 0:
                if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                    raise FieldMismatch(f"entry {x!r} is not a rational scalar")
            else:
                if isinstance(x, Fraction) and x.denominator != 1:
                    raise FieldMismatch(f"entry {x!r} is not a mod-{field.p} residue")
                if not isinstance(x, (int, Fraction)):
                    raise FieldMismatch(f"entry {x!r} is not a mod-{field.p} residue")
    return want


_ZERO = Fraction(0)


def integer_row(row):
    """A rational row times the lcm of its denominators, as plain ints."""
    den = 1
    for x in row:
        if type(x) is not int and x.denominator != 1:
            den = den * x.denominator // gcd(den, x.denominator)
    if den == 1:
        return [x.numerator for x in row]
    return [x.numerator * (den // x.denominator) for x in row]


def _rref_rational(rows):
    """Gauss-Jordan on integer rows: ``a·row − f·pivot_row``, then the row is
    divided by its content.  Rows only ever change by nonzero rational
    multiples of row operations, so dividing each pivot row by its pivot at
    the end gives the unique RREF."""
    m = [integer_row(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        piv = m[r]
        g = gcd(*piv)
        if g > 1:
            piv = m[r] = [x // g for x in piv]
        a = piv[c]
        nz = [j for j in range(c, ncols) if piv[j]]
        for i in range(nrows):
            row = m[i]
            f = row[c]
            if not f or i == r:
                continue
            if f % a == 0:
                k = f // a
                for j in nz:
                    row[j] -= k * piv[j]
            else:
                g = gcd(a, f)
                s, k = a // g, f // g
                row = [s * x for x in row]
                for j in nz:
                    row[j] -= k * piv[j]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = []
    for row, c in zip(m, pivots):
        a = row[c]
        out.append([Fraction(x, a) if x else _ZERO for x in row])
    return out, pivots


def _rref_mod_p(rows, p):
    """Gauss-Jordan mod p; each elimination touches only the nonzero columns
    of the pivot row."""
    m = [[int(x) % p for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        piv = m[r]
        nz = [j for j in range(c, ncols) if piv[j]]
        if piv[c] != 1:
            inv = pow(piv[c], -1, p)
            for j in nz:
                piv[j] = piv[j] * inv % p
        for i in range(nrows):
            row = m[i]
            f = row[c]
            if not f or i == r:
                continue
            for j in nz:
                row[j] = (row[j] - f * piv[j]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def row_reduce(rows, field: FieldTag):
    """Reduced row echelon form. Returns (rref rows, pivot column list).

    The input is not modified.  Over Q the elimination runs on plain ints
    (each row's denominators cleared once) and Fractions are built only for
    the returned RREF; over F_p it runs on residues.
    """
    _validate_entries(rows, field)
    if field.p:
        return _rref_mod_p(rows, field.p)
    return _rref_rational(rows)


def rank_and_kernel(rows, field: FieldTag):
    """Rank of the matrix and a basis of its right kernel.

    Rows are equations: a kernel vector v satisfies (rows) . v = 0.
    Kernel vectors are indexed by free columns in increasing order, with a 1
    in the free coordinate.
    """
    if not rows or not rows[0]:
        ncols = len(rows[0]) if rows else 0
        basis = []
        for j in range(ncols):
            v = [field.zero()] * ncols
            v[j] = field.one()
            basis.append(tuple(v))
        return 0, basis
    rref, pivots = row_reduce(rows, field)
    ncols = len(rows[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero()] * ncols
        v[free] = field.one()
        for r, p in enumerate(pivots):
            v[p] = field.neg(rref[r][free])
        basis.append(tuple(v))
    return len(pivots), basis


def rank(rows, field: FieldTag) -> int:
    if not rows or not rows[0]:
        return 0
    return len(row_reduce(rows, field)[1])


def solve(rows, rhs, field: FieldTag):
    """One solution x of (rows) . x = rhs, or None when inconsistent.

    Free coordinates are set to zero, so the result is deterministic.
    """
    if not rows:
        return None if any(not field.is_zero(b) for b in rhs) else ()
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    rref, pivots = row_reduce(aug, field)
    x = [field.zero()] * ncols
    for r, p in enumerate(pivots):
        if p == ncols:
            return None
        x[p] = rref[r][ncols]
    return tuple(x)


def in_span(vectors, target, field: FieldTag):
    """Whether target lies in the span of the given vectors (all same length)."""
    if not vectors:
        return all(field.is_zero(t) for t in target)
    cols = list(vectors)
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(len(target))]
    return solve(rows, list(target), field) is not None


def coordinates(vectors, target, field: FieldTag):
    """Coordinates of target in the span of ``vectors``, or None."""
    if not vectors:
        return () if all(field.is_zero(t) for t in target) else None
    rows = [[vectors[j][i] for j in range(len(vectors))] for i in range(len(target))]
    return solve(rows, list(target), field)
