"""Exact scalar arithmetic over the rationals and prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals
(always stored reduced with positive denominator) and ints in ``[0, p)`` over
a prime field.  Arithmetic is Python's own ``+ - *``; a :class:`FieldTag`
carries the choice of field, builds its scalars, and ``reduce`` normalises a
value once where it is stored or tested for zero (x mod p over F_p, x itself
over Q).  ``sparse_sum`` adds (key, scalar) pairs that way.  No floating
point appears anywhere.

Row reduction over the rationals clears each row's denominators once and
eliminates on plain ints, dividing every combined row by its content (gcd)
to keep the entries small; Fractions appear only in the returned RREF.
Over F_p it eliminates on residues and touches only the pivot row's nonzero
columns.  ``rank_and_kernel`` reads its kernel off the integer pivot rows,
so it builds no Fraction RREF.

Pivots and ranks come from one forward elimination on sparse vectors,
``echelon_leads``: it returns the leading indices of an echelon basis of
the span.  Given the rows of a matrix these are its pivot columns
(``pivot_columns``); given its columns, as a complex stores its
differential, their count is its rank.
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

    p: int

    def __post_init__(self):
        if self.p != 0:
            if self.p >= 2**31 or not _is_prime(self.p):
                raise FieldMismatch(f"modulus {self.p} is not a prime below 2^31")

    # -- classification ----------------------------------------------------

    def characteristic(self) -> int:
        return self.p

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

    def reduce(self, x):
        """x mod p over F_p; x unchanged over Q."""
        return x % self.p if self.p else x

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero("inverse of zero")
        return 1 / Fraction(a) if self.p == 0 else pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return not self.reduce(a)

    def is_zero_matrix(self, mat) -> bool:
        return all(self.is_zero(x) for row in mat for x in row)

    # -- serialization -------------------------------------------------------

    def scalar_to_json(self, a):
        """Rationals serialize as "num/den" strings, residues as ints."""
        if self.p == 0:
            f = Fraction(a)
            return f"{f.numerator}/{f.denominator}"
        return int(a)

    def scalar_from_json(self, v):
        """An int or a "num" / "num/den" string; a JSON boolean is no scalar."""
        if isinstance(v, str):
            return self.from_fraction(*map(int, v.split("/", 1))) if "/" in v \
                else self.from_int(int(v))
        if isinstance(v, int) and not isinstance(v, bool):
            return self.from_int(v)
        kind = f"mod-{self.p}" if self.p else "rational"
        raise FieldMismatch(f"cannot read {kind} scalar from {v!r}")


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


def sparse_sum(terms, field: FieldTag):
    """The (key, scalar) pairs summed per key as {key: scalar}: each sum is
    reduced once and zero sums are dropped."""
    acc = {}
    for key, c in terms:
        acc[key] = acc[key] + c if key in acc else c
    reduce = field.reduce
    return {key: r for key, c in acc.items() if (r := reduce(c))}


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------

_EXACT = (frozenset((int,)), frozenset((int, Fraction)))    # entry types F_p / Q take unchecked
_ZERO = Fraction(0)


def _check_scalar(x, field):
    """Reject x unless it is an int or, over Q, a Fraction (over F_p an
    integral one)."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)) \
            or field.p and x.denominator != 1:
        kind = f"a mod-{field.p} residue" if field.p else "a rational scalar"
        raise FieldMismatch(f"entry {x!r} is not {kind}")


def _validate_entries(rows, field):
    """Reject entries that are no scalars: a row of exact ints (and Fractions
    over Q) passes on its types alone, any other row entry by entry."""
    exact = _EXACT[field.p == 0]
    for row in rows:
        if not exact.issuperset(map(type, row)):
            for x in row:
                _check_scalar(x, field)


def integer_row(row):
    """A rational row times the lcm of its denominators, as plain ints."""
    den = 1
    for x in row:
        if type(x) is not int and x.denominator != 1:
            den = den * x.denominator // gcd(den, x.denominator)
    if den == 1:
        return [x.numerator for x in row]
    return [x.numerator * (den // x.denominator) for x in row]


def _eliminate_rational(rows):
    """Elimination on integer rows: ``a·row − f·pivot_row``, then the row is
    divided by its content.  Rows only ever change by nonzero rational
    multiples of row operations, so dividing each pivot row by its pivot
    gives the unique RREF.  Returns (pivot rows, pivot columns)."""
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
    return m[:r], pivots


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
    m, pivots = _eliminate_rational(rows)
    return [[Fraction(x, row[c]) if x else _ZERO for x in row]
            for row, c in zip(m, pivots)], pivots


def rank_and_kernel(rows, field: FieldTag):
    """Rank of the matrix and a basis of its right kernel.

    Rows are equations: a kernel vector v satisfies (rows) . v = 0.
    Kernel vectors are indexed by free columns in increasing order, with a 1
    in the free coordinate.
    """
    if not rows or not rows[0]:
        return 0, []
    _validate_entries(rows, field)
    p = field.p
    # the pivot rows, on ints over Q (entry / pivot is the RREF entry)
    red, pivots = _rref_mod_p(rows, p) if p else _eliminate_rational(rows)
    ncols = len(rows[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero()] * ncols
        v[free] = field.one()
        for row, c in zip(red, pivots):
            x = row[free]
            if p:
                v[c] = -x % p
            elif x:
                v[c] = Fraction(-x, row[c])
        basis.append(tuple(v))
    return len(pivots), basis


def echelon_leads(vectors, field: FieldTag) -> list:
    """The leading indices, ascending, of an echelon basis of the span of
    sparse vectors, each an iterable of (index, scalar) pairs with distinct
    indices: the indices at which some vector of the span starts.

    Each vector is reduced by the basis vector at its leading index until
    its leading index is new (it joins the basis) or nothing is left.
    Entries are checked as `_validate_entries` checks them.  Over F_p an
    entry is read as int(x) mod p and basis vectors are scaled to lead 1;
    over Q each vector is cleared of denominators once and eliminated on
    ints as `_eliminate_rational` does: ``a·v − f·b``, divided by its
    content when a does not divide f."""
    p = field.p
    basis = {}                  # leading index -> {index: int}
    for vec in vectors:
        v = {}
        if p:
            for i, x in vec:
                if type(x) is not int:
                    _check_scalar(x, field)
                    x = int(x)
                if r := x % p:
                    v[i] = r
        else:
            for i, x in vec:
                if type(x) is not Fraction and type(x) is not int:
                    _check_scalar(x, field)
                if x:
                    v[i] = x
            v = dict(zip(v, integer_row(v.values())))
        while v:
            lead = min(v)
            b = basis.get(lead)
            if b is None:
                if p:
                    inv = pow(v[lead], -1, p)
                    basis[lead] = {i: x * inv % p for i, x in v.items()}
                else:
                    g = gcd(*v.values())
                    basis[lead] = {i: x // g for i, x in v.items()} if g > 1 else v
                break
            f = v[lead]
            if p:
                for i, x in b.items():
                    if y := (v.get(i, 0) - f * x) % p:
                        v[i] = y
                    else:
                        v.pop(i, None)
                continue
            a = b[lead]
            scaled = f % a
            if scaled:
                g = gcd(a, f)
                s, f = a // g, f // g
                v = {i: s * x for i, x in v.items()}
            else:
                f //= a
            for i, x in b.items():
                if y := v.get(i, 0) - f * x:
                    v[i] = y
                else:
                    v.pop(i, None)
            if scaled and v and (g := gcd(*v.values())) > 1:
                v = {i: x // g for i, x in v.items()}
    return sorted(basis)


def pivot_columns(rows, field: FieldTag) -> list:
    """The columns independent of those before them: the leading indices of
    the rows' echelon basis (`echelon_leads`), with no RREF and no
    Fractions."""
    if not rows or not rows[0]:
        return []
    return echelon_leads(map(enumerate, rows), field)


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


def coordinates(vectors, target, field: FieldTag):
    """Coordinates of target in the span of ``vectors``, or None."""
    if not vectors:
        return () if all(field.is_zero(t) for t in target) else None
    rows = [[vectors[j][i] for j in range(len(vectors))] for i in range(len(target))]
    return solve(rows, list(target), field)
