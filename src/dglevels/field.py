"""Exact scalar arithmetic over the rationals and prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals
(always stored reduced with positive denominator) and ints in ``[0, p)`` over
a prime field.  Arithmetic is Python's own ``+ - *``; a :class:`FieldTag`
carries the choice of field, builds its scalars, and ``reduce`` normalises a
value once where it is stored or tested for zero (x mod p over F_p, x itself
over Q).  ``sparse_sum`` adds (key, scalar) pairs that way.  No floating
point appears anywhere.

All linear algebra runs on one elimination, a forward pass on sparse
vectors (`_echelon`): over F_p on residues, over Q on plain ints, each
vector's denominators cleared once and every combined vector divided by its
content (gcd) to keep the entries small.  Pivots and ranks need only that
pass: ``echelon_leads`` returns the leading indices of an echelon basis of
the span.  Given the rows of a matrix these are its pivot columns
(``pivot_columns``); given its columns, as a complex stores its
differential, their count is its rank.  ``row_reduce``, ``rank_and_kernel``
and ``solve`` add a back-substitution, which gives the unique reduced row
echelon form; Fractions appear only in its rows.
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


def _eliminate(v, b, lead, p):
    """v less the multiple of the basis vector b that clears v at b's lead.
    Over F_p b is 1 at its lead.  Over Q both are int vectors: the step is
    ``a·v − f·b`` (a the lead of b, f that of v, both over their gcd),
    divided by its content when a does not divide f."""
    f = v[lead]
    if p:
        for i, x in b.items():
            if y := (v.get(i, 0) - f * x) % p:
                v[i] = y
            else:
                v.pop(i, None)
        return v
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
    return v


def _echelon(vectors, field: FieldTag) -> dict:
    """An echelon basis of the span of sparse vectors, each an iterable of
    (index, scalar) pairs with distinct indices, as {leading index: vector}.

    Each vector is reduced by the basis vector at its leading index until
    its leading index is new (it joins the basis) or nothing is left.
    Entries are checked as `_validate_entries` checks them.  Over F_p an
    entry is read as int(x) mod p and basis vectors are scaled to lead 1;
    over Q each vector is cleared of denominators once and eliminated on
    ints, basis vectors divided by their content."""
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
            v = _eliminate(v, b, lead, p)
    return basis


def echelon_leads(vectors, field: FieldTag) -> list:
    """The leading indices, ascending, of `_echelon`'s basis of the span:
    the indices at which some vector of the span starts."""
    return sorted(_echelon(vectors, field))


def _rref(rows, field: FieldTag) -> dict:
    """The reduced row echelon form of dense rows as {pivot column: sparse
    row}: each row 1 at its pivot and 0 at every other pivot, its entries
    scalars of the field.  Back-substitution on the echelon basis from the
    last pivot down clears each row at the later pivots it touches by the
    rows there, which are already reduced, so one step per pivot does."""
    basis = _echelon(map(enumerate, rows), field)
    p = field.p
    for c in sorted(basis, reverse=True):
        v = basis[c]
        for lead in [i for i in v if i != c and i in basis]:
            v = _eliminate(v, basis[lead], lead, p)
        basis[c] = v
    if p:
        return basis
    return {c: {i: Fraction(x, v[c]) for i, x in v.items()} for c, v in basis.items()}


def pivot_columns(rows, field: FieldTag) -> list:
    """The columns independent of those before them: the leading indices of
    the rows' echelon basis (`echelon_leads`), with no RREF and no
    Fractions."""
    if not rows or not rows[0]:
        return []
    return echelon_leads(map(enumerate, rows), field)


def row_reduce(rows, field: FieldTag):
    """The reduced row echelon form (`_rref`) as (dense rows, pivot
    columns); the input is not modified."""
    rref = _rref(rows, field)
    pivots = sorted(rref)
    out = [[field.zero()] * len(rows[0]) for _ in pivots]
    for row, c in zip(out, pivots):
        for j, x in rref[c].items():
            row[j] = x
    return out, pivots


def rank_and_kernel(rows, field: FieldTag):
    """Rank of the matrix and a basis of its right kernel.

    Rows are equations: a kernel vector v satisfies (rows) . v = 0.
    Kernel vectors are indexed by free columns in increasing order, with a 1
    in the free coordinate; its other coordinates are read off the RREF.
    """
    if not rows or not rows[0]:
        return 0, []
    rref = _rref(rows, field)
    ncols = len(rows[0])
    kernel = {j: [field.zero()] * ncols for j in range(ncols) if j not in rref}
    for j, v in kernel.items():
        v[j] = field.one()
    for c, row in rref.items():
        for j, x in row.items():
            if j != c:
                kernel[j][c] = field.reduce(-x)
    return len(rref), [tuple(v) for v in kernel.values()]


def solve(rows, rhs, field: FieldTag):
    """One solution x of (rows) . x = rhs, or None when inconsistent.

    Free coordinates are set to zero, so the result is deterministic.
    """
    if not rows:
        return None if any(not field.is_zero(b) for b in rhs) else ()
    ncols = len(rows[0])
    rref = _rref([(*row, b) for row, b in zip(rows, rhs)], field)
    if ncols in rref:
        return None
    zero = field.zero()
    return tuple(rref[i].get(ncols, zero) if i in rref else zero for i in range(ncols))


def coordinates(vectors, target, field: FieldTag):
    """Coordinates of target in the span of ``vectors``, or None; in a
    zero-dimensional space (target ``()``) every coordinate is 0."""
    if not target:
        return (field.zero(),) * len(vectors)
    if not vectors:
        return () if all(field.is_zero(t) for t in target) else None
    return solve(list(zip(*vectors)), list(target), field)
