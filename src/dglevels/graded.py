"""Graded vector spaces, cochain complexes and their cohomology.

All computations are truncated to a degree window.  A complex remembers where
its knowledge ends: ``truncated_above`` marks the first degree at which the
listed basis may be incomplete (None when the complex is fully known, e.g.
the expansion of a finite free module over an exterior algebra).  Degree n is
*certified* when the differentials into and out of degree n are fully known,
which needs degrees n-1, n, n+1 to be known.  Infinite-dimensionality claims
are made elsewhere as explicit verdicts, never by silent truncation.

Every complex expanded from a presentation (an algebra, a free module, a
Hom complex, a derived tensor product) is built by :func:`assemble` from an
ordered basis per degree, its labels, and a column rule that lists d(e) as
(target, scalar) pairs.  A complex stores each differential only as these
sparse columns, ``cols[n][j]`` the nonzero (row, scalar) pairs of d(e_j);
the d∘d check, cohomology, coboundaries and JSON all read them.  Only the
constructor takes dense matrices, each converted once by `sparse_columns`,
the conversion a raw module's actions share; `_apply` reads any such map on
a sparse vector.

Cohomology is read only in certified degrees, which form one range,
``CochainComplex.certified``, found once per call.  It comes two ways.
:func:`cohomology_dims` gives dimensions only, dim C^n - rank d^n -
rank d^{n-1}, ranking each differential once by forward elimination on its
stored columns (`field.echelon_leads`); use it whenever only the numbers
are read (Tor, module cohomology).
:func:`cohomology` also returns cocycle representatives, at the price of a
kernel basis and a second reduction per degree; use it only where the
classes themselves are used (H^0 of an endomorphism complex, reading a class
off a chosen basis).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, inf

from .errors import PresentationError
from .field import (FieldTag, echelon_leads, integer_row, parse_field, pivot_columns,
                    rank_and_kernel, sparse_sum)


@dataclass(frozen=True)
class DegreeWindow:
    lo: int
    hi: int

    def __post_init__(self):
        if type(self.lo) is not int or type(self.hi) is not int:   # a bool is no end
            raise PresentationError(f"window ends {self.lo!r}:{self.hi!r} are no integers")
        if self.lo > self.hi:
            raise PresentationError(f"window [{self.lo}, {self.hi}] is empty")

    def contains(self, n: int) -> bool:
        return self.lo <= n <= self.hi

    def degrees(self):
        return range(self.lo, self.hi + 1)

    @staticmethod
    def parse(text: str) -> "DegreeWindow":
        """Parse "lo:hi"."""
        try:
            lo, hi = (int(x) for x in text.split(":"))
        except ValueError:
            raise PresentationError(f"window {text!r} is not of the form lo:hi") from None
        return DegreeWindow(lo, hi)


DEFAULT_WINDOW = DegreeWindow(-16, 64)


class GradedVectorSpace:
    """Degree-indexed finite-dimensional spaces with named bases."""

    def __init__(self, field: FieldTag, basis):
        self.field = field
        self.basis = {n: tuple(labels) for n, labels in basis.items() if labels}
        for n, labels in self.basis.items():
            if len(set(labels)) != len(labels):
                raise PresentationError(f"duplicate basis labels in degree {n}")

    def dim(self, n: int) -> int:
        return len(self.basis.get(n, ()))

    def labels(self, n: int):
        return self.basis.get(n, ())

    def degrees(self):
        return sorted(self.basis)


class CochainComplex:
    """A graded space with a degree +1 differential, d composed with d = 0.

    ``cols[n]`` holds d^n, from degree n to degree n+1, as columns:
    ``cols[n][j]`` lists the nonzero (row, scalar) pairs of d(e_j), rows
    ascending, and a map that is zero is absent.  The constructor takes
    dense matrices, ``differential[n]`` with entry [i][j] the coefficient of
    target basis element i in d(source basis element j), and stores their
    reduced columns (`sparse_columns`); :func:`assemble` builds columns
    itself and sets them on a complex made with no maps.  The columns are
    the only storage.  The zero-squared condition is checked at construction
    for every degree where both composable maps are known; a violation is a
    constructor error.
    """

    def __init__(self, space: GradedVectorSpace, differential, truncated_above=None,
                 truncated_below=None):
        cols = {}
        for n, mat in differential.items():
            if m := sparse_columns(mat, space.dim(n), space.dim(n + 1), space.field,
                                   f"differential at degree {n}"):
                cols[n] = m
        self.space = space
        self.field = space.field
        self.truncated_above = truncated_above
        self.truncated_below = truncated_below
        self.cols = cols
        self._check_d_squared()

    # -- knowledge bookkeeping ----------------------------------------------

    def certified(self, window: DegreeWindow | None = None):
        """The ends (lo, hi) of the certified degrees inside the window:
        degrees n - 1, n, n + 1 are all known exactly when
        truncated_below + 2 <= n <= truncated_above - 2."""
        lo, hi = (window.lo, window.hi) if window is not None else (-inf, inf)
        if self.truncated_below is not None:
            lo = max(lo, self.truncated_below + 2)
        if self.truncated_above is not None:
            hi = min(hi, self.truncated_above - 2)
        return lo, hi

    def dim(self, n: int) -> int:
        return self.space.dim(n)

    def column(self, n: int, j: int):
        """d(e_j) for basis element j of degree n as sparse (row, scalar) pairs."""
        cols = self.cols.get(n)
        return cols[j] if cols is not None else []

    def coboundaries(self, n: int):
        """The nonzero columns of d^{n-1} as dense vectors of degree n: they
        span B^n."""
        cols = [col for col in self.cols.get(n - 1, ()) if col]
        return list(zip(*dense_rows(cols, self.space.dim(n), self.field)))

    def _check_d_squared(self):
        """b∘a = 0 on each known pair: each column of a sums the columns of b
        it hits."""
        rational = self.field.p == 0
        reduce = self.field.reduce
        lo, hi = self.certified()
        for n, a in self.cols.items():
            # both maps are known when the degree between them is certified
            b = self.cols.get(n + 1)
            if b is None or not lo <= n + 1 <= hi:
                continue
            if rational:
                # each row of b and each column of a is made integral by a
                # nonzero factor, which keeps the zero pattern of b∘a
                b = _integer_rows(b)
            for j, col in enumerate(a):
                if rational:
                    col = zip([k for k, _ in col], integer_row([y for _, y in col]))
                acc = {}
                for k, y in col:
                    for i, x in b[k]:
                        acc[i] = acc[i] + x * y if i in acc else x * y
                if any(map(reduce, acc.values())):
                    raise PresentationError(
                        f"d∘d ≠ 0 from degree {n} "
                        f"(source {self.space.labels(n)[j]!r})"
                    )


def _integer_rows(cols):
    """Rational columns with each row scaled to plain ints by the lcm of the
    denominators in that row."""
    den = {}
    for col in cols:
        for i, x in col:
            if type(x) is Fraction and (q := x.denominator) != 1:
                d = den.get(i, 1)
                den[i] = d * q // gcd(d, q)
    return [[(i, x.numerator * (den.get(i, 1) // x.denominator)) for i, x in col]
            for col in cols]


def sparse_columns(mat, src: int, tgt: int, field: FieldTag, what: str):
    """A dense tgt x src matrix, entry [i][j] the coefficient of target i in
    the image of source j, as columns of reduced nonzero (row, scalar) pairs,
    rows ascending; None when every entry is zero.  Raises PresentationError
    "<what> has wrong shape" on another shape, and FieldMismatch on an entry
    that is no scalar of the field."""
    if len(mat) != tgt or any(len(row) != src for row in mat):
        raise PresentationError(f"{what} has wrong shape")
    scalar = field.scalar
    cols = [[(i, r) for i, row in enumerate(mat) if (r := scalar(row[j]))] for j in range(src)]
    return cols if any(cols) else None


def _apply(maps, n: int, vector, field: FieldTag):
    """The map of degree n in ``maps`` (degree -> sparse columns) on a
    sparse vector of (index, scalar) pairs, as `sparse_sum`'s {row: scalar};
    {} where ``maps`` holds no map of degree n."""
    cols = maps.get(n)
    if cols is None:
        return {}
    return sparse_sum(((i, c * x) for j, c in vector for i, x in cols[j]), field)


def dense_rows(cols, nrows: int, field: FieldTag):
    """The matrix with the given columns, each a list of (row, scalar) pairs,
    as dense rows with the field's zero elsewhere."""
    rows = [[field.zero()] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, c in col:
            rows[i][j] = c
    return rows


def assemble(field: FieldTag, elements, labels, column, truncated_above=None,
             truncated_below=None):
    """The complex on an ordered basis whose differential a column rule gives.

    ``elements[n]`` is the basis of degree n (keys unique across degrees) and
    ``labels[n]`` its labels; ``column(n, e)`` yields (target, scalar) pairs
    for d(e).  Pairs on one target are summed and targets outside degree
    n + 1 are dropped.  Returns the complex and ``pos``: element ->
    (degree, index).
    """
    pos = {e: (n, j) for n, es in elements.items() for j, e in enumerate(es)}
    zero, reduce = field.zero(), field.reduce
    cols = {}
    for n, es in elements.items():
        if not elements.get(n + 1):
            continue
        out = []
        for e in es:
            acc = {}
            for t, c in column(n, e):
                loc = pos.get(t)
                if loc is not None and loc[0] == n + 1:
                    i = loc[1]
                    acc[i] = acc[i] + c if i in acc else zero + c
            col = [(i, r) for i, c in acc.items() if (r := reduce(c))]
            if len(col) > 1:
                col.sort()
            out.append(col)
        if any(out):
            cols[n] = out
    cx = CochainComplex(GradedVectorSpace(field, labels), {}, truncated_above, truncated_below)
    cx.cols = cols
    cx._check_d_squared()
    return cx, pos


# ---------------------------------------------------------------------------
# Cohomology
# ---------------------------------------------------------------------------


def cohomology(cx: CochainComplex, window: DegreeWindow | None = None):
    """Dimensions and representatives of H^n for every certified degree.

    dims[n] = dim ker(d^n) - rank(d^{n-1}); only nonzero entries appear.
    Representatives are cocycle vectors spanning a complement of the
    coboundaries, in the basis of degree n.
    """
    dims = {}
    reps = {}
    lo, hi = cx.certified(window)
    for n in cx.space.degrees():
        if not lo <= n <= hi:
            continue
        d, r = _cohomology_at(cx, n)
        if d:
            dims[n] = d
            reps[n] = r
    return dims, reps


def cohomology_dims(cx: CochainComplex, window: DegreeWindow | None = None):
    """The dims of :func:`cohomology` without representatives:
    dim H^n = dim C^n - rank d^n - rank d^{n-1}, each differential ranked
    once."""
    @cache
    def rank_of(n):
        return len(echelon_leads(cx.cols[n], cx.field)) if n in cx.cols else 0

    dims = {}
    lo, hi = cx.certified(window)
    for n in cx.space.degrees():
        if lo <= n <= hi and (d := cx.space.dim(n) - rank_of(n) - rank_of(n - 1)):
            dims[n] = d
    return dims


def _cohomology_at(cx: CochainComplex, n: int):
    """dim H^n and its representatives: the kernel basis vectors of d^n that
    are not in the span of the coboundaries and the kernel vectors before
    them.  One forward elimination of the columns [d^{n-1} | kernel] picks
    them: its pivot columns in the kernel part.  Without d^{n-1} every
    kernel basis vector is a representative."""
    f = cx.field
    dim_n = cx.space.dim(n)
    if n in cx.cols:
        _, kernel = rank_and_kernel(dense_rows(cx.cols[n], cx.space.dim(n + 1), f), f)
    else:
        # d^n is zero: everything is a cocycle
        kernel = [tuple(f.one() if i == j else f.zero() for i in range(dim_n))
                  for j in range(dim_n)]
    if not kernel:
        return 0, []
    image = cx.cols.get(n - 1)
    if image is None:
        # kernel basis vectors are independent: each has its own free coordinate
        return len(kernel), kernel
    rows = dense_rows(image + [list(enumerate(v)) for v in kernel], dim_n, f)
    reps = [kernel[c - len(image)] for c in pivot_columns(rows, f) if c >= len(image)]
    return len(reps), reps


def dims_table(dims):
    """A handed-in table {degree: multiplicity} without its zeros; PresentationError
    on a degree or multiplicity that is no int (a bool is none) or below 0."""
    for n, v in dims.items():
        if type(n) is not int or type(v) is not int:
            raise PresentationError(f"dimension entry {n!r}:{v!r} is no pair of integers")
        if v < 0:
            raise PresentationError(f"negative multiplicity at degree {n}")
    return {n: v for n, v in dims.items() if v}


def dims_to_json(dims):
    return {str(n): dims[n] for n in sorted(dims)}


def dims_from_text(text: str):
    """Parse "0:1,5:1,7:2" into a dimension table."""
    dims = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            n, m = (int(x) for x in part.split(":"))
        except ValueError:
            raise PresentationError(
                f"dimension entry {part!r} is not of the form degree:multiplicity") from None
        if m < 0:
            raise PresentationError(f"negative multiplicity at degree {n}")
        if m:
            dims[n] = dims.get(n, 0) + m
    return dims


def complex_to_json(cx: CochainComplex):
    """{"field": ..., "basis": {"deg": [labels]}, "d": {"deg": [[scalar]]}}."""
    f = cx.field
    return {
        "field": str(f).lower(),
        "basis": {str(n): list(cx.space.labels(n)) for n in cx.space.degrees()},
        "d": {
            str(n): [[f.scalar_to_json(x) for x in row]
                     for row in dense_rows(cols, cx.space.dim(n + 1), f)]
            for n, cols in sorted(cx.cols.items())
        },
    }


def complex_from_json(data):
    f = parse_field(data["field"])
    space = GradedVectorSpace(f, {int(n): labels for n, labels in data["basis"].items()})
    diff = {
        int(n): [[f.scalar_from_json(x) for x in row] for row in mat]
        for n, mat in data.get("d", {}).items()
    }
    return CochainComplex(space, diff)
