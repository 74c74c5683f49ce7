"""Graded vector spaces, cochain complexes and their cohomology.

All computations are truncated to a degree window.  A complex remembers where
its knowledge ends: ``truncated_above`` marks the first degree at which the
listed basis may be incomplete (None when the complex is fully known, e.g.
the expansion of a finite free module over an exterior algebra).  Degree n is
*certified* when the differentials into and out of degree n are fully known,
which needs degrees n-1, n, n+1 to be known.  Infinite-dimensionality claims
are made elsewhere as explicit verdicts, never by silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PresentationError, WindowTooSmall, ZeroModule
from .field import FieldTag, integer_row, rank_and_kernel, row_reduce


@dataclass(frozen=True)
class DegreeWindow:
    lo: int = -16
    hi: int = 64

    def __post_init__(self):
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

    def total_dim(self) -> int:
        return sum(len(v) for v in self.basis.values())


class CochainComplex:
    """A graded space with a degree +1 differential, d composed with d = 0.

    ``differential[n]`` maps degree n to degree n+1; entry [i][j] is the
    coefficient of target basis element i in d(source basis element j).
    The zero-squared condition is checked at construction for every degree
    where both composable maps are known; a violation is a constructor error.
    """

    def __init__(self, space: GradedVectorSpace, differential, truncated_above=None,
                 truncated_below=None):
        self.space = space
        self.field = space.field
        self.truncated_above = truncated_above
        self.truncated_below = truncated_below
        self.differential = {}
        for n, mat in differential.items():
            src, tgt = space.dim(n), space.dim(n + 1)
            if not mat or not any(any(not self.field.is_zero(x) for x in row) for row in mat):
                continue
            if len(mat) != tgt or any(len(row) != src for row in mat):
                raise PresentationError(
                    f"differential at degree {n} has shape "
                    f"{len(mat)}x{len(mat[0]) if mat else 0}, expected {tgt}x{src}"
                )
            self.differential[n] = [list(row) for row in mat]
        self._check_d_squared()

    # -- knowledge bookkeeping ----------------------------------------------

    def known(self, n: int) -> bool:
        if self.truncated_above is not None and n >= self.truncated_above:
            return False
        if self.truncated_below is not None and n <= self.truncated_below:
            return False
        return True

    def certifiable(self, n: int) -> bool:
        return self.known(n - 1) and self.known(n) and self.known(n + 1)

    def dim(self, n: int) -> int:
        return self.space.dim(n)

    def matrix(self, n: int):
        src, tgt = self.space.dim(n), self.space.dim(n + 1)
        mat = self.differential.get(n)
        if mat is None:
            return [[self.field.zero()] * src for _ in range(tgt)]
        return mat

    def apply(self, n: int, vector):
        return mat_vec(self.matrix(n), vector, self.field)

    def degrees(self):
        return self.space.degrees()

    def _check_d_squared(self):
        rational = self.field.p == 0
        for n in list(self.differential):
            if n + 1 not in self.differential:
                continue
            if not (self.known(n) and self.known(n + 1) and self.known(n + 2)):
                continue
            a, b = self.differential[n], self.differential[n + 1]
            if rational:
                # rescaling the rows of b and the columns of a by nonzero
                # rationals keeps the zero pattern of b∘a and makes it integral
                b = [integer_row(row) for row in b]
            for j in range(self.space.dim(n)):
                col = [row[j] for row in a]
                if any(mat_vec(b, integer_row(col) if rational else col, self.field)):
                    raise PresentationError(
                        f"d∘d ≠ 0 from degree {n} "
                        f"(source {self.space.labels(n)[j]!r})"
                    )


def mat_vec(mat, vector, field: FieldTag):
    """mat · vector as a tuple, summing plain values over the nonzero entries
    of the vector only; reduced mod p over F_p."""
    nz = [(j, x) for j, x in enumerate(vector) if x]
    if field.p:
        p = field.p
        return tuple(sum(row[j] * x for j, x in nz) % p for row in mat)
    zero = field.zero()
    return tuple(sum(row[j] * x for j, x in nz) or zero for row in mat)


# ---------------------------------------------------------------------------
# Cohomology
# ---------------------------------------------------------------------------


def cohomology(cx: CochainComplex, window: DegreeWindow | None = None):
    """Dimensions and representatives of H^n for every certifiable degree.

    dims[n] = dim ker(d^n) - rank(d^{n-1}); only nonzero entries appear.
    Representatives are cocycle vectors spanning a complement of the
    coboundaries, in the basis of degree n.
    """
    dims = {}
    reps = {}
    degrees = set(cx.space.degrees())
    degrees.update(n + 1 for n in cx.differential)
    for n in sorted(degrees):
        if window is not None and not window.contains(n):
            continue
        if not cx.certifiable(n):
            continue
        d, r = _cohomology_at(cx, n)
        if d:
            dims[n] = d
            reps[n] = r
    return dims, reps


def _cohomology_at(cx: CochainComplex, n: int):
    """dim H^n and its representatives: the kernel basis vectors of d^n that
    are not in the span of the coboundaries and the kernel vectors before
    them.  One row reduction of the columns [d^{n-1} | kernel] picks them:
    its pivot columns in the kernel part.  Without d^{n-1} every kernel
    basis vector is a representative."""
    f = cx.field
    dim_n = cx.space.dim(n)
    if dim_n == 0:
        return 0, []
    mat = cx.differential.get(n)
    if mat is None:
        # d^n is zero: everything is a cocycle
        kernel = []
        for j in range(dim_n):
            v = [f.zero()] * dim_n
            v[j] = f.one()
            kernel.append(tuple(v))
    else:
        _, kernel = rank_and_kernel(mat, f)
    if not kernel:
        return 0, []
    image = cx.differential.get(n - 1)
    if image is None:
        # kernel basis vectors are independent: each has its own free coordinate
        return len(kernel), kernel
    width = len(image[0])
    cols = [list(image[i]) + [v[i] for v in kernel] for i in range(dim_n)]
    _, pivots = row_reduce(cols, f)
    reps = [kernel[c - width] for c in pivots if c >= width]
    return len(reps), reps


def cohomology_in_degree(cx: CochainComplex, n: int) -> int:
    if not cx.certifiable(n):
        raise WindowTooSmall(f"degree {n} is not certifiable (knowledge ends at {cx.truncated_above})")
    return _cohomology_at(cx, n)[0]


def amplitude(dims) -> int:
    """sup minus inf of the nonzero degrees of a dimension table."""
    nonzero = [n for n, d in dims.items() if d]
    if not nonzero:
        raise ZeroModule("amplitude of the zero module")
    return max(nonzero) - min(nonzero)


def total_dimension(dims) -> int:
    return sum(dims.values())


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
            str(n): [[f.scalar_to_json(x) for x in row] for row in mat]
            for n, mat in sorted(cx.differential.items())
        },
    }


def complex_from_json(data):
    from .field import parse_field

    f = parse_field(data["field"])
    space = GradedVectorSpace(f, {int(n): labels for n, labels in data["basis"].items()})
    diff = {
        int(n): [[f.scalar_from_json(x) for x in row] for row in mat]
        for n, mat in data.get("d", {}).items()
    }
    return CochainComplex(space, diff)
