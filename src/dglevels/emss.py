"""Eilenberg-Moore spectral sequence for pullbacks over a sphere.

The second page for a fibre square over S^d with the path-loop fibration on
one side is the Koszul-resolution Tor: for d even the column algebra is
∧(s⁻¹x_d) ⊗ Γ[τ] with bideg s⁻¹x_d = (-1, d) and bideg τ = (-2, 2d); for d
odd it is Γ[s⁻¹x_d].  The only differential carrying information is d₂,
driven by the Hopf invariant: d₂(τ) = h·x_{2d-1} propagates through the
divided-power comodule structure as d₂(γ_i(τ)) = h·x_{2d-1}·γ_{i-1}(τ),
extended multiplicatively over ∧(s⁻¹x_d) and linearly over the remaining
tensor factors.  Everything beyond d₂ must die for bidegree reasons; the
certification re-proves that by arithmetic on the nonzero cells instead of
prose.

The page is read tower by tower.  A tower (tdeg, tidx, ε, edeg, eidx) holds
the keys (tdeg, tidx, ε, i, edeg, eidx), i >= 0: a top class, the exterior
letter s⁻¹x_d to the power ε (d even only), γ_i of the Koszul letter of
bidegree (-step, step·d) (τ, step 2, for d even; s⁻¹x_d, step 1, for d odd)
and an extra class, in total degree tdeg + edeg + ε(d - 1) + i·p with
p = `sphere_block_period(d)`, on the cells with t >= 0.  d₂ maps each unit
tower (0, j, ε, e) onto its partner (2d - 1, j, ε, e), γ_i onto γ_{i-1}, one
total degree up and one t lower.  So a partner dies whole, since γ_{i+1} of
its source lies one degree below it; a source keeps only its lowest key, and
only when that is γ_0 or sits on t = 0, where its partner below would have
t = -1; every other tower survives whole.  The window's start plays no part.

Convergence caveat: E∞ dimensions are associated-graded dimensions.  The
result flags "no extension problem" only when each total degree carries at
most one nonzero entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    CannotCertifyCollapse,
    OddDimensionNonzeroHopf,
    PresentationError,
    WindowTooSmall,
)
from .field import FieldTag
from .graded import DegreeWindow
from .resolve import FinitenessVerdict, finiteness, sphere_block_period


@dataclass(frozen=True)
class FibreSquareSpec:
    """Pullback of the path-loop fibration over S^d along a map from a space
    with the given cohomology dimensions; ``hopf`` is the image of the Hopf
    invariant in the field.  ``extra_dims`` tensors in the cohomology of an
    extra fibre direction (used for iterated pullbacks)."""

    d: int
    top_dims: tuple          # sorted ((degree, dim), ...)
    hopf: object
    field: FieldTag
    extra_dims: tuple

    @staticmethod
    def make(d, top_dims, hopf, field, extra_dims=None):
        if d <= 1:
            raise PresentationError("base sphere dimension must exceed 1")
        top = tuple(sorted((n, v) for n, v in dict(top_dims).items() if v)) \
            if top_dims else ((0, 1),)
        extra = tuple(sorted((n, v) for n, v in dict(extra_dims).items() if v)) \
            if extra_dims else ()
        return FibreSquareSpec(d, top, field.from_int(hopf) if isinstance(hopf, int)
                               else hopf, field, extra)


class BigradedPage:
    """One page: basis keys (tdeg, tidx, ε, i, edeg, eidx) in cells
    (s <= 0, t >= 0), read by tower (tdeg, tidx, ε, edeg, eidx) (module
    docstring); d_r has bidegree (r, 1-r).  ``cells`` {cell: sorted
    [(key, label)]} covers the whole window."""

    def __init__(self, spec: FibreSquareSpec, window: DegreeWindow):
        self.spec = spec
        self.field = spec.field
        self.window = window
        self.d2 = None
        self.even = spec.d % 2 == 0
        self.step = 2 if self.even else 1
        self.period = sphere_block_period(spec.d)

    def towers(self):
        extra = _expand(self.spec.extra_dims or ((0, 1),), "e")
        for (tdeg, tidx), _ in _expand(self.spec.top_dims, "x"):
            for eps in ((0, 1) if self.even else (0,)):
                for (edeg, eidx), _ in extra:
                    yield tdeg, tidx, eps, edeg, eidx

    def cell(self, tower, i):
        tdeg, _, eps, edeg, _ = tower
        d, step = self.spec.d, self.step
        return -eps - step * i, tdeg + eps * d + step * i * d + edeg

    def gammas(self, tower, hi):
        """The range of i whose key has t >= 0 and total degree <= hi."""
        s, t = self.cell(tower, 0)
        return range(max(0, -(t // (self.step * self.spec.d))), (hi - s - t) // self.period + 1)

    # -- structure ----------------------------------------------------------

    @cached_property
    def cells(self):
        d = self.spec.d
        tlabel = dict(_expand(self.spec.top_dims, "x"))
        elabel = dict(_expand(self.spec.extra_dims or ((0, 1),), "e"))
        letter = "τ" if self.even else f"s⁻¹x{d}"
        cells = {}
        for tower in self.towers():
            tdeg, tidx, eps, edeg, eidx = tower
            for i in self.gammas(tower, self.window.hi):
                label = _cell_label(tlabel[tdeg, tidx], eps, i, elabel[edeg, eidx], d, letter)
                cells.setdefault(self.cell(tower, i), []).append(
                    ((tdeg, tidx, eps, i, edeg, eidx), label))
        return {st: sorted(v) for st, v in cells.items()}

    def entries(self):
        return {st: tuple(lbl for _, lbl in elems) for st, elems in self.cells.items()}


def _expand(dims_pairs, prefix):
    out = []
    for deg, mult in dims_pairs:
        for idx in range(mult):
            label = (f"{prefix}{deg}" if deg else "1") + (f"_{idx}" if mult > 1 else "")
            out.append(((deg, idx), label))
    return out


def _cell_label(tlabel, eps, i, elabel, d, letter):
    parts = []
    if tlabel != "1":
        parts.append(tlabel)
    if eps:
        parts.append(f"s⁻¹x{d}")
    if i:
        parts.append(f"γ{i}({letter})" if i > 1 else letter)
    if elabel != "1":
        parts.append(f"⊗{elabel}")
    return "·".join(parts) if parts else "1"


def e2_page(spec: FibreSquareSpec, window: DegreeWindow | None = None) -> BigradedPage:
    """The second page, zero differential until d₂ is installed."""
    window = window or DegreeWindow(0, 8 * spec.d)
    if window.hi < 2 * spec.d:
        raise WindowTooSmall("the window must reach total degree 2d")
    return BigradedPage(spec, window)


def install_d2(page: BigradedPage) -> BigradedPage:
    """d₂(γ_i(τ)) = h · x_{2d-1} · γ_{i-1}(τ), multiplicatively over ∧(s⁻¹x_d)
    and linearly over top and extra classes; h must vanish when d is odd.

    ``page.d2`` is {source tower: target tower}, every entry h, and empty
    when h = 0 in K: the unit tower (0, j, ε, edeg, eidx) maps to
    (2d - 1, j, ε, edeg, eidx) whenever that top class exists.  Sources sit on
    the unit class and targets on x_{2d-1}, so no tower is both and
    d₂ ∘ d₂ = 0."""
    f = page.field
    if not page.even and not f.is_zero(page.spec.hopf):
        raise OddDimensionNonzeroHopf("the Hopf invariant vanishes over odd spheres")
    d2 = {}
    if not f.is_zero(page.spec.hopf):
        towers = list(page.towers())
        for tower in towers:
            target = (2 * page.spec.d - 1, *tower[1:])
            if tower[0] == 0 and target in towers:
                d2[tower] = target
    page.d2 = d2
    return page


# ---------------------------------------------------------------------------
# Page turn and collapse certification
# ---------------------------------------------------------------------------


@dataclass
class EmssResult:
    e3_cells: dict           # (s, t) -> dim
    total_dims: dict         # total degree -> dim
    verdict: FinitenessVerdict
    no_extension_problem: bool

    def to_json(self):
        return {
            "e3": {f"{s},{t}": v for (s, t), v in sorted(self.e3_cells.items())},
            "totalDims": {str(n): v for n, v in sorted(self.total_dims.items())},
            "verdict": self.verdict.to_json(),
            "collapseCertified": True,
            "noExtensionProblem": self.no_extension_problem,
        }


def run_to_stable(page: BigradedPage, window: DegreeWindow | None = None) -> EmssResult:
    """Turn the page once and certify E₃ = E∞ by bidegree arithmetic.

    E₃ is read tower by tower (module docstring) through the certified top.
    Certification looks for a pair of surviving cells that a d_r (r >= 3)
    could join: target s-column minus source s-column equals r and the
    t-drop equals r - 1 (see ``_check_collapse``).  If such a pair exists the
    collapse cannot be certified and the run fails loudly.
    """
    if page.d2 is None:
        raise PresentationError("install d₂ before running the sequence")
    # the page ends at its own window: a class past it has no d₂ target listed
    hi = min((window or page.window).hi, page.window.hi)
    cert_hi = hi - 1   # outgoing d₂ from total degree hi leaves the page
    targets = set(page.d2.values())
    step, rise = page.step, page.step * page.spec.d
    # finite when d₂ pairs every tower and each source's survivor is certified
    bounded = bool(page.d2)
    e3 = {}
    for tower in page.towers():
        if tower in targets:
            continue        # γ_{i+1} of its source, one degree lower, hits each key
        gammas = page.gammas(tower, cert_hi)
        s, t = page.cell(tower, gammas.start)
        if tower in page.d2:
            if gammas.start and t:
                continue    # its lowest key hits the partner's key at t - 1 >= 0
            bounded = bounded and bool(gammas)
            gammas = gammas[:1]
        else:
            bounded = False
        for _ in gammas:
            e3[s, t] = e3.get((s, t), 0) + 1
            s, t = s - step, t + rise
    _check_collapse(e3)
    total = {}
    for (s, t), v in e3.items():
        total[s + t] = total.get(s + t, 0) + v
    no_ext = all(v <= 1 for v in total.values())
    verdict = finiteness(total, page.period, hi - 2, bounded)
    return EmssResult(e3, total, verdict, no_ext)


def _check_collapse(cells):
    """Raise CannotCertifyCollapse if a d_r, r >= 3, could join two cells.

    d_r has bidegree (r, 1 - r), so it raises s + t by exactly 1: only the
    cells of total degree s + t + 1 with s₂ >= s + 3 are candidate targets.
    Sources are walked in sorted order and each takes its first target in
    sorted order, so the reported pair is the first in (source, target)
    order.
    """
    cells = sorted(cells)
    by_total = {}           # total degree -> cells, s ascending
    for s, t in cells:
        by_total.setdefault(s + t, []).append((s, t))
    for s, t in cells:
        above = by_total.get(s + t + 1)
        if above and above[-1][0] >= s + 3:
            s2, t2 = next(c for c in above if c[0] >= s + 3)
            raise CannotCertifyCollapse(
                f"a d_{s2 - s} could connect cells {(s, t)} and {(s2, t2)}")


def compactness_from_hopf(d: int, hopf: int, field: FieldTag,
                          window: DegreeWindow | None = None):
    """Whether the pullback of the path-loop fibration along a map
    S^{2d-1} → S^d with the given Hopf invariant has a compact cochain
    module, decided by running the spectral sequence to its stable page.
    Returns (verdict.compact, EmssResult): None when the verdict is unknown."""
    spec = FibreSquareSpec.make(d, {0: 1, 2 * d - 1: 1}, hopf, field)
    result = run_to_stable(install_d2(e2_page(spec, window)))
    return result.verdict.compact, result
