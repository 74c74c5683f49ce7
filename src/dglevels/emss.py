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

The page is periodic, so it is listed only through one period past its
stable start.  A key (tdeg, tidx, ε, i, edeg, eidx) is a top class, the
exterior letter s⁻¹x_d to the power ε (d even only), γ_i of the Koszul
letter of bidegree (-step, step·d) (τ, step 2, for d even; s⁻¹x_d, step 1,
for d odd) and an extra class.  It lies in total degree
tdeg + edeg + ε(d - 1) + i·p, with p = `sphere_block_period(d)` = step(d - 1).
The shift σ: γ_i ↦ γ_{i+1} moves its cell by (-step, step·d), p up in total
degree, and maps the keys one to one onto those with i >= 1.  d₂ pairs a
source (0, j, ε, i, e) with i >= 1 and the target (2d - 1, j, ε, i - 1, e),
whenever both classes j of the top space exist, so σ maps pairs to pairs.
Let T be the highest top degree, E the highest extra degree (0 when lower),
M = E + (d - 1) + max(p, T) and S = M + p.  In a total degree n > M
- every key has i >= 1: with i = 0 its degree is at most T + E + d - 1;
- every d₂ source has i >= 2: it sits on the unit, so with i = 1 its degree
  is at most E + d - 1 + p.
So each key k there is σ(k') for a key k' in degree n - p > E + d - 1 >= 0
(in a degree n >= 0, t = n - s >= 0 and no key is left off), and k' is a
source or a target exactly when k is (a source k' needs i >= 1, which it
has; a target needs only the unit class beside it).  σ therefore maps the E₃ cells of degree n - p onto those of
degree n, dimension for dimension: E₃ repeats with period p above M.  The
page lists its keys through min(window.hi, S), with no labels; in the
degrees below that top, d₂ sees every source and target it would see on the
whole window.  `run_to_stable` reads E₃ there and moves the last listed
period, degrees M ... S - 1, up by multiples of σ through its certified top.
``cells`` and ``entries()`` still cover the whole window, labelled and
sorted, built when first read.  The window's start plays no part.

Convergence caveat: E∞ dimensions are associated-graded dimensions.  The
result flags "no extension problem" only when each total degree carries at
most one nonzero entry.
"""

from __future__ import annotations

from collections import Counter
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
    (s <= 0, t >= 0); d_r has bidegree (r, 1-r).  ``index`` {key: cell}
    lists the keys through ``top``, the window's top or S (module docstring)
    if that comes first; ``cells`` {cell: sorted [(key, label)]} covers the
    whole window."""

    def __init__(self, spec: FibreSquareSpec, window: DegreeWindow):
        self.spec = spec
        self.field = spec.field
        self.window = window
        self.d2 = None
        d = spec.d
        self.even = d % 2 == 0
        self.step = 2 if self.even else 1
        self.period = p = sphere_block_period(d)
        stable = max([0, *(n for n, _ in spec.extra_dims)]) + d - 1 + \
            max([p, *(n for n, _ in spec.top_dims)])
        self.top = min(window.hi, stable + p)
        self.index = dict(self._keys(self.top))

    def _keys(self, hi):
        """(key, (s, t)) for every basis element in total degree <= hi."""
        d, step, p = self.spec.d, self.step, self.period
        top = [k for k, _ in _expand(self.spec.top_dims, "x")]
        extra = [k for k, _ in _expand(self.spec.extra_dims or ((0, 1),), "e")]
        gamma_cap = max(0, (hi - top[0][0] - extra[0][0]) // p) if top else 0
        for tdeg, tidx in top:
            for eps in ((0, 1) if self.even else (0,)):
                for i in range(gamma_cap + 1):
                    for edeg, eidx in extra:
                        s = -eps - step * i
                        t = tdeg + eps * d + step * i * d + edeg
                        if s + t <= hi and t >= 0:
                            yield (tdeg, tidx, eps, i, edeg, eidx), (s, t)

    # -- structure ----------------------------------------------------------

    @cached_property
    def cells(self):
        d = self.spec.d
        tlabel = dict(_expand(self.spec.top_dims, "x"))
        elabel = dict(_expand(self.spec.extra_dims or ((0, 1),), "e"))
        letter = "τ" if self.even else f"s⁻¹x{d}"
        cells = {}
        for key, st in self._keys(self.window.hi):
            tdeg, tidx, eps, i, edeg, eidx = key
            label = _cell_label(tlabel[tdeg, tidx], eps, i, elabel[edeg, eidx], d, letter)
            cells.setdefault(st, []).append((key, label))
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

    d₂ sends each basis element to at most one other and never two to the
    same, so ``page.d2`` is a matching {source key: target key}, every entry
    h, and empty when h = 0 in K.  Sources sit on the unit class and targets
    on x_{2d-1}, so no key is both and d₂ ∘ d₂ = 0.  It matches the listed
    keys, ``page.index``, through ``page.top``: a source in the top degree
    has its target off the listing and stays unmatched."""
    f = page.field
    h = page.spec.hopf
    if not page.even and not f.is_zero(h):
        raise OddDimensionNonzeroHopf("the Hopf invariant vanishes over odd spheres")
    top_deg = 2 * page.spec.d - 1
    d2 = {}
    if not f.is_zero(h):
        for key in page.index:
            tdeg, tidx, eps, i, edeg, eidx = key
            if i == 0 or tdeg != 0:
                continue    # top class multiples die on x², γ_0 has no target
            target_key = (top_deg, tidx, eps, i - 1, edeg, eidx)
            if target_key in page.index:
                d2[key] = target_key
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

    An E₃ cell is its E₂ cell less the keys d₂ matches, read on the listed
    keys below ``page.top``; past them the last listed period repeats
    (module docstring).  Certification looks for a pair of surviving cells
    that a d_r (r >= 3) could join: target s-column minus source s-column
    equals r and the t-drop equals r - 1 (see ``_check_collapse``).  If such
    a pair exists the collapse cannot be certified and the run fails loudly.
    """
    if page.d2 is None:
        raise PresentationError("install d₂ before running the sequence")
    # the page ends at its own window: a class past it has no d₂ target listed
    hi = min((window or page.window).hi, page.window.hi)
    cert_hi = hi - 1   # outgoing d₂ from total degree hi leaves the page
    # a key that d₂ uses as source or target dies; the rest survive to E₃
    matched = Counter(page.index[key] for pair in page.d2.items() for key in pair)
    listed_hi = min(cert_hi, page.top - 1)
    e3 = {}
    for st, n in Counter(page.index.values()).items():
        surv = n - matched[st]
        if surv and st[0] + st[1] <= listed_hi:
            e3[st] = surv
    # σ moves each cell of the last listed period up, one period at a time,
    # through cert_hi (no move when the listing reaches cert_hi)
    step, rise, p = page.step, page.step * page.spec.d, page.period
    for (s, t), v in list(e3.items()):
        if s + t >= page.top - p:
            for k in range(1, (cert_hi - s - t) // p + 1):
                e3[s - k * step, t + k * rise] = v
    _check_collapse(e3)
    total = {}
    for (s, t), v in e3.items():
        total[s + t] = total.get(s + t, 0) + v
    no_ext = all(v <= 1 for v in total.values())

    # h ≠ 0 with d even pairs (1, ε, γ_i) with (x_top, ε, γ_{i-1}) exactly in
    # every degree, inside the window and beyond; that bounds the survivors when
    # the top space is units and classes of degree 2d - 1, equally many, and
    # the certified degrees hold the survivors (1, ε, γ_0) ⊗ extra, which reach
    # d - 1 plus the top extra degree
    tops = page.spec.top_dims
    paired = len(tops) == 2 and tops[0][0] == 0 and tops[1] == (2 * page.spec.d - 1, tops[0][1])
    reach = page.spec.d - 1 + max((n for n, _ in page.spec.extra_dims), default=0)
    bounded = (page.even and not page.field.is_zero(page.spec.hopf) and paired
               and reach <= cert_hi)
    verdict = finiteness(total, sphere_block_period(page.spec.d), hi - 2, bounded)
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
