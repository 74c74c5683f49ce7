"""Semifree resolutions, derived tensor products, Tor, compactness verdicts
and level bounds from filtration class.

A resolution is a block sum of checked free modules (`Resolution`), picked
by `_resolve` with one rule per case.  A zero factor (an empty sum of shifts
of K, the zero free module, an N with no elements) gets no block, so Tor is
zero and finite through the window.  A free module is its own resolution
under `given` and `koszul`.  A sum of shifts of K is one block per shift on
one checked resolution of K, Koszul or bar.  Whole-module bar serves free
modules with generators and raw modules that are not trivial.  What a window
reads, from the lowest degrees of M and N, is one rule, `tensor_reach`.
`derived_tensor` tensors block by block, copying no shift, on resolutions
built per call.  Over H*(S^d) the Koszul tensor of a sum of shifts of K and a
bounded N is periodic from a stable start on, so it is listed only through
one period past that start, and the rest of the window is read off it.  Both
Koszul resolutions over H*(S^d) live here, on one sign rule: `_koszul` of K
for Tor, and `raw_resolution` of a raw module for its level.

A truncated engine must never silently claim finiteness, so every total
cohomology question is answered by a three-way verdict from one rule,
`finiteness`:

  finite     the computation is bounded (finite free resolution, finite free
             module tensored down, or an exact pairing on an EMSS page) and
             the certified degrees hold its whole support
  infinite   nonzero cohomology on >= 3 equally spaced degrees reaching the
             certified horizon, with the spacing equal to the resolution's
             periodic block degree
  unknown    everything else

Upper bounds for levels come from finite semifree filtrations: a filtration
of class c certifies level <= c + 1.  Where matching lower bounds exist the
sphere machinery (see spheres.py) turns the bound into an exact value; the
general retract detection problem is out of reach, so elsewhere results stay
intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .algebra import EXTERIOR, POLYNOMIAL, DGAlgebraPresentation
from .errors import (
    BudgetExceeded,
    InvalidFiltration,
    NotSimplyConnected,
    OddGenerator,
    PresentationError,
    StrategyInapplicable,
)
from .graded import CochainComplex, DegreeWindow, GradedVectorSpace, assemble, cohomology_dims
from .module import DGModulePresentation, SphereModule, _common_algebra, block_sum

BAR = "bar"
KOSZUL = "koszul"
GIVEN = "given"

# Bar words listed before bar_resolution gives up.  Window 0:10 over
# K[a₂, b₄] needs 817 words, 0:12 needs 2,813 and 0:13 needs 5,221.  Over
# H*(S^d) a window needs one word per d - 1 degrees, but word t has length t,
# so the listing there grows with the square of the word count.
BAR_WORD_BUDGET = 3_000

# Products of exterior generators listed before a construction gives up.  The
# Koszul complex over K[y_1, ..., y_n], a tower's sphere module and a pile's
# witness each list all 2^n products of n exterior generators, and each extra
# generator multiplies the work by 2.5-5; 4,096 is n = 12.
EXTERIOR_BASIS_BUDGET = 4_096


# Generators of one Koszul resolution over H*(S^d), one per d - 1 degrees up
# to the cap, before `_koszul` gives up.  A periodic Tor lists one period but
# one dims entry per degree, so it gives up where its whole resolution would
# (`tensor_reach`).  K against K on window 0:9,998 over H*(S^2) needs 10,000.
KOSZUL_GENERATOR_BUDGET = 10_000

# Basis elements of a free N's expansion in a derived tensor, counted before
# it is built.  Over an algebra with no top degree it spans the window: K
# against free_rank_one(K[a₂, b₄]) lists 2,601 on 0:200 (under 1 s), 6,561 on
# 0:320 (4.6 s, 69 MB).  No test, CLI command or benchmark query passes 9.
N_EXPANSION_BUDGET = 3_000


def _monomials_through(generators, hi: int, stop: int) -> int:
    """The monomials on the generators in degrees 0 .. hi, counted up to stop + 1."""
    if hi < 0 or not generators:
        return int(hi >= 0)
    g, total = generators[0], 0
    for e in range(min(hi // g.degree, 1 if g.kind == EXTERIOR else hi) + 1):
        if (total := total + _monomials_through(generators[1:], hi - e * g.degree,
                                                stop - total)) > stop:
            break
    return total


def check_exterior_basis(n: int, what: str):
    """Raise BudgetExceeded when the 2^n products of n exterior generators
    pass EXTERIOR_BASIS_BUDGET."""
    if n >= EXTERIOR_BASIS_BUDGET.bit_length():
        raise BudgetExceeded(f"{what} would list 2^{n} exterior products, more than "
                             f"{EXTERIOR_BASIS_BUDGET}")


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinitenessVerdict:
    kind: str                      # "finite" | "infinite" | "unknown"
    total: int | None = None
    dims: tuple = ()               # sorted ((degree, dim), ...)
    period: int | None = None
    witnesses: tuple = ()          # >= 3 arithmetic-progression degrees

    @property
    def is_finite(self):
        return self.kind == "finite"

    @property
    def is_infinite(self):
        return self.kind == "infinite"

    @property
    def compact(self):
        """True when finite, False when certified infinite, None when unknown."""
        return {"finite": True, "infinite": False}.get(self.kind)

    def to_json(self):
        out = {"kind": self.kind}
        if self.kind == "finite":
            out["total"] = self.total
            out["dims"] = {str(n): d for n, d in self.dims}
        if self.kind == "infinite":
            out["period"] = self.period
            out["witnesses"] = list(self.witnesses)
        return out


def finiteness(dims, period, horizon, bounded) -> FinitenessVerdict:
    """The one finiteness rule: a bounded computation is finite with these
    dims; nonzero degrees in steps of ``period`` that reach the horizon
    certify infinity; anything else is unknown."""
    if bounded:
        items = tuple(sorted((n, d) for n, d in dims.items() if d))
        return FinitenessVerdict("finite", total=sum(d for _, d in items), dims=items)
    ws = periodic_witnesses(dims, period, horizon)
    if ws:
        return FinitenessVerdict("infinite", period=period, witnesses=ws)
    return FinitenessVerdict("unknown")


def periodic_witnesses(dims, period, horizon):
    """Arithmetic progression of nonzero degrees with the given period that
    runs all the way to the certified horizon; None when absent."""
    if period is None or period <= 0:
        return None
    nonzero = sorted(n for n, d in dims.items() if d)
    for start in nonzero:
        ws = []
        n = start
        while n <= horizon and dims.get(n):
            ws.append(n)
            n += period
        if len(ws) >= 3 and ws[-1] + period > horizon:
            return tuple(ws)
    return None


# ---------------------------------------------------------------------------
# Resolutions
# ---------------------------------------------------------------------------


@dataclass
class Resolution:
    """A semifree module with an augmentation to the resolved module, kept as
    blocks (checked free module, label prefix, degree offset), read as
    `block_sum` reads them; ``module``, their sum, is built only when read."""

    blocks: tuple
    period: int | None             # degree of the repeating block, if any

    @classmethod
    def of(cls, module: DGModulePresentation, period: int | None = None) -> "Resolution":
        return cls(((module, "", 0),), period)

    @cached_property
    def module(self) -> DGModulePresentation:
        if len(self.blocks) == 1 and self.blocks[0][1:] == ("", 0):
            return self.blocks[0][0]
        return block_sum(self.blocks)


def sphere_block_period(d: int) -> int:
    """Degree of the repeating divided-power block over H*(S^d)."""
    return 2 * (d - 1) if d % 2 == 0 else d - 1


def _koszul_applies(A: DGAlgebraPresentation) -> bool:
    """K has a Koszul resolution over A here: A has zero differential and is
    H*(S^d), d >= 2, or a polynomial algebra."""
    if not A.has_zero_differential():
        return False
    if A.sphere_generator_label() is not None:
        return A.generators[0].degree > 1
    return all(g.kind == POLYNOMIAL for g in A.generators)


def _koszul(A: DGAlgebraPresentation, cap: int | None) -> Resolution:
    """The Koszul resolution of K over A, which must have one
    (`_koszul_applies`).

    Over H*(S^d), one generator in each degree j(d-1) <= cap with
    D(g_j) = g_{j-1}·x: for d even g_{2i} = γ_i(w) and
    g_{2i+1} = γ_i(w)·s⁻¹x, for d odd g_j = γ_j(s⁻¹x).  The differentials
    are complete (they point down the chain), only generators above ``cap``
    are absent (`_check_koszul_generators` bounds them).  Over
    K[x_1, ..., x_l], exterior generators s⁻¹x_j with D(s⁻¹x_j) = x_j: finite
    and fully known.
    """
    gens, diff = [], {}
    if A.sphere_generator_label() is not None:
        d = A.generators[0].degree
        _check_koszul_generators(d, cap)
        sx = f"s⁻¹x{d}"
        xpoly = {(1,): A.field.one()}
        for j in range(cap // (d - 1) + 1):
            if j == 0:
                label = "1̄"
            elif d % 2:
                label = f"γ{j}({sx})"
            elif j % 2:
                label = f"γ{j // 2}(w)·{sx}" if j > 1 else sx
            else:
                label = f"γ{j // 2}(w)"
            if j:
                diff[label] = {gens[-1][0]: xpoly}
            gens.append((label, j * (d - 1)))
        return Resolution.of(DGModulePresentation.free(A, gens, diff, truncation_degree=cap + 1),
                             sphere_block_period(d))
    n = A.n
    check_exterior_basis(n, f"the Koszul complex over {n} polynomial generators")
    sx = [f"s⁻¹{g.label}" for g in A.generators]
    for mask in range(1 << n):
        subset = [j for j in range(n) if mask >> j & 1]
        label = "·".join(sx[j] for j in subset) or "1̄"
        gens.append((label, sum(A.generators[j].degree - 1 for j in subset)))
        terms = {}
        parity = 0          # degree of the factors before s⁻¹x_j
        for j in subset:
            mono = tuple(int(t == j) for t in range(n))
            terms[gens[mask ^ 1 << j][0]] = {mono: A.field.from_int(-1 if parity % 2 else 1)}
            parity += A.generators[j].degree - 1
        if terms:
            diff[label] = terms
    return Resolution.of(DGModulePresentation.free(A, gens, diff))


def _check_koszul_generators(d: int, cap: int):
    """Refuse a Koszul resolution over H*(S^d) through ``cap`` past the budget."""
    if cap // (d - 1) >= KOSZUL_GENERATOR_BUDGET:
        raise BudgetExceeded(f"the Koszul resolution over H*(S^{d}) through degree {cap} "
                             f"needs more than {KOSZUL_GENERATOR_BUDGET} generators")


def koszul_resolution_sphere(d: int, field, cap: int | None = None) -> Resolution:
    """Semifree resolution of K over A = H*(S^d) (see `_koszul`), with
    generators through degree ``cap`` (by default 42 + d; a Tor of K against
    K on window 0:40 reads through 41)."""
    A = DGAlgebraPresentation.sphere_cohomology(d, field)   # rejects d <= 1
    return _koszul(A, cap if cap is not None else 42 + d)


def koszul_resolution_poly(degrees, field) -> Resolution:
    """Koszul complex resolving K over K[x_1, ..., x_l]: exterior generators
    s⁻¹x_j with D(s⁻¹x_j) = x_j.  Finite and fully known."""
    xs = [(f"x{i+1}", dd) for i, dd in enumerate(degrees)]
    char2 = field.characteristic() == 2
    if any(dd % 2 for _, dd in xs) and not char2:
        raise OddGenerator("polynomial generators must have even degree outside char 2")
    A = DGAlgebraPresentation.polynomial(field, xs, char2_polynomial_odd=char2)
    return _koszul(A, None)


def raw_resolution(module: DGModulePresentation, d: int, layers: int) -> SphereModule:
    """The Koszul resolution of a raw module R over A = H*(S^d), cut at
    layer L = ``layers``, as a SphereModule.

    It is the twisted tensor product A ⊗ A^¡ ⊗ R (Priddy, Koszul resolutions,
    1970), with A^¡ = K{g_k} the Koszul dual coalgebra of A, g_k in degree
    k(d-1): generators g_k ⊗ r, k = 0..L and r a basis of R, in degree
    |r| + k(d-1), with

      δ₀(g_k ⊗ r) = (-1)^k (g_{k-1} ⊗ x·r + g_k ⊗ d_R r),
      Φ(g_k ⊗ r) = g_{k-1} ⊗ r,

    `_koszul`'s sign rule: on K it is `_koszul`'s chain.  As x² = d_R² = 0,
    δ₀² = 0 since x commutes with d_R (the raw module checks it), and
    Φδ₀ + δ₀Φ = 0 as the two terms differ by (-1); the SphereModule checks
    both again.  D lowers the layer, so layers 0..L are a submodule F_L of
    the whole resolution F ≃ R.

    The cut.  Let R lie in degrees lo..hi, a = hi - lo, p the period of
    `sphere_block_period`; `sphere_level` takes the least L with
    L(d-1) > a - d and L(d-1) >= 2p.  F_L(-) is additive and keeps
    quasi-isomorphisms (its layers are copies of A ⊗ R), and R is a sum of
    molecules and shifts of K, as every bounded module over A is.  So:
    - F_L(Σ^{-s}K), lo <= s <= hi, has δ₀ = 0 and Φ stepping down the layers:
      one string from s to s + L(d-1), a tower of height L, whose degrees in
      steps of p are Tor classes of R, three or more;
    - a molecule Z = Σ^{-l}Z_m of R has its cohomology in lo..hi, so
      m(d-1) + d <= a (hence m < L) and l <= hi - d.  On Z's model, which
      starts in degree l - m(d-1), F/F_L is F moved up L + 1 layers with
      signs changed; it starts above l, where the model has no generator, so
      Z → F/F_L is zero, and F_L(Z) is Z plus a copy moved up by
      L(d-1) + d, of height m (it has Z's cohomology, moved).
    Hence R's molecules are the strings topped below layer L, at l < lo +
    L(d-1); copies are topped above it with m(d-1) + d <= a, and towers are
    the strings with m(d-1) + d > a.

    Raises BudgetExceeded, before building, past KOSZUL_GENERATOR_BUDGET
    generators.
    """
    cx = module.complex
    act = module.actions.get(module.algebra.generators[0].label, {})
    degrees = cx.space.degrees()
    size = sum(map(cx.dim, degrees))        # generators per layer
    if (layers + 1) * size > KOSZUL_GENERATOR_BUDGET:
        raise BudgetExceeded(f"the Koszul resolution of the raw module over H*(S^{d}) cut at "
                             f"layer {layers} has {(layers + 1) * size} generators, more than "
                             f"{KOSZUL_GENERATOR_BUDGET}")
    at = dict(zip(degrees, accumulate(map(cx.dim, degrees), initial=0)))
    gens, delta, phi = [], {}, {}
    for k in range(layers + 1):
        sign, layer = -1 if k % 2 else 1, k * size
        for n in degrees:
            cols, xcols = cx.cols.get(n), act.get(n)
            for j in range(cx.dim(n)):
                g = len(gens)
                gens.append((f"g{k}⊗{n}.{j}", n + k * (d - 1)))
                delta[g] = {layer + at[n + 1] + i: sign * c for i, c in cols[j]} if cols else {}
                if k:
                    phi[g] = {g - size: 1}
                    if xcols:
                        delta[g].update((layer - size + at[n + d] + i, sign * c)
                                        for i, c in xcols[j])
    return SphereModule(d, module.field, gens, delta, phi)


def bar_resolution(module: DGModulePresentation, algebra: DGAlgebraPresentation = None,
                   cutoff: int | None = None, *, window: DegreeWindow) -> Resolution:
    """`_bar` through what a derived tensor with K in ``window`` reads; a
    module with nothing in it is its own resolution.  An ``algebra`` other
    than the module's raises AlgebraMismatch."""
    algebra = _common_algebra("a bar resolution's module and algebra",
                              algebra or module.algebra, module.algebra)
    reach = tensor_reach(window, module, residue_module(algebra), BAR)
    return _bar(module, algebra, cutoff, reach) if reach else Resolution.of(module)


def _bar(module: DGModulePresentation, algebra: DGAlgebraPresentation, cutoff: int | None,
         reach: Reach) -> Resolution:
    """B(M; A; A) through what ``reach`` asks, truncated at bar length
    ``cutoff`` (by default the cap).

    Generators are m[a_1|...|a_t] with m a basis element of M's expansion in
    reach.m_window and a_i positive-degree algebra basis monomials; the
    generator degree is deg m + Σ(deg a_i - 1), so the bar-length-t part sits
    in degrees >= t and truncation is sound below the cutoff.  Words of
    degree through reach.cap are listed, and every generator through
    reach.m_window.hi is kept.  A truncated free M cuts B(M) at its own
    truncation, as `given` cuts M.  Raises BudgetExceeded instead of listing
    more than BAR_WORD_BUDGET bar words.
    """
    if not algebra.is_simply_connected():
        raise NotSimplyConnected("bar resolution needs generators in degrees >= 2")
    cap, wcap = reach.m_window.hi, reach.cap
    f = algebra.field
    mexp = module.expand(reach.m_window)
    m_elems = [(e, n) for n in sorted(mexp.elements) for e in mexp.elements[n]]
    cutoff = cutoff if cutoff is not None else wcap
    # slot k is the k-th positive-degree basis monomial in tuple order, so
    # words as tuples of slot indices sort as words of monomials do
    slot_degree = {m: deg for deg, monos in algebra.monomial_basis(wcap + 1).items() if deg
                   for m in monos}
    slots = sorted(slot_degree)
    slot_index = {m: k for k, m in enumerate(slots)}
    slot_step = [(k, slot_degree[m] - 1, algebra.mono_label(m)) for k, m in enumerate(slots)]
    # decided once per call: over H*(S^d) every product of two slots is zero
    # (x·x = 0), so no word has an adjacent merge and that scan is skipped
    merges = any(algebra.mono_mul(a, b) is not None for a in slots for b in slots)
    # likewise over a zero-differential algebra no slot has a differential
    slot_differentials = not algebra.has_zero_differential()
    gens, diff, gen_label = [], {}, {}

    # words of degree <= wcap and bar length <= cutoff, by length and then
    # lexicographically: each (slots, eps, label) extends a word of the
    # length before; eps[i] is the suspended degree of the first i slots, so
    # eps[-1] is the word's degree and m·word has degree deg m + eps[-1]
    level = [((), (0,), "")]
    words = level[:]
    for _ in range(cutoff):
        longer = []
        for word, eps, label in level:
            stem = label[:-1] + "|" if word else "["
            for k, step, slot_label in slot_step:
                if (nd := eps[-1] + step) <= wcap:
                    longer.append((word + (k,), eps + (nd,), stem + slot_label + "]"))
            if len(words) + len(longer) > BAR_WORD_BUDGET:
                raise BudgetExceeded(
                    f"the bar resolution needs more than {BAR_WORD_BUDGET} bar words "
                    f"below degree {wcap + 1}")
        if not longer:
            break
        words.extend(longer)
        level = longer

    for elem, mdeg in m_elems:
        mlabel = mexp.elem_label(elem)
        for word, eps, label in words:
            if mdeg + eps[-1] <= cap:
                gen_label[elem, word] = lbl = mlabel + label
                gens.append((lbl, mdeg + eps[-1]))

    unit = algebra.unit_monomial()
    one = f.one()
    first_merge = {}        # (element, first slot) -> element · slot
    merged = {}             # (slot, slot) -> (scalar, slot) of their product, or None

    def add(target_key, mono, c):
        """c·mono on the target into the current word's terms."""
        tgt = gen_label.get(target_key)
        if tgt is not None:
            poly = terms.setdefault(tgt, {})
            poly[mono] = poly[mono] + c if mono in poly else c

    for elem, mdeg in m_elems:
        d_elem = [(mexp.elements[mdeg + 1][i], c)
                  for i, c in mexp.complex.column(mdeg, mexp.pos[elem][1])]
        for word, eps, _ in words:
            if mdeg + eps[-1] > cap:
                continue
            terms = {}          # target label -> {monomial: scalar}, reduced by the module
            # the sign of slot i reads the degree of m and the slots before it
            odd = [(mdeg + e) % 2 for e in eps]

            # internal differential of m
            for tgt_elem, c in d_elem:
                add((tgt_elem, word), unit, c)
            # internal differentials of the slots
            for i, k in enumerate(word if slot_differentials else ()):
                for tm, c in algebra.mono_differential(slots[k]).items():
                    if (t := slot_index.get(tm)) is not None:
                        add((elem, word[:i] + (t,) + word[i + 1:]), unit, c if odd[i] else -c)
            if word:
                # merge m with the first slot
                key = (elem, word[0])
                if key not in first_merge:
                    first_merge[key] = mexp.act_element(elem, {slots[word[0]]: one})
                for tgt_elem, c in first_merge[key].items():
                    add((tgt_elem, word[1:]), unit, -c if mdeg % 2 else c)
                if merges:
                    # merge adjacent slots; the sign uses the prefix through the
                    # left slot (suspended degrees)
                    for i in range(1, len(word)):
                        pair = word[i - 1:i + 1]
                        if pair not in merged:
                            prod = algebra.mono_mul(slots[pair[0]], slots[pair[1]])
                            t = None if prod is None else slot_index.get(prod[1])
                            merged[pair] = None if t is None else (prod[0], t)
                        if merged[pair] is not None:
                            c, t = merged[pair]
                            add((elem, word[:i - 1] + (t,) + word[i + 1:]), unit,
                                -c if odd[i] else c)
                # last slot becomes an algebra coefficient
                add((elem, word[:-1]), slots[word[-1]], one if odd[-2] else -one)
            if terms:
                diff[gen_label[(elem, word)]] = terms

    cut = cap + 1 if module.truncation_degree is None else min(cap + 1, module.truncation_degree)
    return Resolution.of(DGModulePresentation.free(algebra, gens, diff, truncation_degree=cut))


# ---------------------------------------------------------------------------
# Derived tensor products
# ---------------------------------------------------------------------------


@dataclass
class TorResult:
    complex: CochainComplex        # as listed (`tensor_reach`): a prefix where it is periodic
    dims: dict                     # every certified degree of the window
    certified_hi: int
    period: int | None
    bounded: bool
    strategy: str

    def verdict(self) -> FinitenessVerdict:
        return finiteness(self.dims, self.period, self.certified_hi, self.bounded)


@dataclass(frozen=True)
class Reach:
    """What a derived tensor in a window reads (`tensor_reach`)."""

    cap: int                       # resolution generators this far above its lowest degree
    m_window: DegreeWindow         # M's expansion under bar
    n_window: DegreeWindow         # N's expansion
    read: DegreeWindow             # the degrees read; the tensor lists one more at each end


def tensor_reach(window: DegreeWindow, M: DGModulePresentation, N: DGModulePresentation,
                 strategy: str) -> Reach | None:
    """What M ⊗^L_A N in ``window`` reads under ``strategy``; None when M or N
    has nothing in it.

    Let M lie in degrees >= m and N in n ... n + a (a free N spans its
    generators and A's top degree, without end when A has none), and let
    r = max(0, window.hi + 1 - m - n).  Degree k is certified when degrees
    k - 1 and k + 1 are known (`CochainComplex.certified`), so the tensor
    lists window.lo - 1 ... window.hi + 1.  Every generator of a resolution
    of M lies in degree >= m (a block on a shift s >= m starts at s, a bar
    word m'[w] at |m'|), so a listed term g ⊗ b has |g| <= m + r and
    |b| <= n + r (r is 0 when no term is listed):
    - the resolution keeps its generators through cap = r above the lowest
      degree it resolves, so each block is truncated at m + r + 1 or above.
      A free module truncated at T holds the whole differential of each
      generator below T - 1 (see `module`), so a block truncated at T and
      moved by o, tensored with N, has its whole basis and every
      differential into the degrees below T + o + n, and is cut there, at
      window.hi + 2 or above;
    - under bar M is expanded in m ... m + r and words are listed through r,
      so each m'[w] through m + r has both its parts;
    - N is expanded in n ... n + min(a, r), whole through every listed b; a
      cut there the tensor moves by m to window.hi + 2.
    Certifying window.hi reads D(g) ⊗ b for |g| <= window.hi - n = m + r - 1,
    and D(g) lands on generators through m + r: no differential of a top
    generator is read.  So every degree of the window is certified and sees
    every term that reaches it.  M's highest degree enters none of these:
    the blocks share the cap the lowest needs.

    Koszul over H*(S^d) of a sum of shifts of K, with N not truncated, reads
    less.  Let s be M's highest shift, t N's highest degree,
    p = sphere_block_period(d), q = p/(d - 1) and L = s + t + d + p.  The
    resolution is g_j in degree j(d - 1), D(g_{j+1}) = g_j·x (`_koszul`), so
    g_j ⊗ b lies in degree <= s + t < L - p - 1 if j = 0, <= s + t + p - d + 1
    < L - 1 if j < q.  So g_j ⊗ b -> g_{j+q} ⊗ b keeps D (p is even, so are
    the signs) and maps the complex in degrees >= L - p - 1 onto its part in
    degrees >= L - 1: dims(k) = dims(k - p) for k > L.  A window ending past L
    reads min(window.lo, L - p) ... L and repeats it; its dims keep one entry
    per degree, so the generator budget still counts the whole window.
    """
    m_degrees, n_degrees = ([d for _, d in X.generators] if X.is_free
                            else X.complex.space.degrees() for X in (M, N))
    if not m_degrees or not n_degrees:
        return None
    m, n = min(m_degrees), min(n_degrees)
    A = M.algebra
    top = N.algebra.top_degree() if N.is_free else 0
    r = max(0, window.hi + 1 - m - n)
    if strategy == KOSZUL and M.is_trivial() and _koszul_applies(A) \
            and A.sphere_generator_label() is not None \
            and (N.truncation_degree if N.is_free else N.complex.truncated_above) is None:
        d = A.generators[0].degree
        _check_koszul_generators(d, r)
        p = sphere_block_period(d)
        stable = max(m_degrees) + max(n_degrees) + top + d + p
        if window.hi > stable:
            window = DegreeWindow(min(window.lo, stable - p), stable)
            r = stable + 1 - m - n
    a = r if top is None else min(r, max(n_degrees) + top - n)
    return Reach(r, DegreeWindow(m, m + r), DegreeWindow(n, n + a), window)


def _resolve(M: DGModulePresentation, strategy: str, reach: Reach | None) -> Resolution:
    """The resolution of M that ``strategy`` names, through what ``reach``
    asks (`tensor_reach`); no block when reach is None, as a factor is then
    zero and so is Tor, but only after the strategy's checks on M, which
    refuse as they would on any M."""
    A = M.algebra
    if strategy == GIVEN:
        if not M.is_free:
            raise StrategyInapplicable("GivenResolution needs a free presentation")
    elif strategy == KOSZUL:
        if not A.has_zero_differential():
            raise StrategyInapplicable("Koszul strategy needs a zero-differential algebra")
        if not M.is_free:
            if not M.is_trivial():
                raise StrategyInapplicable(
                    "Koszul strategy resolves trivial modules (sums of shifts of K)")
            if not _koszul_applies(A):
                raise StrategyInapplicable("no Koszul pattern for this algebra")
    elif strategy != BAR:
        raise StrategyInapplicable(f"unknown strategy {strategy!r}")
    if reach is None:
        return Resolution((), None)
    if M.is_free and strategy != BAR:
        return Resolution.of(M)
    if M.is_free or not M.is_trivial():
        return _bar(M, A, None, reach)
    # a sum of shifts of K: one resolution of K moved to each shift s, never
    # copied, built through the cap above the lowest shift
    space = M.complex.space
    summands = [(label, s) for s in space.degrees() for label in space.labels(s)]
    if strategy == KOSZUL:
        res, low = _koszul(A, reach.cap), 0
        summands = [(f"{k}⟨{s}⟩·", s) for k, (_, s) in enumerate(summands)]
    else:
        # B(Σ^{-s}K) is Σ^{-s}B(K) with the shift's label before each word;
        # it is built on the lowest shift, where reach.m_window lies
        low = summands[0][1]
        res = _bar(DGModulePresentation.trivial(A, shifts=(low,), labels=[""]), A, None, reach)
        if len({label for label, _ in summands}) < len(summands):
            raise PresentationError("duplicate module generator labels")
    return Resolution(tuple((res.module, pre, s - low) for pre, s in summands), res.period)


def residue_module(A: DGAlgebraPresentation) -> DGModulePresentation:
    """K with the augmentation action."""
    return DGModulePresentation.trivial(A)


def derived_tensor(M: DGModulePresentation, N: DGModulePresentation,
                   strategy: str, window: DegreeWindow) -> TorResult:
    """M ⊗^L_A N as a cochain complex; its cohomology is Tor_A(M, N) in every
    certified degree.  N is a bounded module presented with right actions and
    used on the left through graded commutativity; where its expansion is
    truncated, the tensor is too, from that degree on the lowest generator of
    the resolution.  What it reads and lists is `tensor_reach`'s, so the
    complex is a prefix where the Koszul tensor over H*(S^d) is periodic,
    and the dims past it repeat its last period; a zero factor gives the
    zero complex.  Raises BudgetExceeded before N's expansion would list
    more than N_EXPANSION_BUDGET basis elements, and AlgebraMismatch on
    factors over different algebras."""
    A = _common_algebra("Tor factors", M.algebra, N.algebra)
    reach = tensor_reach(window, M, N, strategy)
    if reach and N.is_free and sum(     # g·m for every monomial m through n_window.hi - g
            _monomials_through(N.algebra.generators, reach.n_window.hi - g, N_EXPANSION_BUDGET)
            for _, g in N.generators) > N_EXPANSION_BUDGET:
        raise BudgetExceeded(f"N's expansion through degree {reach.n_window.hi} would list "
                             f"more than {N_EXPANSION_BUDGET} basis elements")
    res = _resolve(M, strategy, reach)
    f = A.field
    if reach is None:
        return TorResult(CochainComplex(GradedVectorSpace(f, {}), {}), {}, window.hi, None, True,
                         strategy)
    nexp = N.expand(reach.n_window)
    n_degrees = sorted(nexp.elements)

    # block k of the resolution contributes (k, g, b): its generator g in
    # degree |g| + offset, labelled prefix + g, tensored with b in N
    n_key = {ne: str(ne) for es in nexp.elements.values() for ne in es}
    n_label = {ne: "⊗" + nexp.elem_label(ne) for ne in n_key}
    prefix = [pre for _, pre, _ in res.blocks]
    lo, hi = reach.read.lo - 1, reach.read.hi + 1
    elems = {}
    for k, (F, _, offset) in enumerate(res.blocks):
        for glabel, gdeg in F.generators:
            for nd in n_degrees:
                total = gdeg + offset + nd
                if lo <= total <= hi:
                    elems.setdefault(total, []).extend((k, glabel, ne)
                                                       for ne in nexp.elements[nd])
    for n in elems:
        elems[n].sort(key=lambda e: (prefix[e[0]] + e[1], n_key[e[2]]))
    labels = {n: [prefix[k] + g + n_label[ne] for k, g, ne in es] for n, es in elems.items()}

    acts = {}           # (element b of N, monomial a) -> a·b, once per call

    def column(n, e):
        k, glabel, ne = e
        F, _, offset = res.blocks[k]
        nd, j = nexp.pos[ne]
        # D_F part: D(g) = Σ h·a ; (h·a)⊗b = h⊗(a·b), left action via
        # graded commutativity a·b = (-1)^{|a||b|} b·a; the block's offset
        # adds the sign (-1)^offset of `block_sum`
        for h, a in F.differential.get(glabel, {}).items():
            for am, ac in a.items():
                if (ne, am) not in acts:
                    odd = A.monomial_degree(am) % 2 and nd % 2
                    acts[ne, am] = [(t, -c if odd else c) for t, c in
                                    nexp.act_element(ne, {am: f.one()}).items()]
                for tgt_ne, c in acts[ne, am]:
                    yield (k, h, tgt_ne), -(ac * c) if offset % 2 else ac * c
        # N-differential part with the Koszul sign of |g| + offset
        odd = (F.gen_degree[glabel] + offset) % 2
        for i, c in nexp.complex.column(nd, j):
            yield (k, glabel, nexp.elements[nd + 1][i]), -c if odd else c

    # a truncated block cuts the tensor at its truncation on N's lowest
    # degree, a truncated N at its cut on the lowest generator, M's lowest
    m_lo, n_lo = reach.m_window.lo, reach.n_window.lo
    cuts = [F.truncation_degree + offset + n_lo for F, _, offset in res.blocks
            if F.truncation_degree is not None]
    if nexp.complex.truncated_above is not None:
        cuts.append(nexp.complex.truncated_above + m_lo)
    # finite exactly when nothing is cut and the window holds the whole support
    bounded = not cuts and window.lo <= m_lo + n_lo and n_degrees[-1] + max(
        g + offset for F, _, offset in res.blocks for _, g in F.generators) <= window.hi
    cx, _ = assemble(f, dict(sorted(elems.items())), labels, column, min(cuts, default=None))
    dims, top = cohomology_dims(cx, reach.read), reach.read.hi
    if top < window.hi:     # periodic past top (`tensor_reach`)
        dims = {n: h for n in window.degrees()
                if (h := dims.get(n if n <= top else top - (top - n) % res.period))}
    certified_hi = window.hi if top < window.hi else cx.certified(window)[1]
    return TorResult(cx, dims, certified_hi, res.period, bounded, strategy)


# ---------------------------------------------------------------------------
# phi, compactness, level certificates
# ---------------------------------------------------------------------------


def auto_strategy(M: DGModulePresentation) -> str | None:
    """The resolution whose Tor `finiteness` can read: M itself when it is
    free and untruncated (bounded), the Koszul resolution of a trivial module
    (periodic over H*(S^d), bounded over a polynomial algebra); None for
    every other module, whose truncated resolution has neither bound nor
    period."""
    if M.is_free:
        return GIVEN if M.truncation_degree is None else None
    return KOSZUL if M.is_trivial() and _koszul_applies(M.algebra) else None


def phi(M: DGModulePresentation, window: DegreeWindow) -> FinitenessVerdict:
    """dim H(M ⊗^L_A K) in ``window`` as a verdict; unknown at once, with
    nothing built, when no resolution could certify it (`auto_strategy`)."""
    A = M.algebra
    if not A.is_simply_connected():
        raise NotSimplyConnected("phi needs a simply-connected algebra")
    strategy = auto_strategy(M)
    if strategy is None:
        return FinitenessVerdict("unknown")
    return derived_tensor(M, residue_module(A), strategy=strategy, window=window).verdict()


def infinite_level_certificate(tor: TorResult, algebra: DGAlgebraPresentation | None = None):
    """The infinite-cohomology witness behind "level = ∞".

    When the base algebra has finite-dimensional cohomology, any object built
    from it in finitely many steps has finite-dimensional cohomology; so a
    certified infinite Tor certifies level_A = ∞.  Returns the TorResult's
    FinitenessVerdict when its kind is "infinite", else None.
    """
    if algebra is not None and not algebra.is_bounded():
        raise PresentationError("the certificate needs dim H(A) < ∞")
    v = tor.verdict()
    return v if v.is_infinite else None


# ---------------------------------------------------------------------------
# Semifree filtrations
# ---------------------------------------------------------------------------


@dataclass
class SemifreeFiltration:
    """Nested generator subsets F^0 ⊆ F^1 ⊆ ... ⊆ F^c = all generators.

    Validity: the differential of each stage-n generator lies in the span of
    stage n-1 generators over the algebra, so every subquotient is a direct
    sum of shifts of the algebra.
    """

    module: DGModulePresentation
    stages: tuple

    def validate(self):
        if not self.module.is_free:
            raise InvalidFiltration("filtrations live on free presentations")
        all_gens = set(l for l, _ in self.module.generators)
        prev = frozenset()
        for i, stage in enumerate(self.stages):
            stage = frozenset(stage)
            if not prev <= stage:
                raise InvalidFiltration(f"stage {i} does not contain stage {i-1}")
            for g in stage - prev:
                for target in self.module.differential.get(g, {}):
                    if target not in prev:
                        raise InvalidFiltration(
                            f"differential of {g!r} escapes stage {i-1} (hits {target!r})")
            prev = stage
        if prev != frozenset(all_gens):
            raise InvalidFiltration("final stage must contain every generator")


def filtration_class(filtration: SemifreeFiltration) -> int:
    filtration.validate()
    all_gens = frozenset(l for l, _ in filtration.module.generators)
    for i, stage in enumerate(filtration.stages):
        if frozenset(stage) == all_gens:
            return i
    raise InvalidFiltration("no stage contains every generator")


def generator_depth_filtration(module: DGModulePresentation) -> SemifreeFiltration:
    """Greedy stage assignment: depth(g) = 1 + max depth over the generators
    appearing in D(g).  Always valid; gives the minimal class achievable
    without change of basis."""
    if not module.is_free:
        raise InvalidFiltration("depth filtration needs a free presentation")
    depth = {}

    def compute(g, trail):
        if g in depth:
            return depth[g]
        if g in trail:
            raise InvalidFiltration("differential dependency cycle")
        targets = module.differential.get(g, {})
        if not targets:
            depth[g] = 0
            return 0
        d = 1 + max(compute(t, trail | {g}) for t in targets)
        depth[g] = d
        return d

    for g, _ in module.generators:
        compute(g, frozenset())
    top = max(depth.values(), default=0)
    stages = []
    for c in range(top + 1):
        stages.append(frozenset(g for g, _ in module.generators if depth[g] <= c))
    return SemifreeFiltration(module, tuple(stages))
