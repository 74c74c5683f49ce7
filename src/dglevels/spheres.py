"""Molecules over spheres: catalog, quiver, decomposition and levels.

Over A = H*(S^d; K), d > 1, the compact derived category decomposes every
object uniquely into indecomposables ("molecules").  Molecules are the
objects Σ^{-l}Z_m, characterized by their cohomology: one-dimensional in the
two degrees -m(d-1)+l and d+l, zero elsewhere, and level_A(Σ^{-l}Z_m) = m+1
independently of the shift.  The Auslander-Reiten quiver splits into d-1
translation-quiver components indexed by l mod (d-1).

Module inputs are decomposed by the Jordan strings of their minimal model
(`decompose_module`).  A free module over A = K[x]/(x²) on a graded space V
of generators has D = δ₀ + x·Φ with scalar matrices δ₀ (degree 1) and Φ
(degree 1-d), and the level path builds every such module in this block
form, as a `SphereModule` with sparse columns per degree: the molecule
models, and by one builder (`extension_module`) every extension of the
sphere model by odd generators: the towers of `rational` and the model of a
bundle over S^4 alike.  With coefficients on the right (the right-module
rule of `module`), D(h·a) = D(h)·a since dA = 0, so

  D²(g) = δ₀²(g) + (Φδ₀ + δ₀Φ)(g)·x,

with no sign: D² = 0 exactly when δ₀² = 0 and Φδ₀ + δ₀Φ = 0, the two
identities a SphereModule checks on construction, and once only: it is a
free `DGModulePresentation` whose differential is read off the blocks.

By the homological perturbation lemma the minimal model is (H(V, δ₀), x·Φ̄),
since every higher transfer term carries x² = 0; Φ̄ is nilpotent of degree
1-d, and a Jordan string of length m+1 whose top sits in degree l is the
molecule Σ^{-l}Z_m.  The strings are read in one sweep of the degrees from
the top down (the elder rule of persistence): a string that reaches degree a
goes on where its cocycle is independent of the boundaries and the older
strings, and cocycles independent of all these start strings.  Invariant:
the strings born at or above s that reach a span the image of H_s in H_a.
So with r_k the rank of Φ̄^k, r_k(s) - r_{k+1}(s+d-1) strings born in s
reach k steps down: the rank count, and the decomposition is unique.

A raw module R (a finite complex with the action of x as matrices, a sum of
shifts of K among them) goes through the same engine: its Koszul resolution,
cut at a layer past R's amplitude, is a SphereModule (`raw_resolution`), and
its strings are R's molecules, copies of them in the cut layer, and one tower
per summand Σ^{-s}K of R, which certifies an infinite level.

Bare dimension tables and finite Tor results, known only through their
cohomology, are decomposed by perfect matching: pair the cohomology degrees
(a, b) with b - a >= d and (b - a - d) divisible by d - 1; each pair names the
molecule with l = b - d and m = (b - a - d)/(d - 1).  Cohomology alone cannot
always pick the matching, so every matching is listed, up to a fixed budget,
and the default minimizes the largest height; levels are then exact only when
all matchings agree, an interval otherwise.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .algebra import POLYNOMIAL, DGAlgebraPresentation, Generator
from .errors import (
    BudgetExceeded,
    FormalizabilityNotDeclared,
    NoValidMatching,
    NotCompactlyDecomposable,
    OddGenerator,
    PresentationError,
    VerificationFailed,
)
from .field import (FieldTag, QQ, _validate_entries, echelon_leads, integer_row,
                    rank_and_kernel, sparse_sum)
from .graded import _apply, dense_rows
from .module import DGModulePresentation, free_generators
from .resolve import (KOSZUL_GENERATOR_BUDGET, FinitenessVerdict, TorResult,
                      check_exterior_basis, sphere_block_period)


@dataclass(frozen=True)
class MoleculeId:
    """Σ^{-l}Z_m in the compact derived category of H*(S^d)."""

    d: int
    l: int
    m: int

    def __post_init__(self):
        if self.d <= 1:
            raise PresentationError("sphere dimension must exceed 1")
        if self.m < 0:
            raise PresentationError("molecule height must be nonnegative")

    def __str__(self):
        if self.l == 0:
            return f"Z_{self.m}"
        return f"Σ^{{{-self.l}}}Z_{self.m}"

    def to_json(self):
        return {"d": self.d, "l": self.l, "m": self.m, "name": str(self)}


def molecule_cohomology(mol: MoleculeId) -> dict:
    """K in degrees -m(d-1)+l and d+l, zero elsewhere."""
    return {-mol.m * (mol.d - 1) + mol.l: 1, mol.d + mol.l: 1}


def molecule_level(mol: MoleculeId) -> int:
    """Height plus one, independent of the shift."""
    return mol.m + 1


def component_index(mol: MoleculeId) -> int:
    """Which of the d-1 translation-quiver components contains the molecule."""
    return mol.l % (mol.d - 1)


# ---------------------------------------------------------------------------
# Quiver components
# ---------------------------------------------------------------------------


@dataclass
class QuiverComponent:
    d: int
    component: int
    vertices: list          # rows of MoleculeId, row index = height m
    arrows: list            # (from MoleculeId, to MoleculeId)

    def to_dot(self, field: FieldTag = QQ) -> str:
        lines = [f'digraph "ZA-infinity component {self.component} (d={self.d})" {{',
                 "  rankdir=LR;"]
        for v in (mol for row in self.vertices for mol in row):
            h = molecule_cohomology(v)
            a, b = sorted(h)
            r = realizable(v, field)
            tag = {"yes": "realizable", "no": "not realizable",
                   "char2": "char-2 unsupported"}[r.kind]
            label = f"{v} [H: {a},{b}] [level {molecule_level(v)}] [{tag}]"
            lines.append(f'  "{v}" [label="{label}"];')
        for src, tgt in self.arrows:
            lines.append(f'  "{src}" -> "{tgt}";')
        lines.append(f'  // one of {self.d - 1} components of the quiver')
        lines.append("}")
        return "\n".join(lines)


# vertices `quiver_component` builds before it gives up; 100 × 100 takes a
# third of a second as DOT, which labels every vertex
QUIVER_VERTEX_BUDGET = 10_000


def quiver_component(d: int, component: int, rows: int, cols: int) -> QuiverComponent:
    """Grid of the ZA∞ component: vertices Σ^{-l}Z_m with l ≡ component
    mod (d-1), arrows up-right Σ^{-l}Z_m → Σ^{-l-(d-1)}Z_{m+1} and down
    Σ^{-l}Z_m → Σ^{-l}Z_{m-1} (m >= 1, the same column); row translation is
    Σ^{-(d-1)}.  Raises BudgetExceeded before building more than
    QUIVER_VERTEX_BUDGET vertices."""
    if not (0 <= component <= d - 2):
        raise PresentationError(f"component must lie in [0, {d - 2}]")
    if rows < 1 or cols < 1:
        raise PresentationError("rows and cols must be positive")
    if rows * cols > QUIVER_VERTEX_BUDGET:
        raise BudgetExceeded(f"a {rows} × {cols} quiver grid has {rows * cols} vertices, "
                             f"more than {QUIVER_VERTEX_BUDGET}")
    vertices = []
    for m in range(rows):
        row = [MoleculeId(d, component + k * (d - 1), m) for k in range(cols)]
        vertices.append(row)
    arrows = []
    for m in range(rows):
        for k in range(cols):
            src = vertices[m][k]
            if k + 1 < cols and m + 1 < rows:
                arrows.append((src, vertices[m + 1][k + 1]))
            if m >= 1:
                arrows.append((src, vertices[m - 1][k]))
    return QuiverComponent(d, component, vertices, arrows)


# ---------------------------------------------------------------------------
# Realizability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealizabilityVerdict:
    kind: str           # "yes" | "no" | "char2"
    by: str | None = None
    reason: str | None = None

    def to_json(self):
        out = {"realizable": self.kind}
        if self.by:
            out["by"] = self.by
        if self.reason:
            out["reason"] = self.reason
        return out


def realizable(mol: MoleculeId, field: FieldTag) -> RealizabilityVerdict:
    """Whether a finite CW complex over the sphere realizes the molecule.

    Valid in characteristic 0 or > 2: yes exactly for Z_0 (the sphere itself)
    and, when d is even, Σ^{-(d-1)}Z_1 (realized through a map S^{2d-1} → S^d
    whose Hopf invariant is nonzero in K; the Whitehead square provides one
    with invariant ±2, which dies mod 2).
    """
    if field.characteristic() == 2:
        return RealizabilityVerdict("char2")
    if mol.l == 0 and mol.m == 0:
        return RealizabilityVerdict("yes", by=f"S^{mol.d}")
    if mol.l == mol.d - 1 and mol.m == 1 and mol.d % 2 == 0:
        return RealizabilityVerdict(
            "yes", by=f"S^{2 * mol.d - 1} via a map with Hopf invariant ±2 ≠ 0 in K")
    if mol.l != mol.m * (mol.d - 1):
        return RealizabilityVerdict("no", reason="NegativeDegreeObstruction")
    return RealizabilityVerdict("no", reason="FibreCohomologyInfinite")


# ---------------------------------------------------------------------------
# Decomposition by perfect matching
# ---------------------------------------------------------------------------


@dataclass
class Decomposition:
    molecules: tuple            # the default multiset, sorted
    matching: tuple             # ((a, b), ...) degree pairs of the default
    ambiguous: bool
    alternatives: tuple         # other molecule multisets, sorted

    @staticmethod
    def of(molecules) -> "Decomposition":
        """The one decomposition into these molecules, each matched by its
        two cohomology degrees."""
        molecules = tuple(molecules)
        return Decomposition(molecules, tuple(tuple(sorted(molecule_cohomology(mol)))
                                              for mol in molecules), False, ())

    def level(self):
        return _level_of(self.molecules)

    def level_result(self) -> "LevelResult":
        """Exact when all molecule multisets share one level, else their interval."""
        levels = sorted({_level_of(mols) for mols in (self.molecules, *self.alternatives)})
        if len(levels) == 1:
            return LevelResult.exact(levels[0], decomposition=self)
        return LevelResult.interval(levels[0], levels[-1], decomposition=self)

    def to_json(self):
        return {
            "molecules": [m.to_json() for m in self.molecules],
            "componentIndices": [component_index(m) for m in self.molecules],
            "matching": [list(p) for p in self.matching],
            "ambiguous": self.ambiguous,
            "alternatives": [[m.to_json() for m in alt] for alt in self.alternatives],
        }


def _pair_valid(a, b, d):
    return b - a >= d and (b - a - d) % (d - 1) == 0


# matchings `all_matchings` lists before it gives up; above the 40,320 of the
# 16-class table of build_P_tower(5, 3)
MATCHING_BUDGET = 100_000


def all_matchings(dims, d, key):
    """The perfect matchings of the degree multiset into molecule pairs, as a
    dict from each value of key(pairs) to the first matching that gives it.

    The lowest class left is paired with each distinct valid partner in
    increasing degree, depth first, on an explicit stack (a table may hold
    thousands of pairs).  The counts left decide every completion, so a
    vector of counts that once completed to no matching is skipped when it
    comes up again.  Raises BudgetExceeded instead of finding more than
    MATCHING_BUDGET, counting the ones ``key`` drops.
    """
    degrees = sorted(n for n in dims if dims[n])
    left = {n: dims[n] for n in degrees}
    partners = {a: [b for b in degrees if _pair_valid(a, b, d)] for a in degrees}
    out, acc, stack = {}, [], []    # len(acc) == len(stack) - 1
    dead = set()                    # count vectors left that complete to no matching
    found = 0

    def extend():
        """Open a frame on the lowest class left, or record a full matching;
        False when no frame opened."""
        nonlocal found
        for a in degrees:
            if left[a]:
                counts = tuple(left.values())
                if counts in dead:
                    return False
                left[a] -= 1
                stack.append((a, iter(partners[a]), counts, found))
                return True
        if found == MATCHING_BUDGET:
            raise BudgetExceeded(f"the degree table has more than {MATCHING_BUDGET} matchings "
                                 "into molecule pairs")
        found += 1
        if (k := key(acc)) not in out:
            out[k] = tuple(acc)
        return False

    extend()
    while stack:
        a, options, counts, found_before = stack[-1]
        for b in options:
            if left[b]:
                left[b] -= 1
                acc.append((a, b))
                break
        else:               # every partner of this a is tried: give it back
            stack.pop()
            left[a] += 1
            if found == found_before:
                dead.add(counts)
            if stack:       # and undo the pair that opened its frame
                left[acc.pop()[1]] += 1
            continue
        if not extend():    # a matching is recorded or the rest is dead: undo the pair
            left[acc.pop()[1]] += 1
    return out


def decompose(dims, d: int) -> Decomposition:
    """Resolve a cohomology dimension table into a multiset of molecules.

    Every perfect matching is searched, keeping the first for each molecule
    multiset; the default minimizes the maximal height (then sorts
    lexicographically), and `ambiguous` flags everything with more than one
    molecule multiset.
    """
    if d <= 1:
        raise PresentationError("sphere dimension must exceed 1")
    for n, v in dims.items():
        if v < 0:
            raise PresentationError(f"negative multiplicity at degree {n}")
    dims = {n: v for n, v in dims.items() if v}
    if sum(dims.values()) % 2:
        raise NoValidMatching("odd total dimension cannot split into molecules")
    # each molecule multiset, as sorted (m, l) pairs, with the first matching
    # that gives it
    pair_ml = {(a, b): ((b - a - d) // (d - 1), b - d)
               for a in dims for b in dims if _pair_valid(a, b, d)}
    first = all_matchings(dims, d, lambda pairs: tuple(sorted(map(pair_ml.__getitem__, pairs))))
    if not first:
        raise NoValidMatching(
            f"dimension table {dims} is not a sum of molecule cohomologies over S^{d}")
    keys = sorted(first, key=lambda key: (key[-1][0] if key else -1, key))
    mols = {ml: MoleculeId(d, ml[1], ml[0]) for ml in pair_ml.values()}
    multisets = [tuple(map(mols.__getitem__, key)) for key in keys]
    return Decomposition(multisets[0], first[keys[0]], len(keys) > 1,
                         tuple(multisets[1:]))


# ---------------------------------------------------------------------------
# Decomposition of modules by Jordan strings
# ---------------------------------------------------------------------------


def _require_sphere(module: DGModulePresentation, d: int):
    A = module.algebra
    if A.sphere_generator_label() is None or A.generators[0].degree != d:
        raise PresentationError(f"the module does not live over H*(S^{d})")


class SphereModule(DGModulePresentation):
    """A finite free module over H*(S^d) = K[x]/(x²) as two scalar blocks.

    ``generators`` lists (label, degree) pairs.  ``delta`` and ``phi`` map a
    generator's index to its column {target index: scalar}: D(g) = δ₀(g) +
    Φ(g)·x, so δ₀ raises the degree by 1 and Φ by 1 - d.  Both are stored as
    sparse columns per degree: ``delta[n][j]`` lists (row, scalar) pairs for
    generator j of degree n, rows indexing the generators of degree n + 1;
    a degree whose columns are all zero has no entry.
    D² = δ₀² + (Φδ₀ + δ₀Φ)·x (see the module docstring), so both identities
    are checked on construction; a violation raises PresentationError.  The
    presentation's ``algebra`` and ``differential`` are read off on first use.
    """

    truncation_degree = complex = actions = None

    def __init__(self, d: int, field: FieldTag, generators, delta=None, phi=None):
        if d <= 1:
            raise PresentationError("sphere dimension must exceed 1")
        self.d = d
        self.field = field
        self.generators = free_generators(generators)
        self.gen_degree = dict(self.generators)
        self.labels = {}            # degree -> generator labels
        self._slot = []             # generator index -> position in its degree
        for label, deg in self.generators:
            self._slot.append(len(self.labels.setdefault(deg, [])))
            self.labels[deg].append(label)
        self.delta = self._columns(delta or {}, 0)
        self.phi = self._columns(phi or {}, d)
        self._check()

    @cached_property
    def algebra(self):
        return DGAlgebraPresentation.sphere_cohomology(self.d, self.field)

    @cached_property
    def differential(self):
        f, diff = self.field, {}
        for e, blocks in ((0, self.delta), (1, self.phi)):
            for deg, cols in blocks.items():
                targets = self.labels.get(deg + 1 - e * self.d)
                for label, col in zip(self.labels[deg], cols):
                    for i, c in col:
                        diff.setdefault(label, {})[targets[i]] = \
                            {(e,): f.from_int(c) if isinstance(c, int) else c}
        return diff

    def _columns(self, columns, xdeg):
        """Per-degree sparse columns of the block whose entries multiply x^xdeg;
        an entry that is no scalar of the field raises FieldMismatch."""
        out, last = {}, len(self.generators) - 1
        for src, terms in columns.items():
            if not all(type(i) is int and 0 <= i <= last for i in (src, *terms)):
                raise PresentationError(f"a column of D({src!r}) indexes a generator outside "
                                        f"0..{last}")
            _validate_entries((terms.values(),), self.field)
            label, deg = self.generators[src]
            col = []
            for tgt, c in terms.items():
                c = self._scalar(c)
                if not c:
                    continue
                tlabel, tdeg = self.generators[tgt]
                if tdeg + xdeg != deg + 1:
                    raise PresentationError(
                        f"D({label}) term on {tlabel} has total degree {tdeg + xdeg}, "
                        f"expected {deg + 1}")
                col.append((self._slot[tgt], c))
            if col:
                out.setdefault(deg, [[] for _ in self.labels[deg]])[self._slot[src]] = col
        return out

    def _scalar(self, c):
        """Residues over F_p; over Q ints where integral, else Fractions."""
        if self.field.p:
            return self.field.from_fraction(c.numerator, c.denominator)
        return c.numerator if c.denominator == 1 else c

    def _check(self):
        """δ₀² = 0 and Φδ₀ + δ₀Φ = 0, one generator's column at a time."""
        if not self.delta:
            return                  # δ₀ = 0 satisfies both
        f, d = self.field, self.d
        for deg in sorted(self.delta.keys() | self.phi.keys()):
            none = [[]] * len(self.labels[deg])
            for label, dcol, pcol in zip(self.labels[deg], self.delta.get(deg, none),
                                         self.phi.get(deg, none)):
                if not (dcol or pcol):
                    continue
                square = _apply(self.delta, deg + 1, dcol, f)
                cross = sparse_sum([*_apply(self.phi, deg + 1, dcol, f).items(),
                                    *_apply(self.delta, deg + 1 - d, pcol, f).items()], f)
                for hit, tdeg in ((square, deg + 2), (cross, deg + 2 - d)):
                    if hit:
                        raise PresentationError(f"D∘D ≠ 0 on generator {label!r} "
                                                f"(lands on {self.labels[tdeg][min(hit)]!r})")

    @staticmethod
    def from_presentation(module: DGModulePresentation, d: int) -> "SphereModule":
        """Split a finite, untruncated free presentation over H*(S^d) into
        its blocks: the x⁰ coefficients form δ₀, the x¹ coefficients Φ."""
        _require_sphere(module, d)
        if not module.is_free or module.truncation_degree is not None:
            raise PresentationError("Jordan strings need a finite, untruncated free module")
        index = {label: i for i, (label, _) in enumerate(module.generators)}
        delta, phi = {}, {}
        for src, terms in module.differential.items():
            for tgt, poly in terms.items():
                for (e,), c in poly.items():
                    (phi if e else delta).setdefault(index[src], {})[index[tgt]] = c
        return SphereModule(d, module.field, module.generators, delta, phi)


def decompose_module(module, d: int) -> Decomposition:
    """Molecules of a finite free module over H*(S^d): a SphereModule as it
    is, or another untruncated free presentation, split by `from_presentation`.

    Reads the Jordan strings of Φ̄ on H(V, δ₀) in one top-down sweep (see
    the module docstring).  The strings carried into degree a hold a cocycle
    each, oldest first.  With B_a the boundaries and Z_a a basis of the
    cocycles, the pivots of [B_a | carried | Z_a] keep a string or end it in
    degree a + d - 1, and start strings in degree a.  The survivors and
    births go through Φ once and must number dim H_a, or VerificationFailed.
    Dimension counts skip what they decide: with no boundaries a lone column
    spans, and Z_a joins only where the carried do not fill H_a.  `matching`
    lists each molecule's two cohomology degrees; nothing is ambiguous.
    """
    if d <= 1:
        raise PresentationError("sphere dimension must exceed 1")
    if not isinstance(module, SphereModule):
        module = SphereModule.from_presentation(module, d)
    elif module.d != d:
        raise PresentationError(f"the module does not live over H*(S^{d})")
    f, p = module.field, module.field.p
    labels, delta, phi = module.labels, module.delta, module.phi

    def pivots(cols):
        """The sparse columns independent of those before them; all are
        nonzero, so a lone one needs no reduction."""
        if len(cols) == 1:
            return [0]
        rows = {}
        for j, col in enumerate(cols):
            for i, c in col:
                rows.setdefault(i, []).append((j, c))
        return echelon_leads(rows.values(), f)

    def nonzero(v):
        """A kernel vector's nonzero (index, scalar) pairs, over Q scaled to ints."""
        at = [i for i, x in enumerate(v) if x]
        return list(zip(at, (v[i] for i in at) if p else integer_row([v[i] for i in at])))

    ends = Counter()                # (m, l) -> strings of height m with top l
    carried = {}                    # degree -> [(top, sparse cocycle)], oldest first
    for a in sorted(labels, reverse=True):
        n, strings = len(labels[a]), carried.pop(a, [])
        if a in delta:              # Z_a, the kernel of δ₀, from its rows
            rows = dense_rows(delta[a], len(labels[a + 1]), f)
            Z = [nonzero(v) for v in rank_and_kernel(rows, f)[1]]
        else:
            Z = [[(j, 1)] for j in range(n)]
        B = [col for col in delta.get(a - 1, ()) if col]
        if not B and (len(Z) == 1 or not strings):
            # the first column spans H_a, or Z_a is its basis
            dim, survivors, dead = len(Z), strings[:len(Z)], strings[len(Z):]
            births = [] if strings else Z
        else:                       # Z_a joins only if the carried do not fill H_a
            found = pivots(B + [v for _, v in strings])
            keep = [c - len(B) for c in found if c >= len(B)]
            dim = len(Z) - len(found) + len(keep)       # rank B_a is the rest
            survivors = [strings[i] for i in keep]
            dead = [s for i, s in enumerate(strings) if i not in keep]
            kept = B + [v for _, v in survivors]
            births = [Z[c - len(kept)] for c in pivots(kept + Z) if c >= len(kept)] \
                if len(keep) < dim else []
        if len(survivors) + len(births) != dim:
            raise VerificationFailed(f"degree {a} holds {len(survivors) + len(births)} strings "
                                     f"where dim H = {dim}")
        for top, _ in dead:
            ends[(top - a) // (d - 1) - 1, top] += 1
        t = a + 1 - d
        for top, v in survivors + [(a, z) for z in births]:     # oldest first
            if w := _apply(phi, a, v, f):
                carried.setdefault(t, []).append((top, list(w.items())))
            else:
                ends[(top - a) // (d - 1), top] += 1
    return Decomposition.of(mol for (m, l), k in sorted(ends.items())
                            for mol in [MoleculeId(d, l, m)] * k)


# ---------------------------------------------------------------------------
# Molecule models
# ---------------------------------------------------------------------------


def molecule_model(mol: MoleculeId, field: FieldTag = QQ,
                   verify: bool = True) -> SphereModule:
    """Free module realizing Σ^{-l}Z_m over H*(S^d): generators e_0, ..., e_m
    in degrees l - (m-j)(d-1) with D(e_j) = e_{j-1}·x.

    Verified on construction: its Jordan strings are exactly the one molecule.
    """
    d = mol.d
    gens = [(f"e{j}", mol.l - (mol.m - j) * (d - 1)) for j in range(mol.m + 1)]
    module = SphereModule(d, field, gens, phi={j: {j - 1: 1} for j in range(1, mol.m + 1)})
    if verify:
        found = decompose_module(module, d).molecules
        if found != (mol,):
            raise VerificationFailed(
                f"model of {mol} decomposes as {[str(m) for m in found]}")
    return module


# ---------------------------------------------------------------------------
# Levels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelResult:
    kind: str                   # "exact" | "interval" | "infinite"
    value: int | None = None
    lo: int | None = None
    hi: int | None = None
    certificate: object = None
    decomposition: Decomposition | None = None

    @staticmethod
    def exact(n, decomposition=None):
        return LevelResult("exact", value=n, lo=n, hi=n, decomposition=decomposition)

    @staticmethod
    def interval(lo, hi, decomposition=None):
        return LevelResult("interval", lo=lo, hi=hi, decomposition=decomposition)

    @staticmethod
    def infinite(cert):
        return LevelResult("infinite", certificate=cert)

    def to_json(self):
        if self.kind == "exact":
            return {"kind": "exact", "level": self.value}
        if self.kind == "interval":
            return {"kind": "interval", "lo": self.lo, "hi": self.hi}
        return {"kind": "infinite",
                "certificate": self.certificate.to_json() if self.certificate else None}


def raw_resolution(module: DGModulePresentation, d: int, layers: int) -> SphereModule:
    """The Koszul resolution of a raw module R over A = H*(S^d), cut at
    layer L = ``layers``, as a SphereModule.

    It is the twisted tensor product A ⊗ A^¡ ⊗ R (Priddy, Koszul resolutions,
    1970), with A^¡ = K{g_k} the Koszul dual coalgebra of A, g_k in degree
    k(d-1): generators g_k ⊗ r, k = 0..L and r a basis of R, in degree
    |r| + k(d-1), with

      δ₀(g_k ⊗ r) = g_{k-1} ⊗ x·r + (-1)^k g_k ⊗ d_R r,
      Φ(g_k ⊗ r) = (-1)^k g_{k-1} ⊗ r.

    x commutes with d_R (the raw module checks it), so δ₀² = 0 and
    Φδ₀ + δ₀Φ = 0, which the SphereModule checks again.  D lowers the layer,
    so layers 0..L are a submodule F_L of the whole resolution F ≃ R.

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
                    phi[g] = {g - size: sign}
                    if xcols:
                        delta[g].update((layer - size + at[n + d] + i, c) for i, c in xcols[j])
    return SphereModule(d, module.field, gens, delta, phi)


def sphere_level(data, d: int) -> LevelResult:
    """Level over H*(S^d) of a module, a Tor result, or a dimension table.

    Every untruncated module is decomposed by Jordan strings
    (`decompose_module`): a SphereModule or a free module as it is, a raw
    module R (trivial ones too) through `raw_resolution`, whose cut separates
    R's molecules, for an exact level, from towers, the summands Σ^{-s}K of R.
    A tower certifies an infinite level: its period is `sphere_block_period`,
    its witnesses the lowest tower's bottom and the two degrees one and two
    periods above it, which the cut keeps in the tower.  A truncated
    module raises NotCompactlyDecomposable: its cohomology is known only below
    the truncation, and phi, which reads no truncated module, does not certify
    infinite Tor.  A Tor result's own infinite verdict wins; finite Tor
    results and dimension tables are decomposed by matching, and ambiguity
    produces an interval, never a guess.  A module over any other algebra
    raises PresentationError.
    """
    if isinstance(data, TorResult):
        v = data.verdict()
        if v.is_infinite:
            return LevelResult.infinite(v)
        if not v.is_finite:
            raise NotCompactlyDecomposable(
                "finiteness of the cohomology could not be certified")
        dims = {n: x for n, x in data.dims.items() if x}
    elif isinstance(data, DGModulePresentation):
        if data.is_free and data.truncation_degree is None:
            return decompose_module(data, d).level_result()
        _require_sphere(data, d)
        if data.truncation_degree is not None:
            raise NotCompactlyDecomposable(
                f"the module is truncated at degree {data.truncation_degree} and "
                "phi does not certify infinite Tor, so its cohomology is partial")
        degrees = data.complex.space.degrees() or [0]
        lo, a, p = degrees[0], degrees[-1] - degrees[0], sphere_block_period(d)
        layers = max((a - d) // (d - 1) + 1, 2 * p // (d - 1))
        dec = decompose_module(raw_resolution(data, d, layers), d)
        towers = [mol for mol in dec.molecules if mol.m * (d - 1) + d > a]
        if towers:
            bottom = min(mol.l - mol.m * (d - 1) for mol in towers)
            return LevelResult.infinite(FinitenessVerdict(
                "infinite", period=p, witnesses=(bottom, bottom + p, bottom + 2 * p)))
        return Decomposition.of(mol for mol in dec.molecules
                                if mol.l < lo + layers * (d - 1)).level_result()
    else:
        dims = {n: x for n, x in data.items() if x}
    if not dims:
        return LevelResult.exact(0)
    try:
        dec = decompose(dims, d)
    except NoValidMatching as e:
        raise NotCompactlyDecomposable(str(e))
    return dec.level_result()


def _level_of(molecules) -> int:
    """Level of a molecule multiset: its largest molecule level, 0 when empty."""
    return max(map(molecule_level, molecules), default=0)


# ---------------------------------------------------------------------------
# Extensions of the sphere model: towers and bundles
# ---------------------------------------------------------------------------


def extension_module(d: int, field: FieldTag, generators, what: str) -> SphereModule:
    """An extension of the model of S^d by exterior generators w_k, given as
    `TowerSpec.generators`, as a free module over H*(S^d) on the square-free
    monomials w^S.  Each D(w_k) is pushed onto H*(S^d) once (ξ, x² ↦ 0), to
    D̄(w_k) = Σ c·x^e·w^β, and D(w^S) = Σ_{k ∈ S} (-1)^{#S below k}
    w^{S below k}·D̄(w_k)·w^{S above k}.  Every w_k is odd, so x^e moves to
    the right past the prefix and w^β, and sorting the product of w's is a
    permutation sign (every bit of β lies below k); a repeated w_k gives
    zero.  Callers pass an even w_k only over F_2, where every sign is +1.
    ``what`` names the listing when its 2^n products pass the budget."""
    n = len(generators)
    check_exterior_basis(n, what)
    bit = {label: k for k, (label, _, _) in enumerate(generators)}
    pushed = []                 # per k: (e, β as a mask, bits of β, c)
    for _, _, D in generators:
        terms = []
        for key, c in D.items():
            e = key.count("x")  # x comes first in a key
            if e > 1 or "ξ" in key:
                continue                # x² and ξ map to zero
            bits = [bit[name] for name in key[e:]]
            terms.append((e, sum(1 << j for j in bits), bits, c))
        pushed.append(terms)
    gens, delta, phi = [], {}, {}
    for mask in range(1 << n):
        word = [g for k, g in enumerate(generators) if mask >> k & 1]
        gens.append(("·".join(label for label, _, _ in word) or "1",
                     sum(deg for _, deg, _ in word)))
        for k in range(n):
            if not mask >> k & 1:
                continue
            rest = mask ^ (1 << k)
            below = rest & ((1 << k) - 1)
            lead = below.bit_count()
            for e, beta, bits, c in pushed[k]:
                if beta & rest:
                    continue
                target = rest | beta
                # the Leibniz sign, then the inversions of (below, β)
                sign = lead + sum((below >> b).bit_count() for b in bits)
                if e and d & 1:
                    sign += lead + target.bit_count()
                col = (phi if e else delta).setdefault(mask, {})
                col[target] = col.get(target, 0) + (-c if sign & 1 else c)
    return SphereModule(d, field, gens, delta, phi)


def bundle_level(poly_gens, f4_nonzero: bool, field: FieldTag,
                 formalizable_declared: bool = False):
    """Level over S^4 of the total space of a bundle classified by a map into
    a space with polynomial cohomology P = K[y_1, ..., y_n] on the given
    generator degrees.

    Over the K-formal base the total space has the model of S^4 extended by
    one generator a_j of degree g_j - 1 per y_j, with D(a_1) = x when
    f4_nonzero (y₄ acts as the sphere class) and every other D zero: the
    Koszul complex of K over P, tensored down along the classifying map.
    `extension_module` builds it as blocks over H*(S^4); the molecules are
    its Jordan strings, Tor is their cohomology, and both are checked
    against closed forms (`_checked_tor`).
    """
    poly_gens = list(poly_gens)
    if any(g % 2 for g in poly_gens):
        if field.characteristic() != 2:
            raise OddGenerator("odd generators are only allowed over F_2")
        if not formalizable_declared:
            raise FormalizabilityNotDeclared(
                "odd generators in characteristic 2 need a declared "
                "relatively-formalizable pair")
    if f4_nonzero and (not poly_gens or poly_gens[0] != 4):
        raise PresentationError("the first generator must have degree 4 when it acts")
    for i, g in enumerate(poly_gens):     # Generator checks the degree, naming y_g
        Generator(f"y{g}_{i}" if poly_gens.count(g) > 1 else f"y{g}", g, POLYNOMIAL)

    gens = [(f"a{j + 1}", g - 1, {("x",): 1} if f4_nonzero and not j else {})
            for j, g in enumerate(poly_gens)]
    dec = decompose_module(extension_module(
        4, field, gens, f"the Koszul complex over {len(gens)} polynomial generators"), 4)
    return dec.level(), dec, _checked_tor(dec, poly_gens, f4_nonzero)


def _checked_tor(dec: Decomposition, poly_gens, f4_nonzero) -> dict:
    """Tor of a bundle, the cohomology of its molecules, sorted by degree.
    Both closed forms are hard checks: Tor is ∏_j {0, g_j - 1} × {0, 7} when
    y₄ acts (its own factor dropped) and × {0, 4} otherwise; the level is 2
    when y₄ acts and 1 otherwise."""
    closed = {0: 1}
    for step in [g - 1 for g in poly_gens[1 if f4_nonzero else 0:]] + [7 if f4_nonzero else 4]:
        for n, v in list(closed.items()):
            closed[n + step] = closed.get(n + step, 0) + v
    tor = {}
    for mol in dec.molecules:
        for n, v in molecule_cohomology(mol).items():
            tor[n] = tor.get(n, 0) + v
    if tor != closed:
        raise VerificationFailed("the molecules' cohomology differs from the Koszul closed form "
                                 "of Tor")
    expected = 2 if f4_nonzero else 1
    if dec.level() != expected:
        raise VerificationFailed(
            f"computed level {dec.level()} disagrees with the closed form {expected}")
    return dict(sorted(tor.items()))


def free_pullback_level(basis_degrees):
    """Level over S^4 of a pullback whose upstairs cohomology is declared
    free over the base polynomial algebra, with the given module basis
    degrees.

    The derived tensor is then the plain tensor: a sum of shifts of H*(S^4),
    a free module with zero differential.  Its Jordan strings are recomputed
    and must all have height 0.
    """
    basis = [(f"b{i}", b) for i, b in enumerate(basis_degrees)]
    if any(b % 2 for _, b in basis):
        raise OddGenerator("a free basis over an even polynomial algebra is even")
    dec = decompose_module(SphereModule(4, QQ, basis), 4)
    if dec.level() > 1:
        raise VerificationFailed("the decomposition contains a molecule of positive height")
    return 1, dec.molecules
