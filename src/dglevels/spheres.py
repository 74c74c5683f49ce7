"""Molecules over spheres and cohomology-driven decomposition.

Over A = H*(S^d; K), d > 1, the compact derived category decomposes every
object uniquely into indecomposables ("molecules").  Molecules are the
objects Σ^{-l}Z_m, characterized by their cohomology: one-dimensional in the
two degrees -m(d-1)+l and d+l, zero elsewhere, and level_A(Σ^{-l}Z_m) = m+1
independently of the shift.  The Auslander-Reiten quiver splits into d-1
translation-quiver components indexed by l mod (d-1).

Decomposition therefore reduces to perfect matchings: pair the cohomology
degrees (a, b) with b - a >= d and (b - a - d) divisible by d - 1; each pair
names the molecule with l = b - d and m = (b - a - d)/(d - 1).  Cohomology
alone cannot always pick the matching, so every maximal matching is listed
and the default minimizes the largest height; levels are then exact only
when all matchings agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import DGAlgebraPresentation
from .errors import (
    FormalizabilityNotDeclared,
    MissingData,
    NoValidMatching,
    NotCompactlyDecomposable,
    NotFree,
    OddGenerator,
    PresentationError,
    VerificationFailed,
)
from .field import FieldTag, QQ
from .graded import DegreeWindow, total_dimension
from .module import DGModulePresentation, find_idempotents
from .resolve import (
    TorResult,
    derived_tensor,
    filtration_class,
    generator_depth_filtration,
)


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
        return f"Σ^{{-{self.l}}}Z_{self.m}"

    def to_json(self):
        return {"d": self.d, "l": self.l, "m": self.m, "name": str(self)}


def molecule_cohomology(mol: MoleculeId) -> dict:
    """K in degrees -m(d-1)+l and d+l, zero elsewhere."""
    low = -mol.m * (mol.d - 1) + mol.l
    high = mol.d + mol.l
    if low == high:
        raise VerificationFailed("molecule degrees collide; impossible for d > 1")
    return {low: 1, high: 1}


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
        seen = []
        for row in self.vertices:
            for v in row:
                if v not in seen:
                    seen.append(v)
        for v in seen:
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


def quiver_component(d: int, component: int, rows: int, cols: int) -> QuiverComponent:
    """Grid of the ZA∞ component: vertices Σ^{-l}Z_m with l ≡ component
    mod (d-1), arrows up-right Σ^{-l}Z_m → Σ^{-l-(d-1)}Z_{m+1} and down-right
    Σ^{-l}Z_m → Σ^{-l-(d-1)}Z_{m-1} (m >= 1); row translation is Σ^{-(d-1)}."""
    if not (0 <= component <= d - 2):
        raise PresentationError(f"component must lie in [0, {d - 2}]")
    if rows < 1 or cols < 1:
        raise PresentationError("rows and cols must be positive")
    vertices = []
    for m in range(rows):
        row = [MoleculeId(d, component + k * (d - 1), m) for k in range(cols)]
        vertices.append(row)
    arrows = []
    for m in range(rows):
        for k in range(cols):
            src = vertices[m][k]
            if k + 1 < cols:
                if m + 1 < rows:
                    arrows.append((src, vertices[m + 1][k + 1]))
                if m >= 1:
                    arrows.append((src, vertices[m - 1][k + 1]))
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

    def max_height(self):
        return max((mol.m for mol in self.molecules), default=-1)

    def level(self):
        return self.max_height() + 1

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


def all_matchings(dims, d):
    """Every perfect matching of the degree multiset into molecule pairs."""
    degrees = []
    for n in sorted(dims):
        degrees.extend([n] * dims[n])
    valid = {(a, b) for a in dims for b in dims if _pair_valid(a, b, d)}
    out = []

    def search(remaining, acc):
        if not remaining:
            out.append(acc)
            return
        a = remaining[0]
        prev = None
        for i in range(1, len(remaining)):
            b = remaining[i]
            if b == prev:       # the degrees are sorted: equal partners are adjacent
                continue
            prev = b
            if (a, b) in valid:
                search(remaining[1:i] + remaining[i + 1:], acc + ((a, b),))

    search(degrees, ())
    return out


def decompose(dims, d: int) -> Decomposition:
    """Resolve a cohomology dimension table into a multiset of molecules.

    All maximal matchings are computed; the default minimizes the maximal
    height (then sorts lexicographically), and `ambiguous` flags everything
    with more than one molecule multiset.
    """
    if d <= 1:
        raise PresentationError("sphere dimension must exceed 1")
    dims = {n: v for n, v in dims.items() if v}
    if total_dimension(dims) % 2:
        raise NoValidMatching("odd total dimension cannot split into molecules")
    matchings = all_matchings(dims, d)
    if not matchings:
        raise NoValidMatching(
            f"dimension table {dims} is not a sum of molecule cohomologies over S^{d}")
    # one entry per molecule multiset, as sorted (m, l) pairs, with the first
    # matching that gives it
    pair_ml = {(a, b): ((b - a - d) // (d - 1), b - d)
               for a in dims for b in dims if _pair_valid(a, b, d)}
    first = {}
    for match in matchings:
        key = tuple(sorted(map(pair_ml.__getitem__, match)))
        if key not in first:
            first[key] = match
    keys = sorted(first, key=lambda key: (key[-1][0] if key else -1, key))
    mols = {ml: MoleculeId(d, ml[1], ml[0]) for ml in pair_ml.values()}
    multisets = [tuple(map(mols.__getitem__, key)) for key in keys]
    return Decomposition(multisets[0], first[keys[0]], len(keys) > 1,
                         tuple(multisets[1:]))


# ---------------------------------------------------------------------------
# Molecule models
# ---------------------------------------------------------------------------


def molecule_model(mol: MoleculeId, field: FieldTag = QQ,
                   verify: bool = True) -> DGModulePresentation:
    """Free module realizing Σ^{-l}Z_m over H*(S^d): generators e_0, ..., e_m
    in degrees l - (m-j)(d-1) with D(e_j) = e_{j-1}·x.

    Verified on construction: the cohomology matches the catalog formula and
    the endomorphism search finds no nontrivial idempotent.
    """
    d = mol.d
    A = DGAlgebraPresentation.sphere_cohomology(d, field)
    x = f"x{d}"
    gens = [(f"e{j}", mol.l - (mol.m - j) * (d - 1)) for j in range(mol.m + 1)]
    diff = {f"e{j}": {f"e{j-1}": A.generator_poly(x)} for j in range(1, mol.m + 1)}
    module = DGModulePresentation.free(A, gens, diff)
    if verify:
        dims = module.cohomology_dims()
        if dims != molecule_cohomology(mol):
            raise VerificationFailed(
                f"model of {mol} has cohomology {dims}, catalog says {molecule_cohomology(mol)}")
        if find_idempotents(module):
            raise VerificationFailed(f"model of {mol} split unexpectedly")
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


def sphere_level(data, d: int, window: DegreeWindow | None = None,
                 upper_bound: int | None = None) -> LevelResult:
    """Level over H*(S^d) of a module, a Tor result, or a dimension table.

    Infinite-cohomology certificates win; otherwise decompose the cohomology
    and read levels off the heights.  Module presentations contribute a
    filtration-class upper bound that prunes impossible matchings; ambiguity
    that survives the pruning produces an interval, never a guess.
    """
    dims = None
    if isinstance(data, TorResult):
        v = data.verdict()
        if v.is_infinite:
            return LevelResult.infinite(v)
        if not v.is_finite:
            raise NotCompactlyDecomposable(
                "finiteness of the cohomology could not be certified")
        dims = {n: x for n, x in data.dims.items() if x}
    elif isinstance(data, DGModulePresentation):
        dims = data.cohomology_dims(window)
        if data.is_free and upper_bound is None:
            upper_bound = filtration_class(generator_depth_filtration(data)) + 1
    else:
        dims = {n: x for n, x in data.items() if x}
    if not dims:
        return LevelResult.exact(0)
    try:
        dec = decompose(dims, d)
    except NoValidMatching as e:
        raise NotCompactlyDecomposable(str(e))
    return _level_from_decomposition(dec, upper_bound)


def _level_of(molecules) -> int:
    """Level of a multiset sorted by (m, l): the last height plus one."""
    return molecules[-1].m + 1 if molecules else 0


def _level_from_decomposition(dec: Decomposition, upper_bound=None) -> LevelResult:
    candidates = [dec.molecules] + list(dec.alternatives)
    if upper_bound is not None:
        pruned = [mols for mols in candidates if _level_of(mols) <= upper_bound]
        if not pruned:
            raise VerificationFailed(
                f"the filtration bound {upper_bound} contradicts every matching")
        if len(pruned) < len(candidates):
            dec = Decomposition(pruned[0],
                                dec.matching if pruned[0] == dec.molecules else (),
                                len(pruned) > 1, tuple(pruned[1:]))
            candidates = pruned
    levels = sorted({_level_of(mols) for mols in candidates})
    if len(levels) == 1:
        return LevelResult.exact(levels[0], decomposition=dec)
    return LevelResult.interval(levels[0], levels[-1], decomposition=dec)


# ---------------------------------------------------------------------------
# Bundle pipelines
# ---------------------------------------------------------------------------


def bundle_level(poly_gens, f4_nonzero: bool, field: FieldTag, d: int = 4,
                 formalizable_declared: bool = False):
    """Level over S^4 of the total space of a bundle classified by a map into
    a space with polynomial cohomology on the given generator degrees.

    The computation runs the actual pipeline: resolve K over the polynomial
    algebra by the Koszul complex, tensor onto H*(S^4) through the classifying
    map (the degree-4 generator goes to the sphere class when f4_nonzero, all
    else dies for degree reasons), decompose, take the level.  The answer is
    then checked against the closed form (2 when the degree-4 generator acts,
    1 otherwise); disagreement is a hard failure.
    """
    poly_gens = list(poly_gens)
    char2 = field.characteristic() == 2
    if any(g % 2 for g in poly_gens):
        if not char2:
            raise OddGenerator("odd generators are only allowed over F_2")
        if not formalizable_declared:
            raise FormalizabilityNotDeclared(
                "odd generators in characteristic 2 need a declared "
                "relatively-formalizable pair")
    if f4_nonzero and (not poly_gens or poly_gens[0] != 4):
        raise PresentationError("the first generator must have degree 4 when it acts")

    labels = [f"y{g}_{i}" if poly_gens.count(g) > 1 else f"y{g}"
              for i, g in enumerate(poly_gens)]
    P = DGAlgebraPresentation.polynomial(field, list(zip(labels, poly_gens)),
                                         char2_polynomial_odd=char2)
    K = DGModulePresentation.trivial(P)

    sphere_target = _sphere_as_module_over(P, labels, poly_gens, d, field,
                                           f4_nonzero=f4_nonzero)
    hi = sum(max(g - 1, 1) for g in poly_gens) + d + 2
    tor = derived_tensor(K, sphere_target, strategy="koszul",
                         window=DegreeWindow(0, hi))

    # The same derived tensor as a module over H*(S^d): the Koszul complex of
    # the polynomial algebra tensored down along the classifying map.  Dims
    # must agree with the Tor computation; the module presentation supplies
    # the filtration bound that settles matching ambiguity.
    module = _koszul_tensor_module(poly_gens, d, field, f4_nonzero)
    module_dims = module.cohomology_dims(DegreeWindow(-1, hi))
    if module_dims != tor.dims:
        raise VerificationFailed("module and resolution routes disagree on Tor")

    level = sphere_level(module, d, window=DegreeWindow(-1, hi))
    expected = 2 if f4_nonzero else 1
    if level.kind != "exact" or level.value != expected:
        raise VerificationFailed(
            f"computed level {level.to_json()} disagrees with the closed form {expected}")
    return level.value, level.decomposition, dict(sorted(tor.dims.items()))


def _koszul_tensor_module(poly_gens, d, field, f4_nonzero):
    """⊗ of the Koszul resolution with H*(S^d) along the classifying map, as a
    free module over the sphere: exterior generators s⁻¹y_j, the degree-4 one
    differentiating to the sphere class when it acts."""
    A = DGAlgebraPresentation.sphere_cohomology(d, field)
    x = f"x{d}"
    n = len(poly_gens)
    gens = []
    diff = {}

    def lbl(subset):
        return "·".join(f"a{j}" for j in subset) if subset else "1̄"

    for mask in range(2 ** n):
        subset = [j for j in range(n) if mask & (1 << j)]
        deg = sum(poly_gens[j] - 1 for j in subset)
        gens.append((lbl(subset), deg))
        terms = {}
        for idx, j in enumerate(subset):
            if j == 0 and f4_nonzero:
                prefix_parity = sum((poly_gens[t] - 1) for t in subset[:idx]) % 2
                coeff = field.from_int(-1 if prefix_parity else 1)
                rest = subset[:idx] + subset[idx + 1:]
                terms[lbl(rest)] = A.poly_scale(A.generator_poly(x), coeff)
        if terms:
            diff[lbl(subset)] = terms
    return DGModulePresentation.free(A, gens, diff)


def _sphere_as_module_over(P, labels, degrees, d, field, f4_nonzero):
    """H*(S^d) as a raw module over the polynomial algebra through the
    classifying map: only a degree-d generator can act, sending 1 to the
    sphere class."""
    from .graded import CochainComplex, GradedVectorSpace

    space = GradedVectorSpace(field, {0: ["1"], d: [f"z{d}"]})
    cx = CochainComplex(space, {})
    actions = {}
    if f4_nonzero:
        actions[labels[0]] = {0: [[field.one()]]}
    return DGModulePresentation.raw(P, cx, actions)


def free_pullback_level(basis_degrees, field: FieldTag = QQ, d: int = 4,
                        dims=None):
    """Level of a pullback whose upstairs cohomology is declared free over the
    base polynomial algebra, with the given module basis degrees.

    The derived tensor is then the plain tensor: a sum of shifts of H*(S^d).
    The decomposition is recomputed and must consist of height-0 molecules
    only; any height >= 1 exposes the freeness declaration as false.
    """
    if dims is None:
        basis_degrees = list(basis_degrees)
        if any(b % 2 for b in basis_degrees):
            raise OddGenerator("a free basis over an even polynomial algebra is even")
        dims = {}
        for b in basis_degrees:
            dims[b] = dims.get(b, 0) + 1
            dims[b + d] = dims.get(b + d, 0) + 1
    dec = decompose(dims, d)
    candidates = [dec.molecules] + list(dec.alternatives)
    flat = [mols for mols in candidates if all(mol.m == 0 for mol in mols)]
    if not flat:
        raise NotFree("the decomposition contains a molecule of positive height")
    return 1, flat[0]


# ---------------------------------------------------------------------------
# Relative formalizability conditions
# ---------------------------------------------------------------------------


def formalizability_check(source_reduced=None, loops_of_target_reduced=None,
                          target_indecomposables=None,
                          source_polynomial=False, target_polynomial=False,
                          sq1_vanishes=True, field: FieldTag = QQ,
                          window: DegreeWindow | None = None):
    """Evaluate the two sufficient conditions for a map π : S → T.

    (i) both cohomologies polynomial (Sq_1 must vanish in characteristic 2);
    (ii) the reduced cohomology of S vanishes in every degree i where
         dim H̃^{i-1}(Ω T) differs from dim (indecomposables of H*(T))^i.
    Returns "cond-i", "cond-ii" or "neither"; "neither" means the level
    reduction through cohomology is not justified for this pair.
    """
    window = window or DegreeWindow(0, 32)
    if source_polynomial and target_polynomial:
        if field.characteristic() != 2 or sq1_vanishes:
            return "cond-i"
    if source_reduced is None or loops_of_target_reduced is None \
            or target_indecomposables is None:
        if source_polynomial or target_polynomial:
            return "neither"
        raise MissingData("condition (ii) needs all three dimension tables")
    for i in window.degrees():
        imbalance = loops_of_target_reduced.get(i - 1, 0) - target_indecomposables.get(i, 0)
        if imbalance != 0 and source_reduced.get(i, 0) != 0:
            return "neither"
    return "cond-ii"
