"""Rational free graded-commutative models: sphere models, iterated
odd-sphere extension towers, pile filtrations and the cochain-level Hopf
invariant.

Towers here are Koszul-Sullivan extensions of the sphere model by odd-degree
generators, one spherical fibration per generator.  The tower aimed at level
l is built as follows, with suspension parameter m >= l·d + 1:

  d odd:   base (∧(x), 0); generators w_0, ..., w_{l-1} with D(w_0) = 0 and
           D(w_i) = x·w_{i-1}, deg w_i = i·d + (2m-1) - i.
  d even:  base (∧(x, ξ), δξ = x²); generator ρ with D(ρ) = x, then
           w_0, ..., w_{l-2} with D(w_i) = (ρx - ξ)·w_{i-1},
           deg w_i = i(2d-1) + (2m-1) - i.

Each extension generator is odd, so the fibre complex (tower ⊗_base Q) is a
finite exterior algebra and the total space is a compact object over the
base sphere.  `tower_level_bounds` pushes the tower, as a free module over
the base model, along the quasi-isomorphism onto H*(S^d) and reads its
molecules off the Jordan strings of the minimal model (see `spheres`), so
every tower level is exact.

The recipe reaches its target only for l <= 3 on odd spheres and for
l <= 2 on even spheres; beyond that the tower it builds has a higher level
than l:

  (l, d)   (3, 4)  (4, 3)  (4, 4)  (5, 3)  (5, 4)  (6, 3)  (6, 4)
  level       4       5       6       7      10      10      14

  d odd:   D = x·N with N the derivation w_i -> w_{i-1}, a size-l Jordan
           block on the generators.  On ∧^k of the generators N has a
           block of size k(l-k)+1 (char 0, sl_2 weights), so the level is
           max_k k(l-k)+1: 3, 5, 7, 10 for l = 3, 4, 5, 6.
  d even:  every stage factors through the S^{2d-1} model: ∧(x, ξ, ρ) is
           quasi-isomorphic to ∧(ξ - ρx), and D(w_i) = (ρx - ξ)·w_{i-1}.
           The tower is the odd recipe with l-1 generators over S^{2d-1},
           and a height-h string over S^{2d-1} is a height-(2h+1) molecule
           over S^d, so the level is 2·max_k (k(l-1-k)+1): 4, 6, 10, 14
           for l = 3, 4, 5, 6.

Whether the paper's level-l construction differs from this recipe is open;
C7 in the acceptance suite keeps the (3, 4) case visible.  For odd d the
obvious alternative, a fibre product over ∧(x) of l-1 two-stage towers
(generators u_i, v_i with D(v_i) = x·u_i), reaches level l exactly: the
x-action is the (l-1)-fold tensor power of a size-2 Jordan block, whose
largest block has size l (Clebsch-Gordan), and `tower_level_bounds` on such
a TowerSpec gives l for l <= 6 on S^3.  It has no direct analogue for even
d, where D(v) = x·u with u odd would make v even.

Spatial realizations are metadata: all computation happens on the models.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import DGAlgebraPresentation, EXTERIOR, Generator, POLYNOMIAL
from .errors import MTooSmall, NotExact, PresentationError, WrongTargetCohomology
from .field import QQ, coordinates, rank_and_kernel, solve
from .graded import DegreeWindow, cohomology
from .module import DGModulePresentation
from .resolve import SemifreeFiltration, filtration_class
from .spheres import LevelResult, SphereModule, decompose_module


def sphere_model(d: int) -> DGAlgebraPresentation:
    """Minimal free model of S^d over Q: (∧(x, ξ), δξ = x²) for even d,
    (∧(x), 0) for odd d."""
    if d <= 1:
        raise PresentationError("sphere dimension must exceed 1")
    if d % 2:
        return DGAlgebraPresentation(QQ, [Generator("x", d, EXTERIOR)])
    gens = [Generator("x", d, POLYNOMIAL), Generator("ξ", 2 * d - 1, EXTERIOR)]
    return DGAlgebraPresentation(QQ, gens, {"ξ": {(2, 0): Fraction(1)}})


@dataclass
class TowerSpec:
    """A Koszul-Sullivan extension of the sphere model by odd generators.

    Every extension differential lies in the subalgebra generated by the
    base and the earlier extension generators (checked on construction).
    """

    d: int
    target_level: int
    m: int
    full: DGAlgebraPresentation
    extension: tuple       # ((label, degree), ...) in extension order

    def __post_init__(self):
        base_count = self.full.n - len(self.extension)
        for k, (label, degree) in enumerate(self.extension):
            if degree % 2 == 0:
                raise PresentationError(f"extension generator {label!r} must be odd")
            poly = self.full.differential.get(label, {})
            allowed = base_count + k
            for mono in poly:
                if any(mono[i] for i in range(allowed, self.full.n)):
                    raise PresentationError(
                        f"D({label}) escapes the earlier subalgebra")

    # -- conversions ------------------------------------------------------------

    def as_base_module(self) -> DGModulePresentation:
        """The tower as a free module over H*(S^d), one generator per
        square-free monomial in the extension generators.

        The coefficients, polynomials in the base model, are pushed along the
        quasi-isomorphism of the base model onto H*(S^d) (for even d,
        ∧(x, ξ) → H*(S^d) with ξ ↦ 0 and x² ↦ 0), which keeps the module's
        class in the derived category and so its level.  The push is an
        algebra map, so it is applied once to each D(w_k); D of a monomial
        w^S then follows from the Leibniz rule on S as a bit mask (see
        `sphere_module`, whose blocks this presentation carries).
        """
        return self.sphere_module().to_presentation()

    def sphere_module(self) -> SphereModule:
        """The blocks of `as_base_module`: D(w^S) = Σ_{k ∈ S} (-1)^{#S below k}
        w^{S below k}·D̄(w_k)·w^{S above k}, with D̄(w_k) = Σ c·x^e·w^β the
        pushed differential.  Every w_k is odd, so x^e moves to the right
        past the prefix and w^β, and sorting the product of w's is a
        permutation sign; a repeated w_k gives zero."""
        F = self.full
        n = len(self.extension)
        nb = F.n - n
        x_odd = F.generators[0].degree & 1
        pushed = []                 # per k: (e, β as a mask, bits of β, c)
        for label, _ in self.extension:
            terms = []
            for mono, c in F.differential.get(label, {}).items():
                if mono[0] > 1 or any(mono[1:nb]):
                    continue                # x² and ξ map to zero
                bits = [j for j in range(n) if mono[nb + j]]
                terms.append((mono[0], sum(1 << j for j in bits), bits, c))
            pushed.append(terms)
        gens, delta, phi = [], {}, {}
        for mask in range(1 << n):
            gens.append((self._ext_label(mask),
                         sum(deg for k, (_, deg) in enumerate(self.extension) if mask >> k & 1)))
            for k in range(n):
                if not mask >> k & 1:
                    continue
                rest = mask ^ (1 << k)
                below = rest & ((1 << k) - 1)
                above = rest ^ below
                lead = below.bit_count()
                for e, beta, bits, c in pushed[k]:
                    if beta & rest:
                        continue
                    target = rest | beta
                    # the Leibniz sign, then the inversions of (below, β, above)
                    sign = lead + sum((below >> b).bit_count() +
                                      (above & ((1 << b) - 1)).bit_count() for b in bits)
                    if e and x_odd:
                        sign += lead + target.bit_count()
                    col = (phi if e else delta).setdefault(mask, {})
                    col[target] = col.get(target, 0) + (-c if sign & 1 else c)
        return SphereModule(self.d, F.field, gens, delta, phi)

    def _ext_label(self, mask):
        parts = [self.extension[k][0] for k in range(len(self.extension))
                 if mask & (1 << k)]
        return "·".join(parts) if parts else "1"

    def fibre_complex(self):
        """Tower ⊗_base Q: the quotient differential keeps only monomials
        free of base generators."""
        F = self.full
        nb = F.n - len(self.extension)
        gens = [Generator(lbl, deg, EXTERIOR) for lbl, deg in self.extension]
        diff = {}
        for lbl, _ in self.extension:
            poly = F.differential.get(lbl, {})
            kept = {}
            for mono, c in poly.items():
                if any(mono[:nb]):
                    continue
                kept[tuple(mono[nb:])] = c
            if kept:
                diff[lbl] = kept
        return DGAlgebraPresentation(QQ, gens, diff)

    def fibre_cohomology_finite(self) -> bool:
        """All quotient generators odd, hence the fibre complex is a finite
        exterior algebra."""
        fib = self.fibre_complex()
        return fib.is_bounded() and all(g.degree % 2 for g in fib.generators)

    def auto_window(self) -> DegreeWindow:
        hi = sum(deg for _, deg in self.extension) + 4 * self.d + 4
        return DegreeWindow(-1, hi)


def build_P_tower(l: int, d: int, m: int | None = None) -> TowerSpec:
    """The tower over S^d aimed at level l; l = 1 is the sphere itself.

    The target is reached for l <= 3 with d odd and for l <= 2 with d even;
    larger l overshoot (see the module docstring for the levels and why).
    """
    if l < 1:
        raise PresentationError("the level target must be at least 1")
    if d <= 1:
        raise PresentationError("sphere dimension must exceed 1")
    m = m if m is not None else l * d + 1
    if m < l * d + 1:
        raise MTooSmall(f"suspension parameter m = {m} is below the bound {l * d + 1}")
    base = sphere_model(d)
    if l == 1:
        return TowerSpec(d, 1, m, base, ())
    gens = [Generator(g.label, g.degree, g.kind) for g in base.generators]
    diff = {label: dict(poly) for label, poly in base.differential.items()}
    extension = []

    def pad(poly, width):
        return {tuple(mono) + (0,) * (width - len(mono)): c for mono, c in poly.items()}

    if d % 2:
        for i in range(l):
            deg = i * d + (2 * m - 1) - i
            gens.append(Generator(f"w{i}", deg, EXTERIOR))
            extension.append((f"w{i}", deg))
        width = len(gens)
        diff = {label: pad(poly, width) for label, poly in diff.items()}
        for i in range(1, l):
            mono = [0] * width
            mono[0] = 1              # x
            mono[1 + (i - 1)] = 1    # w_{i-1}
            diff[f"w{i}"] = {tuple(mono): Fraction(1)}
    else:
        gens.append(Generator("ρ", d - 1, EXTERIOR))
        extension.append(("ρ", d - 1))
        for i in range(l - 1):
            deg = i * (2 * d - 1) + (2 * m - 1) - i
            gens.append(Generator(f"w{i}", deg, EXTERIOR))
            extension.append((f"w{i}", deg))
        width = len(gens)
        diff = {label: pad(poly, width) for label, poly in diff.items()}
        rho_mono = [0] * width
        rho_mono[0] = 1
        diff["ρ"] = {tuple(rho_mono): Fraction(1)}   # D(ρ) = x
        for i in range(1, l - 1):
            rx = [0] * width
            rx[0] = 1       # x
            rx[2] = 1       # ρ
            rx[3 + (i - 1)] = 1   # w_{i-1}
            xi = [0] * width
            xi[1] = 1       # ξ
            xi[3 + (i - 1)] = 1
            diff[f"w{i}"] = {tuple(rx): Fraction(1), tuple(xi): Fraction(-1)}
    full = DGAlgebraPresentation(QQ, gens, diff)
    return TowerSpec(d, l, m, full, tuple(extension))


def tower_level_bounds(tower: TowerSpec) -> LevelResult:
    """The level of the tower over its base sphere, always exact: the
    molecules are the Jordan strings of the tower as a module over H*(S^d)."""
    if not tower.fibre_cohomology_finite():
        raise PresentationError("the fibre complex is not certifiably finite")
    dec = decompose_module(tower.sphere_module(), tower.d)
    return LevelResult.exact(dec.level(), decomposition=dec)


# ---------------------------------------------------------------------------
# Pile bounds
# ---------------------------------------------------------------------------


def pile_upper_bound(stages: int, extra_odd_spheres: int = 0):
    """Level bound c + 1 for a c-stage pile of odd-sphere fibrations over a
    product of the base S^3 with extra odd spheres.

    Returns (bound, filtration): the explicit class-c semifree filtration is
    materialized on a witness module and validated, never assumed.
    """
    if stages < 0:
        raise PresentationError("the stage count must be nonnegative")
    d = 3
    gens, phi = [], {}
    spheres = [2 * i + 3 for i in range(extra_odd_spheres)]
    for mask in range(2 ** extra_odd_spheres):
        sub = [i for i in range(extra_odd_spheres) if mask & (1 << i)]
        suffix = "".join(f"·y{spheres[i]}" for i in sub)
        sdeg = sum(spheres[i] for i in sub)
        for j in range(stages + 1):
            gens.append((f"e{j}{suffix}", j * (d - 1) + sdeg))
            if j:
                phi[len(gens) - 1] = {len(gens) - 2: 1}     # D(e_j) = e_{j-1}·x
    module = SphereModule(d, QQ, gens, phi=phi).to_presentation()
    stages_sets = []
    for c in range(stages + 1):
        stages_sets.append(frozenset(lbl for lbl, _ in gens
                                     if int(lbl[1:].split("·")[0]) <= c))
    filt = SemifreeFiltration(module, tuple(stages_sets))
    cls = filtration_class(filt)
    if cls != stages:
        raise PresentationError("pile filtration has unexpected class")
    return stages + 1, filt


# ---------------------------------------------------------------------------
# Hopf invariant
# ---------------------------------------------------------------------------


def hopf_invariant(target: DGAlgebraPresentation, gx, gxi=None, d: int = 4,
                   generator_choice="auto"):
    """Cochain-level Hopf invariant of a map from the sphere model into a
    finite model C with H(C) the cohomology of S^{2d-1}.

    Solve Dρ = g(x) in C, then read the class [ρ·g(x) - g(ξ)] against the
    chosen degree-(2d-1) generator.  The answer does not depend on the choice
    of ρ; that is re-verified by perturbing ρ with a cocycle when one exists.
    """
    if d <= 1:
        raise PresentationError("sphere dimension must exceed 1")
    field = target.field
    if d % 2:
        return field.zero()
    gx = target.normalize_poly(gx)
    gxi = target.normalize_poly(gxi or {})
    top = 2 * d - 1
    cx = target.to_complex(DegreeWindow(0, 2 * d + 4))
    dims, reps = cohomology(cx)
    if dims != {0: 1, top: 1}:
        raise WrongTargetCohomology(
            f"H(C) = {dims}, expected the S^{top} pattern")
    basis = target.monomial_basis(2 * d + 4)
    index = {n: {m: j for j, m in enumerate(ms)} for n, ms in basis.items()}

    def vec(poly, n):
        at = index.get(n, {})
        v = [field.zero()] * len(at)
        for m, c in poly.items():
            if m not in at:
                raise PresentationError(f"a polynomial of the map is not homogeneous of degree {n}")
            v[at[m]] = c
        return v

    rho = solve(cx.matrix(d - 1), vec(gx, d), field)
    if rho is None:
        raise NotExact("g(x) is not a coboundary in the target")
    gen = reps[top][0] if generator_choice == "auto" else \
        vec(target.normalize_poly(generator_choice), top)
    against = [tuple(gen)] + cx.coboundaries(top)

    def value(rho):
        rho_poly = {m: c for m, c in zip(basis.get(d - 1, ()), rho) if c}
        u = target.poly_add(target.poly_mul(rho_poly, gx), target.poly_scale(gxi, -1))
        coords = coordinates(against, vec(u, top), field)
        if coords is None:
            raise NotExact("the Hopf cocycle is not a class against this generator")
        return coords[0]

    h = value(rho)
    # independence of the choice of ρ: perturb by a cocycle when one exists
    _, cocycles = rank_and_kernel(cx.matrix(d - 1), field)
    for z in cocycles[:1]:
        if value(tuple(field.reduce(a + b) for a, b in zip(rho, z))) != h:
            raise PresentationError("the Hopf invariant depended on the lift")
    return h
