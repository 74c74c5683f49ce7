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
from .errors import BudgetExceeded, MTooSmall, NotExact, PresentationError, WrongTargetCohomology
from .field import QQ, coordinates, rank_and_kernel, solve
from .graded import DegreeWindow, cohomology, dense_rows
from .resolve import SemifreeFiltration, check_exterior_basis, filtration_class
from .spheres import LevelResult, SphereModule, decompose_module, extension_module


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

    ``generators`` lists (label, degree, D) in extension order.  D maps a
    monomial, the tuple of its labels in generator order (x, ξ, then the
    extension), to its coefficient, and may name only x, ξ and earlier
    generators, so D lies in the earlier subalgebra.  `full`, the model over
    ``sphere_model(d)``, is built once here; its constructor checks degrees,
    scalars and D² = 0.
    """

    d: int
    target_level: int
    m: int
    generators: tuple      # ((label, degree, {(label, ...): coefficient}), ...)

    def __post_init__(self):
        base = sphere_model(self.d)
        n = base.n + len(self.generators)
        gens, index = list(base.generators), dict(base.index)
        diff = {label: {mono + (0,) * (n - base.n): c for mono, c in poly.items()}
                for label, poly in base.differential.items()}
        for label, degree, D in self.generators:
            if degree % 2 == 0:
                raise PresentationError(f"extension generator {label!r} must be odd")
            poly = {}
            for key, c in D.items():
                for name in key:
                    if name not in index:
                        raise PresentationError(f"D({label}) names {name!r}, which is not x, "
                                                "ξ or an earlier generator")
                at = [index[name] for name in key]
                if any(b < a or b == a and gens[a].kind == EXTERIOR
                       for a, b in zip(at, at[1:])):
                    raise PresentationError(f"D({label}): {key} does not list a monomial's "
                                            "labels in generator order")
                poly[tuple(map(at.count, range(n)))] = c
            index[label] = len(gens)
            gens.append(Generator(label, degree, EXTERIOR))
            diff[label] = poly
        self.full = DGAlgebraPresentation(QQ, gens, diff)

    @property
    def extension(self):
        """((label, degree), ...) in extension order."""
        return tuple((label, degree) for label, degree, _ in self.generators)

    # -- conversions ------------------------------------------------------------

    def as_base_module(self) -> SphereModule:
        """The tower as a free module over H*(S^d), one generator per
        square-free monomial in the extension generators.

        The coefficients, polynomials in the base model, are pushed along the
        quasi-isomorphism of the base model onto H*(S^d) (for even d,
        ∧(x, ξ) → H*(S^d) with ξ ↦ 0 and x² ↦ 0), which keeps the module's
        class in the derived category and so its level.  The push is an
        algebra map, so it is applied once to each D(w_k); D of a monomial
        w^S then follows from the Leibniz rule on S as a bit mask (see
        `extension_module`, which builds it).
        """
        return extension_module(self.d, QQ, self.generators,
                                f"a tower with {len(self.generators)} extension generators")

    def auto_window(self) -> DegreeWindow:
        hi = sum(deg for _, deg, _ in self.generators) + 4 * self.d + 4
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
    one = Fraction(1)
    if l == 1:
        gens = []
    elif d % 2:                     # D(w_i) = x·w_{i-1}
        gens = [(f"w{i}", i * d + (2 * m - 1) - i,
                 {("x", f"w{i - 1}"): one} if i else {}) for i in range(l)]
    else:                           # D(ρ) = x, D(w_i) = (ρx - ξ)·w_{i-1}
        gens = [("ρ", d - 1, {("x",): one})]
        gens += [(f"w{i}", i * (2 * d - 1) + (2 * m - 1) - i,
                  {("x", "ρ", f"w{i - 1}"): one, ("ξ", f"w{i - 1}"): -one} if i else {})
                 for i in range(l - 1)]
    return TowerSpec(d, l, m, tuple(gens))


def tower_level_bounds(tower: TowerSpec) -> LevelResult:
    """The level of the tower over its base sphere, always exact: the
    molecules are the Jordan strings of the tower as a module over H*(S^d)."""
    dec = decompose_module(tower.as_base_module(), tower.d)
    return LevelResult.exact(dec.level(), decomposition=dec)


# ---------------------------------------------------------------------------
# Pile bounds
# ---------------------------------------------------------------------------


# Labels a pile's filtration lists before pile_upper_bound gives up.  Stage c
# lists (c + 1)·2^k labels for k extra odd spheres, (stages + 1)(stages + 2)/2
# · 2^k in all: 24,576 for 2 stages over 12 spheres, 130,816 for 510 stages
# over none (about 25 MB).
PILE_LABEL_BUDGET = 1 << 17


def pile_upper_bound(stages: int, extra_odd_spheres: int = 0):
    """Level bound c + 1 for a c-stage pile of odd-sphere fibrations over a
    product of the base S^3 with extra odd spheres.

    Returns (bound, filtration): the explicit class-c semifree filtration is
    materialized on a witness module and validated, never assumed.
    """
    if stages < 0:
        raise PresentationError("the stage count must be nonnegative")
    if extra_odd_spheres < 0:
        raise PresentationError("the count of extra odd spheres must be nonnegative")
    check_exterior_basis(extra_odd_spheres, f"a pile over {extra_odd_spheres} extra odd spheres")
    labels = (stages + 1) * (stages + 2) // 2 << extra_odd_spheres
    if labels > PILE_LABEL_BUDGET:
        raise BudgetExceeded(f"a {stages}-stage pile filtration would list {labels} labels, "
                             f"more than {PILE_LABEL_BUDGET}")
    d = 3
    gens, stage, phi = [], [], {}
    spheres = [2 * i + 3 for i in range(extra_odd_spheres)]
    for mask in range(2 ** extra_odd_spheres):
        sub = [i for i in range(extra_odd_spheres) if mask & (1 << i)]
        suffix = "".join(f"·y{spheres[i]}" for i in sub)
        sdeg = sum(spheres[i] for i in sub)
        for j in range(stages + 1):
            gens.append((f"e{j}{suffix}", j * (d - 1) + sdeg))
            stage.append(j)
            if j:
                phi[len(gens) - 1] = {len(gens) - 2: 1}     # D(e_j) = e_{j-1}·x
    module = SphereModule(d, QQ, gens, phi=phi)
    filt = SemifreeFiltration(module, tuple(
        frozenset(lbl for (lbl, _), j in zip(gens, stage) if j <= c) for c in range(stages + 1)))
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

    # d^{d-1} as rows; a zero map has dim C^{d-1} empty columns
    dx = dense_rows(cx.cols.get(d - 1) or [()] * cx.dim(d - 1), cx.dim(d), field)
    rho = solve(dx, vec(gx, d), field)
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
    _, cocycles = rank_and_kernel(dx, field)
    for z in cocycles[:1]:
        if value(tuple(field.reduce(a + b) for a, b in zip(rho, z))) != h:
            raise PresentationError("the Hopf invariant depended on the lift")
    return h
