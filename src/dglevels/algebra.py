"""Free graded-commutative / divided-power / polynomial DG algebra presentations.

An algebra is presented by generators (label, positive degree, kind) and a
differential assigned to each generator as a polynomial in the generators.
Monomials are exponent tuples aligned with the generator list; a basis element
with exponent e on a divided-power generator w stands for γ_e(w), so products
carry binomial coefficients reduced in the ground field (making Γ differ from
a polynomial algebra in positive characteristic).

Sign conventions are Koszul throughout: swapping homogeneous factors a, b
costs (-1)^{|a||b|}, and the differential is a degree +1 derivation.
d∘d = 0 is verified symbolically on the generators at construction.
Monomial products and monomial differentials are pure functions of the
presentation, so each instance memoizes them in its own tables; the cached
values are immutable (tuples, read-only mappings).

Kinds:
  exterior    exponents capped at 1 (used both for odd generators and for the
              truncated even generator of H*(S^d), d even)
  polynomial  free exponents, derivative rule d(x^e) = e x^{e-1} dx
  divided     free exponents with γ_a γ_b = binom(a+b, a) γ_{a+b} and
              d(γ_e(w)) = dw · γ_{e-1}(w)
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from types import MappingProxyType

from .errors import PresentationError
from .field import FieldTag, parse_field, sparse_sum
from .graded import CochainComplex, DegreeWindow, assemble

EXTERIOR = "exterior"
POLYNOMIAL = "polynomial"
DIVIDED = "divided"
_KINDS = (EXTERIOR, POLYNOMIAL, DIVIDED)
_NO_TERMS = MappingProxyType({})


@dataclass(frozen=True)
class Generator:
    label: str
    degree: int
    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise PresentationError(f"unknown generator kind {self.kind!r}")
        if type(self.degree) is not int:    # a bool, float or string is no degree
            raise PresentationError(f"degree {self.degree!r} of {self.label!r} is no integer")
        if self.degree <= 0:
            raise PresentationError(f"generator {self.label!r} must have positive degree")


def check_sphere_dimension(d, what="sphere dimension"):
    """Refuse a sphere dimension d that is no int (a bool is none) or not above 1."""
    if type(d) is not int:
        raise PresentationError(f"{what} {d!r} is no integer")
    if d <= 1:
        raise PresentationError(f"{what} must exceed 1")


class DGAlgebraPresentation:
    """Finitely generated free graded-commutative DG algebra, unit implicit.

    ``differential`` maps generator labels to polynomials; missing labels mean
    zero.  A polynomial is a dict {exponent tuple: scalar}.
    """

    def __init__(self, field: FieldTag, generators, differential=None, char2_polynomial_odd=False):
        self.field = field
        self.generators = tuple(generators)
        labels = [g.label for g in self.generators]
        if len(set(labels)) != len(labels):
            raise PresentationError("duplicate generator labels")
        self.index = {g.label: i for i, g in enumerate(self.generators)}
        for g in self.generators:
            if g.kind != EXTERIOR and g.degree % 2 == 1:
                if not (field.characteristic() == 2 and char2_polynomial_odd):
                    raise PresentationError(
                        f"odd-degree generator {g.label!r} must be exterior "
                        "outside characteristic 2"
                    )
        self.differential = {}
        for label, poly in (differential or {}).items():
            if label not in self.index:
                raise PresentationError(f"differential given for unknown generator {label!r}")
            poly = self.normalize_poly(poly)
            if poly:
                self.differential[label] = poly
        self._basis_cache = {}
        # set only where an odd generator uses the permission (and JSON needs it)
        self.char2_polynomial_odd = any(g.kind != EXTERIOR and g.degree % 2
                                        for g in self.generators)
        self._mul_table = {}     # (m1, m2) -> (coeff, monomial) or None
        self._deg_table = {}     # monomial -> degree
        self._d_table = {}       # monomial -> read-only polynomial
        self._validate_differential()

    # -- basic structure -----------------------------------------------------

    @property
    def n(self):
        return len(self.generators)

    def unit_monomial(self):
        return (0,) * self.n

    def generator_monomial(self, label: str):
        m = [0] * self.n
        m[self.index[label]] = 1
        return tuple(m)

    def generator_poly(self, label: str):
        return {self.generator_monomial(label): self.field.one()}

    def monomial_degree(self, mono) -> int:
        try:
            return self._deg_table[mono]
        except KeyError:
            n = self._deg_table[mono] = sum(e * g.degree for e, g in zip(mono, self.generators))
            return n

    def is_bounded(self) -> bool:
        """True when the monomial basis is finite (all generators exterior)."""
        return all(g.kind == EXTERIOR for g in self.generators)

    def top_degree(self):
        """Largest monomial degree, only meaningful for bounded algebras."""
        return sum(g.degree for g in self.generators) if self.is_bounded() else None

    def is_simply_connected(self) -> bool:
        return all(g.degree >= 2 for g in self.generators)

    def has_zero_differential(self) -> bool:
        return not self.differential

    # -- polynomial arithmetic -------------------------------------------------

    def normalize_poly(self, poly):
        """The polynomial with tuple monomials and reduced nonzero scalars, in
        one pass that also checks each monomial's arity.  A coefficient that
        is no scalar of the field raises FieldMismatch (`FieldTag.scalar`):
        module and algebra differentials, cone maps and Hopf polynomials all
        enter here."""
        n, scalar = self.n, self.field.scalar
        out = {}
        for m, c in poly.items():
            if len(m) != n:
                raise PresentationError(f"monomial {tuple(m)} has wrong arity")
            if r := scalar(c):
                out[tuple(m)] = r
        return out

    def poly_add(self, p, q):
        return sparse_sum((*p.items(), *q.items()), self.field)

    def poly_scale(self, p, c):
        reduce = self.field.reduce
        return {m: r for m, x in p.items() if (r := reduce(c * x))}

    def mono_mul(self, m1, m2):
        """Product of monomials: (coefficient, monomial) or None when zero."""
        try:
            return self._mul_table[m1, m2]
        except KeyError:
            r = self._mul_table[m1, m2] = self._mono_product(m1, m2)
            return r

    def _mono_product(self, m1, m2):
        coeff = self.field.one()
        sign = 0
        # Koszul sign: each odd factor of m2 at position j moves left past the
        # odd factors of m1 sitting at positions > j.
        odd1 = [e * (g.degree & 1) for e, g in zip(m1, self.generators)]
        suffix_odd = 0
        for j in range(self.n - 1, -1, -1):
            if m2[j]:
                sign += m2[j] * (self.generators[j].degree & 1) * suffix_odd
            suffix_odd += odd1[j]
        out = []
        for e1, e2, g in zip(m1, m2, self.generators):
            e = e1 + e2
            if g.kind == EXTERIOR and e > 1:
                return None
            if g.kind == DIVIDED and e1 and e2:
                coeff *= comb(e1 + e2, e1)
            out.append(e)
        coeff = self.field.reduce(-coeff if sign & 1 else coeff)
        return (coeff, tuple(out)) if coeff else None

    def poly_mul(self, p, q):
        mul = self.mono_mul
        return sparse_sum(((r[1], c1 * c2 * r[0]) for m1, c1 in p.items()
                           for m2, c2 in q.items() if (r := mul(m1, m2))), self.field)

    def mono_poly(self, mono):
        return {tuple(mono): self.field.one()}

    # -- differential -----------------------------------------------------------

    def mono_differential(self, mono):
        """The derivation applied to one monomial, as a read-only polynomial."""
        if not self.differential:
            return _NO_TERMS
        try:
            return self._d_table[mono]
        except KeyError:
            d = self._d_table[mono] = MappingProxyType(self._mono_derivative(mono))
            return d

    def _mono_derivative(self, mono):
        terms = []
        prefix_parity = 0
        for i, e in enumerate(mono):
            g = self.generators[i]
            dg = self.differential.get(g.label) if e else None
            # d(x^e) = e·x^{e-1}·dx for a polynomial generator
            k = e if g.kind == POLYNOMIAL else 1
            if dg and self.field.reduce(k):
                prefix = tuple(mono[j] if j < i else 0 for j in range(self.n))
                rest = tuple(
                    (e - 1 if j == i else mono[j]) if j >= i else 0
                    for j in range(self.n)
                )
                term = self.poly_mul(self.poly_mul(self.mono_poly(prefix), dg),
                                     self.mono_poly(rest))
                k = -k if prefix_parity & 1 else k
                terms.extend((m, k * c) for m, c in term.items())
            prefix_parity += e * (g.degree & 1)
        return sparse_sum(terms, self.field)

    def poly_differential(self, poly):
        if not self.differential:
            return {}
        return sparse_sum(((m, c * x) for mono, c in poly.items()
                           for m, x in self.mono_differential(mono).items()), self.field)

    def poly_degree(self, poly):
        degs = {self.monomial_degree(m) for m in poly}
        if len(degs) > 1:
            raise PresentationError(f"inhomogeneous polynomial of degrees {sorted(degs)}")
        return degs.pop() if degs else None

    def _validate_differential(self):
        for label, poly in self.differential.items():
            g = self.generators[self.index[label]]
            deg = self.poly_degree(poly)
            if deg is not None and deg != g.degree + 1:
                raise PresentationError(
                    f"d({label}) has degree {deg}, expected {g.degree + 1}")
        for label, poly in self.differential.items():
            if self.poly_differential(poly):
                raise PresentationError(f"d∘d ≠ 0 on generator {label!r}")

    # -- basis enumeration and expansion ------------------------------------------

    def monomial_basis(self, hi: int):
        """All monomials of degree <= hi, grouped by degree, sorted."""
        if hi in self._basis_cache:
            return self._basis_cache[hi]
        by_degree = {}

        def extend(i, mono, deg):
            if i == self.n:
                by_degree.setdefault(deg, []).append(tuple(mono))
                return
            g = self.generators[i]
            cap = 1 if g.kind == EXTERIOR else (hi - deg) // g.degree
            for e in range(cap + 1):
                if deg + e * g.degree > hi:
                    break
                mono[i] = e
                extend(i + 1, mono, deg + e * g.degree)
            mono[i] = 0

        extend(0, [0] * self.n, 0)
        for degree in by_degree:
            by_degree[degree].sort()
        self._basis_cache[hi] = by_degree
        return by_degree

    def mono_label(self, mono) -> str:
        parts = []
        for e, g in zip(mono, self.generators):
            if not e:
                continue
            if g.kind == DIVIDED and e > 1:
                parts.append(f"γ{e}({g.label})")
            elif e > 1:
                parts.append(f"{g.label}^{e}")
            else:
                parts.append(g.label)
        return "·".join(parts) if parts else "1"

    def to_complex(self, window: DegreeWindow) -> CochainComplex:
        """Expansion as a cochain complex of the degrees inside the window."""
        by_degree = self.monomial_basis(window.hi)
        monos = {n: by_degree[n] for n in sorted(by_degree) if window.contains(n)}
        labels = {n: [self.mono_label(m) for m in ms] for n, ms in monos.items()}
        truncated = None if self.is_bounded() else window.hi
        return assemble(self.field, monos, labels,
                        lambda n, m: self.mono_differential(m).items(),
                        truncated_above=truncated)[0]

    # -- common constructors -------------------------------------------------------

    @staticmethod
    def sphere_cohomology(d: int, field: FieldTag) -> "DGAlgebraPresentation":
        """H*(S^d; K): one generator of degree d squaring to zero, d > 1."""
        check_sphere_dimension(d)
        return DGAlgebraPresentation(field, [Generator(f"x{d}", d, EXTERIOR)])

    @staticmethod
    def polynomial(field: FieldTag, gens, char2_polynomial_odd=False) -> "DGAlgebraPresentation":
        """K[x_1, ..., x_l] with zero differential; gens = [(label, degree)]."""
        return DGAlgebraPresentation(
            field,
            [Generator(label, degree, POLYNOMIAL) for label, degree in gens],
            char2_polynomial_odd=char2_polynomial_odd,
        )

    def sphere_generator_label(self):
        if self.n != 1 or self.generators[0].kind != EXTERIOR:
            return None
        return self.generators[0].label

    # -- serialization ----------------------------------------------------------------

    def poly_to_json(self, poly):
        terms = []
        for mono in sorted(poly):
            exp = {g.label: e for e, g in zip(mono, self.generators) if e}
            terms.append([self.field.scalar_to_json(poly[mono]), exp])
        return terms

    def poly_from_json(self, terms):
        """{monomial: scalar} from [coefficient, {label: exponent}] terms; an
        exponent is an int (a bool is none) ≥ 0, and ≤ 1 on an exterior generator."""
        poly = {}
        for coeff, exp in terms:
            mono = [0] * self.n
            for label, e in exp.items():
                i = self.index[label]
                if type(e) is not int or e < 0:
                    raise PresentationError(f"exponent {e!r} of {label!r} is no integer ≥ 0")
                if e > 1 and self.generators[i].kind == EXTERIOR:
                    raise PresentationError(f"exponent {e} of exterior {label!r} exceeds 1")
                mono[i] = e
            poly[tuple(mono)] = self.field.scalar_from_json(coeff)
        return self.normalize_poly(poly)

    def to_json(self):
        return {
            "field": str(self.field).lower(),
            "generators": [[g.label, g.degree, g.kind] for g in self.generators],
            "differential": {
                label: self.poly_to_json(poly)
                for label, poly in sorted(self.differential.items())
            },
            **({"char2PolynomialOdd": True} if self.char2_polynomial_odd else {}),
        }

    @staticmethod
    def from_json(data):
        field = parse_field(data["field"])
        gens = [Generator(lbl, deg, kind) for lbl, deg, kind in data["generators"]]
        odd = data.get("char2PolynomialOdd", False) is True
        alg = DGAlgebraPresentation(field, gens, char2_polynomial_odd=odd)
        diff = {
            label: alg.poly_from_json(terms)
            for label, terms in data.get("differential", {}).items()
        }
        return DGAlgebraPresentation(field, gens, diff, odd)
