"""DG modules over a DG algebra presentation.

Two flavors share one class.  A *free* module is presented by finitely many
generators and a differential D(g) = Σ h·a_h with algebra coefficients on the
right (unspecified modules are right modules); D² = 0 and the right-module
Leibniz rule are enforced symbolically at construction, and block sums of
checked modules (`block_sum`: shifts, direct sums, shifted Koszul sums, and
SphereModules over one H*(S^d) and field as one) inherit them without a
recheck.  A *raw* module is a finite cochain complex together with a right
action of every algebra generator (the fallback for cohomology-level inputs
such as H*(S^7) over H*(S^4)).  Its actions are taken as dense matrices and
kept, as the complex keeps d, only as reduced sparse columns per degree
(`graded.sparse_columns`), a zero map dropped; every check and product reads
them through `graded._apply`.  A `SphereModule` is a free module over
H*(S^d) = K[x]/(x²) held as the scalar blocks of D = δ₀ + x·Φ, which the
Jordan-string engine of `spheres` reads; its algebra and D are read off them.

A free module truncated at T (``truncation_degree``) holds every generator
in degrees below T, and the whole differential of every generator below
T - 1, since D(g) lies in degree |g| + 1 < T; of a generator in degree T - 1
it may hold part of the differential.  So its expansion has its whole basis
and every differential into each degree below T, and T is its first unknown
degree; the D² check reads the generators below T - 2, whose D reaches only
generators below T - 1.

Shift convention: Σ^k lowers generator degrees by k, so (Σ M)^n = M^{n+1},
and multiplies the differential by (-1)^k; the right action commutes with the
suspension without sign.  Cones use d(n, σm) = (d n + f m, -σ d m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf, isqrt

from .algebra import DIVIDED, EXTERIOR, DGAlgebraPresentation
from .errors import (
    AlgebraMismatch,
    BudgetExceeded,
    EndTooLarge,
    FieldMismatch,
    NotAChainMap,
    PresentationError,
    SourceNotFree,
    Undecided,
    VerificationFailed,
)
from .field import FieldTag, integer_row, pivot_columns, row_reduce, solve, sparse_sum
from .graded import (CochainComplex, DegreeWindow, GradedVectorSpace, _apply, assemble, cohomology,
                     cohomology_dims, complex_from_json, complex_to_json, dense_rows,
                     sparse_columns)


def free_generators(generators):
    """(label, degree) pairs with distinct string labels and int degrees (a
    bool is none), the rule of every free module; else PresentationError."""
    out = tuple((str(label), deg) for label, deg in generators)
    if bad := next((g for g in out if type(g[1]) is not int), None):
        raise PresentationError(f"degree {bad[1]!r} of module generator {bad[0]!r} is no integer")
    if len(dict(out)) != len(out):
        raise PresentationError("duplicate module generator labels")
    return out


class DGModulePresentation:
    """A right DG module, either free over the algebra or a raw complex."""

    def __init__(self, algebra: DGAlgebraPresentation, generators=None,
                 differential=None, complex=None, actions=None,
                 truncation_degree=None):
        self.algebra = algebra
        self.field = algebra.field
        # first degree at which generators may be missing (module docstring)
        self.truncation_degree = truncation_degree
        if (generators is None) == (complex is None):
            raise PresentationError("give either generators (free) or a complex (raw)")
        if generators is not None:
            self.generators = free_generators(generators)
            if not (truncation_degree is None or type(truncation_degree) is int):
                raise PresentationError(f"truncation degree {truncation_degree!r} is no integer")
            self.gen_degree = dict(self.generators)
            self.differential = {}
            for src, terms in (differential or {}).items():
                if src not in self.gen_degree:
                    raise PresentationError(f"differential on unknown generator {src!r}")
                clean = {}
                for tgt, poly in terms.items():
                    if tgt not in self.gen_degree:
                        raise PresentationError(f"differential hits unknown generator {tgt!r}")
                    poly = algebra.normalize_poly(poly)
                    if poly:
                        clean[tgt] = poly
                if clean:
                    self.differential[src] = clean
            self.complex = None
            self.actions = None
            self._validate_free()
        else:
            self.generators = None
            self.complex = complex
            self._validate_raw(actions or {})

    # -- flavor ------------------------------------------------------------

    @property
    def is_free(self) -> bool:
        return self.generators is not None

    def is_trivial(self) -> bool:
        """Raw, zero differential, zero action: a finite sum of shifts of K."""
        if self.is_free:
            return not self.generators
        return not self.complex.cols and not self.actions

    # -- validation -----------------------------------------------------------

    def _validate_free(self):
        A = self.algebra
        D, gdeg, trunc = self.differential, self.gen_degree, self.truncation_degree
        for src, terms in D.items():
            for tgt, poly in terms.items():
                deg = A.poly_degree(poly) if len(poly) > 1 else A.monomial_degree(next(iter(poly)))
                if gdeg[tgt] + deg != gdeg[src] + 1:
                    raise PresentationError(
                        f"D({src}) term on {tgt} has total degree "
                        f"{gdeg[tgt] + deg}, expected {gdeg[src] + 1}")
        # D² = 0, symbolically: D(Σ h·a) = Σ D(h)·a + (-1)^{|h|} h·dA(a).
        # Near a truncation the stored differentials are incomplete, so the
        # check covers only generators whose two-step range is fully stored.
        zero_dA = A.has_zero_differential()
        mul, reduce = A.mono_mul, self.field.reduce
        for src, terms in D.items():
            if trunc is not None and gdeg[src] + 2 >= trunc:
                continue
            # products enter one total and the error names the first generator a
            # surviving product reaches; a pair with several monomials on both
            # sides may cancel inside itself, so it is summed alone first
            total = {}
            for h, a in terms.items():
                for k, b in D.get(h, {}).items():
                    acc = total if len(a) == 1 or len(b) == 1 else {}
                    for mb, cb in b.items():
                        for ma, ca in a.items():
                            if r := mul(mb, ma):
                                key, c = (k, r[1]), cb * ca * r[0]
                                acc[key] = acc[key] + c if key in acc else c
                    for key, c in (() if acc is total else acc.items()):
                        if reduce(c):
                            total[key] = total[key] + c if key in total else c
                if not zero_dA:
                    sign = -1 if gdeg[h] % 2 else 1
                    for m, c in A.poly_differential(a).items():
                        total[h, m] = total[h, m] + sign * c if (h, m) in total else sign * c
            for (k, _), c in total.items():
                if reduce(c):
                    raise PresentationError(f"D∘D ≠ 0 on generator {src!r} (lands on {k!r})")

    def _validate_raw(self, actions):
        """Store ``actions`` ({generator: {degree: dense matrix}}) as
        ``self.actions``, {generator: {degree: sparse columns}} with zero
        maps and generators without one dropped, and check the module axioms
        on them."""
        f, A, cx = self.field, self.algebra, self.complex
        for label in actions:
            if label not in A.index:
                raise PresentationError(f"action for unknown algebra generator {label!r}")
        # the complex's constructor checked its entries against its own field
        if cx.field != f:
            raise FieldMismatch(f"the complex is over {cx.field}, the algebra over {f}")
        self.actions = {}
        for label, mats in actions.items():
            gd = A.generators[A.index[label]].degree
            maps = {n: cols for n, mat in mats.items() if (cols := sparse_columns(
                mat, cx.dim(n), cx.dim(n + gd), f, f"action of {label} at degree {n}"))}
            if maps:
                self.actions[label] = maps
        if self.actions:
            if not A.has_zero_differential():
                raise PresentationError(
                    "raw modules with nontrivial action require a zero-differential algebra")
            if any(g.kind == DIVIDED for g in A.generators):
                raise PresentationError("raw modules over divided-power algebras are unsupported")
        for label, maps in self.actions.items():
            gd = A.generators[A.index[label]].degree
            # module axiom: the action is a chain map (algebra differential zero
            # here), in every degree; a missing map is the zero action
            for n in cx.space.degrees():
                none = [()] * cx.dim(n)
                for a, dv in zip(maps.get(n, none), cx.cols.get(n, none)):
                    if _apply(cx.cols, n + gd, a, f) != _apply(maps, n + 1, dv, f):
                        raise PresentationError(
                            f"action of {label} does not commute with d at degree {n}")
        # the relations of A: x·x = 0 for exterior x, a·b = (-1)^{|a||b|} b·a
        labels = sorted(self.actions, key=A.index.get)
        for i, a in enumerate(labels):
            for b in labels[i:]:
                ga, gb = A.generators[A.index[a]], A.generators[A.index[b]]
                if a == b and ga.kind != EXTERIOR:
                    continue
                # a == b: the sign 0 asks for x·x = 0
                sign = 0 if a == b else -1 if ga.degree * gb.degree % 2 else 1
                relation = f"{a}·{a} = 0" if a == b else f"{a}·{b} = ±{b}·{a}"
                for n in cx.space.degrees():
                    for j in range(cx.dim(n)):
                        ab = self._raw_word(n, j, (ga, gb))
                        ba = self._raw_word(n, j, (gb, ga)) if sign else {}
                        if sparse_sum([*ab.items(), *((k, -sign * y) for k, y in ba.items())], f):
                            raise PresentationError(
                                f"the action breaks {relation} at degree {n}")

    def _raw_word(self, n, j, word):
        """Basis vector j of degree n acted on by the generators of ``word``
        in turn, as {index: scalar}."""
        v = {j: self.field.one()}
        for g in word:
            v = _apply(self.actions.get(g.label, {}), n, v.items(), self.field)
            n += g.degree
        return v

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def free(algebra, generators, differential=None, truncation_degree=None):
        return DGModulePresentation(algebra, generators=generators,
                                    differential=differential,
                                    truncation_degree=truncation_degree)

    @staticmethod
    def free_rank_one(algebra):
        """The algebra as a module over itself, on one generator e."""
        return DGModulePresentation(algebra, generators=[("e", 0)])

    @staticmethod
    def trivial(algebra, shifts=(0,), labels=None):
        """K, or a finite sum of shifts of K, with the augmentation action."""
        basis = {}
        for i, s in enumerate(shifts):
            lbl = labels[i] if labels else f"u{i}" if len(shifts) > 1 else "u"
            basis.setdefault(s, []).append(lbl)
        space = GradedVectorSpace(algebra.field, basis)
        cx = CochainComplex(space, {})
        return DGModulePresentation(algebra, complex=cx, actions={})

    @staticmethod
    def raw(algebra, complex, actions=None):
        return DGModulePresentation(algebra, complex=complex, actions=actions)

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        A = self.algebra
        out = {"algebra": A.to_json()}
        if self.is_free:
            out["generators"] = [[l, d] for l, d in self.generators]
            out["differential"] = {
                src: {tgt: A.poly_to_json(poly) for tgt, poly in sorted(terms.items())}
                for src, terms in sorted(self.differential.items())
            }
            if self.truncation_degree is not None:
                out["truncationDegree"] = self.truncation_degree
        else:
            f, dim = self.field, self.complex.dim
            out["complex"] = complex_to_json(self.complex)
            out["actions"] = {
                g: {str(n): [[f.scalar_to_json(x) for x in row] for row in dense_rows(
                    cols, dim(n + A.generators[A.index[g]].degree), f)]
                    for n, cols in sorted(maps.items())}
                for g, maps in sorted(self.actions.items())
            }
        return out

    @staticmethod
    def from_json(data):
        A = DGAlgebraPresentation.from_json(data["algebra"])
        if "generators" in data:
            diff = {
                src: {tgt: A.poly_from_json(terms) for tgt, terms in inner.items()}
                for src, inner in data.get("differential", {}).items()
            }
            return DGModulePresentation.free(A, data["generators"], diff,
                                             data.get("truncationDegree"))
        cx = complex_from_json(data["complex"])
        actions = {
            g: {int(n): [[A.field.scalar_from_json(x) for x in row] for row in mat]
                for n, mat in mats.items()}
            for g, mats in data.get("actions", {}).items()
        }
        return DGModulePresentation.raw(A, cx, actions)

    # -- expansion ------------------------------------------------------------------

    def expand(self, window: DegreeWindow) -> "ModuleExpansion":
        return ModuleExpansion(self, window)

    def cohomology_dims(self, window: DegreeWindow = None):
        return cohomology_dims(self.expand(window or self.default_window()).complex)

    def default_window(self) -> DegreeWindow:
        """A window that certifies the whole support of a bounded module."""
        if self.is_free:
            if not self.generators:
                return DegreeWindow(-1, 1)
            degs = [d for _, d in self.generators]
            top = self.algebra.top_degree()
            hi = max(degs) + (top if top is not None else 0) + 2
            return DegreeWindow(min(degs) - 2, hi)
        degs = self.complex.space.degrees() or [0]
        return DegreeWindow(min(degs) - 2, max(degs) + 2)


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
    D² = δ₀² + (Φδ₀ + δ₀Φ)·x, with no sign as dA = 0, so both identities are
    checked on construction; a violation raises PresentationError.  The
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
            label, deg = self.generators[src]
            col = []
            for tgt, c in terms.items():
                c = self.field.scalar(c)
                if not c:
                    continue
                tlabel, tdeg = self.generators[tgt]
                if tdeg + xdeg != deg + 1:
                    raise PresentationError(
                        f"D({label}) term on {tlabel} has total degree {tdeg + xdeg}, "
                        f"expected {deg + 1}")
                # over Q an int where integral, which the int kernels read
                col.append((self._slot[tgt], c.numerator if c.denominator == 1 else c))
            if col:
                out.setdefault(deg, [[] for _ in self.labels[deg]])[self._slot[src]] = col
        return out

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


# ---------------------------------------------------------------------------
# Expansion of a module to an honest cochain complex
# ---------------------------------------------------------------------------


class ModuleExpansion:
    """Basis, differential and right action of a module inside a window.

    For free modules the basis elements are pairs (generator, algebra
    monomial); for raw modules they are the complex's own basis, indexed as
    (degree, position).
    """

    def __init__(self, module: DGModulePresentation, window: DegreeWindow):
        self.module = module
        self.window = window
        self.field = module.field
        A = module.algebra
        if module.is_free:
            self.elements = {}
            if module.generators:
                mono_cap = window.hi - min(d for _, d in module.generators)
                by_degree = A.monomial_basis(max(mono_cap, 0))
                for label, gdeg in module.generators:
                    for mdeg, monos in by_degree.items():
                        n = gdeg + mdeg
                        if window.contains(n):
                            for m in monos:
                                self.elements.setdefault(n, []).append((label, m))
            labels = {}
            for n, elems in self.elements.items():
                elems.sort()
                seen = {}
                labels[n] = []
                for e in elems:
                    lbl = self.elem_label(e)
                    if lbl in seen:
                        seen[lbl] += 1
                        lbl = f"{lbl}#{seen[lbl]}"
                    else:
                        seen[lbl] = 0
                    labels[n].append(lbl)
            gen_degs = [d for _, d in module.generators] or [0]
            top = A.top_degree()
            support_hi = None if top is None else max(gen_degs) + top
            truncated_above = window.hi + 1 \
                if (support_hi is None or support_hi > window.hi) else None
            if module.truncation_degree is not None:
                cut = module.truncation_degree
                truncated_above = cut if truncated_above is None else min(truncated_above, cut)
            truncated_below = window.lo - 1 if min(gen_degs) < window.lo else None
            self.complex, self.pos = assemble(self.field, self.elements, labels,
                                              self._free_column, truncated_above,
                                              truncated_below)
        else:
            self.elements = {
                n: [(n, j) for j in range(module.complex.dim(n))]
                for n in module.complex.space.degrees()
            }
            self.pos = {e: (e[0], e[1]) for elems in self.elements.values() for e in elems}
            self.complex = module.complex
            self._raw_products = {}     # (element, monomial) -> product pairs

    def _free_column(self, n, e):
        """D(g·m) = D(g)·m + (-1)^{|g|} g·dA(m)."""
        mod = self.module
        A = mod.algebra
        g, m = e
        for h, a in mod.differential.get(g, {}).items():
            for tm, c in A.poly_mul(a, A.mono_poly(m)).items():
                yield (h, tm), c
        odd = mod.gen_degree[g] % 2
        for tm, c in A.mono_differential(m).items():
            yield (g, tm), -c if odd else c

    def elem_label(self, e, tag_degree=False):
        """g·m for a free module; the complex's own label for a raw one,
        prefixed by [degree] when ``tag_degree``."""
        if self.module.is_free:
            g, m = e
            ml = self.module.algebra.mono_label(m)
            return g if ml == "1" else f"{g}·{ml}"
        n, j = e
        label = self.module.complex.space.labels(n)[j]
        return f"[{n}]{label}" if tag_degree else label

    # -- right action --------------------------------------------------------

    def act_element(self, element, poly):
        """element · poly as {element: scalar}, dropped outside the window."""
        A = self.module.algebra
        if self.module.is_free:
            g, m = element
            terms = ((tgt, pc * r[0]) for pm, pc in poly.items()
                     if (r := A.mono_mul(m, pm)) and (tgt := (g, r[1])) in self.pos)
            return sparse_sum(terms, self.field)
        return sparse_sum(((t, pc * x) for pm, pc in poly.items()
                           for t, x in self._raw_product(element, pm)), self.field)

    def _raw_product(self, element, mono):
        """element · mono in a raw module as (element, scalar) pairs, computed
        once per pair since the module is immutable."""
        try:
            return self._raw_products[element, mono]
        except KeyError:
            (n, j), A = element, self.module.algebra
            word = [g for g, e in zip(A.generators, mono) for _ in range(e)]
            tdeg = n + sum(g.degree for g in word)
            out = self._raw_products[element, mono] = [
                ((tdeg, i), x) for i, x in self.module._raw_word(n, j, word).items()]
            return out


# ---------------------------------------------------------------------------
# Operations on presentations
# ---------------------------------------------------------------------------


def block_sum(parts) -> DGModulePresentation:
    """Block sum of checked free modules over the algebra of the first.

    Each part is (module, label prefix, degree offset): generator g of degree
    n becomes prefix + g in degree n + offset, and its differential is scaled
    by (-1)^offset, the sign that keeps the Leibniz rule.  SphereModules over
    one H*(S^d) and field sum to one, each degree's δ₀ and Φ columns the
    parts' in part order with each row moved past the earlier parts'
    generators; else the differential is relabelled in generator order and
    the truncation is the parts' lowest, moved by its offset.  On each block
    D² is the part's D², relabelled, and a uniform offset keeps every term
    homogeneous, so the parts' checks cover the sum: it is built without a
    constructor, and only its labels are checked.
    """
    first = parts[0][0]
    reduce = first.field.reduce
    blocks = _one_sphere([m for m, _, _ in parts])
    cls = SphereModule if blocks else DGModulePresentation
    out = cls.__new__(cls)
    out.field, out.generators = first.field, tuple(
        (pre + label, deg + offset) for m, pre, offset in parts for label, deg in m.generators)
    out.gen_degree = dict(out.generators)
    if len(out.gen_degree) != len(out.generators):
        raise PresentationError("duplicate module generator labels")
    if blocks:
        out.d, out.labels, out.delta, out.phi = first.d, {}, {}, {}
        for label, deg in out.generators:
            out.labels.setdefault(deg, []).append(label)
        before = {}                 # degree -> generators of the parts summed so far
        for m, _, offset in parts:
            sign = -1 if offset % 2 else 1
            for block, part, step in ((out.delta, m.delta, 1), (out.phi, m.phi, 1 - m.d)):
                for deg, cols in part.items():
                    n = deg + offset
                    at, row = before.get(n, 0), before.get(n + step, 0)
                    block.setdefault(n, [[] for _ in out.labels[n]])[at:at + len(cols)] = \
                        [[(row + i, reduce(sign * c)) for i, c in col] for col in cols]
            for deg, labels in m.labels.items():
                before[deg + offset] = before.get(deg + offset, 0) + len(labels)
        return out
    out.algebra, out.complex, out.actions, out.differential = first.algebra, None, None, {}
    out.truncation_degree = min((m.truncation_degree + offset for m, _, offset in parts
                                 if m.truncation_degree is not None), default=None)
    for m, pre, offset in parts:
        for label, _ in m.generators:
            if terms := m.differential.get(label):
                out.differential[pre + label] = {
                    pre + t: p if offset % 2 == 0 else {mono: reduce(-c) for mono, c in p.items()}
                    for t, p in terms.items()}
    return out


def _one_sphere(modules) -> bool:
    """Every module is a SphereModule over the d and field of the first."""
    first = modules[0]
    return all(isinstance(m, SphereModule) and (m.d, m.field) == (first.d, first.field)
               for m in modules)


def _common_algebra(what, *algebras):
    """The first algebra, which every other one must equal."""
    base = algebras[0]
    for a in algebras[1:]:
        if a is not base and a.to_json() != base.to_json():
            raise AlgebraMismatch(f"{what} live over different algebras")
    return base


def shift(module: DGModulePresentation, k: int) -> DGModulePresentation:
    """Σ^k of a free module: generator degrees drop by k, differential picks up (-1)^k."""
    if not module.is_free:
        raise SourceNotFree("shift handles free presentations")
    return block_sum([(module, "", -k)])


def direct_sum(modules) -> DGModulePresentation:
    """Block sum of free modules over one algebra, compared unless all are
    SphereModules over one d and field, whose algebra is then never built."""
    modules = list(modules)
    if not modules:
        raise AlgebraMismatch("an empty direct sum has no algebra")
    if not _one_sphere(modules):
        _common_algebra("direct summands", *(m.algebra for m in modules))
    if len(modules) == 1:
        return modules[0]
    if not all(m.is_free for m in modules):
        raise SourceNotFree("direct_sum currently handles free presentations")
    return block_sum([(m, f"{i}·", 0) for i, m in enumerate(modules)])


def cone(f_map, source: DGModulePresentation, target: DGModulePresentation):
    """Mapping cone of an algebra-linear chain map between free modules.

    f_map: {source generator: {target generator: coefficient polynomial}}.
    """
    if not (source.is_free and target.is_free):
        raise SourceNotFree("cone requires free presentations")
    A = _common_algebra("cone endpoints", source.algebra, target.algebra)
    s = block_sum([(target, "", 0), (source, "s·", -1)])
    diff = s.differential
    for src, terms in f_map.items():
        if src not in source.gen_degree:
            raise NotAChainMap(f"map defined on unknown generator {src!r}")
        out = diff.setdefault(f"s·{src}", {})
        for tgt, poly in terms.items():
            if tgt not in target.gen_degree:
                raise NotAChainMap(f"map hits unknown generator {tgt!r}")
            if poly := A.normalize_poly(poly):
                if target.gen_degree[tgt] + A.poly_degree(poly) != source.gen_degree[src]:
                    raise NotAChainMap(f"map is not degree 0 on {src!r}")
                out[tgt] = A.poly_add(out.get(tgt, {}), poly)
    # D_M² = D_N² = 0, so the cone has D² = 0 exactly when D_N∘f = f∘D_M; in
    # generator order the error names the first source generator f breaks on
    try:
        return DGModulePresentation(A, generators=s.generators,
                                    differential={g: diff[g] for g, _ in s.generators if g in diff},
                                    truncation_degree=s.truncation_degree)
    except PresentationError as exc:
        raise NotAChainMap(f"f does not commute with the differentials: {exc}") from None


# ---------------------------------------------------------------------------
# Morphism complexes and idempotents
# ---------------------------------------------------------------------------


@dataclass
class MorphismComplex:
    """Algebra-linear maps M → N graded by degree shift; H^0 = Hom in D(A)."""

    source: DGModulePresentation
    target: DGModulePresentation
    complex: CochainComplex
    basis: dict           # hom degree -> list of (source gen, target element)
    target_expansion: ModuleExpansion


# basis maps `hom_complex` lists before it gives up; 39 times the 128 of the
# largest Hom complex the tests complete (the catalog benchmark's End
# complexes, hom degrees -1..1, reach 40)
HOM_BASIS_BUDGET = 5_000


def hom_complex(source: DGModulePresentation, target: DGModulePresentation,
                hom_window: DegreeWindow = None) -> MorphismComplex:
    """Algebra-linear maps source → target, graded by hom degree in the window
    (default -8..8); the φ∘D_M terms read D_M transposed, built once per call.
    Raises BudgetExceeded past HOM_BASIS_BUDGET basis maps."""
    if not source.is_free:
        raise SourceNotFree("hom_complex needs a free source")
    A = _common_algebra("hom endpoints", source.algebra, target.algebra)
    f = A.field
    hom_window = hom_window or DegreeWindow(-8, 8)
    gen_degs = [d for _, d in source.generators] or [0]
    tgt_window = DegreeWindow(min(gen_degs) + hom_window.lo - 1,
                              max(gen_degs) + hom_window.hi + 1)
    texp = target.expand(tgt_window)

    basis = {}
    size = 0
    for n in hom_window.degrees():
        elems = []
        for g, gd in source.generators:
            for e in texp.elements.get(gd + n, []):
                elems.append((g, e))
        if elems:
            basis[n] = elems
            size += len(elems)
            if size > HOM_BASIS_BUDGET:
                raise BudgetExceeded(
                    f"the Hom complex needs more than {HOM_BASIS_BUDGET} basis maps "
                    f"in hom degrees {hom_window.lo}..{hom_window.hi}")
    labels = {n: [f"{g}→{texp.elem_label(e, tag_degree=True)}" for g, e in elems]
              for n, elems in basis.items()}
    hits = {}                   # g -> [(g2, coefficient of g in D_M(g2))]
    for g2, terms in source.differential.items():
        for g, poly in terms.items():
            hits.setdefault(g, []).append((g2, poly))

    def column(n, elem):
        g, b = elem
        bdeg = source.gen_degree[g] + n
        # d_N ∘ φ
        for i, x in texp.complex.column(bdeg, texp.pos[b][1]):
            yield (g, texp.elements[bdeg + 1][i]), x
        # -(-1)^n φ ∘ D_M on every generator whose differential hits g
        for g2, poly in hits.get(g, ()):
            for e, c in texp.act_element(b, poly).items():
                yield (g2, e), c if n % 2 else -c

    # hom-degree n is known when every contributing target degree is known
    trunc_above = None
    trunc_below = None
    if source.generators:
        if texp.complex.truncated_above is not None:
            trunc_above = texp.complex.truncated_above - max(gen_degs)
        if texp.complex.truncated_below is not None:
            trunc_below = texp.complex.truncated_below - min(gen_degs)
    if source.truncation_degree is not None:
        # the generators from T on are missing: in hom degree n they map into
        # the target's degrees >= T + n, so every degree through the target's
        # top - T is unknown, and all of them when that top is not known
        top = _top_degree(target)
        unknown = hom_window.hi + 1 if top is None else top - source.truncation_degree
        trunc_below = unknown if trunc_below is None else max(trunc_below, unknown)
    trunc_above = hom_window.hi + 1 if trunc_above is None else min(trunc_above, hom_window.hi + 1)
    trunc_below = hom_window.lo - 1 if trunc_below is None else max(trunc_below, hom_window.lo - 1)
    cx, _ = assemble(f, basis, labels, column, trunc_above, trunc_below)
    return MorphismComplex(source, target, cx, basis, texp)


def _top_degree(M: DGModulePresentation):
    """M's highest degree (-inf when M is zero); None when M has no top or
    is known only below a truncation."""
    if not M.is_free:
        return None if M.complex.truncated_above is not None \
            else max(M.complex.space.degrees(), default=-inf)
    top = M.algebra.top_degree()
    if top is None or M.truncation_degree is not None:
        return None
    return max((d for _, d in M.generators), default=-inf) + top


class EndomorphismH0:
    """The finite-dimensional algebra H^0(End M) with its multiplication."""

    def __init__(self, module: DGModulePresentation):
        self.module = module
        self.field = module.field
        # H^0 needs hom degrees -1..1 only
        self.hom = hom_complex(module, module, DegreeWindow(-1, 1))
        lo, hi = self.hom.complex.certified(DegreeWindow(0, 0))
        if lo > hi:
            raise Undecided(f"H^0(End M) is not certified: the module is truncated at "
                            f"degree {module.truncation_degree}")
        dims, reps = cohomology(self.hom.complex, DegreeWindow(0, 0))
        self.dim = dims.get(0, 0)
        self.reps = reps.get(0, [])
        self.boundaries = self.hom.complex.coboundaries(0)

    def _terms(self, vec):
        """Morphism vector -> {source gen: [(scalar, target element)]}, its nonzero terms."""
        out = {g: [] for g, _ in self.module.generators}
        for (g, e), c in zip(self.hom.basis.get(0, []), vec):
            if c:
                out[g].append((c, e))
        return out

    def _compose(self, outer, inner, index):
        """The cocycle vector of outer ∘ inner, both given by their terms:
        inner(g) = Σ c·h·m and outer(h) = Σ x·h′·m′, so each pair adds c·x·λ
        on h′·(m′m), (λ, m′m) = mono_mul(m′, m), dropped outside the window."""
        mul, pos = self.module.algebra.mono_mul, self.hom.target_expansion.pos
        out = [self.field.zero()] * len(index)
        for g, terms in inner.items():
            acc = {}
            for c, (h, m) in terms:
                for x, (h2, m2) in outer[h]:
                    if (r := mul(m2, m)) and (tgt := (h2, r[1])) in pos:
                        v = c * x * r[0]
                        acc[tgt] = acc[tgt] + v if tgt in acc else v
            for tgt, v in acc.items():
                out[index[g, tgt]] = self.field.reduce(v)
        return out

    def structure(self):
        """(struct, unit): struct[i][j] holds the class coordinates of
        rep_i ∘ rep_j and unit those of the identity.

        One row reduction of the columns [reps | coboundaries | the k²
        products | identity] gives them all: the reps are independent modulo
        the coboundaries, so they are the first k pivots and the rep
        coefficients of every later column are unique, in the first k rows.
        """
        f, k = self.field, self.dim
        index = {ge: j for j, ge in enumerate(self.hom.basis.get(0, []))}
        unit = self.module.algebra.unit_monomial()
        identity = [f.zero()] * len(index)
        for g, _ in self.module.generators:
            identity[index[(g, (g, unit))]] = f.one()
        cols = self.reps + self.boundaries
        width = len(cols)
        maps = [self._terms(rep) for rep in self.reps]
        cols += [self._compose(a, b, index) for a in maps for b in maps]
        cols.append(identity)
        rref, pivots = row_reduce([list(row) for row in zip(*cols)], f)
        if pivots[-1] >= width:
            raise PresentationError("vector is not a cocycle class combination")
        coords = [tuple(rref[i][c] for i in range(k)) for c in range(width, len(cols))]
        return [coords[i * k:(i + 1) * k] for i in range(k)], coords[-1]


# the largest dim H^0(End M) find_idempotents searches; past it, EndTooLarge
END_DIM_GUARD = 8


def find_idempotents(module: DGModulePresentation):
    """A splitting pair [e, 1 − e] of H^0(End M), or [] when it is local.

    By Krull–Schmidt M is indecomposable exactly when H^0(End M) is local,
    so [] certifies indecomposability.  A nonempty answer is one pair of
    complementary idempotents in the chosen basis of H^0(End M), sorted,
    each checked against the structure constants (e² = e, e(1 − e) = 0,
    e ∉ {0, 1}); it is not a list of all idempotents (for Z_0 ⊕ Z_0 over Q
    they form an infinite family).  Raises ``Undecided`` when hom degree 0
    of End M is not certified (a truncated M) or when
    ``idempotent_split`` finds neither a split nor a locality certificate,
    and ``EndTooLarge`` past ``END_DIM_GUARD`` or the root-search guard.
    """
    if not module.is_free:
        raise SourceNotFree("find_idempotents needs a free presentation")
    if not module.generators and module.truncation_degree is None:
        return []
    end = EndomorphismH0(module)
    k = end.dim
    if k == 0:
        return []
    if k > END_DIM_GUARD:
        raise EndTooLarge(f"dim H^0(End) = {k} exceeds the guard {END_DIM_GUARD}")
    f = module.field
    struct, unit = end.structure()
    e = idempotent_split(struct, unit, f)
    if e is None:
        return []
    alg = _Algebra(struct, unit, f)
    rest = alg.comb(unit, e, -1)
    if alg.mul(e, e) != e or any(alg.mul(e, rest)) or not any(e) or not any(rest):
        raise VerificationFailed("the split of H^0(End) is not a pair of idempotents")
    return sorted([e, rest], key=lambda v: [str(x) for x in v])


# the most trials a root search makes: residues of F_p, or trial divisors of
# the cleared end coefficients of μ over Q; past it, EndTooLarge
ROOT_SEARCH_GUARD = 200_000


def idempotent_split(struct, unit, field):
    """A nontrivial idempotent of a finite-dimensional algebra, or None when
    the algebra is certified local.

    The algebra has basis b_0, …, b_{k-1} with b_i·b_j = Σ_t struct[i][j][t]·b_t
    and unit ``unit``; elements are coordinate tuples.  For each b its
    minimal polynomial μ is the first linear dependence among 1, b, b², ….
    A root λ of μ in the field with μ = (t − λ)^e·g, deg g ≥ 1, g(λ) ≠ 0
    splits the algebra: the CRT element ≡ 1 mod (t − λ)^e, ≡ 0 mod g,
    evaluated at b, is a nontrivial idempotent.  If every b is λ_b plus a
    nilpotent, J = span{b − λ_b} and its powers J^{n+1} = J^n·J are tested
    the same way; J^N = 0 makes the algebra J generates a nilpotent ideal of
    codimension 1, so the algebra is local, in every characteristic.  A
    basis element without an eigenvalue in the field (the algebra may be a
    larger field) raises ``Undecided``, and so does a J that never reaches 0.
    """
    alg = _Algebra(struct, unit, field)
    k = alg.dim
    gens = []
    rootless = False
    for i in range(k):
        b = tuple(field.one() if j == i else field.zero() for j in range(k))
        e, lam = alg.split(b)
        if e is not None:
            return e
        if lam is None:
            rootless = True
        else:
            gens.append(alg.comb(b, unit, -lam))
    if rootless:
        raise Undecided("a basis element of H^0(End) has no eigenvalue in "
                        f"{field}; no split and no locality certificate")
    J = alg.independent(gens)
    power = J
    for _ in range(k):
        if not power:
            return None
        power = alg.independent([alg.mul(a, b) for a in power for b in J])
        for z in power:
            # z has a nilpotent factor, so it is no unit and 0 is a root of
            # μ_z: z splits the algebra or is nilpotent
            e, _ = alg.split(z)
            if e is not None:
                return e
    raise Undecided("the nilpotent parts of H^0(End) generate no nilpotent "
                    "ideal and no split was found")


class _Algebra:
    """Structure-constant arithmetic on coordinate tuples."""

    def __init__(self, struct, unit, field):
        self.struct = struct
        self.unit = tuple(unit)
        self.field = field
        self.dim = len(self.unit)

    def mul(self, x, y):
        out = [self.field.zero()] * self.dim
        for i, a in enumerate(x):
            if not a:
                continue
            row = self.struct[i]
            for j, b in enumerate(y):
                if not b:
                    continue
                c = a * b
                for t, s in enumerate(row[j]):
                    if s:
                        out[t] += c * s
        return tuple(map(self.field.reduce, out))

    def comb(self, x, y, c):
        """x + c·y."""
        return tuple(self.field.reduce(u + c * v) for u, v in zip(x, y))

    def at(self, poly, x):
        """poly(x) by Horner; coefficients run from the constant term up."""
        acc = tuple(self.field.zero() for _ in range(self.dim))
        for c in reversed(poly):
            acc = self.comb(self.mul(acc, x), self.unit, c)
        return acc

    def independent(self, vectors):
        """The vectors at the pivot columns: a basis of their span."""
        rows = [[v[i] for v in vectors] for i in range(self.dim)]
        return [vectors[c] for c in pivot_columns(rows, self.field)]

    def minimal_polynomial(self, x):
        """Monic μ_x, coefficients from the constant term up."""
        f = self.field
        powers = [self.unit]
        while True:
            top = self.mul(powers[-1], x)
            rows = [[v[i] for v in powers] for i in range(self.dim)]
            c = solve(rows, list(top), f)
            if c is not None:
                return [f.reduce(-a) for a in c] + [f.one()]
            powers.append(top)

    def split(self, x):
        """(idempotent, λ) from the least root λ of μ_x: (None, λ) when
        μ_x = (t − λ)^e, (None, None) when μ_x has no root in the field."""
        f = self.field
        mu = self.minimal_polynomial(x)
        roots = _roots(mu, f)
        if not roots:
            return None, None
        lam = roots[0]
        e, g = 0, mu
        while True:
            q, r = _divide_linear(g, lam, f)
            if not f.is_zero(r):
                break
            e, g = e + 1, q
        if len(g) == 1:
            return None, lam
        # h = 1 / g(s + λ) mod s^e from the Taylor coefficients of g at λ
        taylor, rest = [], g
        for _ in range(e):
            rest, r = _divide_linear(rest, lam, f) if rest else ([], f.zero())
            taylor.append(r)
        inv0 = f.inv(taylor[0])
        h = [inv0]
        for n in range(1, e):
            s = sum(taylor[i] * h[n - i] for i in range(1, n + 1))
            h.append(f.reduce(-s * inv0))
        shifted = self.comb(x, self.unit, -lam)
        return self.mul(self.at(g, x), self.at(h, shifted)), lam


def _divide_linear(poly, lam, f):
    """(quotient, remainder = poly(λ)) of poly by t − λ (synthetic division)."""
    out = []
    acc = f.zero()
    for a in reversed(poly):
        acc = f.reduce(acc * lam + a)
        out.append(acc)
    rem = out.pop()
    return out[::-1], rem


def _roots(mu, f):
    """The roots of the monic μ in the field, ascending: every residue over
    F_p, the rational-root theorem on the integer-cleared μ over Q."""
    if len(mu) == 2:
        return [f.reduce(-mu[0])]
    if f.p:
        if f.p > ROOT_SEARCH_GUARD:
            raise EndTooLarge(f"a root search over F_{f.p} is out of the guard")
        return [r for r in range(f.p) if not _divide_linear(mu, r, f)[1]]
    a = integer_row(mu)
    roots = set()
    if not a[0]:
        roots.add(Fraction(0))
        while not a[0]:
            a = a[1:]
    if len(a) > 1:
        for u in _divisors(a[0]):
            for v in _divisors(a[-1]):
                for r in (Fraction(u, v), Fraction(-u, v)):
                    if not _divide_linear(mu, r, f)[1]:
                        roots.add(r)
    return sorted(roots)


def _divisors(n):
    n = abs(n)
    if isqrt(n) > ROOT_SEARCH_GUARD:
        raise EndTooLarge(f"the rational-root search would factor {n}, out of the guard")
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))
