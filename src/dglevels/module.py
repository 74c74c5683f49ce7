"""DG modules over a DG algebra presentation.

Two flavors share one class.  A *free* module is presented by finitely many
generators and a differential D(g) = Σ h·a_h with algebra coefficients on the
right (unspecified modules are right modules); D² = 0 and the right-module
Leibniz rule are enforced symbolically at construction.  A *raw* module is a
finite cochain complex together with a right action matrix for every algebra
generator (the fallback for cohomology-level inputs such as H*(S^7) over
H*(S^4)).

Shift convention: Σ^k lowers generator degrees by k, so (Σ M)^n = M^{n+1},
and multiplies the differential by (-1)^k; the right action commutes with the
suspension without sign.  Cones use d(n, σm) = (d n + f m, -σ d m).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from .algebra import DIVIDED, DGAlgebraPresentation
from .errors import (
    AlgebraMismatch,
    EndTooLarge,
    NotAChainMap,
    PresentationError,
    SourceNotFree,
)
from .field import coordinates
from .graded import CochainComplex, DegreeWindow, GradedVectorSpace, cohomology, mat_vec


class DGModulePresentation:
    """A right DG module, either free over the algebra or a raw complex."""

    def __init__(self, algebra: DGAlgebraPresentation, generators=None,
                 differential=None, complex=None, actions=None, side="right",
                 truncation_degree=None):
        self.algebra = algebra
        self.field = algebra.field
        self.side = side
        # first degree at which stored generators/differentials may be incomplete
        self.truncation_degree = truncation_degree
        if (generators is None) == (complex is None):
            raise PresentationError("give either generators (free) or a complex (raw)")
        if generators is not None:
            self.generators = tuple((str(l), int(d)) for l, d in generators)
            labels = [l for l, _ in self.generators]
            if len(set(labels)) != len(labels):
                raise PresentationError("duplicate module generator labels")
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
            self.actions = {g: dict(mats) for g, mats in (actions or {}).items()}
            self._validate_raw()

    # -- flavor ------------------------------------------------------------

    @property
    def is_free(self) -> bool:
        return self.generators is not None

    def is_trivial(self) -> bool:
        """Raw, zero differential, zero action: a finite sum of shifts of K."""
        if self.is_free:
            return not self.generators
        if self.complex.differential:
            return False
        for mats in self.actions.values():
            for mat in mats.values():
                if any(any(not self.field.is_zero(x) for x in row) for row in mat):
                    return False
        return True

    def shift_degrees(self):
        """For a trivial module: the degrees of its K-summands, with multiplicity."""
        out = []
        for n in self.complex.space.degrees():
            out.extend([n] * self.complex.space.dim(n))
        return out

    # -- validation -----------------------------------------------------------

    def _validate_free(self):
        A = self.algebra
        for src, terms in self.differential.items():
            for tgt, poly in terms.items():
                deg = A.poly_degree(poly)
                if deg is None:
                    continue
                if self.gen_degree[tgt] + deg != self.gen_degree[src] + 1:
                    raise PresentationError(
                        f"D({src}) term on {tgt} has total degree "
                        f"{self.gen_degree[tgt] + deg}, expected {self.gen_degree[src] + 1}")
        # D² = 0, symbolically: D(Σ h·a) = Σ D(h)·a + (-1)^{|h|} h·dA(a).
        # Near a truncation the stored differentials are incomplete, so the
        # check covers only generators whose two-step range is fully stored.
        for src in self.differential:
            if self.truncation_degree is not None and \
                    self.gen_degree[src] + 2 >= self.truncation_degree:
                continue
            acc = {}
            for h, a in self.differential[src].items():
                for k, b in self.differential.get(h, {}).items():
                    acc.setdefault(k, {})
                    acc[k] = A.poly_add(acc[k], A.poly_mul(b, a))
                da = A.poly_differential(a)
                if da:
                    sign = -1 if self.gen_degree[h] % 2 else 1
                    term = A.poly_scale(da, A.field.from_int(sign))
                    acc.setdefault(h, {})
                    acc[h] = A.poly_add(acc[h], term)
            for k, poly in acc.items():
                if poly:
                    raise PresentationError(f"D∘D ≠ 0 on generator {src!r} (lands on {k!r})")

    def _validate_raw(self):
        f = self.field
        A = self.algebra
        for label in self.actions:
            if label not in A.index:
                raise PresentationError(f"action for unknown algebra generator {label!r}")
        has_nonzero_action = any(
            any(any(not f.is_zero(x) for x in row) for row in mat)
            for mats in self.actions.values() for mat in mats.values()
        )
        if has_nonzero_action and not A.has_zero_differential():
            raise PresentationError(
                "raw modules with nontrivial action require a zero-differential algebra")
        if has_nonzero_action and any(g.kind == DIVIDED for g in A.generators):
            raise PresentationError("raw modules over divided-power algebras are unsupported")
        for label, mats in self.actions.items():
            gd = A.generators[A.index[label]].degree
            for n, mat in mats.items():
                src, tgt = self.complex.dim(n), self.complex.dim(n + gd)
                if len(mat) != tgt or any(len(row) != src for row in mat):
                    raise PresentationError(
                        f"action of {label} at degree {n} has wrong shape")
            # module axiom: the action is a chain map (algebra differential zero here)
            for n, mat in mats.items():
                if self.complex.dim(n) == 0:
                    continue
                for j in range(self.complex.dim(n)):
                    v = [f.zero()] * self.complex.dim(n)
                    v[j] = f.one()
                    av = self._raw_apply(mats, n, v, gd)
                    dav = self.complex.apply(n + gd, av)
                    dv = self.complex.apply(n, v)
                    adv = self._raw_apply(mats, n + 1, list(dv), gd)
                    if tuple(dav) != tuple(adv):
                        raise PresentationError(
                            f"action of {label} does not commute with d at degree {n}")

    def _raw_apply(self, mats, n, vector, gd):
        mat = mats.get(n)
        if mat is None:
            return (self.field.zero(),) * self.complex.dim(n + gd)
        return mat_vec(mat, vector, self.field)

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def free(algebra, generators, differential=None, truncation_degree=None):
        return DGModulePresentation(algebra, generators=generators,
                                    differential=differential,
                                    truncation_degree=truncation_degree)

    @staticmethod
    def free_rank_one(algebra, label="e", degree=0):
        """The algebra as a module over itself."""
        return DGModulePresentation(algebra, generators=[(label, degree)])

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
    def zero(algebra):
        return DGModulePresentation(algebra, generators=[])

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
        else:
            from .graded import complex_to_json

            out["complex"] = complex_to_json(self.complex)
            out["actions"] = {
                g: {str(n): [[self.field.scalar_to_json(x) for x in row] for row in mat]
                    for n, mat in sorted(mats.items())}
                for g, mats in sorted(self.actions.items())
            }
        return out

    @staticmethod
    def from_json(data):
        from .algebra import DGAlgebraPresentation

        A = DGAlgebraPresentation.from_json(data["algebra"])
        if "generators" in data:
            gens = [(l, int(d)) for l, d in data["generators"]]
            diff = {
                src: {tgt: A.poly_from_json(terms) for tgt, terms in inner.items()}
                for src, inner in data.get("differential", {}).items()
            }
            return DGModulePresentation.free(A, gens, diff)
        from .graded import complex_from_json

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

    def cohomology(self, window: DegreeWindow = None):
        window = window or self.default_window()
        return cohomology(self.expand(window).complex)

    def cohomology_dims(self, window: DegreeWindow = None):
        return self.cohomology(window)[0]

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

    def gen_labels(self):
        return [l for l, _ in self.generators]


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
            for n in self.elements:
                self.elements[n].sort(key=lambda e: (e[0], e[1]))
            self.pos = {}
            for n, elems in self.elements.items():
                for j, e in enumerate(elems):
                    self.pos[e] = (n, j)
            self.complex = self._build_free_complex()
        else:
            self.elements = {
                n: [(n, j) for j in range(module.complex.dim(n))]
                for n in module.complex.space.degrees()
            }
            self.pos = {e: (e[0], e[1]) for elems in self.elements.values() for e in elems}
            self.complex = module.complex

    def _build_free_complex(self):
        mod = self.module
        A = mod.algebra
        f = self.field
        labels = {}
        for n, elems in self.elements.items():
            seen = {}
            labels[n] = []
            for g, m in elems:
                ml = A.mono_label(m)
                lbl = g if ml == "1" else f"{g}·{ml}"
                if lbl in seen:
                    seen[lbl] += 1
                    lbl = f"{lbl}#{seen[lbl]}"
                else:
                    seen[lbl] = 0
                labels[n].append(lbl)
        space = GradedVectorSpace(f, labels)
        diff = {}
        for n, elems in self.elements.items():
            tgt = self.elements.get(n + 1, [])
            if not tgt:
                continue
            mat = [[f.zero()] * len(elems) for _ in range(len(tgt))]
            nonzero = False
            for j, (g, m) in enumerate(elems):
                # D(g·m) = D(g)·m + (-1)^{|g|} g·dA(m)
                for h, a in mod.differential.get(g, {}).items():
                    for tm, c in A.poly_mul(a, A.mono_poly(m)).items():
                        loc = self.pos.get((h, tm))
                        if loc:
                            mat[loc[1]][j] = f.add(mat[loc[1]][j], c)
                            nonzero = True
                dm = A.mono_differential(m)
                if dm:
                    sign = -1 if mod.gen_degree[g] % 2 else 1
                    for tm, c in dm.items():
                        loc = self.pos.get((g, tm))
                        if loc:
                            mat[loc[1]][j] = f.add(mat[loc[1]][j], f.mul(f.from_int(sign), c))
                            nonzero = True
            if nonzero:
                diff[n] = mat
        gen_degs = [d for _, d in mod.generators] or [0]
        top = A.top_degree()
        support_hi = None if top is None else max(gen_degs) + top
        truncated_above = self.window.hi + 1 \
            if (support_hi is None or support_hi > self.window.hi) else None
        if mod.truncation_degree is not None:
            cut = mod.truncation_degree - 1
            truncated_above = cut if truncated_above is None else min(truncated_above, cut)
        truncated_below = self.window.lo - 1 if min(gen_degs) < self.window.lo else None
        return CochainComplex(space, diff, truncated_above=truncated_above,
                              truncated_below=truncated_below)

    # -- right action --------------------------------------------------------

    def act_element(self, element, poly):
        """element · poly as {element: scalar}, dropped outside the window."""
        f = self.field
        A = self.module.algebra
        out = {}
        if self.module.is_free:
            g, m = element
            for pm, pc in poly.items():
                r = A.mono_mul(m, pm)
                if r is None:
                    continue
                coeff, tm = r
                tgt = (g, tm)
                if tgt in self.pos:
                    c = f.mul(pc, coeff)
                    s = f.add(out.get(tgt, f.zero()), c)
                    if f.is_zero(s):
                        out.pop(tgt, None)
                    else:
                        out[tgt] = s
            return out
        n, j = element
        v = [f.zero()] * self.module.complex.dim(n)
        v[j] = f.one()
        for pm, pc in poly.items():
            cur, cur_deg = list(v), n
            for idx, e in enumerate(pm):
                glabel = A.generators[idx].label
                gd = A.generators[idx].degree
                for _ in range(e):
                    mats = self.module.actions.get(glabel, {})
                    cur = list(self.module._raw_apply(mats, cur_deg, cur, gd))
                    cur_deg += gd
            for i, x in enumerate(cur):
                if not f.is_zero(x):
                    tgt = (cur_deg, i)
                    s = f.add(out.get(tgt, f.zero()), f.mul(pc, x))
                    if f.is_zero(s):
                        out.pop(tgt, None)
                    else:
                        out[tgt] = s
        return out

    def act_vector(self, degree, vector, poly):
        f = self.field
        out = {}
        for j, c in enumerate(vector):
            if f.is_zero(c):
                continue
            elem = self.elements[degree][j]
            for tgt, x in self.act_element(elem, poly).items():
                s = f.add(out.get(tgt, f.zero()), f.mul(c, x))
                if f.is_zero(s):
                    out.pop(tgt, None)
                else:
                    out[tgt] = s
        return out

    def vector_of(self, combo, degree):
        f = self.field
        v = [f.zero()] * len(self.elements.get(degree, []))
        for elem, c in combo.items():
            n, j = self.pos[elem]
            if n != degree:
                raise PresentationError("inhomogeneous combination")
            v[j] = f.add(v[j], c)
        return tuple(v)


# ---------------------------------------------------------------------------
# Operations on presentations
# ---------------------------------------------------------------------------


def shift(module: DGModulePresentation, k: int) -> DGModulePresentation:
    """Σ^k: generator degrees drop by k, differential picks up (-1)^k."""
    f = module.field
    if module.is_free:
        gens = [(l, d - k) for l, d in module.generators]
        sign = f.from_int(-1 if k % 2 else 1)
        diff = {
            src: {tgt: module.algebra.poly_scale(poly, sign) for tgt, poly in terms.items()}
            for src, terms in module.differential.items()
        }
        return DGModulePresentation(module.algebra, generators=gens, differential=diff)
    space = GradedVectorSpace(
        f, {n - k: module.complex.space.labels(n) for n in module.complex.space.degrees()})
    sgn = f.from_int(-1 if k % 2 else 1)
    diff = {
        n - k: [[f.mul(sgn, x) for x in row] for row in mat]
        for n, mat in module.complex.differential.items()
    }
    cx = CochainComplex(space, diff,
                        truncated_above=None if module.complex.truncated_above is None
                        else module.complex.truncated_above - k,
                        truncated_below=None if module.complex.truncated_below is None
                        else module.complex.truncated_below - k)
    actions = {
        g: {n - k: mat for n, mat in mats.items()}
        for g, mats in module.actions.items()
    }
    return DGModulePresentation(module.algebra, complex=cx, actions=actions)


def direct_sum(modules, algebra=None) -> DGModulePresentation:
    """Block sum of free modules over one algebra; empty sum is the zero module."""
    modules = list(modules)
    if not modules:
        if algebra is None:
            raise AlgebraMismatch("empty direct sum needs an explicit algebra")
        return DGModulePresentation.zero(algebra)
    base = modules[0].algebra
    for m in modules[1:]:
        if m.algebra is not base and m.algebra.to_json() != base.to_json():
            raise AlgebraMismatch("direct summands live over different algebras")
    if len(modules) == 1:
        return modules[0]
    if not all(m.is_free for m in modules):
        raise SourceNotFree("direct_sum currently handles free presentations")
    gens = []
    diff = {}
    for i, m in enumerate(modules):
        ren = {l: f"{i}·{l}" for l, _ in m.generators}
        gens.extend((ren[l], d) for l, d in m.generators)
        for src, terms in m.differential.items():
            diff[ren[src]] = {ren[t]: poly for t, poly in terms.items()}
    return DGModulePresentation(base, generators=gens, differential=diff)


def cone(f_map, source: DGModulePresentation, target: DGModulePresentation):
    """Mapping cone of an algebra-linear chain map between free modules.

    f_map: {source generator: {target generator: coefficient polynomial}}.
    """
    if not (source.is_free and target.is_free):
        raise SourceNotFree("cone requires free presentations")
    if source.algebra is not target.algebra and \
            source.algebra.to_json() != target.algebra.to_json():
        raise AlgebraMismatch("cone endpoints live over different algebras")
    A = source.algebra
    fld = A.field
    f_map = {
        src: {tgt: A.normalize_poly(p) for tgt, p in terms.items() if A.normalize_poly(p)}
        for src, terms in f_map.items()
    }
    for src, terms in f_map.items():
        if src not in source.gen_degree:
            raise NotAChainMap(f"map defined on unknown generator {src!r}")
        for tgt, poly in terms.items():
            deg = A.poly_degree(poly)
            if deg is not None and target.gen_degree[tgt] + deg != source.gen_degree[src]:
                raise NotAChainMap(f"map is not degree 0 on {src!r}")
    # chain condition D_N(f g) = f(D_M g), checked symbolically
    for src in source.gen_degree:
        lhs = {}
        for tgt, a in f_map.get(src, {}).items():
            for k, b in target.differential.get(tgt, {}).items():
                lhs.setdefault(k, {})
                lhs[k] = A.poly_add(lhs[k], A.poly_mul(b, a))
            da = A.poly_differential(a)
            if da:
                sign = -1 if target.gen_degree[tgt] % 2 else 1
                lhs.setdefault(tgt, {})
                lhs[tgt] = A.poly_add(lhs[tgt], A.poly_scale(da, fld.from_int(sign)))
        rhs = {}
        for h, a in source.differential.get(src, {}).items():
            for tgt, b in f_map.get(h, {}).items():
                rhs.setdefault(tgt, {})
                rhs[tgt] = A.poly_add(rhs[tgt], A.poly_mul(b, a))
        keys = set(lhs) | set(rhs)
        for k in keys:
            if A.poly_add(lhs.get(k, {}), A.poly_scale(rhs.get(k, {}), fld.from_int(-1))):
                raise NotAChainMap(f"f does not commute with the differentials at {src!r}")
    gens = [(l, d) for l, d in target.generators]
    gens += [(f"s·{l}", d - 1) for l, d in source.generators]
    diff = {src: dict(terms) for src, terms in target.differential.items()}
    minus = fld.from_int(-1)
    for l, _ in source.generators:
        terms = {}
        for h, a in source.differential.get(l, {}).items():
            terms[f"s·{h}"] = A.poly_scale(a, minus)
        for tgt, a in f_map.get(l, {}).items():
            terms[tgt] = A.poly_add(terms.get(tgt, {}), a)
        if terms:
            diff[f"s·{l}"] = terms
    return DGModulePresentation(A, generators=gens, differential=diff)


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

    def h_dims(self):
        return cohomology(self.complex)[0]


def hom_complex(source: DGModulePresentation, target: DGModulePresentation,
                hom_window: DegreeWindow = None) -> MorphismComplex:
    if not source.is_free:
        raise SourceNotFree("hom_complex needs a free source")
    if source.algebra is not target.algebra and \
            source.algebra.to_json() != target.algebra.to_json():
        raise AlgebraMismatch("hom endpoints live over different algebras")
    A = source.algebra
    f = A.field
    hom_window = hom_window or DegreeWindow(-8, 8)
    gen_degs = [d for _, d in source.generators] or [0]
    tgt_window = DegreeWindow(min(gen_degs) + hom_window.lo - 1,
                              max(gen_degs) + hom_window.hi + 1)
    texp = target.expand(tgt_window)

    basis = {}
    for n in hom_window.degrees():
        elems = []
        for g, gd in source.generators:
            for e in texp.elements.get(gd + n, []):
                elems.append((g, e))
        if elems:
            basis[n] = elems
    pos = {}
    for n, elems in basis.items():
        for j, (g, e) in enumerate(elems):
            pos[(n, g, e)] = j

    labels = {}
    for n, elems in basis.items():
        labels[n] = [f"{g}→{_elem_label(texp, e)}" for g, e in elems]
    space = GradedVectorSpace(f, labels)

    diff = {}
    for n in basis:
        src_elems = basis[n]
        tgt_elems = basis.get(n + 1, [])
        if not tgt_elems:
            continue
        mat = [[f.zero()] * len(src_elems) for _ in range(len(tgt_elems))]
        nonzero = False
        sign = f.from_int(-1 if n % 2 else 1)
        for j, (g, b) in enumerate(src_elems):
            bdeg = source.gen_degree[g] + n
            vec = [f.zero()] * len(texp.elements[bdeg])
            vec[texp.pos[b][1]] = f.one()
            # d_N ∘ φ
            image = texp.complex.apply(bdeg, vec)
            for i, x in enumerate(image):
                if f.is_zero(x):
                    continue
                elem = texp.elements[bdeg + 1][i]
                row = pos.get((n + 1, g, elem))
                if row is not None:
                    mat[row][j] = f.add(mat[row][j], x)
                    nonzero = True
            # -(-1)^n φ ∘ D_M on every generator whose differential hits g
            for g2, terms in source.differential.items():
                a = terms.get(g)
                if not a:
                    continue
                acted = texp.act_element(b, a)
                for elem, c in acted.items():
                    row = pos.get((n + 1, g2, elem))
                    if row is not None:
                        mat[row][j] = f.sub(mat[row][j], f.mul(sign, c))
                        nonzero = True
        if nonzero:
            diff[n] = mat

    # hom-degree n is known when every contributing target degree is known
    trunc_above = None
    trunc_below = None
    if source.generators:
        if texp.complex.truncated_above is not None:
            trunc_above = texp.complex.truncated_above - max(gen_degs)
        if texp.complex.truncated_below is not None:
            trunc_below = texp.complex.truncated_below - min(gen_degs)
    trunc_above = hom_window.hi + 1 if trunc_above is None else min(trunc_above, hom_window.hi + 1)
    trunc_below = hom_window.lo - 1 if trunc_below is None else max(trunc_below, hom_window.lo - 1)
    cx = CochainComplex(space, diff, truncated_above=trunc_above, truncated_below=trunc_below)
    return MorphismComplex(source, target, cx, basis, texp)


def _elem_label(texp, e):
    if texp.module.is_free:
        g, m = e
        ml = texp.module.algebra.mono_label(m)
        return g if ml == "1" else f"{g}·{ml}"
    n, j = e
    return f"[{n}]{texp.module.complex.space.labels(n)[j]}"


class EndomorphismH0:
    """The finite-dimensional algebra H^0(End M) with its multiplication."""

    def __init__(self, module: DGModulePresentation, hom_window: DegreeWindow = None):
        self.module = module
        self.field = module.field
        self.hom = hom_complex(module, module, hom_window or DegreeWindow(-3, 3))
        dims, reps = cohomology(self.hom.complex)
        self.dim = dims.get(0, 0)
        self.reps = reps.get(0, [])
        mat = self.hom.complex.differential.get(-1)
        self.boundaries = []
        if mat is not None:
            tgt = len(self.hom.basis.get(0, []))
            for j in range(len(self.hom.basis.get(-1, []))):
                col = tuple(mat[i][j] for i in range(tgt))
                if any(not self.field.is_zero(x) for x in col):
                    self.boundaries.append(col)

    def _vector_to_map(self, vec):
        """Morphism vector -> {source gen: expansion vector at its degree}."""
        out = {g: None for g, _ in self.module.generators}
        texp = self.hom.target_expansion
        per_gen = {}
        for (g, e), c in zip(self.hom.basis.get(0, []), vec):
            if self.field.is_zero(c):
                continue
            per_gen.setdefault(g, {})[e] = c
        for g, gd in self.module.generators:
            elems = texp.elements.get(gd, [])
            v = [self.field.zero()] * len(elems)
            for e, c in per_gen.get(g, {}).items():
                v[texp.pos[e][1]] = c
            out[g] = tuple(v)
        return out

    def _eval_on_element(self, phi, elem):
        """Apply the A-linear map phi to expansion element (gen, monomial)."""
        texp = self.hom.target_expansion
        g, mono = elem
        gd = self.module.gen_degree[g]
        poly = self.module.algebra.mono_poly(mono)
        return texp.act_vector(gd, phi[g], poly)

    def compose(self, vec_outer, vec_inner):
        """Class vector of (outer ∘ inner) in the chosen H^0 basis."""
        f = self.field
        texp = self.hom.target_expansion
        outer = self._vector_to_map(vec_outer)
        inner = self._vector_to_map(vec_inner)
        out_vec = [f.zero()] * len(self.hom.basis.get(0, []))
        index = {(g, e): j for j, (g, e) in enumerate(self.hom.basis.get(0, []))}
        for g, gd in self.module.generators:
            inner_v = inner[g]
            acc = {}
            for j, c in enumerate(inner_v):
                if f.is_zero(c):
                    continue
                elem = texp.elements[gd][j]
                for tgt, x in self._eval_on_element(outer, elem).items():
                    s = f.add(acc.get(tgt, f.zero()), f.mul(c, x))
                    if f.is_zero(s):
                        acc.pop(tgt, None)
                    else:
                        acc[tgt] = s
            for tgt, x in acc.items():
                out_vec[index[(g, tgt)]] = x
        return self.class_coordinates(tuple(out_vec))

    def class_coordinates(self, cocycle_vector):
        coords = coordinates(self.reps + self.boundaries, cocycle_vector, self.field)
        if coords is None:
            raise PresentationError("vector is not a cocycle class combination")
        return tuple(coords[: self.dim])

    def identity_coordinates(self):
        f = self.field
        vec = [f.zero()] * len(self.hom.basis.get(0, []))
        index = {(g, e): j for j, (g, e) in enumerate(self.hom.basis.get(0, []))}
        unit = self.module.algebra.unit_monomial()
        for g, _ in self.module.generators:
            vec[index[(g, (g, unit))]] = f.one()
        return self.class_coordinates(tuple(vec))


def find_idempotents(module: DGModulePresentation, hom_window: DegreeWindow = None,
                     dim_guard: int = 8):
    """All nontrivial solutions of e·e = e in H^0(End M).

    Empty output certifies indecomposability at desk scale.  The search is
    exact: brute force over prime fields, polynomial solving over Q.
    """
    if not module.is_free:
        raise SourceNotFree("find_idempotents needs a free presentation")
    if not module.generators:
        return []
    end = EndomorphismH0(module, hom_window)
    k = end.dim
    if k == 0:
        return []
    if k > dim_guard:
        raise EndTooLarge(f"dim H^0(End) = {k} exceeds the guard {dim_guard}")
    f = module.field
    struct = [[end.compose(end.reps[i], end.reps[j]) for j in range(k)] for i in range(k)]
    ident = end.identity_coordinates()

    solutions = []
    if f.characteristic():
        p = f.characteristic()
        if p ** k > 200_000:
            raise EndTooLarge(f"brute force over F_{p}^{k} is out of the guard")
        for cand in iter_product(range(p), repeat=k):
            if _is_idempotent(cand, struct, f, k):
                solutions.append(tuple(f.from_int(c) for c in cand))
    else:
        solutions = _rational_idempotents(struct, f, k)
    zero = tuple(f.zero() for _ in range(k))
    out = [s for s in solutions if s != zero and s != tuple(ident)]
    out.sort(key=lambda v: [str(x) for x in v])
    return out


def _is_idempotent(cand, struct, f, k):
    cand = [f.from_int(c) if isinstance(c, int) else c for c in cand]
    for t in range(k):
        acc = f.zero()
        for i in range(k):
            if f.is_zero(cand[i]):
                continue
            for j in range(k):
                if f.is_zero(cand[j]):
                    continue
                acc = f.add(acc, f.mul(f.mul(cand[i], cand[j]), struct[i][j][t]))
        if acc != cand[t]:
            return False
    return True


def _rational_idempotents(struct, f, k):
    import sympy
    from fractions import Fraction

    cs = sympy.symbols(f"c0:{k}")
    eqs = []
    for t in range(k):
        expr = -cs[t]
        for i in range(k):
            for j in range(k):
                coeff = struct[i][j][t]
                if not f.is_zero(coeff):
                    expr += sympy.Rational(coeff.numerator, coeff.denominator) * cs[i] * cs[j]
        eqs.append(expr)
    sols = sympy.solve(eqs, list(cs), dict=True)
    out = []
    for sol in sols:
        vals = []
        ok = True
        for c in cs:
            v = sympy.nsimplify(sol.get(c, 0))
            if not v.is_rational:
                ok = False
                break
            vals.append(Fraction(int(sympy.numer(v)), int(sympy.denom(v))))
        if ok:
            out.append(tuple(vals))
    return out
