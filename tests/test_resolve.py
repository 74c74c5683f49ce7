"""Resolutions, derived tensors, phi verdicts, filtrations."""

import hashlib
import itertools
import json
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import dglevels.module
import dglevels.resolve
from dglevels.algebra import DGAlgebraPresentation, Generator
from dglevels.errors import (
    AlgebraMismatch,
    BudgetExceeded,
    InvalidFiltration,
    NotSimplyConnected,
    OddGenerator,
    StrategyInapplicable,
)
from dglevels.field import QQ, GF2, GF3, GF5
from dglevels.graded import (
    CochainComplex,
    DegreeWindow,
    GradedVectorSpace,
    assemble,
    complex_to_json,
)
from dglevels.module import DGModulePresentation, block_sum, direct_sum, shift
from dglevels.rational import sphere_model
from dglevels.spheres import MoleculeId, molecule_model
from dglevels.resolve import (
    BAR,
    BAR_WORD_BUDGET,
    GIVEN,
    KOSZUL,
    KOSZUL_GENERATOR_BUDGET,
    N_EXPANSION_BUDGET,
    FinitenessVerdict,
    SemifreeFiltration,
    _koszul,
    _bar,
    _monomials_through,
    _resolve,
    auto_strategy,
    bar_resolution,
    derived_tensor,
    filtration_class,
    finiteness,
    generator_depth_filtration,
    infinite_level_certificate,
    koszul_resolution_poly,
    koszul_resolution_sphere,
    periodic_witnesses,
    phi,
    raw_resolution,
    residue_module,
    sphere_block_period,
    tensor_reach,
)
from helpers import differential, rank, raw_expansion, shift_degrees, with_k


def sphere(d, field=QQ):
    return DGAlgebraPresentation.sphere_cohomology(d, field)


def chain_module(d, m, field=QQ, bottom=0):
    A = sphere(d, field)
    gens = [(f"e{j}", bottom + j * (d - 1)) for j in range(m + 1)]
    diff = {f"e{j}": {f"e{j-1}": A.generator_poly(f"x{d}")} for j in range(1, m + 1)}
    return DGModulePresentation.free(A, gens, diff)


def resolution(M, strategy, window):
    """The resolution `_resolve` gives M for a derived tensor with K in
    ``window``."""
    return _resolve(M, strategy, tensor_reach(window, M, residue_module(M.algebra), strategy))


def module_digest(M):
    """sha256 of the module's JSON and of its differential as stored: the
    order of every dict and the type of every scalar."""
    stored = [[src, [[tgt, [[list(m), type(c).__name__, str(c)] for m, c in p.items()]]
                     for tgt, p in terms.items()]] for src, terms in M.differential.items()]
    blob = json.dumps([M.to_json(), stored], ensure_ascii=False)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# sphere, poly and poly-sum were recorded before the Koszul recipes became
# one function.  koszul and bar take their cap from `tensor_reach`:
# generators through the top degree the tensor lists, 6 above the lowest
# shift for koszul (read through one period past its stable start, 7) and 7
# for bar.  Each is the module recorded with the cap one higher less the top
# degree of each block, with the same labels, differentials and entry types
# on the rest.  The sphere caps end on an even and on an odd link of the chain.
RESOLUTION_DIGESTS = {
    ("koszul", QQ): "977dfdeb2343a46d",
    ("koszul", GF3): "058cffd1871a90ce",
    ("bar", QQ): "fa0c41aed75680a4",
    ("bar", GF3): "a653e3b0c3bfa9cb",
    ("sphere/3/8", QQ): "f30c450b6db9fbb2",
    ("sphere/3/11", QQ): "3243c67c02e369ff",
    ("sphere/3/8", GF3): "b3551b5bfffb20a8",
    ("sphere/3/11", GF3): "f0db37a061845620",
    ("sphere/4/12", QQ): "f35473ac289e3716",
    ("sphere/4/16", QQ): "1b783e10dc4b9b73",
    ("sphere/4/12", GF3): "1fde20587efb34d9",
    ("sphere/4/16", GF3): "8db3161f30c5ad86",
    ("sphere/5/16", QQ): "e9d133e4f84a5a44",
    ("sphere/5/21", QQ): "eb8a5c42d52c84ed",
    ("sphere/5/16", GF3): "a1e3a8787dcbe7ae",
    ("sphere/5/21", GF3): "06c1e7c9493848a8",
    ("poly/2,4", QQ): "90d8ff7050808de3",
    ("poly/4,6,7", GF2): "4948d39463861996",
    ("poly-sum", QQ): "47266917c29e3bbc",
    ("bar-model", QQ): "a4f78f3acd9b99e8",
    ("bar-model", GF3): "4e6d9dd355047c09",
}


@pytest.mark.parametrize("kind, field", list(RESOLUTION_DIGESTS))
def test_resolution_layout_is_pinned(kind, field):
    """Generator order, differential dicts and scalar types of: the shifted
    Koszul sum over H*(S^2) for shifts 2, 3 (koszul); the bar resolution of
    K over K[a₂, b₄] at window 0:6 (bar); the Koszul resolution of K over
    H*(S^d) at a cap (sphere/d/cap) and over a polynomial algebra
    (poly/degrees); the shifted Koszul sum over K[x₂, x₄] for shifts 0, 3
    (poly-sum); the bar resolution at window 0:5 of e, f, g over the S²
    model ∧(x, ξ), dξ = x², with D(f) = e·x and D(g) = f·x − e·ξ
    (bar-model), whose words meet slot differentials, merges with m and
    between slots, and the module's own differential."""
    name, *args = kind.split("/")
    if name == "koszul":
        A = sphere(2, field)
        M = DGModulePresentation.trivial(A, shifts=(2, 3))
        F = resolution(M, KOSZUL, DegreeWindow(0, 12)).module
        assert len(F.generators) == 14
    elif name == "bar":
        P = DGAlgebraPresentation.polynomial(field, [("a", 2), ("b", 4)])
        F = bar_resolution(residue_module(P), P, window=DegreeWindow(0, 6)).module
        assert len(F.generators) == 69
    elif name == "sphere":
        d, cap = map(int, args)
        F = koszul_resolution_sphere(d, field, cap=cap).module
        assert [deg for _, deg in F.generators] == list(range(0, cap + 1, d - 1))
    elif name == "poly":
        degrees = [int(g) for g in args[0].split(",")]
        F = koszul_resolution_poly(degrees, field).module
        assert len(F.generators) == 2 ** len(degrees)
    elif name == "bar-model":
        one, minus = field.one(), field.from_int(-1)
        A = DGAlgebraPresentation(field, [Generator("x", 2, "polynomial"),
                                          Generator("ξ", 3, "exterior")], {"ξ": {(2, 0): one}})
        M = DGModulePresentation.free(A, [("e", 0), ("f", 1), ("g", 2)],
                                      {"f": {"e": {(1, 0): one}},
                                       "g": {"f": {(1, 0): one}, "e": {(0, 1): minus}}})
        F = bar_resolution(M, window=DegreeWindow(0, 5)).module
        assert len(F.generators) == 165
    else:
        P = DGAlgebraPresentation.polynomial(field, [("x1", 2), ("x2", 4)])
        M = DGModulePresentation.trivial(P, shifts=(0, 3))
        F = resolution(M, KOSZUL, DegreeWindow(0, 12)).module
        assert len(F.generators) == 8
    assert module_digest(F) == RESOLUTION_DIGESTS[kind, field]


# -- bar resolution ------------------------------------------------------------


def test_bar_resolution_of_k_is_a_resolution():
    A = sphere(4)
    res = bar_resolution(residue_module(A), A, cutoff=13, window=DegreeWindow(0, 12))
    dims = res.module.cohomology_dims(DegreeWindow(0, 10))
    assert dims == {0: 1}


def test_bar_length_t_part_has_degree_at_least_t():
    A = sphere(4)
    res = bar_resolution(residue_module(A), A, window=DegreeWindow(0, 12))
    for label, deg in res.module.generators:
        t = label.count("|") + (1 if "[" in label else 0)
        assert deg >= t


def test_bar_resolution_of_the_algebra_is_quasi_iso_to_it():
    A = sphere(4)
    M = DGModulePresentation.free_rank_one(A)
    res = bar_resolution(M, A, window=DegreeWindow(0, 10))
    dims = res.module.cohomology_dims(DegreeWindow(0, 8))
    assert dims == {0: 1, 4: 1}


def test_bar_needs_simply_connected():
    # a degree-1 generator breaks truncation soundness
    A = DGAlgebraPresentation(QQ, [Generator("t", 1, "exterior")])
    with pytest.raises(NotSimplyConnected):
        bar_resolution(residue_module(A), A, window=DegreeWindow(0, 24))


def test_bar_over_a_zero_differential_algebra_reads_no_slot_differential():
    A = DGAlgebraPresentation.polynomial(GF3, [("a", 2), ("b", 4)])
    K = residue_module(A)
    calls = []
    mono_differential = A.mono_differential
    A.mono_differential = lambda mono: calls.append(mono) or mono_differential(mono)
    tor = derived_tensor(K, K, strategy="bar", window=DegreeWindow(0, 8))
    assert calls == []
    assert tor.dims == {0: 1, 1: 1, 3: 1, 4: 1}


def test_bar_word_budget():
    # window 0:13 over K[a2, b4] needs 5,221 bar words; 0:12 needs 2,813
    P = DGAlgebraPresentation.polynomial(QQ, [("a", 2), ("b", 4)])
    K = residue_module(P)
    with pytest.raises(BudgetExceeded, match=f"more than {BAR_WORD_BUDGET} bar words"):
        bar_resolution(K, P, window=DegreeWindow(0, 13))
    P2 = DGAlgebraPresentation.polynomial(GF2, [("a", 2), ("b", 4)])
    res = bar_resolution(residue_module(P2), P2, window=DegreeWindow(0, 4))
    assert len(res.module.generators) == 20


def algebra_mismatches():
    """Tor and bar calls whose factors live over different algebras."""
    S2, S4 = (DGAlgebraPresentation.sphere_cohomology(d, QQ) for d in (2, 4))
    K4, w = residue_module(S4), DegreeWindow(0, 12)
    P = DGAlgebraPresentation.polynomial(QQ, [("a", 2), ("b", 4)])
    return {
        "spheres": lambda: derived_tensor(K4, residue_module(S2), KOSZUL, w),
        "fields": lambda: derived_tensor(
            K4, residue_module(DGAlgebraPresentation.sphere_cohomology(4, GF3)), KOSZUL, w),
        "free N": lambda: derived_tensor(K4, DGModulePresentation.free_rank_one(S2), KOSZUL, w),
        "polynomial M": lambda: derived_tensor(residue_module(P), K4, BAR, DegreeWindow(0, 6)),
        "bar algebra": lambda: bar_resolution(K4, S2, window=w),
    }


@pytest.mark.parametrize("case", sorted(algebra_mismatches()))
def test_tor_factors_over_different_algebras_are_refused(case):
    # each once answered: K over S⁴ against K over S² read as periodic Tor,
    # and the bar resolution of a module over S⁴ was built over S²
    with pytest.raises(AlgebraMismatch, match="live over different algebras") as info:
        algebra_mismatches()[case]()
    assert info.value.code == "algebra-mismatch"


def test_tor_factors_over_equal_algebras_are_accepted():
    A = DGAlgebraPresentation.sphere_cohomology(4, QQ)
    twin = DGAlgebraPresentation.from_json(A.to_json())
    assert twin is not A
    tor = derived_tensor(residue_module(A), residue_module(twin), KOSZUL, DegreeWindow(0, 12))
    assert tor.dims == {0: 1, 3: 1, 6: 1, 9: 1, 12: 1}
    assert bar_resolution(residue_module(A), twin, window=DegreeWindow(0, 6)).module.generators


# -- Koszul resolutions -----------------------------------------------------------


def test_sphere_koszul_resolves_k():
    for d in (3, 4, 5, 6):
        res = koszul_resolution_sphere(d, QQ, cap=30)
        assert res.module.cohomology_dims(DegreeWindow(-1, 25)) == {0: 1}


def test_sphere_koszul_tor_pattern_even():
    A = sphere(4)
    K = residue_module(A)
    tor = derived_tensor(K, K, strategy="koszul", window=DegreeWindow(0, 12))
    assert tor.dims == {0: 1, 3: 1, 6: 1, 9: 1, 12: 1}
    assert all(n % 6 in (0, 3) for n in tor.dims)


def test_sphere_koszul_tor_pattern_odd():
    A = sphere(3)
    K = residue_module(A)
    tor = derived_tensor(K, K, strategy="koszul", window=DegreeWindow(0, 12))
    assert tor.dims == {n: 1 for n in range(0, 13, 2)}


def test_poly_koszul_single_even_generator():
    res = koszul_resolution_poly([4], QQ)
    assert res.module.cohomology_dims(DegreeWindow(-1, 10)) == {0: 1}
    assert res.module.truncation_degree is None


def test_poly_koszul_empty_is_k():
    res = koszul_resolution_poly([], QQ)
    assert res.module.cohomology_dims(DegreeWindow(-1, 4)) == {0: 1}


def test_poly_koszul_odd_guard():
    with pytest.raises(OddGenerator):
        koszul_resolution_poly([4, 7], QQ)
    res = koszul_resolution_poly([4, 6, 7], GF2)   # allowed in characteristic 2
    assert res.module.cohomology_dims(DegreeWindow(-1, 10)) == {0: 1}


def two_step_koszul_sum(base, shifts, A):
    """The sum of shifts of a built and checked Koszul resolution: the
    construction the Koszul strategy makes in one step."""
    gens, diff = [], {}
    for k, s in enumerate(sorted(shifts)):
        sign = A.field.from_int(-1 if s % 2 else 1)
        gens += [(f"{k}⟨{s}⟩·{lbl}", deg + s) for lbl, deg in base.module.generators]
        for src, terms in base.module.differential.items():
            diff[f"{k}⟨{s}⟩·{src}"] = {f"{k}⟨{s}⟩·{t}": A.poly_scale(p, sign)
                                      for t, p in terms.items()}
    trunc = base.module.truncation_degree
    trunc = None if trunc is None else trunc + min(shifts)
    return gens, diff, trunc, base.period


@pytest.mark.parametrize("d, field, shifts", [
    (4, QQ, (0,)), (4, GF2, (0, 7)), (3, GF3, (2, 2, 5)), (6, QQ, (1, 4, 4, 9)),
    (2, GF2, (0, 1)),
])
def test_koszul_strategy_builds_the_shifted_public_resolution(d, field, shifts):
    A = sphere(d, field)
    M = DGModulePresentation.trivial(A, shifts=shifts)
    w = DegreeWindow(0, 30)
    res = resolution(M, KOSZUL, w)
    # against K, every generator through the stable start + 1 above the
    # lowest shift, the top degree the tensor lists (`tensor_reach`)
    stable = max(shifts) + d + sphere_block_period(d)
    assert stable < w.hi
    base = koszul_resolution_sphere(d, field, cap=stable + 1 - min(shifts))
    expected = two_step_koszul_sum(base, shifts, A)
    assert (list(res.module.generators), res.module.differential,
            res.module.truncation_degree, res.period) == expected


@pytest.mark.parametrize("field, gens, shifts", [
    (QQ, [("x1", 2), ("x2", 4)], (0, 3)), (GF2, [("x1", 3), ("x2", 4)], (1,)),
    (GF3, [("x1", 2)], (0, 0, 2)),
])
def test_koszul_strategy_builds_the_shifted_public_complex(field, gens, shifts):
    A = DGAlgebraPresentation.polynomial(field, gens,
                                         char2_polynomial_odd=field.characteristic() == 2)
    M = DGModulePresentation.trivial(A, shifts=shifts)
    res = resolution(M, KOSZUL, DegreeWindow(0, 20))
    base = koszul_resolution_poly([g for _, g in gens], field)
    expected = two_step_koszul_sum(base, shifts, A)
    assert (list(res.module.generators), res.module.differential,
            res.module.truncation_degree, res.period) == expected


# -- derived tensor -----------------------------------------------------------------


def test_algebra_tensor_k_is_k():
    A = sphere(4)
    M = DGModulePresentation.free_rank_one(A)
    tor = derived_tensor(M, residue_module(A), strategy="given", window=DegreeWindow(0, 10))
    assert tor.dims == {0: 1}
    assert tor.bounded


def test_bar_vs_koszul_agreement_on_sphere_tor():
    A = sphere(4)
    K = residue_module(A)
    w = DegreeWindow(0, 12)
    bar = derived_tensor(K, K, strategy="bar", window=w)
    kos = derived_tensor(K, K, strategy="koszul", window=w)
    assert bar.dims == kos.dims


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_bar_equals_koszul_over_spheres_at_several_windows(d, field):
    # over H*(S^d) no two slots multiply, so the bar resolution skips its
    # adjacent-merge scan; Tor must not move
    A = sphere(d, field)
    K = residue_module(A)
    M = DGModulePresentation.trivial(A, shifts=(0, d - 1))
    for hi in (6, 11, 17):
        w = DegreeWindow(0, hi)
        for left in (K, M):
            bar = derived_tensor(left, K, strategy="bar", window=w)
            kos = derived_tensor(left, K, strategy="koszul", window=w)
            top = min(bar.certified_hi, kos.certified_hi)
            assert top >= hi - 2
            assert all(bar.dims.get(n, 0) == kos.dims.get(n, 0) for n in range(top + 1)), \
                (d, field, hi)


def test_s7_pullback_tensor_is_infinite():
    A4 = sphere(4)
    hs7 = DGModulePresentation.trivial(A4, shifts=(0, 7), labels=["1", "x7"])
    tor = derived_tensor(hs7, hs7, strategy="koszul", window=DegreeWindow(0, 40))
    v = tor.verdict()
    assert v.is_infinite
    assert v.period == 6
    assert len(v.witnesses) >= 3
    # H*(S^7) ⊗ Γ[w] ⊗ ∧(s⁻¹x4) ⊗ H*(S^7) with zero differential: spot dims
    assert tor.dims[0] == 1 and tor.dims[7] == 2 and tor.dims[10] == 2


def test_strategy_guard():
    A = sphere(4)
    M = chain_module(4, 1)
    with pytest.raises(StrategyInapplicable):
        derived_tensor(residue_module(A), residue_module(A), strategy="nonsense",
                       window=DegreeWindow(0, 24))
    # Koszul requires a trivial (or free) module
    K = DGModulePresentation.trivial(A)
    assert derived_tensor(K, K, strategy="koszul", window=DegreeWindow(0, 24)).dims[0] == 1


def test_koszul_strategy_takes_a_free_module_as_its_own_resolution():
    F = chain_module(4, 1)
    assert resolution(F, KOSZUL, DegreeWindow(0, 12)).module is F


# -- the Koszul tensor, block by block ------------------------------------------------


def copied_tensor(M, N, window):
    """The Koszul Tor by the route block-wise tensoring replaced, kept as its
    reference: copy every shift of the checked Koszul resolution into one
    module (`block_sum`), tensor that module with N, and read the cohomology
    degree by degree, in each n with n + 1 below the truncation.  The cap,
    N's expansion and the degrees listed are `tensor_reach`'s.  Returns the
    complex and the TorResult fields after it."""
    A = M.algebra
    f = A.field
    reach = tensor_reach(window, M, N, BAR)     # the whole window: only koszul cuts a period
    base = _koszul(A, reach.cap)
    F = block_sum([(base.module, f"{k}⟨{s}⟩·", s)
                   for k, s in enumerate(shift_degrees(M))])
    nexp = N.expand(reach.n_window)
    n_degrees = sorted(nexp.elements)
    elems = {}
    for glabel, gdeg in F.generators:
        for nd in n_degrees:
            if reach.read.lo - 1 <= gdeg + nd <= reach.read.hi + 1:
                elems.setdefault(gdeg + nd, []).extend((glabel, b) for b in nexp.elements[nd])
    for es in elems.values():
        es.sort(key=lambda e: (e[0], str(e[1])))
    labels = {n: [g + "⊗" + nexp.elem_label(b) for g, b in es] for n, es in elems.items()}

    def column(n, e):
        glabel, b = e
        nd, j = nexp.pos[b]
        for h, a in F.differential.get(glabel, {}).items():
            for am, ac in a.items():
                odd = A.monomial_degree(am) % 2 and nd % 2
                for t, c in nexp.act_element(b, {am: f.one()}).items():
                    yield (h, t), ac * (-c if odd else c)
        for i, c in nexp.complex.column(nd, j):
            yield (glabel, nexp.elements[nd + 1][i]), -c if F.gen_degree[glabel] % 2 else c

    if F.truncation_degree is None:
        above, cert_hi = None, window.hi
        gdegs = [g for _, g in F.generators]
        bounded = (window.lo <= min(gdegs) + n_degrees[0]
                   and max(gdegs) + n_degrees[-1] <= window.hi)
    else:
        above = F.truncation_degree + n_degrees[0]
        cert_hi, bounded = min(window.hi, above - 2), False
    cx, _ = assemble(f, dict(sorted(elems.items())), labels, column, above)
    ranks = {n: rank(mat, f) for n, mat in differential(cx).items()}
    dims = {n: h for n in cx.space.degrees() if window.contains(n)
            and (above is None or n + 1 < above)
            if (h := cx.dim(n) - ranks.get(n, 0) - ranks.get(n - 1, 0))}
    return cx, dims, cert_hi, base.period, bounded


def tensor_record(cx, dims, cert_hi, period, bounded):
    """Everything compared: the complex as JSON and the type of each stored
    entry, both truncation flags, and the TorResult fields."""
    types = {n: [[type(x).__name__ for x in row] for row in mat]
             for n, mat in differential(cx).items()}
    return (complex_to_json(cx), types, cx.truncated_above, cx.truncated_below,
            dims, cert_hi, period, bounded)


def listed(cx, lo, hi):
    """The complex in degrees lo ... hi: its labels, and each matrix between
    two of them with the type of every entry."""
    return ({n: cx.space.labels(n) for n in cx.space.degrees() if lo <= n <= hi},
            {n: [[(type(x).__name__, x) for x in row] for row in mat]
             for n, mat in differential(cx).items() if lo <= n < hi})


def periodic_and_full(M, N, window):
    """The Koszul Tor of M against N, and the Tor of the full listing
    (`copied_tensor`) from the lowest degree the Koszul tensor reads, each as
    (its complex in the degrees the Koszul tensor lists, dims in the window,
    certified_hi, period, bounded, verdict)."""
    tor = derived_tensor(M, N, KOSZUL, window)
    read = tensor_reach(window, M, N, KOSZUL).read
    cx, dims, cert_hi, period, bounded = copied_tensor(M, N, DegreeWindow(read.lo, window.hi))
    dims = {n: h for n, h in dims.items() if n >= window.lo}
    return [(listed(c, read.lo - 1, read.hi + 1), d, hi, p, b, finiteness(d, p, hi, b))
            for c, d, hi, p, b in ((tor.complex, tor.dims, tor.certified_hi, tor.period,
                                    tor.bounded), (cx, dims, cert_hi, period, bounded))]


def raw_line(A, d):
    """H*(S^d) as a raw module: u in degree 0 and v = u·x in degree d."""
    space = GradedVectorSpace(A.field, {0: ["u"], d: ["v"]})
    return DGModulePresentation.raw(A, CochainComplex(space, {}),
                                    {f"x{d}": {0: [[A.field.one()]]}})


# repeats, negative shifts, and 11 or 13 shifts, where the prefix "10⟨" sorts
# before "1⟨"
SHIFT_LISTS = [(0,), (2, 3), (1, 1, 4), (-3, 0, 5), (-2, -2), tuple(range(11)),
               (-4, -4, -1, 0, 0, 2, 3, 5, 7, 7, 9, 11, 12)]
WINDOWS = [DegreeWindow(-6, 14), DegreeWindow(3, 22)]


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_blockwise_koszul_tensor_is_the_tensor_of_the_copied_sum(d, field):
    A = sphere(d, field)
    # the molecule's own differential carries the sign of |g| + offset; each
    # right module comes with its Tor against K: one class in each degree
    # t + j(d - 1) per summand K in degree t, the raw line (A itself) K in
    # degree 0, the molecule K ⊗_A F, one class on each generator
    def classes_of_k(tops):
        return lambda n: sum(1 for t in tops if n >= t and (n - t) % (d - 1) == 0)

    right = {"K": (residue_module(A), classes_of_k((0,))),
             "raw line": (raw_line(A, d), lambda n: int(n == 0)),
             "trivial sum": (DGModulePresentation.trivial(A, shifts=(0, 1, d)),
                             classes_of_k((0, 1, d))),
             "molecule": (chain_module(d, 1, field, bottom=1), lambda n: int(n in (1, d)))}
    for i, shifts in enumerate(SHIFT_LISTS):
        M = DGModulePresentation.trivial(A, shifts=shifts)
        for name, (N, tor_of_k) in right.items():
            w = WINDOWS[(i + len(name)) % 2]
            tor = derived_tensor(M, N, KOSZUL, w)
            periodic, full = periodic_and_full(M, N, w)
            assert periodic == full, (shifts, name, w)
            # Tor(K, N) moved by each shift, in every degree of the window,
            # window.lo included
            want = {n: h for n in w.degrees() if (h := sum(tor_of_k(n - s) for s in shifts))}
            assert (tor.dims, tor.certified_hi, tor.period, tor.bounded) == \
                (want, w.hi, sphere_block_period(d), False), (shifts, name, w)


def test_the_window_low_end_reads_the_degree_below_it():
    # Tor of K in degree -3 against A over H*(S^6) is one class, in degree
    # -3; degree 3 was read without degree 2, so it held a class that degree
    # 2 bounds
    A = sphere(6)
    M = DGModulePresentation.trivial(A, shifts=(-3,))
    for strategy in (KOSZUL, BAR):
        tor = derived_tensor(M, raw_line(A, 6), strategy, DegreeWindow(3, 22))
        assert (tor.dims, tor.certified_hi) == ({}, 22), strategy
        tor = derived_tensor(M, raw_line(A, 6), strategy, DegreeWindow(-4, 22))
        assert (tor.dims, tor.certified_hi) == ({-3: 1}, 22), strategy


@pytest.mark.parametrize("field, shifts", [(QQ, (0, 3)), (GF2, (-1, 2, 2)), (GF3, (1,))])
def test_blockwise_koszul_tensor_over_a_polynomial_algebra(field, shifts):
    # the Koszul complex is finite: bounded exactly when the window holds it all
    A = DGAlgebraPresentation.polynomial(field, [("a", 2), ("b", 4)])
    M = DGModulePresentation.trivial(A, shifts=shifts)
    for w in (DegreeWindow(-2, 20), DegreeWindow(1, 6)):
        tor = derived_tensor(M, residue_module(A), KOSZUL, w)
        got = tensor_record(tor.complex, tor.dims, tor.certified_hi, tor.period, tor.bounded)
        assert got == tensor_record(*copied_tensor(M, residue_module(A), w))


@pytest.mark.parametrize("k", [1, 2, 13])
def test_the_koszul_tensor_checks_its_recipe_once_and_copies_no_block(monkeypatch, k):
    # once per call: each Tor builds and checks one resolution of K, which
    # its blocks share without a copy
    A = sphere(4, GF3)
    M = DGModulePresentation.trivial(A, shifts=tuple(range(0, 3 * k, 3)))
    checks, sums = [], []
    validate = DGModulePresentation._validate_free
    monkeypatch.setattr(DGModulePresentation, "_validate_free",
                        lambda self: checks.append(self) or validate(self))
    for owner in (dglevels.module, dglevels.resolve):
        monkeypatch.setattr(owner, "block_sum", lambda parts: sums.append(parts) or
                            block_sum(parts))
    tor = derived_tensor(M, residue_module(A), KOSZUL, DegreeWindow(0, 30))
    assert (len(checks), sums) == (1, [])
    assert tor.dims[0] == 1
    assert derived_tensor(M, residue_module(A), KOSZUL, DegreeWindow(0, 30)).dims == tor.dims
    assert (len(checks), sums) == (2, []) and checks[0] is not checks[1]
    assert phi(M, DegreeWindow(0, 30)).is_infinite
    assert (len(checks), sums) == (3, [])
    # the sum of the blocks is built only when it is read
    assert len(resolution(M, KOSZUL, DegreeWindow(0, 30)).module.generators) == \
        k * len(checks[-1].generators)
    assert (len(checks), len(sums)) == (4, 1)


# -- the periodic Koszul tensor ---------------------------------------------------


def koszul_record(M, window):
    """A Koszul Tor of M against K as `tensor_record` sees it, with its verdict."""
    tor = derived_tensor(M, residue_module(M.algebra), KOSZUL, window)
    return (tensor_record(tor.complex, tor.dims, tor.certified_hi, tor.period, tor.bounded),
            tor.verdict())


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_a_kept_koszul_resolution_gives_the_cold_record(d, field):
    # the tensor kept to one period past its stable start gives the record of
    # the full listing, in windows that end past the start, start past it, or
    # are phi's
    A = sphere(d, field)
    for shifts in SHIFT_LISTS:
        M = DGModulePresentation.trivial(A, shifts=shifts)
        for w in (*WINDOWS, DegreeWindow(0, 90), DegreeWindow(70, 110)):
            periodic, full = periodic_and_full(M, residue_module(A), w)
            assert periodic == full, (shifts, w)
    M = DGModulePresentation.trivial(A, shifts=(-2, 0, 0, d))
    w = DegreeWindow(-3, 5 * d + 24)
    periodic, full = periodic_and_full(M, residue_module(A), w)
    assert phi(M, w) == periodic[-1] == full[-1]


@pytest.mark.parametrize("algebra", [
    DGAlgebraPresentation.polynomial(QQ, [("a", 2), ("b", 4)]),
    DGAlgebraPresentation.polynomial(GF3, [("a", 2), ("b", 4)]),
    DGAlgebraPresentation.polynomial(GF2, [("a", 3), ("b", 4)], char2_polynomial_odd=True),
], ids=["K[a2,b4]/Q", "K[a2,b4]/F3", "F2[a3,b4]"])
def test_a_kept_polynomial_koszul_complex_serves_every_window(algebra):
    # the complex is finite, so it has no period and is listed whole in every
    # window, as the full listing is
    K = residue_module(algebra)
    for shifts in ((0,), (0, 3), (-1, 2, 2)):
        M = DGModulePresentation.trivial(algebra, shifts=shifts)
        for w in (DegreeWindow(-2, 20), DegreeWindow(1, 6), DegreeWindow(0, 300)):
            assert tensor_reach(w, M, K, KOSZUL).read == w
            tor = derived_tensor(M, K, KOSZUL, w)
            got = tensor_record(tor.complex, tor.dims, tor.certified_hi, tor.period, tor.bounded)
            assert got == tensor_record(*copied_tensor(M, K, w)), (shifts, w)


def test_the_kept_koszul_resolutions_part_by_field_and_generators():
    # each algebra's Tor is its own full listing's, read one after another,
    # twice over
    algebras = [sphere(4, QQ), sphere(4, GF2), sphere(4, GF3), sphere(5, GF3),
                DGAlgebraPresentation(GF3, [Generator("y", 4, "exterior")]),
                DGAlgebraPresentation.polynomial(GF3, [("x4", 4)])]
    w = DegreeWindow(-1, 40)
    for A in algebras * 2:
        periodic, full = periodic_and_full(DGModulePresentation.trivial(A, shifts=(0, 1)),
                                           residue_module(A), w)
        assert periodic == full, A.to_json()


def test_changing_a_public_koszul_resolution_changes_no_later_tor():
    A = sphere(4)
    M = DGModulePresentation.trivial(A, shifts=(0, 3))
    w = DegreeWindow(0, 30)
    before = koszul_record(M, w)
    cap = tensor_reach(w, M, residue_module(A), KOSZUL).cap
    F = koszul_resolution_sphere(4, QQ, cap=cap).module
    F.differential.clear()
    F.gen_degree.clear()
    F.truncation_degree = 5
    assert koszul_record(M, w) == before


def molecule(d, field, l, m):
    """The free model of the molecule Σ^{-l}Z_m over H*(S^d)."""
    return molecule_model(MoleculeId(d, l, m), field, verify=False)


@st.composite
def periodic_cases(draw):
    """(M, N, window): a sum of shifts of K over H*(S^d), a bounded N, and a
    window through at most 300, starting below or past the stable start."""
    d = draw(st.integers(2, 7))
    field = draw(st.sampled_from([QQ, GF2, GF3, GF5]))
    A = sphere(d, field)
    shifts = st.lists(st.integers(-6, 9), min_size=1, max_size=4).map(tuple)
    M = DGModulePresentation.trivial(A, shifts=draw(shifts))
    N = draw(st.sampled_from([
        lambda: residue_module(A), lambda: raw_line(A, d),
        lambda: DGModulePresentation.trivial(A, shifts=draw(shifts)),
        lambda: DGModulePresentation.free_rank_one(A),
        lambda: chain_module(d, draw(st.integers(0, 3)), field, bottom=draw(st.integers(-4, 4))),
        lambda: molecule(d, field, draw(st.integers(-3, 6)), draw(st.integers(0, 3))),
    ]))()
    lo = draw(st.integers(-4, 70))
    return M, N, DegreeWindow(lo, draw(st.integers(max(lo, 0), 300)))


@settings(deadline=None, max_examples=60)
@given(periodic_cases())
def test_the_periodic_koszul_tor_is_the_full_listing(case):
    periodic, full = periodic_and_full(*case)
    assert periodic == full


@pytest.mark.parametrize("d", [2, 3, 4, 7])
def test_the_periodic_koszul_tensor_does_not_grow_with_the_window(monkeypatch, d):
    A = sphere(d, GF3)
    M, N = (DGModulePresentation.trivial(A, shifts=s) for s in ((-1, 3, 3), (0, 2)))
    checks = []
    validate = DGModulePresentation._validate_free
    monkeypatch.setattr(DGModulePresentation, "_validate_free",
                        lambda self: checks.append(self) or validate(self))
    sizes = []
    for hi in (40, 9_000):
        tor = derived_tensor(M, N, KOSZUL, DegreeWindow(0, hi))
        sizes.append((checks[-1].generators, {n: tor.complex.dim(n)
                                              for n in tor.complex.space.degrees()}))
    assert sizes[0] == sizes[1]
    # past the stable start the dims repeat with the period, to window.hi
    p = sphere_block_period(d)
    stable = 3 + 2 + d + p
    assert (tor.certified_hi, tor.period) == (9_000, p)
    assert max(tor.complex.space.degrees()) <= stable + 1
    assert all(tor.dims.get(n) == tor.dims.get(n - p) for n in range(stable + 1, 9_001))
    assert tor.verdict().is_infinite


def test_the_sphere_koszul_chain_has_a_generator_budget():
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=f"more than {KOSZUL_GENERATOR_BUDGET} generators"):
            koszul_resolution_sphere(4, QQ, cap=10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000           # raised before building anything
    # the largest chain that passes: one generator in each degree 0..cap over H*(S^2)
    cap = KOSZUL_GENERATOR_BUDGET - 1
    assert len(koszul_resolution_sphere(2, QQ, cap=cap).module.generators) == \
        KOSZUL_GENERATOR_BUDGET
    with pytest.raises(BudgetExceeded):
        koszul_resolution_sphere(2, QQ, cap=cap + 1)
    with pytest.raises(BudgetExceeded):
        resolution(residue_module(sphere(4)), KOSZUL, DegreeWindow(0, 10**12))
    # a periodic Tor builds one period, but it lists one degree of dims per
    # degree of the window, so it passes the budget where the whole
    # resolution would: K against K over H*(S^2) through 0:9,998
    K = residue_module(sphere(2))
    assert len(derived_tensor(K, K, KOSZUL, DegreeWindow(0, cap - 1)).dims) == cap
    with pytest.raises(BudgetExceeded, match=f"through degree {cap + 1} needs more than"):
        derived_tensor(K, K, KOSZUL, DegreeWindow(0, cap))


def chain(M):
    """Each generator of a free module as (degree, D's terms as sorted
    (target index, monomial, scalar)), in generator order."""
    index = {label: i for i, (label, _) in enumerate(M.generators)}
    return [(deg, sorted((index[t], mono, c) for t, poly in M.differential.get(label, {}).items()
                         for mono, c in poly.items()))
            for label, deg in M.generators]


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("layers", [0, 1, 2, 5])
@pytest.mark.parametrize("field", [QQ, GF3])
def test_the_raw_resolution_of_k_is_the_koszul_chain(d, layers, field):
    # one sign rule: on K, δ₀ = 0 and Φ steps down the layers by +1, which is
    # _koszul's D(g_j) = g_{j-1}·x generator by generator
    for s in (0, -3):
        F = raw_resolution(DGModulePresentation.trivial(sphere(d, field), shifts=(s,)), d, layers)
        assert F.delta == {}
        assert all(col == [(0, 1)] for cols in F.phi.values() for col in cols)
        koszul = _koszul(sphere(d, field), layers * (d - 1)).module
        assert chain(F) == [(deg + s, terms) for deg, terms in chain(koszul)]


@pytest.mark.parametrize("d", [2, 4, 5])
def test_a_raw_resolution_has_one_layer_of_generators_per_step(d):
    # (L + 1)·dim R generators, g_k ⊗ r in degree |r| + k(d - 1)
    A = sphere(d)
    mol = molecule_model(MoleculeId(d, d + 1, 2))
    R = with_k(raw_expansion(direct_sum([mol, shift(mol, 1)])), [0, 1, 1])
    cx = R.complex
    degrees = sorted(n for n in cx.space.degrees() for _ in range(cx.dim(n)))
    for layers in (0, 1, 3):
        F = raw_resolution(R, d, layers)
        assert F.algebra.to_json() == A.to_json()
        assert len(F.generators) == (layers + 1) * len(degrees)
        assert sorted(deg for _, deg in F.generators) == \
            sorted(n + k * (d - 1) for k in range(layers + 1) for n in degrees)


def test_a_raw_resolution_has_a_generator_budget():
    # 100 copies of K: 100 generators a layer, so layer 99 is the last that passes
    R = DGModulePresentation.trivial(sphere(3), shifts=range(100))
    assert len(raw_resolution(R, 3, 99).generators) == KOSZUL_GENERATOR_BUDGET
    for layers in (100, 10**12):
        with pytest.raises(BudgetExceeded, match=f"more than {KOSZUL_GENERATOR_BUDGET}$"):
            raw_resolution(R, 3, layers)


def test_the_expansion_of_a_free_n_has_a_budget():
    # over K[a₂, b₄] a free N spans the whole window; it is counted first,
    # and the count is the size of the expansion it would build
    P = DGAlgebraPresentation.polynomial(QQ, [("a", 2), ("b", 4)])
    K = residue_module(P)
    N = DGModulePresentation.free_rank_one(P)
    start = time.process_time()
    for hi in (320, 10**12):
        with pytest.raises(BudgetExceeded, match=f"more than {N_EXPANSION_BUDGET} basis elements"):
            derived_tensor(K, N, KOSZUL, DegreeWindow(0, hi))
    assert time.process_time() - start < 0.5
    E = DGAlgebraPresentation(QQ, [Generator("a", 2, "polynomial"), Generator("e", 3, "exterior")])
    for X in (N, DGModulePresentation.free(P, [("u", 0), ("v", 3)], {}),
              DGModulePresentation.free(E, [("u", -1), ("v", 2)], {})):
        for hi in (0, 7, 40):
            reach = tensor_reach(DegreeWindow(0, hi), residue_module(X.algebra), X, KOSZUL)
            count = sum(_monomials_through(X.algebra.generators, reach.n_window.hi - g, 10**6)
                        for _, g in X.generators)
            assert count == sum(map(len, X.expand(reach.n_window).elements.values()))


def test_an_empty_trivial_module_builds_no_koszul_resolution(monkeypatch):
    built = []
    koszul = dglevels.resolve._koszul
    monkeypatch.setattr(dglevels.resolve, "_koszul", lambda *a: built.append(a) or koszul(*a))
    A = sphere(4)
    tor = derived_tensor(DGModulePresentation.trivial(A, shifts=()), residue_module(A), KOSZUL,
                         DegreeWindow(0, 12))
    assert (tor.dims, tor.bounded) == ({}, True)
    assert built == []
    # an algebra with no Koszul pattern is refused first, empty or not
    B = DGAlgebraPresentation(QQ, [Generator("w", 4, "divided")])
    for shifts in ((), (0,)):
        with pytest.raises(StrategyInapplicable, match="^no Koszul pattern for this algebra$"):
            resolution(DGModulePresentation.trivial(B, shifts=shifts), KOSZUL, DegreeWindow(0, 8))


# -- bar Tor of a sum of shifts of K, block by block ---------------------------------


def bar_record(M, N, window, monkeypatch=None):
    """A bar Tor of M against N as (complex as JSON, dims, certified_hi,
    period, bounded), or the error's type and message; with ``monkeypatch``,
    from `bar_resolution(M)` built whole instead of the blocks."""
    try:
        if monkeypatch is None:
            tor = derived_tensor(M, N, BAR, window)
        else:
            with monkeypatch.context() as m:
                m.setattr(dglevels.resolve, "_resolve",
                          lambda M, _, reach: _bar(M, M.algebra, None, reach))
                tor = derived_tensor(M, N, BAR, window)
    except Exception as e:
        return type(e).__name__, str(e)
    return complex_to_json(tor.complex), tor.dims, tor.certified_hi, tor.period, tor.bounded


def zero_record(field, window):
    """The record of a Tor with a zero factor: the zero complex, finite and
    certified through window.hi, with no period."""
    return complex_to_json(CochainComplex(GradedVectorSpace(field, {}), {})), {}, window.hi, \
        None, True


# repeats, negative shifts, shifts above both windows, and the empty module
BAR_SHIFT_LISTS = [(0,), (2, 3, 3), (1, 1, 4), (-3, 0, 5), (-2, -2), (0, 30), (25, 40), ()]
BAR_WINDOWS = [DegreeWindow(0, 10), DegreeWindow(3, 14)]


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_blockwise_bar_tor_is_the_bar_tor_of_the_whole_module(monkeypatch, d, field):
    A = sphere(d, field)
    right = {"K": residue_module(A), "raw line": raw_line(A, d)}
    for i, shifts in enumerate(BAR_SHIFT_LISTS):
        M = DGModulePresentation.trivial(A, shifts=shifts)
        for name, N in right.items():
            w = BAR_WINDOWS[(i + len(name)) % 2]
            # the whole empty module listed every bar word and came out truncated
            want = bar_record(M, N, w, monkeypatch) if shifts else zero_record(field, w)
            assert bar_record(M, N, w) == want, (shifts, name, w)


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_blockwise_bar_tor_against_a_module_below_degree_zero(monkeypatch, d, field):
    # both reach N's lowest degree t < 0: the cap is window.hi + 2 - t above
    # the lowest shift, so both certify the window, with the same complex.
    # Tor(Σ^s K, Σ^t K) is one class in each degree s + t + j(d - 1), j >= 0.
    A = sphere(d, field)
    for t in (-1, -3):
        N = DGModulePresentation.trivial(A, shifts=(t,))
        for i, shifts in enumerate(BAR_SHIFT_LISTS):
            M = DGModulePresentation.trivial(A, shifts=shifts)
            w = BAR_WINDOWS[i % 2]
            blocks, whole = (bar_record(M, N, w, mp) for mp in (None, monkeypatch))
            if not shifts:
                assert blocks == zero_record(field, w)
                continue
            assert blocks == whole, (shifts, t)
            assert blocks[2:] == (w.hi, None, False), (shifts, t)
            want = {n: h for n in w.degrees()
                    if (h := sum(1 for s in shifts if n >= s + t and (n - s - t) % (d - 1) == 0))}
            assert blocks[1] == want, (shifts, t)


def test_koszul_and_bar_reach_an_n_below_degree_zero():
    # bar certified through 9 only: its reach ignored N's lowest degree
    A = sphere(2)
    M, N = (DGModulePresentation.trivial(A, shifts=(s,)) for s in (2, -3))
    for strategy in (KOSZUL, BAR):
        tor = derived_tensor(M, N, strategy, DegreeWindow(0, 10))
        assert (tor.dims, tor.certified_hi) == ({n: 1 for n in range(11)}, 10), strategy


@pytest.mark.parametrize("algebra", [
    DGAlgebraPresentation.polynomial(QQ, [("a", 2), ("b", 4)]),
    DGAlgebraPresentation.polynomial(GF2, [("a", 3), ("b", 4)], char2_polynomial_odd=True),
    sphere_model(2),                                               # δξ = x²
    sphere_model(4),
    DGAlgebraPresentation(QQ, [Generator("x", 2, "polynomial"), Generator("ξ", 3, "exterior")]),
], ids=["K[a2,b4]", "F2[a3,b4]", "S2 model", "S4 model", "K[x2]⊗∧ξ3"])
def test_blockwise_bar_tor_over_other_algebras(monkeypatch, algebra):
    K = residue_module(algebra)
    for shifts in ((0,), (0, 3, 3), (-1, 2), (9, 20), ()):
        M = DGModulePresentation.trivial(algebra, shifts=shifts)
        for w in (DegreeWindow(0, 6), DegreeWindow(2, 8)):
            want = bar_record(M, K, w, monkeypatch) if shifts else zero_record(algebra.field, w)
            assert bar_record(M, K, w) == want, (shifts, w)
    # past the word budget both stop with one message
    big = DGModulePresentation.trivial(algebra, shifts=(0, 2))
    w = DegreeWindow(0, 40)
    assert bar_record(big, K, w)[0] == "BudgetExceeded"
    assert bar_record(big, K, w) == bar_record(big, K, w, monkeypatch)


def test_blockwise_bar_tor_refuses_what_the_whole_module_refuses(monkeypatch):
    w = DegreeWindow(0, 6)
    S1 = DGAlgebraPresentation(QQ, [Generator("t", 1, "exterior")])
    M = DGModulePresentation.trivial(S1, shifts=(0, 2))
    assert bar_record(M, residue_module(S1), w) == \
        ("NotSimplyConnected", "bar resolution needs generators in degrees >= 2") == \
        bar_record(M, residue_module(S1), w, monkeypatch)
    # a label in two degrees
    A = sphere(4)
    twice = DGModulePresentation.trivial(A, shifts=(0, 2), labels=["u", "u"])
    assert bar_record(twice, residue_module(A), w) == \
        ("PresentationError", "duplicate module generator labels") == \
        bar_record(twice, residue_module(A), w, monkeypatch)


def test_bar_tor_is_right_below_a_negative_shift():
    # Tor(Σ^{-s}K, K) over H*(S^d) is one class in each degree s + j(d - 1),
    # j >= 0; a bar word on the shift -s reaches window.hi + 2 + s
    w = DegreeWindow(0, 24)
    for d in (2, 3, 4, 5):
        A = sphere(d)
        K = residue_module(A)
        for shifts in ((-7,), (-3, 2), (-5, -5, 1), (-1, 4, 30)):
            M = DGModulePresentation.trivial(A, shifts=shifts)
            bar = derived_tensor(M, K, BAR, w)
            assert bar.certified_hi == w.hi, (d, shifts)
            for n in range(w.lo, w.hi + 1):
                want = sum(1 for s in shifts if n >= s and (n - s) % (d - 1) == 0)
                assert bar.dims.get(n, 0) == want, (d, shifts, n)
    # the two answers wrong before: dims stopped at 19, and degree 24 read 1
    K2 = residue_module(sphere(2))
    assert max(derived_tensor(DGModulePresentation.trivial(sphere(2), shifts=(-7,)), K2, BAR,
                              w).dims) == 24
    assert derived_tensor(DGModulePresentation.trivial(sphere(2), shifts=(-3, 2)), K2, BAR,
                          w).dims[24] == 2


@pytest.mark.parametrize("field", [QQ, GF2])
@pytest.mark.parametrize("d, cap", [(2, 5), (3, 7), (4, 8), (6, 12)])
def test_bar_certifies_no_degree_that_given_does_not(d, field, cap):
    # bar listed B(F) through its own cap whatever F's truncation, so over
    # H*(S^4) it read {0: 1, 3: 1, 6: 1} certified through 16, where F, a
    # resolution of K cut at 9, has Tor(K, K) classes at 9, 12 and 15 too.
    # F holds its whole differential below cap (`module`), so both certify
    # through cap - 1, and there F ⊗ K is Tor(K, K): one class in each
    # degree j(d - 1)
    F = koszul_resolution_sphere(d, field, cap=cap).module
    K = residue_module(F.algebra)
    tor_k_k = {n: 1 for n in range(cap) if n % (d - 1) == 0}
    for w in (DegreeWindow(0, 16), DegreeWindow(-3, 30)):
        given, bar = (derived_tensor(F, K, s, w) for s in (GIVEN, BAR))
        assert (bar.dims, bar.certified_hi) == (given.dims, given.certified_hi) == \
            (tor_k_k, cap - 1), w


@pytest.mark.parametrize("k", [1, 3, 13])
def test_a_bar_tor_checks_one_resolution_of_k_per_call(monkeypatch, k):
    A = sphere(4, GF3)
    checks = []
    validate = DGModulePresentation._validate_free
    monkeypatch.setattr(DGModulePresentation, "_validate_free",
                        lambda self: checks.append(self) or validate(self))
    M = DGModulePresentation.trivial(A, shifts=tuple(range(0, 3 * k, 3)))
    w = DegreeWindow(0, 30)
    first = derived_tensor(M, residue_module(A), BAR, w)
    assert len(checks) == 1
    # nothing is kept: the next call builds and checks B(K) again
    again = derived_tensor(M, residue_module(A), BAR, w)
    assert len(checks) == 2 and checks[0] is not checks[1]
    assert complex_to_json(again.complex) == complex_to_json(first.complex)


def test_derived_tensor_with_a_zero_module_is_zero_and_finite():
    A = sphere(4)
    tor = derived_tensor(residue_module(A), DGModulePresentation.free(A, []), strategy="koszul",
                         window=DegreeWindow(0, 12))
    assert tor.dims == {} and tor.certified_hi == 12
    assert tor.verdict().is_finite


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_koszul_and_bar_reach_the_same_degrees_below_a_negative_shift(d, field):
    # both resolve K through window.hi - (lowest shift), so both certify the
    # window: one class in each degree s + j(d - 1) per shift s
    A = sphere(d, field)
    K = residue_module(A)
    w = DegreeWindow(0, 24)
    for shifts in ((-7,), (-3, 2), (-5, -5, 1), (-1, 4, 30), (-25,)):
        M = DGModulePresentation.trivial(A, shifts=shifts)
        want = {n: h for n in w.degrees()
                if (h := sum(1 for s in shifts if n >= s and (n - s) % (d - 1) == 0))}
        for strategy in (KOSZUL, BAR):
            tor = derived_tensor(M, K, strategy, w)
            assert (tor.dims, tor.certified_hi) == (want, w.hi), (shifts, strategy)


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_no_listed_generator_goes_untensored(d, field):
    # the blocks share the resolution the lowest one needs: K's, with one
    # generator in each degree j(d - 1) above it, built through the top
    # degree the tensor lists (reach.read.hi + 1, on N's lowest degree) and
    # truncated at the next, so no generator it has is left out of the
    # tensor and none the tensor lists is missing
    A = sphere(d, field)
    rights = [residue_module(A), raw_line(A, d), DGModulePresentation.trivial(A, shifts=(-2, 3))]
    for shifts in ((0,), (-7,), (-3, 2), (-5, -5, 1), (2, 4, 11)):
        M = DGModulePresentation.trivial(A, shifts=shifts)
        for N, w in itertools.product(rights, (DegreeWindow(0, 13), DegreeWindow(-4, 24))):
            n = min(N.complex.space.degrees())
            for strategy in (KOSZUL, BAR):
                reach = tensor_reach(w, M, N, strategy)
                top = reach.read.hi + 1
                F, _, offset = min(_resolve(M, strategy, reach).blocks, key=lambda b: b[2])
                degrees = sorted(g + offset for _, g in F.generators)
                assert degrees == list(range(min(shifts), top - n + 1, d - 1))
                assert (degrees[-1] + n == top) == ((top - n - min(shifts)) % (d - 1) == 0)
                assert F.truncation_degree + offset + n == top + 1
                tor = derived_tensor(M, N, strategy, w)
                assert (tor.certified_hi, tor.complex.truncated_above) == (w.hi, top + 1), \
                    (shifts, strategy)


# -- a zero factor ---------------------------------------------------------------------


ZERO_FACTOR_ALGEBRAS = {
    "S2": sphere(2), "S3/F2": sphere(3, GF2), "S4/F3": sphere(4, GF3), "S5/F5": sphere(5, GF5),
    "K[a2,b4]": DGAlgebraPresentation.polynomial(QQ, [("a", 2), ("b", 4)]),
    "S2 model": sphere_model(2),                                       # δξ = x²
    "ext(a3,b5)": DGAlgebraPresentation(QQ, [Generator("a", 3, "exterior"),
                                             Generator("b", 5, "exterior")]),  # no pattern
}
# past both budgets wherever they apply: over H*(S^2) the window 0:20,000
# needs 20,003 Koszul generators and over 20,000 bar words
ZERO_FACTOR_WINDOWS = [DegreeWindow(0, 20_000), DegreeWindow(-7, 30_000)]


def tor_outcome(M, N, strategy, window):
    """A derived tensor as its answer, or its refusal's type and message."""
    try:
        tor = derived_tensor(M, N, strategy, window)
    except Exception as e:
        return type(e).__name__, str(e)
    return tor.dims, tor.certified_hi, tor.period, tor.bounded, tor.verdict()


@pytest.mark.parametrize("name", list(ZERO_FACTOR_ALGEBRAS))
def test_a_zero_factor_is_zero_tor_under_every_strategy(monkeypatch, name):
    A = ZERO_FACTOR_ALGEBRAS[name]
    zero = {"empty sum": DGModulePresentation.trivial(A, shifts=()),
            "zero free": DGModulePresentation.free(A, [])}
    other = {"K": residue_module(A), "free": DGModulePresentation.free_rank_one(A),
             "sum": DGModulePresentation.trivial(A, shifts=(-3, 0, 5))}
    if A.sphere_generator_label() is not None:
        other["raw line"] = raw_line(A, A.generators[0].degree)
    # a strategy's checks read of M only the algebra and whether M is free,
    # trivial or raw, so a zero M is refused exactly when its non-zero twin
    # is, as read against K on a small window
    twin = {"empty sum": other["K"], "zero free": other["free"]}
    cases = [(m, n) for m in zero for n in [*zero, *other]] + \
        [(m, n) for m in other for n in zero]
    strategies = (GIVEN, KOSZUL, BAR, "nonsense")
    refusal = {}
    for strategy in strategies:
        for m in [*zero, *other]:
            got = tor_outcome(twin.get(m) or other[m], other["K"], strategy, DegreeWindow(0, 4))
            refusal[strategy, m] = got if got[0] == "StrategyInapplicable" else None
    checks, bars = [], []
    validate, bar = DGModulePresentation._validate_free, dglevels.resolve._bar
    monkeypatch.setattr(DGModulePresentation, "_validate_free",
                        lambda self: checks.append(self) or validate(self))
    monkeypatch.setattr(dglevels.resolve, "_bar",
                        lambda *a, **k: bars.append(a) or bar(*a, **k))
    modules = zero | other
    for w in ZERO_FACTOR_WINDOWS:
        for strategy in strategies:
            for m, n in cases:
                want = refusal[strategy, m] or \
                    ({}, w.hi, None, True, FinitenessVerdict("finite", total=0))
                got = tor_outcome(modules[m], modules[n], strategy, w)
                assert got == want, (strategy, m, n, w)
    assert (checks, bars) == ([], [])
    refused = {(strategy, m) for (strategy, m), r in refusal.items() if r}
    assert {(GIVEN, "empty sum"), ("nonsense", "zero free")} <= refused
    assert ((KOSZUL, "zero free") in refused) == (name == "S2 model")
    assert ((KOSZUL, "raw line") in refused) == ("raw line" in other)


def test_a_zero_factor_needs_no_simply_connected_algebra():
    # only bar asks for generators in degrees >= 2, and with a zero factor it
    # builds nothing; a non-zero bar Tor is still refused
    S1 = DGAlgebraPresentation(QQ, [Generator("t", 1, "exterior")])
    K, empty = residue_module(S1), DGModulePresentation.trivial(S1, shifts=())
    w = DegreeWindow(0, 12)
    for M, N in ((empty, K), (K, empty), (DGModulePresentation.free(S1, []), K)):
        assert tor_outcome(M, N, BAR, w) == \
            ({}, w.hi, None, True, FinitenessVerdict("finite", total=0))
    assert tor_outcome(K, K, BAR, w) == \
        ("NotSimplyConnected", "bar resolution needs generators in degrees >= 2")


# -- a truncated right factor ----------------------------------------------------------


def test_a_truncated_right_factor_truncates_the_tensor():
    # K[a₂] on one generator is expanded through window.hi + 1 less the
    # lowest degree of M, and cut there, so every degree of the window is
    # certified but the Tor is not bounded: Tor(K, K[a₂]) is K in degree 0
    # and Tor(K[a₂], K[a₂]) is K[a₂].  Each was certified through degree 1
    # alone when K[a₂] was expanded only through degree 2.
    P = DGAlgebraPresentation.polynomial(QQ, [("a", 2)])
    F = DGModulePresentation.free_rank_one(P)
    for M, strategy, want in ((residue_module(P), KOSZUL, {0: 1}), (residue_module(P), BAR, {0: 1}),
                              (F, GIVEN, {n: 1 for n in range(0, 11, 2)})):
        tor = derived_tensor(M, F, strategy, DegreeWindow(0, 10))
        assert (tor.dims, tor.certified_hi, tor.bounded, tor.verdict().kind) == \
            (want, 10, False, "unknown"), strategy
        assert tor.complex.truncated_above == 12


def test_a_truncated_koszul_module_on_the_right_truncates_the_tensor():
    # the Koszul resolution of K over H*(S^4) through degree 8 has generators
    # in degrees 0, 3 and 6, and 9 is its first unknown degree (`module`):
    # A ⊗_A F is F, with H = K in degree 0 (read before as finite with a
    # class in degree 10, where γ₁(w)·x is not yet bounded), and K ⊗^L_A F is
    # Tor(K, K), one class in each degree 3j (read before through degree 12,
    # without 9, 12), both certified through 7
    A = sphere(4)
    F = koszul_resolution_sphere(4, QQ, cap=8).module
    w = DegreeWindow(0, 12)
    assert F.expand(w).complex.truncated_above == 9
    tor_k_k = {n: 1 for n in range(8) if n % 3 == 0}
    for M, strategy, want in ((DGModulePresentation.free_rank_one(A), GIVEN, {0: 1}),
                              (residue_module(A), KOSZUL, tor_k_k),
                              (residue_module(A), BAR, tor_k_k)):
        tor = derived_tensor(M, F, strategy, w)
        assert (tor.dims, tor.certified_hi, tor.bounded) == (want, 7, False), strategy
        assert tor.verdict().kind == "unknown"


@pytest.mark.parametrize("algebra, koszul", [
    (sphere(2), True),
    (sphere(5, GF3), True),
    (DGAlgebraPresentation.polynomial(QQ, [("a", 2), ("b", 4)]), True),
    (DGAlgebraPresentation(QQ, [Generator("a", 3, "exterior"), Generator("b", 5, "exterior")]), False),
    (DGAlgebraPresentation(QQ, [Generator("w", 4, "divided")]), False),
    (sphere_model(4), False),                                  # δξ = x²
    (DGAlgebraPresentation(QQ, [Generator("t", 1, "exterior")]), False),  # H*(S^1)
], ids=["S2", "S5/F3", "K[a2,b4]", "ext(a3,b5)", "divided(w4)", "S4 model", "S1"])
def test_auto_strategy_picks_koszul_exactly_when_koszul_resolves(algebra, koszul):
    for shifts in ((0,), (0, 3)):
        M = DGModulePresentation.trivial(algebra, shifts=shifts)
        try:
            resolution(M, KOSZUL, DegreeWindow(0, 8))
            resolves = True
        except StrategyInapplicable:
            resolves = False
        assert resolves == koszul
        assert (auto_strategy(M) == KOSZUL) == koszul


def test_truncation_soundness_under_cutoff_increase():
    A = sphere(4)
    K = residue_module(A)
    base_cut = 13
    a = bar_resolution(K, A, cutoff=base_cut, window=DegreeWindow(0, 12))
    b = bar_resolution(K, A, cutoff=base_cut + 4, window=DegreeWindow(0, 12))
    da = a.module.cohomology_dims(DegreeWindow(0, 10))
    db = b.module.cohomology_dims(DegreeWindow(0, 10))
    for n in range(0, base_cut - 1):
        assert da.get(n, 0) == db.get(n, 0)


def test_bar_koszul_agreement_randomized():
    rng = random.Random(20250810)
    for trial in range(20):
        d = rng.choice([2, 3, 4, 5])
        field = rng.choice([QQ, GF2])
        shifts = tuple(sorted(rng.choice([0, 1, 2, d - 1, d]) for _ in range(rng.randint(1, 3))))
        A = sphere(d, field)
        M = DGModulePresentation.trivial(A, shifts=shifts)
        N = residue_module(A)
        w = DegreeWindow(0, 10)
        bar = derived_tensor(M, N, strategy="bar", window=w)
        kos = derived_tensor(M, N, strategy="koszul", window=w)
        hi = min(bar.certified_hi, kos.certified_hi)
        for n in range(0, hi + 1):
            assert bar.dims.get(n, 0) == kos.dims.get(n, 0), (trial, d, field, shifts, n)


# -- the reach of a window -------------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF2])
@pytest.mark.parametrize("d", [4, 6, 7])
def test_bar_expands_a_free_module_from_its_lowest_generator(d, field):
    # A on one generator a in degree -5: its Tor against K is one class, in
    # degree -5.  Bar expanded M from degree min(0, window.lo) only, so on
    # 0:10 it kept a·x but not a, and read classes in degrees 1 and 6 over
    # H*(S^6), 2 and 8 over H*(S^7)
    A = sphere(d, field)
    M = DGModulePresentation.free(A, [("a", -5)])
    for w, want in ((DegreeWindow(0, 10), {}), (DegreeWindow(-7, 10), {-5: 1}),
                    (DegreeWindow(-5, -5), {-5: 1})):
        bar, given = (derived_tensor(M, residue_module(A), s, w) for s in (BAR, GIVEN))
        assert (bar.dims, bar.certified_hi) == (given.dims, given.certified_hi) == (want, w.hi)


def c8_inputs():
    """The twenty sums of shifts of K that acceptance criterion 8 draws."""
    rng = random.Random(8)
    for _ in range(20):
        d = rng.choice([2, 3, 4, 5])
        field = rng.choice([QQ, GF2])
        A = sphere(d, field)
        shifts = tuple(sorted(rng.randint(0, d) for _ in range(rng.randint(1, 3))))
        yield DGModulePresentation.trivial(A, shifts=shifts), residue_module(A), \
            DegreeWindow(0, 10)


def twin_inputs():
    """The non-zero twins of the zero-factor grid, each pair of its non-zero
    modules over each algebra, on two small windows."""
    for A in ZERO_FACTOR_ALGEBRAS.values():
        other = [residue_module(A), DGModulePresentation.free_rank_one(A),
                 DGModulePresentation.trivial(A, shifts=(-3, 0, 5))]
        if A.sphere_generator_label() is not None:
            other.append(raw_line(A, A.generators[0].degree))
        for M in other:
            for N in other:
                for w in (DegreeWindow(0, 4), DegreeWindow(-2, 5)):
                    yield M, N, w


def test_koszul_and_bar_certify_the_same_degrees():
    # wherever both resolve M (Koszul needs a zero differential and a pattern
    # for a raw M, bar a simply-connected algebra and few enough words)
    compared = 0
    for M, N, w in [*c8_inputs(), *twin_inputs()]:
        outcomes = [tor_outcome(M, N, s, w) for s in (KOSZUL, BAR)]
        if any(isinstance(o[0], str) for o in outcomes):
            continue
        (kos, kos_hi, *_), (bar, bar_hi, *_) = outcomes
        assert (kos, kos_hi) == (bar, bar_hi) == (kos, w.hi), (M.to_json(), N.to_json(), w)
        compared += 1
    # the C8 inputs, and the twins with an M Koszul resolves: K, A and the
    # sum over each sphere (96), every pair over K[a₂, b₄] (18), A over
    # ∧(a₃, b₅) (6)
    assert compared == 20 + 96 + 18 + 6


def right_factors(A):
    """The right modules of the doubled-window property over A."""
    if A.sphere_generator_label() is None:
        return {"free": DGModulePresentation.free_rank_one(A)}
    d = A.generators[0].degree
    return {"K": residue_module(A), "raw line": raw_line(A, d),
            "trivial sum": DGModulePresentation.trivial(A, shifts=(-2, 0, 1, d))}


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_a_certified_degree_keeps_its_tor_in_a_window_twice_as_wide(data):
    # over K[a₂] bar lists a word per composition into odd parts, so its
    # windows and shifts stay small enough for the word budget
    d = data.draw(st.sampled_from([0, 2, 3, 4, 5, 6, 7]), label="d (0: K[a₂])")
    field = data.draw(st.sampled_from([QQ, GF2, GF3]), label="field")
    if d:
        A, low, span = sphere(d, field), -8, 10
    else:
        A, low, span = DGAlgebraPresentation.polynomial(field, [("a", 2)]), -2, 4
    shifts = tuple(data.draw(st.lists(st.integers(low, span), min_size=1, max_size=3),
                             label="shifts"))
    N = right_factors(A)[data.draw(st.sampled_from(sorted(right_factors(A))), label="N")]
    lo = data.draw(st.integers(low, span // 2), label="window.lo")
    w = DegreeWindow(lo, lo + data.draw(st.integers(0, span), label="width - 1"))
    half = (w.hi - w.lo) // 2 + 1
    wide = DegreeWindow(w.lo - half, w.hi + half)
    M = DGModulePresentation.trivial(A, shifts=shifts)
    for strategy in (KOSZUL, BAR):
        tor, big = (derived_tensor(M, N, strategy, v) for v in (w, wide))
        assert tor.certified_hi == w.hi and big.certified_hi == wide.hi, strategy
        for n in w.degrees():
            assert tor.dims.get(n, 0) == big.dims.get(n, 0), (strategy, n)


# -- phi and compactness ---------------------------------------------------------------


def test_phi_of_the_algebra():
    A = sphere(4)
    v = phi(DGModulePresentation.free_rank_one(A), DegreeWindow(-2, 6))
    assert v.is_finite and v.total == 1


def test_phi_of_molecule_model():
    v = phi(chain_module(4, 1), DegreeWindow(-2, 9))
    assert v.is_finite and v.total == 2


def test_phi_of_k_is_infinite():
    A = sphere(4)
    v = phi(residue_module(A), window=DegreeWindow(0, 30))
    assert v.is_infinite
    assert v.period == 6
    assert v.witnesses[:3] == (0, 6, 12)


def test_phi_needs_a_window():
    with pytest.raises(TypeError):
        phi(residue_module(sphere(4)))


def test_phi_shift_invariance():
    for k in (-2, 1, 3):
        M = chain_module(4, 2)
        a = phi(M, M.default_window())
        b = phi(shift(M, k), shift(M, k).default_window())
        assert a.total == b.total


def test_bounded_tor_is_finite_only_when_the_window_holds_its_support():
    # Tor of K over K[x20] is K in degrees 0 and 19; the window -1:16 cuts 19
    K = residue_module(DGAlgebraPresentation.polynomial(QQ, [("x", 20)]))
    assert derived_tensor(K, K, "koszul", DegreeWindow(-1, 16)).verdict().kind == "unknown"
    whole = derived_tensor(K, K, "koszul", DegreeWindow(0, 40)).verdict()
    assert (whole.kind, whole.dims) == ("finite", ((0, 1), (19, 1)))
    # a window that just reaches the top Koszul degree certifies it too
    assert phi(K, DegreeWindow(-1, 19)) == whole


def test_no_automatic_strategy_is_bar():
    A = sphere(4)
    space = GradedVectorSpace(QQ, {0: ["a"], 4: ["b"]})
    cases = [chain_module(4, 1), residue_module(A),
             koszul_resolution_sphere(4, QQ, cap=12).module,
             DGModulePresentation.raw(A, CochainComplex(space, {}), {"x4": {0: [[1]]}}),
             DGModulePresentation.trivial(DGAlgebraPresentation(
                 QQ, [Generator("a", 3, "exterior"), Generator("b", 5, "exterior")]))]
    assert [auto_strategy(M) for M in cases] == ["given", KOSZUL, None, None, None]
    assert all(phi(M, DegreeWindow(0, 30)).kind == "unknown" for M in cases[2:])


def test_is_compact():
    A = sphere(4)
    assert phi(DGModulePresentation.free_rank_one(A), DegreeWindow(-2, 6)).compact is True
    assert phi(chain_module(4, 3), DegreeWindow(-2, 15)).compact is True
    assert phi(residue_module(A), DegreeWindow(0, 30)).compact is False
    assert phi(residue_module(A), DegreeWindow(0, 10)).compact is None


def test_finiteness_is_one_rule_with_three_outcomes():
    dims = {0: 1, 6: 1, 12: 1}
    finite = finiteness(dims, 6, 14, True)
    assert finite.kind == "finite" and finite.total == 3 and finite.compact is True
    infinite = finiteness(dims, 6, 14, False)
    assert infinite.witnesses == (0, 6, 12) and infinite.compact is False
    assert finiteness(dims, 6, 40, False).compact is None
    assert finiteness({}, 6, 40, False).kind == "unknown"


def test_infinite_level_certificate_cases():
    A4, A7 = sphere(4), sphere(7)
    hs7 = DGModulePresentation.trivial(A4, shifts=(0, 7))
    tor = derived_tensor(hs7, hs7, strategy="koszul", window=DegreeWindow(0, 40))
    cert = infinite_level_certificate(tor, algebra=A7)
    assert cert is not None and cert.period == 6


def test_periodic_witnesses_requires_reaching_horizon():
    dims = {0: 1, 6: 1, 12: 1}
    assert periodic_witnesses(dims, 6, 14) == (0, 6, 12)
    assert periodic_witnesses(dims, 6, 40) is None   # progression stops early
    assert periodic_witnesses({0: 1, 6: 1}, 6, 8) is None  # only two witnesses


# -- filtrations ----------------------------------------------------------------------


def test_filtration_class_of_free_rank_one():
    A = sphere(4)
    M = DGModulePresentation.free_rank_one(A)
    filt = SemifreeFiltration(M, (frozenset({"e"}),))
    assert filtration_class(filt) == 0
    assert filtration_class(filt) + 1 == 1


def test_filtration_class_of_chain_modules():
    for m in (1, 2, 4):
        M = chain_module(4, m)
        stages = tuple(frozenset(f"e{j}" for j in range(c + 1)) for c in range(m + 1))
        filt = SemifreeFiltration(M, stages)
        assert filtration_class(filt) == m
        assert filtration_class(filt) + 1 == m + 1


def test_two_stage_pile_filtration_has_class_two():
    M = chain_module(3, 2)
    filt = generator_depth_filtration(M)
    assert filtration_class(filt) == 2
    assert filtration_class(filt) + 1 == 3


def test_invalid_filtration_detected():
    M = chain_module(4, 1)
    bad = SemifreeFiltration(M, (frozenset({"e1"}), frozenset({"e0", "e1"})))
    with pytest.raises(InvalidFiltration):
        filtration_class(bad)


def test_depth_filtration_matches_molecule_height():
    for d in (3, 4):
        for m in range(0, 4):
            filt = generator_depth_filtration(chain_module(d, m))
            assert filtration_class(filt) == m
