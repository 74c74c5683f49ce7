"""Spectral sequence pages, the Hopf-invariant differential, stable pages."""

import hashlib
import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dglevels.emss import (
    FibreSquareSpec,
    _check_collapse,
    compactness_from_hopf,
    e2_page,
    install_d2,
    run_to_stable,
)
from dglevels.errors import (CannotCertifyCollapse, FieldMismatch, OddDimensionNonzeroHopf,
                             PresentationError, WindowTooSmall)
from dglevels.field import QQ, GF2, GF3, GF5
from dglevels.graded import DegreeWindow
from dglevels.module import DGModulePresentation
from dglevels.resolve import (auto_strategy, derived_tensor, finiteness, residue_module,
                              sphere_block_period)
from dglevels.algebra import DGAlgebraPresentation
from dglevels.spheres import MoleculeId, molecule_model


def s7_over_s4(h, field=QQ, extra=None):
    return FibreSquareSpec.make(4, {0: 1, 7: 1}, h, field, extra_dims=extra)


# -- E2 ---------------------------------------------------------------------


def test_e2_cells_for_s7_over_s4():
    page = e2_page(s7_over_s4(1), DegreeWindow(0, 24))
    entries = page.entries()
    assert entries[(0, 0)] == ("1",)
    assert entries[(0, 7)] == ("x7",)
    assert entries[(-2, 8)] == ("τ",)
    assert entries[(-1, 4)] == ("s⁻¹x4",)
    assert entries[(-3, 12)] == ("s⁻¹x4·τ",)


def test_e2_for_odd_sphere_point():
    page = e2_page(FibreSquareSpec.make(3, {0: 1}, 0, QQ), DegreeWindow(0, 18))
    entries = page.entries()
    for i in range(1, 5):
        assert (-i, 3 * i) in entries


def total_degree_dims(page):
    """The page's dimension per total degree s + t, read off its cells."""
    out = {}
    for (s, t), elems in page.entries().items():
        out[s + t] = out.get(s + t, 0) + len(elems)
    return out


def test_e2_total_dims_match_bar_tor():
    # the page over a point computes Tor of K against K
    page = e2_page(FibreSquareSpec.make(4, {0: 1}, 0, QQ), DegreeWindow(0, 12))
    total = total_degree_dims(page)
    A = DGAlgebraPresentation.sphere_cohomology(4, QQ)
    K = residue_module(A)
    tor = derived_tensor(K, K, strategy="bar", window=DegreeWindow(0, 12))
    for n in range(0, 12):
        assert total.get(n, 0) == tor.dims.get(n, 0), n


def test_e2_total_dims_match_bar_tor_sphere_top():
    # nontrivial top space: the page computes Tor(H*(S^7), K) over H*(S^4)
    from dglevels.module import DGModulePresentation

    page = e2_page(s7_over_s4(0), DegreeWindow(0, 14))
    total = total_degree_dims(page)
    A = DGAlgebraPresentation.sphere_cohomology(4, QQ)
    hs7 = DGModulePresentation.trivial(A, shifts=(0, 7), labels=["1", "x7"])
    tor = derived_tensor(hs7, residue_module(A), strategy="bar",
                         window=DegreeWindow(0, 14))
    for n in range(0, tor.certified_hi + 1):
        assert total.get(n, 0) == tor.dims.get(n, 0), n


# sha256 of the cells (keys and labels, in order) over the grid below; the
# d₂ installation and every report read cells by these keys and labels
E2_GRID_DIGEST = "c7bb5ea58aa87483ec6eb1da8d164907464204f2785418ffae25e80b79130e8e"


def test_e2_cells_keys_and_labels_are_pinned():
    h = hashlib.sha256()
    for d, top, extra, hopf in itertools.product(
            range(2, 9), (None, {0: 1, 7: 1}, {0: 1, 3: 2, 5: 1}),
            (None, {0: 1, 5: 1}, {4: 1}), (0, 1)):
        page = e2_page(FibreSquareSpec.make(d, top, hopf, QQ, extra_dims=extra),
                       DegreeWindow(0, 4 * d + 6))
        h.update(repr((d, top, extra, hopf, sorted(page.cells.items()))).encode())
    assert h.hexdigest() == E2_GRID_DIGEST


def test_window_too_small():
    with pytest.raises(WindowTooSmall):
        e2_page(s7_over_s4(1), DegreeWindow(0, 6))


# -- d2 ----------------------------------------------------------------------


def test_d2_on_tau_hits_the_top_class():
    # d₂ is {source tower: target tower}, every entry the Hopf invariant: the
    # unit tower, τ = γ_1(τ) among its keys, onto the x₇ tower one γ lower
    page = install_d2(e2_page(s7_over_s4(1), DegreeWindow(0, 24)))
    [(tau, _)] = page.cells[(-2, 8)]
    [(x7, _)] = page.cells[(0, 7)]
    assert (tau, x7) == ((0, 0, 0, 1, 0, 0), (7, 0, 0, 0, 0, 0))
    assert page.d2[0, 0, 0, 0, 0] == (7, 0, 0, 0, 0)
    assert page.spec.hopf == QQ.one()


def test_d2_zero_when_hopf_vanishes():
    page = install_d2(e2_page(s7_over_s4(0), DegreeWindow(0, 24)))
    assert page.d2 == {}


def test_d2_odd_guard():
    spec = FibreSquareSpec.make(5, {0: 1, 9: 1}, 1, QQ)
    with pytest.raises(OddDimensionNonzeroHopf):
        install_d2(e2_page(spec, DegreeWindow(0, 30)))



# -- stable page ----------------------------------------------------------------


def test_stable_page_nonzero_hopf_is_the_small_sphere():
    page = install_d2(e2_page(s7_over_s4(1), DegreeWindow(0, 32)))
    res = run_to_stable(page)
    assert res.total_dims == {0: 1, 3: 1}
    assert res.verdict.is_finite
    assert res.no_extension_problem


def test_stable_page_zero_hopf_is_infinite():
    page = install_d2(e2_page(s7_over_s4(0), DegreeWindow(0, 32)))
    res = run_to_stable(page)
    assert res.verdict.is_infinite
    assert res.verdict.period == 6
    assert len(res.verdict.witnesses) >= 3


def test_stable_page_with_no_class_in_the_window_is_unknown():
    # the first class, x7 ⊗ e4, sits in total degree 11: a window below it
    # sees nothing and must not call the page finite
    spec = FibreSquareSpec.make(4, {7: 1}, 0, QQ, extra_dims={4: 1})
    res = run_to_stable(install_d2(e2_page(spec, DegreeWindow(0, 9))))
    assert res.total_dims == {} and res.verdict.kind == "unknown"
    res = run_to_stable(install_d2(e2_page(spec, DegreeWindow(0, 40))))
    assert res.verdict.kind == "infinite" and res.verdict.period == 6


@pytest.mark.parametrize("top", [{0: 1}, {0: 1, 3: 1}, {7: 1}])
def test_nonzero_hopf_bounds_the_page_only_when_d2_pairs_every_tower(top):
    # d₂(γ_i(τ)) = h·x₇·γ_{i-1}(τ) needs both the unit and x₇ in the top
    # space; without either, towers of period 6 survive and reach the window
    spec = FibreSquareSpec.make(4, top, 1, QQ)
    res = run_to_stable(install_d2(e2_page(spec, DegreeWindow(0, 32))))
    assert res.verdict.kind == "infinite" and res.verdict.period == 6


def test_d2_aims_at_the_class_in_degree_2d_minus_1():
    # with x₃ and x₇ in the top space, d₂(τ) = h·x₇ (not x₃): τ and x₇ die,
    # while x₃ keeps a tower of period 6 up the window
    spec = FibreSquareSpec.make(4, {0: 1, 3: 1, 7: 1}, 1, QQ)
    page = install_d2(e2_page(spec, DegreeWindow(0, 32)))
    assert page.d2
    res = run_to_stable(page)
    assert res.total_dims == {0: 1, 3: 2, **{n: 1 for n in range(6, 31, 3)}}
    assert res.verdict.kind == "infinite"


def test_pullback_square_with_extra_factor():
    spec = s7_over_s4(1, extra={0: 1, 7: 1})
    page = install_d2(e2_page(spec, DegreeWindow(0, 40)))
    res = run_to_stable(page)
    assert res.total_dims == {0: 1, 3: 1, 7: 1, 10: 1}
    assert res.no_extension_problem


def test_einfinity_window_independence_for_nonzero_hopf():
    for hi in (16, 24, 48, 64):
        page = install_d2(e2_page(s7_over_s4(1), DegreeWindow(0, hi)))
        res = run_to_stable(page)
        assert res.total_dims == {0: 1, 3: 1}, hi


@pytest.mark.parametrize("h", [1, 0])
def test_a_window_past_the_page_reads_no_further_than_the_page(h):
    # on a 0:24 page d₂ from γ_4(τ) in degree 24 aims past the page; a wider
    # window once counted γ_4(τ) as a survivor (h = 1) and moved the witness
    # horizon past the last listed class (h = 0)
    page = install_d2(e2_page(s7_over_s4(h), DegreeWindow(0, 24)))
    own, wide = run_to_stable(page), run_to_stable(page, DegreeWindow(0, 40))
    assert wide.total_dims == own.total_dims and wide.verdict == own.verdict
    assert own.verdict.kind == ("finite" if h else "infinite")
    if h:
        assert own.total_dims == {0: 1, 3: 1}


def emss_grid():
    """(d, h, extra, field): top {0: 1, 2d - 1: 1}, h nonzero only for even d."""
    for d in range(2, 7):
        for h in (0, 1, 2) if d % 2 == 0 else (0,):
            for e in (None, 3, 5, 8):
                for field in (QQ, GF2, GF3, GF5):
                    yield d, h, e, field


def test_emss_totals_match_the_module_engine():
    # the module side: Tor_A(M, K) over A = H*(S^d), M = H*(S^{2d-1}) as an
    # A-module (the molecule Σ^{-(d-1)}Z_1 when h ≠ 0 in K, K ⊕ Σ^{-(2d-1)}K
    # otherwise), times the extra factor's table; compared in every degree
    # both sides certify, on the points whose collapse the EMSS certifies
    compared = 0
    for d, h, e, field in emss_grid():
        spec = FibreSquareSpec.make(d, {0: 1, 2 * d - 1: 1}, h, field,
                                    extra_dims={0: 1, e: 1} if e else None)
        try:
            res = run_to_stable(install_d2(e2_page(spec, DegreeWindow(0, 8 * d))))
        except CannotCertifyCollapse:
            continue
        A = DGAlgebraPresentation.sphere_cohomology(d, field)
        if field.is_zero(field.from_int(h)):
            M = DGModulePresentation.trivial(A, shifts=(0, 2 * d - 1))
        else:
            M = molecule_model(MoleculeId(d, d - 1, 1), field)
        tor = derived_tensor(M, residue_module(A), strategy=auto_strategy(M),
                             window=DegreeWindow(0, 8 * d))
        for n in range(min(8 * d - 1, tor.certified_hi) + 1):
            expected = tor.dims.get(n, 0) + (tor.dims.get(n - e, 0) if e else 0)
            assert res.total_dims.get(n, 0) == expected, (d, h, e, field, n)
        compared += 1
    assert compared == 143


# -- the tower reading -------------------------------------------------------------


def full_keys(spec, hi):
    """Every key of total degree <= hi with t >= 0, {key: (s, t)}, listed
    one by one."""
    d = spec.d
    step = 2 if d % 2 == 0 else 1
    top = [(n, j) for n, m in spec.top_dims for j in range(m)]
    extra = [(n, j) for n, m in spec.extra_dims for j in range(m)] or [(0, 0)]
    lowest = min(n for n, _ in top) + min(n for n, _ in extra)
    out = {}
    for (tdeg, tidx), eps, i, (edeg, eidx) in itertools.product(
            top, (0, 1) if step == 2 else (0,), range(max(0, hi - lowest) + 1), extra):
        s, t = -eps - step * i, tdeg + eps * d + step * i * d + edeg
        if s + t <= hi and t >= 0:
            out[tdeg, tidx, eps, i, edeg, eidx] = (s, t)
    return out


def full_run(spec, window, run_window=None):
    """The stable page read key by key, kept as the reference for the tower
    reading: d₂ matched on every key of the window and E₃ read in every
    degree below the top.  Returns (e3, totals, verdict, no_extension_problem)
    or the collapse message."""
    keys = full_keys(spec, window.hi)
    d2 = {}
    if not spec.field.is_zero(spec.hopf):
        for key in keys:
            tdeg, tidx, eps, i, edeg, eidx = key
            target = (2 * spec.d - 1, tidx, eps, i - 1, edeg, eidx)
            if i and tdeg == 0 and target in keys:
                d2[key] = target
    hi = min((run_window or window).hi, window.hi)
    e2 = Counter(keys.values())
    matched = Counter(keys[key] for pair in d2.items() for key in pair)
    e3 = {st: v for st, n in e2.items() if (v := n - matched[st]) and sum(st) <= hi - 1}
    try:
        _check_collapse(e3)
    except CannotCertifyCollapse as e:
        return str(e)
    total = Counter()
    for (s, t), v in e3.items():
        total[s + t] += v
    tops = spec.top_dims
    paired = len(tops) == 2 and tops[0][0] == 0 and tops[1] == (2 * spec.d - 1, tops[0][1])
    reach = spec.d - 1 + max((n for n, _ in spec.extra_dims), default=0)
    bounded = (spec.d % 2 == 0 and not spec.field.is_zero(spec.hopf) and paired
               and reach <= hi - 1)
    return (e3, dict(total), finiteness(total, sphere_block_period(spec.d), hi - 2, bounded),
            all(v <= 1 for v in total.values()))


def periodic_run(spec, window, run_window=None):
    page = install_d2(e2_page(spec, window))
    try:
        res = run_to_stable(page, run_window)
    except CannotCertifyCollapse as e:
        return str(e)
    return res.e3_cells, res.total_dims, res.verdict, res.no_extension_problem


@st.composite
def periodic_cases(draw):
    """Top spaces with doubled classes, x_{2d-1} or a stray class, negative
    degrees included; extras, some in degree -2d or -3d, where a source
    tower's lowest key sits on t = 0; odd d; windows that start above 0."""
    d = draw(st.integers(2, 9))
    degrees = st.sampled_from([0, 0, 2 * d - 1, 2 * d - 1, 3, d + 2, 17, -5])
    top = draw(st.dictionaries(degrees, st.integers(1, 2), min_size=1, max_size=3))
    extra_degrees = st.sampled_from([0, 0, 2, 5, 8, 13, -3, -2 * d, -3 * d])
    extra = draw(st.none() | st.dictionaries(extra_degrees, st.integers(1, 2),
                                             min_size=1, max_size=3))
    h = draw(st.integers(0, 3)) if d % 2 == 0 else 0
    field = draw(st.sampled_from([QQ, GF2, GF3]))
    hi = draw(st.integers(2 * d, 160))
    lo = draw(st.sampled_from([0, -4, hi // 2, hi - 1]))
    run_hi = draw(st.none() | st.integers(2 * d, 200))
    return (FibreSquareSpec.make(d, top, h, field, extra_dims=extra), DegreeWindow(lo, hi),
            None if run_hi is None else DegreeWindow(0, run_hi))


@settings(deadline=None, max_examples=300)
@given(periodic_cases())
def test_the_periodic_page_runs_as_the_full_listing(case):
    spec, window, run_window = case
    assert periodic_run(spec, window, run_window) == full_run(spec, window, run_window)
    assert {key for elems in e2_page(spec, window).cells.values() for key, _ in elems} == \
        set(full_keys(spec, window.hi))


@pytest.mark.parametrize("extra, e3", [({-8: 1}, {(-2, 0): 1}), ({-12: 1}, {(-3, 0): 1})])
def test_a_source_tower_keeps_its_lowest_key_on_t_0(extra, e3):
    # τ⊗e₋₈ (ε = 0) and s⁻¹x4·τ⊗e₋₁₂ (ε = 1) sit on t = 0, where their
    # partners below would have t = -1; every key above them dies
    spec, window = s7_over_s4(1, extra=extra), DegreeWindow(0, 40)
    run = periodic_run(spec, window)
    assert run == full_run(spec, window) and run[0] == e3 and run[2].is_finite


@pytest.mark.parametrize("d", range(2, 10))
@pytest.mark.parametrize("extra", [None, {0: 1, 3: 1}])
def test_the_listed_keys_do_not_grow_with_the_window(d, extra):
    # when d₂ pairs every tower (d even, h = 1) E₃ is each source's lowest
    # key, the same on any window that holds it
    spec = FibreSquareSpec.make(d, {0: 1, 2 * d - 1: 1}, int(d % 2 == 0), QQ,
                                extra_dims=extra)
    small = install_d2(e2_page(spec, DegreeWindow(0, 40)))
    large = install_d2(e2_page(spec, DegreeWindow(0, 100_000)))
    wide, narrow = run_to_stable(large), run_to_stable(small)
    assert {n: v for n, v in wide.total_dims.items() if n < 40} == narrow.total_dims
    paired = {*large.d2, *large.d2.values()} == set(large.towers())
    assert paired == (d % 2 == 0)
    if paired:
        assert wide.e3_cells == narrow.e3_cells


# -- compactness ------------------------------------------------------------------


def test_compactness_grid():
    for field in (QQ, GF2, GF3):
        for h in (0, 1, 2):
            compact, res = compactness_from_hopf(4, h, field)
            expected = not field.is_zero(field.from_int(h))
            assert compact == expected, (field, h)
            if expected:
                assert res.total_dims == {0: 1, 3: 1}


def test_compactness_is_none_when_the_verdict_is_unknown():
    # window 0:12 holds only two classes of each period-6 progression
    compact, res = compactness_from_hopf(4, 0, QQ, window=DegreeWindow(0, 12))
    assert compact is None and res.verdict.kind == "unknown"
    compact, res = compactness_from_hopf(4, 0, QQ, window=DegreeWindow(0, 20))
    assert compact is False and res.verdict.kind == "infinite"


def test_compactness_odd_sphere():
    compact, _ = compactness_from_hopf(5, 0, QQ)
    assert compact is False
    with pytest.raises(OddDimensionNonzeroHopf, match="vanishes over odd spheres"):
        compactness_from_hopf(5, 1, QQ)
    # the page is built first, so a window below 2d is reported first
    with pytest.raises(WindowTooSmall):
        compactness_from_hopf(5, 1, QQ, window=DegreeWindow(0, 9))


# -- collapse certification ----------------------------------------------------


def pairwise_collapse_check(cells):
    """The scan over all pairs of cells that _check_collapse replaces."""
    nonzero = sorted(cells)
    for (s, t) in nonzero:
        for (s2, t2) in nonzero:
            r = s2 - s
            if r >= 3 and t - t2 == r - 1:
                raise CannotCertifyCollapse(
                    f"a d_{r} could connect cells {(s, t)} and {(s2, t2)}")


def collapse_outcome(check, cells):
    try:
        check(cells)
    except CannotCertifyCollapse as e:
        return str(e)
    return None


CELLS = st.sets(st.tuples(st.integers(-12, 0), st.integers(0, 16)), max_size=30)


@settings(deadline=None, max_examples=400)
@given(CELLS)
def test_collapse_scan_agrees_with_the_pairwise_scan(cells):
    assert collapse_outcome(_check_collapse, cells) == \
        collapse_outcome(pairwise_collapse_check, cells)


def test_collapse_scan_reports_the_first_pair():
    # five candidate pairs; the message names the first source in sorted
    # order, (−5, 9), and its first target in sorted order, (−2, 7)
    cells = {(-1, 6), (0, 5), (-4, 8), (-5, 9), (-2, 7)}
    msg = collapse_outcome(_check_collapse, cells)
    assert msg == "a d_3 could connect cells (-5, 9) and (-2, 7)"
    assert msg == collapse_outcome(pairwise_collapse_check, cells)
    assert collapse_outcome(_check_collapse, {(-4, 8), (-2, 7), (0, 0)}) is None


@pytest.mark.parametrize("hopf, field", [(0.5, QQ), (True, QQ), (Fraction(1, 2), GF3)],
                         ids=["float", "bool", "fraction-over-F3"])
def test_a_hopf_value_that_is_no_scalar_is_refused(hopf, field):
    # 0.5 once answered compact (it is no zero), True was read as 1
    with pytest.raises(FieldMismatch) as info:
        compactness_from_hopf(4, hopf, field)
    assert info.value.code == "field-mismatch"


@pytest.mark.parametrize("d, top, extra", [
    (4, {0: 1.5}, None), (4, {0.5: 1}, None), (4, {0: -1}, None),
    (4, {0: 1}, {0: 1, 3: -2}), (4, {0: True, 7: 1}, None), (4.0, {0: 1}, None)],
    ids=["float-multiplicity", "float-degree", "negative", "negative-extra", "bool-multiplicity",
         "float-d"])
def test_a_fibre_square_with_a_table_entry_or_d_that_is_no_integer_is_refused(d, top, extra):
    # each once stopped with a TypeError, answered unknown, dropped a class or
    # read True as 1
    with pytest.raises(PresentationError) as info:
        FibreSquareSpec.make(d, top, 1, QQ, extra_dims=extra)
    assert info.value.code == "invalid-presentation"


def test_a_fibre_square_drops_zero_multiplicities():
    spec = FibreSquareSpec.make(4, {0: 1, 3: 0, 7: 1}, 1, QQ, extra_dims={0: 1, 5: 0})
    assert (spec.top_dims, spec.extra_dims) == (((0, 1), (7, 1)), ((0, 1),))
