"""Free modules over H*(S^d) as two scalar blocks: the block check against
the symbolic D∘D check, the split of presentations, and the Jordan engine's
behaviour under shift and direct sum."""

import json
import random
import re
from contextlib import redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

from dglevels import rational, resolve, spheres
from dglevels.algebra import DGAlgebraPresentation
from dglevels.cli import main
from dglevels import field as field_module
from dglevels.errors import AlgebraMismatch, PresentationError, VerificationFailed
from dglevels.field import GF2, GF3, GF5, QQ, rank_and_kernel, row_reduce
from dglevels.graded import DegreeWindow, cohomology, dense_rows
from dglevels.module import (DGModulePresentation, SphereModule, block_sum, cone, direct_sum,
                             hom_complex, shift)
from dglevels.rational import build_P_tower, tower_level_bounds
from dglevels.spheres import (MoleculeId, bundle_level, decompose_module, molecule_model,
                              sphere_level)
from helpers import differential, rank, raw_expansion, with_k

FIELDS = st.sampled_from([QQ, GF2, GF3])
STRINGS = st.lists(st.tuples(st.integers(-4, 8), st.integers(0, 3)), max_size=4)
PIECES = st.lists(st.tuples(st.integers(-4, 8), st.booleans()), max_size=3)


def planted_blocks(field, d, strings, pieces, rng):
    """(generators, δ₀, Φ) of the sum of the molecule models Σ^{-l}Z_m for
    (l, m) in ``strings`` and of acyclic pieces, in a random basis of each
    degree.  A piece (n, False) is a pair v → u with u in degree n; a piece
    (n, True) is a square a → b, c → -e under δ₀ and a → c, b → e under Φ,
    with a in degree n, where Φδ₀ and δ₀Φ are nonzero and cancel.  Blocks map
    a generator's index to {target index: scalar}."""
    gens, blocks = [], ({}, {})
    for l, m in strings:
        for j in range(m + 1):
            gens.append((f"s{len(gens)}", l - (m - j) * (d - 1)))
            if j:
                blocks[1][len(gens) - 1] = {len(gens) - 2: 1}
    for n, square in pieces:
        i = len(gens)
        if square:
            gens += [(f"a{i}", n), (f"b{i}", n + 1), (f"c{i}", n + 1 - d), (f"e{i}", n + 2 - d)]
            blocks[0].update({i: {i + 1: 1}, i + 2: {i + 3: -1}})
            blocks[1].update({i: {i + 2: 1}, i + 1: {i + 3: 1}})
        else:
            gens += [(f"u{i}", n), (f"v{i}", n - 1)]
            blocks[0][i + 1] = {i: 1}
    by_degree = {}
    for i, (_, n) in enumerate(gens):
        by_degree.setdefault(n, []).append(i)
    # new basis f_i = Σ_j P_ij g_j in each degree, and g_j = Σ_i Q_ji f_i
    P, Q, new = {}, {}, {}
    for n, old in by_degree.items():
        k = len(old)
        while True:
            mat = [[field.from_int(rng.randint(-2, 2)) for _ in range(k)] for _ in range(k)]
            if rank(mat, field) == k:
                break
        unit = [[field.one() if i == j else field.zero() for j in range(k)] for i in range(k)]
        rref, _ = row_reduce([row + u for row, u in zip(mat, unit)], field)
        P[n], Q[n] = mat, [row[k:] for row in rref]
        for i in range(k):
            new[n, i] = len(new)
    position = {g: (n, old.index(g)) for n, old in by_degree.items() for g in old}

    def rewrite(block):
        out = {}
        for (n, i), src in new.items():
            col = {}
            for j, g in enumerate(by_degree[n]):
                for h, c in block.get(g, {}).items():
                    tn, t = position[h]
                    for s, q in enumerate(Q[tn][t]):
                        key = new[tn, s]
                        col[key] = field.reduce(col.get(key, field.zero())
                                                + P[n][i][j] * field.from_int(c) * q)
            col = {t: c for t, c in col.items() if c}
            if col:
                out[src] = col
        return out

    labels = [(f"f{n}_{i}", n) for (n, i) in new]
    return labels, rewrite(blocks[0]), rewrite(blocks[1])


def as_polynomials(gens, delta, phi):
    """The differential of the blocks as a DGModulePresentation would take it."""
    diff = {}
    for e, block in enumerate((delta, phi)):
        for src, col in block.items():
            for tgt, c in col.items():
                diff.setdefault(gens[src][0], {})[gens[tgt][0]] = {(e,): c}
    return diff


def verdict(build):
    try:
        build()
    except PresentationError as exc:
        return exc.code
    return "accepted"


def planted_module(field, d, strings, pieces, seed):
    return SphereModule(d, field, *planted_blocks(field, d, strings, pieces, random.Random(seed)))


def expected(d, strings, shift_by=0):
    return tuple(sorted((MoleculeId(d, l - shift_by, m) for l, m in strings),
                        key=lambda mol: (mol.m, mol.l)))


# -- the block check against _validate_free -------------------------------------------


@settings(deadline=None, max_examples=150)
@given(FIELDS, st.integers(2, 5), STRINGS, PIECES, st.integers(0, 2**32 - 1),
       st.sampled_from([None, 0, 1]))
def test_block_check_agrees_with_the_symbolic_check(field, d, strings, pieces, seed, perturb):
    # a planted module, accepted by both, or the same with one entry of δ₀
    # (perturb = 0) or Φ (perturb = 1) raised by one, which may break D² = 0
    rng = random.Random(seed)
    gens, delta, phi = planted_blocks(field, d, strings, pieces, rng)
    if perturb is not None:
        step = 1 - perturb * d
        spots = [(i, j) for i, (_, a) in enumerate(gens) for j, (_, b) in enumerate(gens)
                 if b == a + step]
        if spots:
            i, j = rng.choice(spots)
            col = (delta, phi)[perturb].setdefault(i, {})
            col[j] = field.reduce(col.get(j, field.zero()) + field.one())
            if not col[j]:
                del col[j]
    A = DGAlgebraPresentation.sphere_cohomology(d, field)
    blocks = verdict(lambda: SphereModule(d, field, gens, delta, phi))
    symbolic = verdict(lambda: DGModulePresentation.free(A, gens, as_polynomials(gens, delta, phi)))
    assert blocks == symbolic
    if perturb is None:
        assert blocks == "accepted"


BREAKERS = {
    # δ₀: u → v, Φ: v → w; D²(u) = w·x from the cross term Φδ₀ alone
    "cross": ([("u", 0), ("v", 1), ("w", -2)], {0: {1: 1}}, {1: {2: 1}}),
    # δ₀: u → v → w
    "square": ([("u", 0), ("v", 1), ("w", 2)], {0: {1: 1}, 1: {2: 1}}, {}),
}


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
@pytest.mark.parametrize("name", sorted(BREAKERS))
def test_a_broken_d_squared_is_rejected_by_library_and_cli(tmp_path, field, name):
    gens, delta, phi = BREAKERS[name]
    with pytest.raises(PresentationError, match="D∘D ≠ 0 on generator 'u'") as blocks:
        SphereModule(4, field, gens, delta, phi)
    A = DGAlgebraPresentation.sphere_cohomology(4, field)
    diff = as_polynomials(gens, delta, phi)
    with pytest.raises(PresentationError) as symbolic:
        DGModulePresentation.free(A, gens, diff)
    assert blocks.value.code == symbolic.value.code == "invalid-presentation"
    payload = {"algebra": A.to_json(), "generators": [list(g) for g in gens],
               "differential": {src: {tgt: A.poly_to_json(poly) for tgt, poly in terms.items()}
                                for src, terms in diff.items()}}
    path = tmp_path / "module.json"
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    out = StringIO()
    with redirect_stdout(out):
        code = main(["level", "--d", "4", "--module", str(path)])
    assert code == 1
    assert json.loads(out.getvalue())["error"]["code"] == blocks.value.code


def test_block_guards():
    with pytest.raises(PresentationError, match="sphere dimension"):
        SphereModule(1, QQ, [("u", 0)])
    with pytest.raises(PresentationError, match="duplicate"):
        SphereModule(4, QQ, [("u", 0), ("u", 3)])
    for degree in (1.5, "0", True):
        with pytest.raises(PresentationError, match="no integer"):
            SphereModule(4, QQ, [("a", degree)])
    with pytest.raises(PresentationError, match="total degree 0, expected 1"):
        SphereModule(4, QQ, [("u", 0), ("v", 0)], delta={0: {1: 1}})
    with pytest.raises(PresentationError, match="total degree 7, expected 4"):
        SphereModule(4, QQ, [("u", 3), ("v", 3)], phi={0: {1: 1}})
    M = SphereModule(4, GF3, [("u", 0), ("v", 3)], phi={1: {0: 3}})
    assert M.phi == {}                        # 3 = 0 in F_3
    with pytest.raises(PresentationError, match="does not live over"):
        decompose_module(M, 5)


@pytest.mark.parametrize("phi", [{2: {0: 1}}, {1: {5: 1}}, {-1: {-2: 1}}, {1.0: {0: 1}}],
                         ids=["source past the end", "target past the end", "negative",
                              "not an integer"])
def test_block_indices_stay_inside_the_generators(phi):
    # {-1: {-2: 1}} would wrap onto b → a and build Σ^{-3}Z_1 silently
    with pytest.raises(PresentationError, match="outside 0..1") as info:
        SphereModule(4, QQ, [("a", 0), ("b", 3)], phi=phi)
    assert info.value.code == "invalid-presentation"


def test_sphere_level_decomposes_a_sphere_module():
    M = SphereModule(4, QQ, [("e0", -3), ("e1", 0), ("e2", 3)], phi={1: {0: 1}, 2: {1: 1}})
    res = spheres.sphere_level(M, 4)
    assert res.to_json() == {"kind": "exact", "level": 3}
    assert res.decomposition.molecules == (MoleculeId(4, 3, 2),)
    P = DGModulePresentation.free(M.algebra, M.generators, M.differential)
    assert spheres.sphere_level(P, 4) == res
    with pytest.raises(PresentationError, match="does not live over"):
        spheres.sphere_level(M, 5)


# -- presentations and blocks -------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([QQ, GF2, GF3, GF5]), st.integers(2, 6), STRINGS, PIECES,
       st.integers(0, 2**32 - 1))
def test_presentation_round_trip(field, d, strings, pieces, seed):
    # the view read off the blocks passes the symbolic check unchanged, and
    # splits back into the same blocks
    M = planted_module(field, d, strings, pieces, seed)
    P = DGModulePresentation.free(M.algebra, M.generators, M.differential)
    assert P.to_json() == M.to_json()
    back = SphereModule.from_presentation(P, d)
    assert (back.generators, back.delta, back.phi) == (M.generators, M.delta, M.phi)


def test_level_pipelines_decompose_blocks(monkeypatch):
    # towers and bundles each call the one extension builder once and hand
    # the engine its SphereModule; neither reads its presentation view nor
    # builds a Koszul resolution or a derived tensor
    seen, built = [], []
    engine, builder = spheres.decompose_module, spheres.extension_module

    def spy(module, d):
        seen.append(module)
        return engine(module, d)

    def builder_spy(d, field, generators, what):
        built.append((d, field, [label for label, _, _ in generators]))
        return builder(d, field, generators, what)

    def refuse(*args, **kwargs):
        raise AssertionError("a presentation was built or a generic tensor run")

    tower = build_P_tower(3, 4)
    for mod in (spheres, rational):
        monkeypatch.setattr(mod, "decompose_module", spy)
        monkeypatch.setattr(mod, "extension_module", builder_spy)
    for cls in (DGAlgebraPresentation, DGModulePresentation):
        monkeypatch.setattr(cls, "__init__", refuse)
    monkeypatch.setattr(SphereModule, "from_presentation", refuse)
    monkeypatch.setattr(resolve, "derived_tensor", refuse)
    monkeypatch.setattr(resolve, "koszul_resolution_poly", refuse)
    assert not hasattr(spheres, "derived_tensor")
    assert not hasattr(spheres, "koszul_resolution_poly")
    assert tower_level_bounds(tower).value == 4
    assert bundle_level([4, 6, 8], True, QQ)[0] == 2
    # a shifted sum of molecule models stays in block form: no split, and no
    # algebra built to compare the summands
    models = [shift(molecule_model(MoleculeId(4, l, m), QQ, verify=False), k)
              for l, m, k in ((3, 1, 2), (0, 2, -5), (6, 0, 0))]
    assert sphere_level(direct_sum(models), 4).value == 3
    assert [type(module) for module in seen] == [SphereModule] * 3
    assert all("differential" not in module.__dict__ for module in seen)
    assert built == [(4, QQ, ["ρ", "w0", "w1"]), (4, QQ, ["a1", "a2", "a3"])]


# -- the Jordan engine under shift and direct sum -----------------------------------------


@settings(deadline=None, max_examples=100)
@given(FIELDS, st.integers(2, 5), STRINGS, PIECES, st.integers(0, 2**32 - 1),
       st.integers(-7, 7))
def test_decompose_module_respects_shift(field, d, strings, pieces, seed, k):
    # Σ^k(Σ^{-l}Z_m) = Σ^{-(l-k)}Z_m: heights stay, every l moves by k
    M = planted_module(field, d, strings, pieces, seed)
    dec = decompose_module(M, d)
    moved = decompose_module(shift(M, k), d)
    assert dec.molecules == expected(d, strings)
    assert moved.molecules == expected(d, strings, shift_by=k)
    assert [mol.m for mol in moved.molecules] == [mol.m for mol in dec.molecules]
    assert moved.level() == dec.level()


@settings(deadline=None, max_examples=100)
@given(FIELDS, st.integers(2, 5), STRINGS, STRINGS, PIECES, st.integers(0, 2**32 - 1))
def test_decompose_module_respects_direct_sum(field, d, first, second, pieces, seed):
    parts = [planted_module(field, d, first, pieces, seed),
             planted_module(field, d, second, (), seed + 1)]
    decs = [decompose_module(P, d) for P in parts]
    total = decompose_module(direct_sum(parts), d)
    assert total.molecules == tuple(sorted(decs[0].molecules + decs[1].molecules,
                                           key=lambda mol: (mol.m, mol.l)))
    assert total.level() == max(dec.level() for dec in decs)


@settings(deadline=None, max_examples=100)
@given(st.sampled_from([QQ, GF2, GF3, GF5]), st.integers(2, 6), STRINGS, PIECES, STRINGS,
       st.integers(0, 2**32 - 1), st.integers(-7, 7))
def test_block_shift_and_sum_are_the_generic_block_sum(field, d, first, pieces, second, seed, k):
    # Σ^k M, M ⊕ Σ^k N and N ⊕ Σ^k M ⊕ Σ^{2k+1} N of SphereModules are
    # SphereModules whose blocks and JSON are those of the block sum of plain
    # presentations of the same parts, split again by the constructor
    M = planted_module(field, d, first, pieces, seed)
    N = planted_module(field, d, second, (), seed + 1)
    plain = {X: DGModulePresentation.free(X.algebra, X.generators, X.differential)
             for X in (M, N)}
    for built, parts in ((shift(M, k), [(M, "", -k)]),
                         (direct_sum([M, shift(N, k)]), [(M, "0·", 0), (N, "1·", -k)]),
                         (direct_sum([N, shift(M, k), shift(N, 2 * k + 1)]),
                          [(N, "0·", 0), (M, "1·", -k), (N, "2·", -2 * k - 1)])):
        generic = block_sum([(plain[X], pre, offset) for X, pre, offset in parts])
        assert type(generic) is DGModulePresentation
        split = SphereModule.from_presentation(generic, d)
        assert type(built) is SphereModule
        assert (built.generators, built.labels, built.delta, built.phi) == \
            (split.generators, split.labels, split.delta, split.phi)
        assert built.to_json() == split.to_json() == generic.to_json()


def test_sphere_modules_over_different_spheres_or_fields_keep_the_generic_sum():
    # a SphereModule summed with a plain presentation over the same algebra
    # is summed as presentations; different spheres or fields do not sum
    mol = molecule_model(MoleculeId(4, 0, 1))
    plain = DGModulePresentation.free(mol.algebra, mol.generators, mol.differential)
    assert type(direct_sum([mol, plain])) is DGModulePresentation
    for parts in ([molecule_model(MoleculeId(3, 0, 1)), mol],
                  [mol, molecule_model(MoleculeId(4, 0, 1), GF3)]):
        with pytest.raises(AlgebraMismatch, match="direct summands live over different"):
            direct_sum(parts)


# -- the engine against the rank formula ------------------------------------------------


def block_image(M, block, deg, vectors):
    """The block applied to dense vectors in degree ``deg``, as dense vectors
    in the degree it lands in."""
    step = 1 - M.d if block is M.phi else 1
    width = len(M.labels.get(deg + step, ()))
    out = []
    for v in vectors:
        w = [0] * width
        for j, col in enumerate(block.get(deg, [[]] * len(v))):
            for i, c in col:
                w[i] += v[j] * c
        out.append([M.field.reduce(x) for x in w])
    return out


def phi_bar_rank(M, a, k):
    """r_k(a), the rank of Φ̄^k on H_a: rank[Φ^k Z_a | B_t] - rank B_t, with
    t = a - k(d - 1), Z the cocycles and B the boundaries of δ₀."""
    f, n = M.field, len(M.labels.get(a, ()))
    unit = [[int(i == j) for i in range(n)] for j in range(n)]
    rows = list(zip(*block_image(M, M.delta, a, unit)))
    Z = [list(v) for v in rank_and_kernel(rows, f)[1]] if rows else unit
    t = a
    for _ in range(k):
        Z, t = block_image(M, M.phi, t, Z), t + 1 - M.d
    below = len(M.labels.get(t - 1, ()))
    B = block_image(M, M.delta, t - 1, [[int(i == j) for i in range(below)]
                                        for j in range(below)])
    B = [v for v in B if any(v)]
    return rank(B + [v for v in Z if any(v)], f) - rank(B, f)


@settings(deadline=None, max_examples=120)
@given(st.sampled_from([QQ, GF2, GF3, GF5]), st.integers(2, 6), STRINGS,
       st.lists(st.tuples(st.integers(-4, 8), st.booleans()), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_strings_agree_with_the_rank_formula(field, d, strings, pieces, seed):
    # every draw has a contractible piece, so δ₀ ≠ 0; r_k(a) - r_{k+1}(a + d - 1)
    # strings have their top in degree a and height at least k
    M = planted_module(field, d, strings, pieces, seed)
    found = decompose_module(M, d).molecules
    for a in M.labels:
        for k in range(max((mol.m for mol in found), default=0) + 2):
            count = sum(mol.l == a and mol.m >= k for mol in found)
            assert phi_bar_rank(M, a, k) - phi_bar_rank(M, a + d - 1, k + 1) == count


def test_a_wrong_pivot_kernel_fails_the_fill_check(monkeypatch):
    # two strings reach degree 0, where H has dimension 2; a kernel that
    # drops the last pivot leaves one, and the engine refuses to go on
    M = SphereModule(4, QQ, [("a", 3), ("b", 3), ("u", 0), ("v", 0)],
                     phi={0: {2: 1}, 1: {3: 1}})
    assert decompose_module(M, 4).molecules == (MoleculeId(4, 3, 1),) * 2
    monkeypatch.setattr(spheres, "echelon_leads",
                        lambda rows, f: field_module.echelon_leads(rows, f)[:-1])
    with pytest.raises(VerificationFailed, match="degree 0 holds 1 strings where dim H = 2"):
        decompose_module(M, 4)


# -- raw modules through their Koszul resolution --------------------------------------------

RAW_FIELDS = st.sampled_from([QQ, GF2, GF3, GF5])
# none for a molecule sum, else contractible pairs and squares
RAW_PIECES = st.one_of(st.just([]), st.lists(st.tuples(st.integers(-4, 8), st.booleans()),
                                             min_size=1, max_size=3))


def raw_level(M, d, shifts=()):
    """sphere_level of the raw expansion of M, with Σ^{-s}K added for each
    shift s, and no matching run."""
    def no_matching(*args, **kwargs):
        raise AssertionError("a module's cohomology was matched")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spheres, "all_matchings", no_matching)
        return sphere_level(with_k(raw_expansion(M), shifts), d)


@settings(deadline=None, max_examples=450)
@given(RAW_FIELDS, st.integers(2, 6), STRINGS, RAW_PIECES, st.integers(0, 2**32 - 1))
def test_a_raw_module_has_the_molecules_of_its_free_module(field, d, strings, pieces, seed):
    # molecule sums, and with contractible pieces modules that are not
    # minimal, in a random basis of each degree: then x·d ≠ 0 in the raw
    # module, so the signs of its resolution are tested
    M = planted_module(field, d, strings, pieces, seed)
    res = raw_level(M, d)
    assert res.kind == "exact" and res.value == decompose_module(M, d).level()
    assert res.decomposition.molecules == decompose_module(M, d).molecules == expected(d, strings)


@settings(deadline=None, max_examples=120)
@given(RAW_FIELDS, st.integers(2, 6), STRINGS, RAW_PIECES, st.integers(0, 2**32 - 1),
       st.lists(st.integers(-6, 10), min_size=1, max_size=3))
def test_a_raw_module_with_a_summand_k_has_infinite_level(field, d, strings, pieces, seed,
                                                          shifts):
    # each Σ^{-s}K is a tower of the resolution; the lowest starts at min(shifts)
    res = raw_level(planted_module(field, d, strings, pieces, seed), d, shifts)
    period = resolve.sphere_block_period(d)
    cert = res.certificate
    assert res.kind == "infinite" and cert.period == period and len(cert.witnesses) >= 3
    assert cert.witnesses == tuple(range(min(shifts), cert.witnesses[-1] + 1, period))


def dense_product(f, a, b, width):
    """a·b of dense matrices over the field f, reduced; b has ``width``
    columns, also when it has no rows."""
    return [[f.reduce(sum(x * b[k][j] for k, x in enumerate(row))) for j in range(width)]
            for row in a]


def dense_refusal(raw, actions):
    """The refusal a raw module with the complex of ``raw`` and the dense
    action ``actions`` of x must meet, None if it is a module: the first
    degree where x∘d ≠ d∘x, else the first where x∘x ≠ 0."""
    cx, f, (x,) = raw.complex, raw.field, raw.algebra.generators

    def mat(rows, src, tgt):
        return rows if rows is not None else [[0] * cx.dim(src) for _ in range(cx.dim(tgt))]

    def act(n):
        return mat(actions.get(n), n, n + x.degree)

    def d(n):
        return mat(dense_rows(cx.cols[n], cx.dim(n + 1), f) if n in cx.cols else None, n, n + 1)

    degrees = cx.space.degrees()
    for n in degrees:
        if dense_product(f, act(n + 1), d(n), cx.dim(n)) != \
                dense_product(f, d(n + x.degree), act(n), cx.dim(n)):
            return f"action of {x.label} does not commute with d at degree {n}"
    for n in degrees:
        if any(map(any, dense_product(f, act(n + x.degree), act(n), cx.dim(n)))):
            return f"the action breaks {x.label}·{x.label} = 0 at degree {n}"
    return None


@settings(deadline=None, max_examples=150)
@given(RAW_FIELDS, st.integers(2, 6), STRINGS, RAW_PIECES, st.integers(0, 2**32 - 1), st.data())
def test_a_perturbed_action_is_refused_exactly_where_a_dense_oracle_fails(field, d, strings,
                                                                          pieces, seed, data):
    # the checks read the action as sparse columns; the oracle multiplies the
    # dense matrices the module was given
    raw = raw_expansion(planted_module(field, d, strings, pieces, seed))
    cx, (x,) = raw.complex, raw.algebra.generators
    stored = raw.actions.get(x.label, {})
    actions = {n: dense_rows(stored.get(n) or [[]] * cx.dim(n), cx.dim(n + d), field)
               for n in cx.space.degrees() if cx.dim(n + d)}
    if actions:
        n = data.draw(st.sampled_from(sorted(actions)))
        i = data.draw(st.integers(0, len(actions[n]) - 1))
        j = data.draw(st.integers(0, len(actions[n][i]) - 1))
        c = data.draw(st.integers(1, field.p - 1) if field.p else st.integers(-3, 3).filter(bool))
        actions[n][i][j] = field.reduce(actions[n][i][j] + c)
    refusal = dense_refusal(raw, actions)
    if refusal is None:
        DGModulePresentation.raw(raw.algebra, cx, {x.label: actions})
    else:
        with pytest.raises(PresentationError, match=f"^{re.escape(refusal)}$"):
            DGModulePresentation.raw(raw.algebra, cx, {x.label: actions})


# -- the level axioms on cones ------------------------------------------------------------


def induced_rank(f_map, M, N):
    """rank H(f) summed over degrees: f on the cocycle representatives of M,
    counted modulo the coboundaries of N."""
    A, field = M.algebra, M.field
    em, en = M.expand(M.default_window()), N.expand(N.default_window())
    total = 0
    for n, reps in cohomology(em.complex)[1].items():
        images = []
        for v in reps:
            w = [field.zero()] * en.complex.dim(n)
            for c, (g, m) in zip(v, em.elements[n]):
                for h, poly in f_map.get(g, {}).items() if c else ():
                    for mono, x in A.poly_mul(poly, A.mono_poly(m)).items():
                        w[en.pos[h, mono][1]] += c * x
            images.append([field.reduce(x) for x in w])
        B = en.complex.coboundaries(n)
        total += rank(B + images, field) - rank(B, field)
    return total


MOLECULES = st.lists(st.tuples(st.integers(0, 3), st.integers(-4, 4)), min_size=1, max_size=2)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from([QQ, GF2, GF3, GF5]), st.integers(2, 6), MOLECULES, MOLECULES,
       st.lists(st.sampled_from([-1, 0, 1]), min_size=2, max_size=2), st.integers(0, 2**32 - 1))
def test_cones_keep_the_triangle_inequalities(field, d, source, target, moves, seed):
    # M → N → cone(f) → ΣM is exact, so each level is at most the sum of the
    # other two.  N's molecules sit where M's do, moved by whole steps of
    # d - 1 or d, so that a degree-0 map is there to draw more often
    def build(parts, moved):
        return direct_sum([shift(molecule_model(MoleculeId(d, 0, m), field, verify=False),
                                 k * (d - 1) + moved) for m, k in parts])

    rng = random.Random(seed)
    M = build(source, 0)
    N = build([(m, source[i % len(source)][1] + moves[i % 2]) for i, (m, _) in enumerate(target)],
              rng.choice([0, d]))
    hom = hom_complex(M, N, DegreeWindow(-1, 1))
    maps = hom.basis.get(0, [])
    if 0 in hom.complex.cols:
        cocycles = rank_and_kernel(differential(hom.complex)[0], field)[1]
    else:
        cocycles = [[int(i == j) for i in range(len(maps))] for j in range(len(maps))]
    f_map = {}
    for v in cocycles:
        c = rng.choice([1, -1])
        for (g, (h, mono)), x in zip(maps, v):
            if x:
                poly = f_map.setdefault(g, {}).setdefault(h, {})
                poly[mono] = field.reduce(poly.get(mono, 0) + c * x)
    results = [sphere_level(X, d) for X in (M, N, cone(f_map, M, N))]
    levels = [r.value for r in results]
    for i in range(3):
        assert levels[i] <= levels[i - 1] + levels[i - 2]
    # the long exact sequence: dim H(C) = dim H(M) + dim H(N) − 2·rank H(f),
    # each dim H two classes per molecule the engine found
    dims = [2 * len(r.decomposition.molecules) for r in results]
    assert dims[2] == dims[0] + dims[1] - 2 * induced_rank(f_map, M, N)
    # on the same draws: level(Σ^k M) = level(M), level(M ⊕ N) = max
    assert sphere_level(shift(M, rng.randint(-7, 7)), d).value == levels[0]
    assert sphere_level(direct_sum([M, N]), d).value == max(levels[:2])
