"""Answer checks: closed forms and facts that any correct engine satisfies.

Nothing here compares against a stored copy of an earlier answer.  Where a
fact needs the module's cohomology (towers, molecule models), the check
recomputes it from the returned or rebuilt presentation after the timed
loop, so checking never costs timed work.  A check returns None when the
answer is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from collections import Counter

from dglevels import algebra, graded, module, rational, resolve
from workloads import field_of


def _counter(pairs):
    return Counter({int(n): int(v) for n, v in pairs if v})


def _product(*tables):
    """Cohomology of a tensor product of graded pieces, as a Counter."""
    out = Counter({0: 1})
    for table in tables:
        nxt = Counter()
        for a, x in out.items():
            for b, y in table.items():
                nxt[a + b] += x * y
        out = nxt
    return out


def molecule_table(d, l, m):
    """Σ^{-l}Z_m over H*(S^d): K in degrees -m(d-1)+l and d+l."""
    return Counter([-m * (d - 1) + l, d + l])


def _molecules_table(mols):
    out = Counter()
    for d, l, m in mols:
        out += molecule_table(d, l, m)
    return out


def koszul_tor_k(d, shifts, hi):
    """Tor over H*(S^d) of a sum of shifts of K against K: one class in every
    degree s + j(d-1), j >= 0 (the divided powers on s⁻¹x)."""
    out = Counter()
    for s in shifts:
        n = s
        while n <= hi:
            out[n] += 1
            n += d - 1
    return out


def _restrict(table, hi):
    return Counter({n: v for n, v in table.items() if n <= hi and v})


def _nonzero_in(fname, h):
    p = field_of(fname).characteristic()
    return h % p != 0 if p else h != 0


def _level_bounds(ans, true_level=None, upper=None):
    lo, hi = ans["lo"], ans["hi"]
    if ans["kind"] not in ("exact", "interval") or lo is None or hi is None:
        return f"expected a finite level, got {ans['kind']}"
    if not 1 <= lo <= hi:
        return f"empty or invalid level interval [{lo}, {hi}]"
    if ans["kind"] == "exact" and ans["value"] != lo:
        return "exact level disagrees with its own bounds"
    if true_level is not None and not lo <= true_level <= hi:
        return f"level [{lo}, {hi}] excludes the true level {true_level}"
    if upper is not None and hi > upper:
        return f"level upper end {hi} exceeds the filtration bound {upper}"
    mols = ans["molecules"]
    if mols is not None:
        dec_level = max(m for _, _, m in mols) + 1
        if not lo <= dec_level <= hi:
            return f"decomposition level {dec_level} lies outside [{lo}, {hi}]"
    return None


def depth_bound(presentation):
    """Class + 1 of the generator-depth semifree filtration, computed here:
    a generator sits one stage above every generator its differential hits."""
    depth = {}

    def walk(g):
        if g not in depth:
            targets = presentation.differential.get(g, {})
            depth[g] = 1 + max((walk(t) for t in targets), default=-1)
        return depth[g]

    return max((walk(g) for g, _ in presentation.generators), default=0) + 1


# ---------------------------------------------------------------------------


def check_bundle(params, ans):
    gens, f4, _fname, _odd = params
    expected = 2 if f4 else 1
    if ans["level"] != expected:
        return f"level {ans['level']}, closed form {expected}"
    # Tor = Koszul exterior classes s⁻¹y_j ⊗ H(∧(s⁻¹y_4) ⊗ H*(S^4)); the
    # degree-4 class kills the sphere class when it acts
    if f4:
        tables = [Counter([0, g - 1]) for g in gens[1:]] + [Counter([0, 7])]
    else:
        tables = [Counter([0, g - 1]) for g in gens] + [Counter([0, 4])]
    tor = _counter(ans["tor"])
    if tor != _product(*tables):
        return "Tor dimensions differ from the Koszul closed form"
    if ans["molecules"] is None or _molecules_table(ans["molecules"]) != tor:
        return "molecule cohomology does not sum to Tor"
    return None


def check_tower(params, ans):
    l, d = params
    tower = rational.build_P_tower(l, d)
    presentation = tower.as_base_module()
    err = _level_bounds(ans, upper=depth_bound(presentation))
    if err:
        return err
    if ans["molecules"] is not None:
        dims = presentation.cohomology_dims(tower.auto_window())
        if _molecules_table(ans["molecules"]) != _counter(dims.items()):
            return "molecule cohomology does not sum to the tower's cohomology"
    return None


def check_sphere_sum(params, ans):
    d, parts, _fname = params
    # Σ^k of Σ^{-l}Z_m is Σ^{-(l-k)}Z_m; a sum's level is its largest height + 1
    err = _level_bounds(ans, true_level=max(m for _, m, _ in parts) + 1)
    if err:
        return err
    expected = _molecules_table([(d, l - k, m) for l, m, k in parts])
    if ans["molecules"] is not None and _molecules_table(ans["molecules"]) != expected:
        return "molecule cohomology does not sum to the summands' cohomology"
    return None


def check_molecule(params, ans):
    d, l, m, _fname = params
    M = module.DGModulePresentation.from_json(ans["module"])
    if _counter(M.cohomology_dims().items()) != molecule_table(d, l, m):
        return "model cohomology differs from the catalog formula"
    return None


def check_idempotents(params, ans):
    # a sum of two or more nonzero modules always has a projection idempotent
    if not ans["idempotents"]:
        return "no idempotent found on a direct sum"
    if any(all(x in ("0", "0/1") for x in e) for e in ans["idempotents"]):
        return "the zero vector is listed as an idempotent"
    return None


def _check_tor_dims(d, shifts, ans, hi):
    cert = ans["certified"]
    if not 0 <= cert <= hi:
        return f"certified horizon {cert} outside the window"
    if _counter(ans["dims"]) != koszul_tor_k(d, shifts, cert):
        return "Tor dimensions differ from the Koszul closed form"
    return None


def check_koszul(params, ans):
    d, shifts, _fname, hi = params
    return _check_tor_dims(d, shifts, ans, hi)


def check_bar(params, ans):
    return check_koszul(params, ans)


def check_phi(params, ans):
    d, shifts, _fname, hi = params
    v = ans["verdict"]
    if v.get("kind") != "infinite":
        return f"a sum of shifts of K is not compact, verdict {v.get('kind')}"
    period, ws = v["period"], v["witnesses"]
    if period <= 0 or period % (d - 1) or len(ws) < 3:
        return "malformed infinite certificate"
    tor = koszul_tor_k(d, shifts, hi)
    if any(b - a != period for a, b in zip(ws, ws[1:])) or any(not tor[w] for w in ws):
        return "certificate witnesses are not nonzero Tor degrees in progression"
    return None


def check_bar_poly(params, ans):
    fname, hi = params
    # Koszul: Tor over K[a₂, b₄] is ∧(s⁻¹a, s⁻¹b), classes in degrees 0, 1, 3, 4
    P = algebra.DGAlgebraPresentation.polynomial(field_of(fname), [("a", 2), ("b", 4)])
    K = resolve.residue_module(P)
    kos = resolve.derived_tensor(K, K, strategy="koszul", window=graded.DegreeWindow(0, hi))
    cert = ans["certified"]
    bar = _counter(ans["dims"])
    if bar != _restrict(Counter({0: 1, 1: 1, 3: 1, 4: 1}), cert):
        return "bar Tor differs from the exterior closed form"
    if bar != _restrict(_counter(kos.dims.items()), cert):
        return "bar Tor differs from Koszul Tor"
    return None


def check_compact(params, ans):
    d, h, fname, _hi = params
    expected = _nonzero_in(fname, h) and d % 2 == 0
    if ans["compact"] != expected:
        return f"compact = {ans['compact']}, but h = {h} in {fname} says {expected}"
    if expected and _counter(ans["total"]) != Counter([0, d - 1]):
        return "the compact pullback is not S^(d-1)"
    return None


def check_emss(params, ans):
    d, e, h, fname = params
    if not _nonzero_in(fname, h):
        return None
    if ans["verdict"] != "finite":
        return f"nonzero Hopf invariant, verdict {ans['verdict']}"
    if _counter(ans["total"]) != _product(Counter([0, d - 1]), Counter([0, e])):
        return "E∞ totals differ from H*(S^(d-1)) ⊗ the extra factor"
    return None


def check_cli(params, ans):
    if ans["code"] != 0:
        return f"exit code {ans['code']}"
    argv = list(params)
    text = ans["stdout"]
    sub = argv[0]
    if "--format" in argv:
        fmt = argv[argv.index("--format") + 1]
        if fmt == "dot" and not text.startswith("digraph"):
            return "DOT output does not start with a digraph"
        if fmt == "table" and "verdict:" not in text:
            return "table output has no verdict line"
        return None
    result = json.loads(text)["result"]
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
    if sub == "molecule":
        d, l, m = int(opt["--d"]), int(opt["--l"]), int(opt["--m"])
        if _counter(result["cohomology"].items()) != molecule_table(d, l, m) \
                or result["level"] != m + 1:
            return "molecule report differs from the catalog formula"
    elif sub == "tor" and opt.get("--arg", "k") == "k":
        mod = opt.get("--module", "k")
        shifts = [0] if mod == "k" else [0, int(mod[1:])]
        cert = result["certifiedThrough"]
        if _counter(result["tor"].items()) != koszul_tor_k(int(opt["--d"]), shifts, cert):
            return "Tor against K differs from the closed form"
    elif sub == "hopf":
        with open(opt["--model"], encoding="utf-8") as fh:
            model = json.load(fh)
        a = int(model["gx"][0][0].split("/")[0])
        fname = model["target"]["field"]
        expected = a * a if fname == "q" else (a * a) % int(fname[1:])
        got = result["hopf"]
        got = int(got.split("/")[0]) if isinstance(got, str) else got
        if got != expected:
            return f"Hopf invariant {got}, expected {expected}"
    elif sub == "bundle-level":
        if result["level"] != (2 if opt.get("--f4", "nonzero") == "nonzero" else 1):
            return "bundle level differs from the closed form"
    elif sub == "pile":
        if result["levelUpperBound"] != int(opt["--stages"]) + 1:
            return "pile bound differs from stages + 1"
    elif sub == "phi":
        if result["phi"]["kind"] != "infinite" or result["compact"] is not False:
            return "a sum of shifts of K is reported compact or undecided"
    elif sub == "emss":
        d, h = int(opt["--d"]), int(opt["--hopf"])
        fname = {"q": "Q"}.get(opt.get("--field", "q"), opt.get("--field", "q").upper())
        if _nonzero_in(fname, h) and \
                _counter(result["totalDims"].items()) != Counter([0, d - 1]):
            return "E∞ of a nonzero Hopf invariant is not H*(S^(d-1))"
    elif sub == "decompose":
        mols = [(m["d"], m["l"], m["m"]) for m in result["molecules"]]
        dims = _counter(p.split(":") for p in opt["--dims"].split(","))
        if _molecules_table(mols) != dims:
            return "molecule cohomology does not sum to the given dimensions"
    elif sub == "level":
        if result["kind"] not in ("exact", "interval"):
            return f"level kind {result['kind']}"
    return None


CHECKS = {
    "bundle": check_bundle,
    "tower": check_tower,
    "sphere_sum": check_sphere_sum,
    "molecule": check_molecule,
    "idempotents": check_idempotents,
    "koszul": check_koszul,
    "bar": check_bar,
    "phi": check_phi,
    "bar_poly": check_bar_poly,
    "compact": check_compact,
    "emss": check_emss,
    "cli": check_cli,
}


def check(query, answer):
    """None when the answer is right, else a one-line reason."""
    try:
        return CHECKS[query.kind](query.params, answer)
    except Exception as exc:   # a malformed answer is a wrong answer
        return f"check raised {type(exc).__name__}: {exc}"
