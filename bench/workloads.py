"""Seeded query lists for the three workloads, and how to run one query.

A query is plain data: a kind, hashable parameters and a cost hint.  The
program sees only what ``execute`` builds from those parameters.  Every
library call goes through a module attribute looked up at call time
(``spheres.bundle_level``, never a name bound at import), so the traced run
can swap in wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

import dglevels  # noqa: F401  (fails early when the package is missing)
from dglevels import algebra, cli, emss, field, graded, module, rational, resolve, spheres

WORKLOADS = ("levels", "catalog", "tor")
FIELDS = ("Q", "F2", "F3", "F5")


@dataclass(frozen=True)
class Query:
    name: str       # unique within a workload
    kind: str
    params: tuple
    group: str      # warm-up group: the smallest query of each group is run untimed
    size: int       # cost hint used only to pick the warm-up query


def field_of(name):
    return {"Q": field.QQ, "F2": field.GF2, "F3": field.GF3, "F5": field.GF5}[name]


# ---------------------------------------------------------------------------
# levels
# ---------------------------------------------------------------------------


def _bundle(gens, f4, fname):
    odd = any(g % 2 for g in gens)
    tag = "/".join(map(str, gens))
    return Query(f"bundle_level[{tag}]/{fname}/f4={int(f4)}", "bundle",
                 (tuple(gens), f4, fname, odd), "bundle", len(gens))


def levels_queries(rng):
    qs = []
    # bundle_level.  Costs jump with degree collisions in the matching search
    # and with the field, so the grid is fixed: every degree combination, the
    # field cycling with its position.  f4 = 0 with four generators is left
    # out: it is a matching cliff of its own.
    evens = (6, 8, 10, 12, 14)
    combos = [([4, a], f4) for a in evens for f4 in (True, False)]
    combos += [([4, a, b], f4) for i, a in enumerate(evens) for b in evens[i + 1:]
               for f4 in (True, False)]
    combos += [([4, a, b, c], True) for a in range(6, 17, 2) for b in range(a + 2, 17, 2)
               for c in range(b + 2, 17, 2)]
    for i, (gens, f4) in enumerate(combos):
        qs.append(_bundle(gens, f4, FIELDS[i % 4]))
    # odd degrees: over F2 only, with the formalizability declaration.  With
    # degree 5 and f4 nonzero the engine raises VerificationFailed today (its
    # level is bracketed as [1, 2]); those five queries count as failed.
    for odd in (5, 7, 9, 11):
        for f4 in (True, False):
            qs.append(_bundle([4, odd], f4, "F2"))
            for even in (6, 8, 10, 12):
                qs.append(_bundle([4] + sorted((odd, even)), f4, "F2"))
    # the tower grid, including C7's (3, 4)
    for d in (3, 4, 5, 6):
        for l in range(1, 6):
            qs.append(Query(f"tower[{l},{d}]", "tower", (l, d), "tower", l * d))
    # sphere_level on shifted direct sums of 2-4 molecule models
    for i in range(60):
        d = 2 + i % 5
        n = 2 + i % 3
        fname = FIELDS[i % 4]
        parts = tuple((rng.randint(0, 10), (i + j) % 5, rng.randint(-6, 6))
                      for j in range(n))
        tag = ",".join(f"{l}:{m}:{k}" for l, m, k in parts)
        qs.append(Query(f"sphere_level[d={d};{tag}]/{fname}", "sphere_sum",
                        (d, parts, fname), "sphere_sum", n * d))
    return _shuffled(qs, rng)


def levels_frontier():
    return [_bundle([4, 6, 8, 10, 12], True, "Q")]   # five generators: matching cliff


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def catalog_queries(rng):
    qs = []
    # molecule_model(verify=True) on the full (d, m) grid per field, seeded l
    for fname in ("Q", "F3", "F5"):
        for d in range(2, 7):
            for m in range(0, 6):
                l = rng.randint(0, 10)
                qs.append(Query(f"molecule[{d},{l},{m}]/{fname}", "molecule",
                                (d, l, m, fname), f"molecule/{fname}", d + m))
    # find_idempotents on sums: distinct pairs, repeated pairs, and a repeated
    # pair plus a third molecule far enough away that Hom to it vanishes
    shape = ("pair", "pair", "pair", "pair", "twin", "twin", "twin",
             "triple", "triple", "triple")
    for fname in ("Q", "F3", "F5"):
        for i, kind in enumerate(shape):
            d = 2 + i % 5
            m = i % 3
            l = rng.randint(0, 6)       # a common shift leaves every Hom unchanged
            if kind == "pair":
                parts = ((l, m), (l + 1 + i % 4, (i + 1) % 3))
            elif kind == "twin":
                parts = ((l, m), (l, m))
            else:
                far = l + (m + 4) * (d + 1) + rng.randint(0, 3)
                parts = ((l, m), (l, m), (far, i % 2))
            tag = ",".join(f"{a}:{b}" for a, b in parts)
            qs.append(Query(f"idempotents[d={d};{tag}]/{fname}", "idempotents",
                            (d, parts, fname), f"idempotents/{fname}", len(parts) * 10 + m))
    return _shuffled(qs, rng)


# ---------------------------------------------------------------------------
# tor
# ---------------------------------------------------------------------------

HI_WINDOWS = (40, 80, 160, 320)


def _shifts(rng, d, n):
    """n shifts in a fixed pattern, translated by the seed.  What a sum of
    shifts costs depends on how its shifts fall modulo d - 1 and on repeats,
    and a translation keeps both."""
    t = rng.randint(0, d)
    return tuple(t + k * (d // 2) for k in range(n))


def tor_queries(rng, model_dir: Path):
    qs = []
    grid = {}
    for d in range(2, 8):
        for j, hi in enumerate(HI_WINDOWS):
            shifts = _shifts(rng, d, 1 + (d + j) % 4)
            fname = FIELDS[(d + j) % 4]
            grid[(d, hi)] = (shifts, fname)
            p = (d, shifts, fname, hi)
            tag = f"d={d};{','.join(map(str, shifts))};0:{hi}/{fname}"
            qs.append(Query(f"koszul[{tag}]", "koszul", p, "koszul", hi))
            qs.append(Query(f"phi[{tag}]", "phi", p, "phi", hi))
    for d in range(2, 8):
        for hi in HI_WINDOWS[:2]:
            shifts, fname = grid[(d, hi)]
            tag = f"d={d};{','.join(map(str, shifts))};0:{hi}/{fname}"
            qs.append(Query(f"bar[{tag}]", "bar", (d, shifts, fname, hi), "bar", hi))
    # over Q window 8 alone takes 1.7 s, most of a pass; it is kept to F_p so
    # that no single query sets the workload's figures (window 10 over Q is
    # the frontier query)
    for fname, hi in (("Q", 6), ("F5", 6), ("F2", 8), ("F3", 8)):
        qs.append(Query(f"bar_poly[a2,b4;0:{hi}]/{fname}", "bar_poly", (fname, hi),
                        "bar_poly", hi))
    # whether h vanishes in K decides compactness and most of the cost, so it
    # follows a fixed pattern; the seed picks only the value of h
    for i, fname in enumerate(("Q", "F2", "F3")):
        p = field_of(fname).characteristic()
        for j, (d, hi) in enumerate(((2, 64), (4, 128), (6, 256), (8, 512), (4, 1024),
                                     (5, 1024))):
            zero = d % 2 == 1 or (i + j) % 2 == 1   # odd spheres carry no Hopf invariant
            h = rng.choice([h for h in range(4) if (h % p == 0 if p else h == 0) == zero])
            qs.append(Query(f"compactness[d={d};h={h};0:{hi}]/{fname}", "compact",
                            (d, h, fname, hi), "compact", hi))
    for d in (2, 4, 6, 8):
        for e in rng.sample(range(3, 16), 2):
            fname, h = rng.choice((("Q", 1), ("Q", 2), ("F3", 2), ("F5", 3), ("F2", 1)))
            qs.append(Query(f"emss[d={d};extra={e};h={h}]/{fname}", "emss",
                            (d, e, h, fname), "emss", d + e))
    qs.extend(_cli_queries(rng, model_dir))
    return _shuffled(qs, rng)


def tor_frontier():
    return [Query("bar_poly[a2,b4;0:10]/Q", "bar_poly", ("Q", 10), "bar_poly", 10)]


README_COMMANDS = (
    ("molecule", "--d", "4", "--l", "3", "--m", "1", "--field", "q"),
    ("quiver", "--d", "4", "--component", "0", "--rows", "4", "--format", "dot"),
    ("decompose", "--d", "4", "--field", "f2", "--dims", "0:1,5:1,6:1,7:1,12:1,13:1"),
    ("level", "--d", "7", "--dims", "0:1,3:1,7:1,10:1"),
    ("tor", "--d", "4", "--module", "k", "--arg", "k", "--strategy", "koszul",
     "--window", "0:12"),
    ("phi", "--d", "4", "--module", "s7", "--window", "0:40"),
    ("emss", "--d", "4", "--top", "s7", "--hopf", "1", "--field", "q", "--format", "table"),
    ("hopf", "--model", "@model:4:1:q", "--generator", "file"),
    ("p-tower", "--l", "2", "--d", "4", "--m", "9", "--report", "level"),
    ("pile", "--stages", "2", "--odd-spheres", "1"),
    ("bundle-level", "--gens", "4,6,7", "--field", "f2", "--f4", "nonzero",
     "--declare-formalizable"),
)


def _cli_queries(rng, model_dir):
    argvs = list(README_COMMANDS)
    for d, window in ((3, 40), (5, 80)):
        argvs.append(("tor", "--d", str(d), "--module", "k", "--arg", "k", "--strategy",
                      "koszul", "--field", rng.choice(("q", "f2", "f3")),
                      "--window", f"0:{window}"))
        argvs.append(("tor", "--d", str(d), "--module", f"s{rng.randint(d + 1, 3 * d)}",
                      "--arg", "k", "--strategy", "bar", "--window", f"0:{window // 2}"))
        argvs.append(("phi", "--d", str(d + 1), "--module", f"s{rng.randint(3, 12)}",
                      "--window", f"0:{window + 20}"))
    for d in (4, 6):
        argvs.append(("emss", "--d", str(d), "--top", f"s{2 * d - 1}", "--hopf",
                      str(rng.randint(0, 3)), "--field", rng.choice(("q", "f2", "f3"))))
    for d in (2, 4, 6, 8):
        argvs.append(("hopf", "--model",
                      f"@model:{d}:{rng.randint(2, 4)}:{rng.choice(('q', 'f5', 'f7'))}",
                      "--generator", "file"))
    qs = []
    for i, argv in enumerate(argvs):
        argv = tuple(_materialize(a, model_dir) for a in argv)
        name = "cli:" + " ".join(_display(a) for a in argv)
        # README commands warm up their group, so the warm-up is the same for every seed
        qs.append(Query(name, "cli", argv, f"cli/{argv[0]}", int(i >= len(README_COMMANDS))))
    return qs


def hopf_model(d, a, fname):
    """The acyclic closure (∧(x, ξ, ρ), dξ = x², dρ = x) of S^d as the target
    of g(x) = a·x, g(ξ) = a²·ξ; against ρx - ξ its Hopf invariant is a²."""
    return {
        "d": d,
        "target": {
            "field": fname,
            "generators": [["x", d, "polynomial"], ["ξ", 2 * d - 1, "exterior"],
                           ["ρ", d - 1, "exterior"]],
            "differential": {"ξ": [["1/1", {"x": 2}]], "ρ": [["1/1", {"x": 1}]]},
        },
        "gx": [[f"{a}/1", {"x": 1}]],
        "gxi": [[f"{a * a}/1", {"ξ": 1}]],
        "generator": [["1/1", {"ρ": 1, "x": 1}], ["-1/1", {"ξ": 1}]],
    }


def _materialize(arg, model_dir):
    if not arg.startswith("@model:"):
        return arg
    _, d, a, fname = arg.split(":")
    text = json.dumps(hopf_model(int(d), int(a), fname), sort_keys=True, ensure_ascii=False)
    path = model_dir / f"hopf-d{d}-a{a}-{fname}.json"
    if not path.exists() or path.read_text(encoding="utf-8") != text:
        model_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
    return str(path)


def _display(arg):
    return Path(arg).name if arg.endswith(".json") else arg


def _shuffled(qs, rng):
    if len({q.name for q in qs}) != len(qs):
        raise ValueError("query names must be unique")
    rng.shuffle(qs)
    return qs


def make_queries(workload, seed, model_dir: Path):
    """(timed queries, frontier queries) for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "levels":
        return levels_queries(rng), levels_frontier()
    if workload == "catalog":
        return catalog_queries(rng), []
    if workload == "tor":
        return tor_queries(rng, model_dir), tor_frontier()
    raise ValueError(f"unknown workload {workload!r}")


def warmup_queries(queries):
    """The smallest query of each group."""
    best = {}
    for q in queries:
        cur = best.get(q.group)
        if cur is None or (q.size, q.name) < (cur.size, cur.name):
            best[q.group] = q
    return [best[g] for g in sorted(best)]


# ---------------------------------------------------------------------------
# execution: the call the program sees, then its answer as plain data
# ---------------------------------------------------------------------------


def _molecules_json(dec):
    if dec is None:
        return None
    return sorted([mol.d, mol.l, mol.m] for mol in dec.molecules)


def _level_json(res):
    return {"kind": res.kind, "lo": res.lo, "hi": res.hi, "value": res.value,
            "molecules": _molecules_json(res.decomposition)}


def _dims_json(dims):
    return sorted([int(n), int(v)] for n, v in dims.items() if v)


def _sum_of_shifts(d, shifts, fname):
    A = algebra.DGAlgebraPresentation.sphere_cohomology(d, field_of(fname))
    return A, module.DGModulePresentation.trivial(A, shifts=shifts)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return {"code": code, "stdout": buf.getvalue()}


def execute(q: Query):
    """Run one query through the public API; returns its answer as JSON data."""
    p = q.params
    if q.kind == "bundle":
        gens, f4, fname, odd = p
        lvl, dec, dims = spheres.bundle_level(list(gens), f4, field_of(fname),
                                              formalizable_declared=odd)
        return {"level": lvl, "molecules": _molecules_json(dec), "tor": _dims_json(dims)}
    if q.kind == "tower":
        l, d = p
        return _level_json(rational.tower_level_bounds(rational.build_P_tower(l, d)))
    if q.kind == "sphere_sum":
        d, parts, fname = p
        models = [module.shift(spheres.molecule_model(spheres.MoleculeId(d, l, m),
                                                      field_of(fname), verify=False), k)
                  for l, m, k in parts]
        return _level_json(spheres.sphere_level(module.direct_sum(models), d))
    if q.kind == "molecule":
        d, l, m, fname = p
        M = spheres.molecule_model(spheres.MoleculeId(d, l, m), field_of(fname), verify=True)
        return {"module": M.to_json()}
    if q.kind == "idempotents":
        d, parts, fname = p
        models = [spheres.molecule_model(spheres.MoleculeId(d, l, m), field_of(fname),
                                         verify=False) for l, m in parts]
        found = module.find_idempotents(module.direct_sum(models))
        return {"idempotents": [[str(x) for x in e] for e in found]}
    if q.kind in ("koszul", "bar"):
        d, shifts, fname, hi = p
        A, M = _sum_of_shifts(d, shifts, fname)
        tor = resolve.derived_tensor(M, resolve.residue_module(A), strategy=q.kind,
                                     window=graded.DegreeWindow(0, hi))
        return {"dims": _dims_json(tor.dims), "certified": tor.certified_hi}
    if q.kind == "phi":
        d, shifts, fname, hi = p
        _, M = _sum_of_shifts(d, shifts, fname)
        return {"verdict": resolve.phi(M, window=graded.DegreeWindow(0, hi)).to_json()}
    if q.kind == "bar_poly":
        fname, hi = p
        P = algebra.DGAlgebraPresentation.polynomial(field_of(fname), [("a", 2), ("b", 4)])
        K = resolve.residue_module(P)
        tor = resolve.derived_tensor(K, K, strategy="bar", window=graded.DegreeWindow(0, hi))
        return {"dims": _dims_json(tor.dims), "certified": tor.certified_hi}
    if q.kind == "compact":
        d, h, fname, hi = p
        compact, res = emss.compactness_from_hopf(d, h, field_of(fname),
                                                  window=graded.DegreeWindow(0, hi))
        return {"compact": compact, "total": _dims_json(res.total_dims)}
    if q.kind == "emss":
        d, e, h, fname = p
        spec = emss.FibreSquareSpec.make(d, {0: 1, 2 * d - 1: 1}, h, field_of(fname),
                                         extra_dims={0: 1, e: 1})
        window = graded.DegreeWindow(0, 8 * d + 30)
        res = emss.run_to_stable(emss.install_d2(emss.e2_page(spec, window)), window)
        return {"total": _dims_json(res.total_dims), "verdict": res.verdict.kind}
    if q.kind == "cli":
        return _run_cli(p)
    raise ValueError(f"unknown query kind {q.kind!r}")
