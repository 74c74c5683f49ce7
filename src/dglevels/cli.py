"""Command-line surface: JSON reports, DOT quivers, golden-file friendly.

Every invocation is deterministic: reports are sorted-key JSON with no
timestamps or randomness, and nothing is read from the environment, so
identical invocations are byte-identical.
Exit codes: 0 success, 1 domain error (with a machine-readable error
payload), 2 usage error (argparse).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .algebra import DGAlgebraPresentation
from .emss import FibreSquareSpec, e2_page, install_d2, run_to_stable
from .errors import DomainError, PresentationError
from .field import parse_field
from .graded import DEFAULT_WINDOW, DegreeWindow, dims_from_text, dims_to_json
from .module import DGModulePresentation, find_idempotents
from .rational import (
    build_P_tower,
    hopf_invariant,
    pile_upper_bound,
    tower_level_bounds,
)
from .resolve import derived_tensor, filtration_class, phi, residue_module
from .spheres import (
    MoleculeId,
    bundle_level,
    component_index,
    decompose,
    molecule_cohomology,
    molecule_level,
    quiver_component,
    realizable,
    sphere_level,
)


def _usage_type(parse):
    """An argparse ``type=`` from a text parser: malformed text exits 2."""
    def convert(text):
        try:
            return parse(text)
        except PresentationError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return convert


def _parse_gens(text):
    try:
        return [int(g) for g in text.split(",") if g.strip()]
    except ValueError:
        raise PresentationError(
            f"generator degrees {text!r} are not comma-separated integers") from None


_window_arg = _usage_type(DegreeWindow.parse)
_dims_arg = _usage_type(dims_from_text)
_gens_arg = _usage_type(_parse_gens)


def _report(command, inputs, result, kind, args):
    out = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "kind": kind,
        "timing_ms": None,
    }
    if getattr(args, "timing", False):
        out["timing_ms"] = round((time.perf_counter() - args._t0) * 1000.0, 3)
    return out


def _sphere_dimension(name):
    """n for a name ``s<n>`` (any case, surrounding blanks), else None."""
    name = name.strip().lower()
    return int(name[1:]) if name.startswith("s") and name[1:].isdigit() else None


def _module_from_name(name, algebra):
    name = name.strip().lower()
    if name == "k":
        return residue_module(algebra)
    n = _sphere_dimension(name)
    if n is None:
        raise DomainError(f"unknown module spec {name!r} (expected k or s<n>)")
    return DGModulePresentation.trivial(algebra, shifts=(0, n), labels=["1", f"x{n}"])


# -- handlers -------------------------------------------------------------------


def cmd_molecule(args):
    field = parse_field(args.field)
    mol = MoleculeId(args.d, args.l, args.m)
    result = {
        "molecule": mol.to_json(),
        "cohomology": dims_to_json(molecule_cohomology(mol)),
        "level": molecule_level(mol),
        "componentIndex": component_index(mol),
        "realizable": realizable(mol, field).to_json(),
    }
    return _report("molecule", {"d": args.d, "l": args.l, "m": args.m,
                                "field": str(field)}, result, "molecule-catalog", args)


def cmd_quiver(args):
    field = parse_field(args.field)
    qc = quiver_component(args.d, args.component, args.rows, args.cols)
    if args.format == "dot":
        print(qc.to_dot(field))
        return None
    result = {
        "d": qc.d,
        "component": qc.component,
        "componentCount": args.d - 1,
        "vertices": [[v.to_json() for v in row] for row in qc.vertices],
        "arrows": [[str(a), str(b)] for a, b in qc.arrows],
    }
    return _report("quiver", {"d": args.d, "component": args.component,
                              "rows": args.rows, "cols": args.cols},
                   result, "auslander-reiten-quiver", args)


def cmd_decompose(args):
    parse_field(args.field)     # an unknown field is refused; the text is echoed
    dims = args.dims
    dec = decompose(dims, args.d)
    result = dec.to_json()
    result["level"] = dec.level_result().to_json()
    return _report("decompose", {"d": args.d, "dims": dims_to_json(dims),
                                 "field": args.field},
                   result, "molecule-decomposition", args)


def _read_file(path, what, read):
    """``read`` of the JSON payload in a file; a file that cannot be read
    that way is a domain error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return read(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as e:
        raise PresentationError(f"cannot read {what} from {path!r}: {e}") from None


def _module_file(path):
    """A module from a file holding its ``to_json`` payload."""
    return _read_file(path, "a module", DGModulePresentation.from_json)


def cmd_level(args):
    if args.module:
        data, inputs = _module_file(args.module), {"d": args.d, "module": args.module}
    else:
        data, inputs = args.dims, {"d": args.d, "dims": dims_to_json(args.dims)}
    res = sphere_level(data, args.d)
    result = res.to_json()
    if res.decomposition is not None:
        result["decomposition"] = res.decomposition.to_json()
    return _report("level", inputs, result, "sphere-level", args)


def cmd_split(args):
    module = _module_file(args.module)
    pair = find_idempotents(module)
    result = {"indecomposable": not pair,
              "idempotents": [[module.field.scalar_to_json(x) for x in e] for e in pair]}
    return _report("split", {"module": args.module}, result, "endomorphism-split", args)


def cmd_tor(args):
    field = parse_field(args.field)
    window = args.window or DEFAULT_WINDOW
    A = DGAlgebraPresentation.sphere_cohomology(args.d, field)
    M = _module_from_name(args.module, A)
    N = _module_from_name(getattr(args, "arg") or "k", A)
    tor = derived_tensor(M, N, strategy=args.strategy, window=window)
    result = {
        "tor": dims_to_json(tor.dims),
        "certifiedThrough": tor.certified_hi,
        "verdict": tor.verdict().to_json(),
        "strategy": tor.strategy,
    }
    return _report("tor", {"d": args.d, "module": args.module,
                           "arg": args.arg, "field": str(field),
                           "window": f"{window.lo}:{window.hi}"},
                   result, "derived-tensor", args)


def cmd_phi(args):
    field = parse_field(args.field)
    A = DGAlgebraPresentation.sphere_cohomology(args.d, field)
    M = _module_from_name(args.module, A)
    verdict = phi(M, window=args.window or DEFAULT_WINDOW)
    result = {"phi": verdict.to_json(), "compact": verdict.compact}
    return _report("phi", {"d": args.d, "module": args.module, "field": str(field)},
                   result, "compactness", args)


def cmd_emss(args):
    field = parse_field(args.field)
    top = {0: 1}
    if args.top != "point":
        n = _sphere_dimension(args.top)
        if n is None:
            raise DomainError(f"unknown top space {args.top!r}")
        top[n] = top.get(n, 0) + 1      # S^0 has two classes in degree 0
    extra = None
    if args.extra:
        n = _sphere_dimension(args.extra)
        if n is None:
            raise DomainError(f"unknown extra factor {args.extra!r}")
        extra = {0: 1}
        extra[n] = extra.get(n, 0) + 1
    window = args.window
    if window and window.lo > 0:    # every class named here lies in degree >= 0
        raise PresentationError(f"the spectral sequence is read from degree 0; "
                                f"window {window.lo}:{window.hi} starts above it")
    spec = FibreSquareSpec.make(args.d, top, args.hopf, field, extra_dims=extra)
    page = install_d2(e2_page(spec, window))
    res = run_to_stable(page)
    if args.format == "table":
        print(f"E2 page, base S^{args.d}, hopf {args.hopf} over {field}")
        for (s, t), labels in sorted(page.entries().items()):
            print(f"  ({s},{t}): " + ", ".join(labels))
        print("E∞ (associated graded):")
        for n, v in sorted(res.total_dims.items()):
            print(f"  degree {n}: {v}")
        print(f"verdict: {res.verdict.kind}")
        return None
    result = res.to_json()
    return _report("emss", {"d": args.d, "top": args.top, "hopf": args.hopf,
                            "field": str(field), "extra": args.extra},
                   result, "eilenberg-moore", args)


def cmd_hopf(args):
    def model(data):
        target = DGAlgebraPresentation.from_json(data["target"])
        gen = target.poly_from_json(data["generator"]) if args.generator == "file" else "auto"
        if type(d := data.get("d", 4)) is not int:
            raise PresentationError(f"sphere dimension {d!r} is no integer")
        return (target, d,
                target.poly_from_json(data.get("gx", [])),
                target.poly_from_json(data.get("gxi", [])), gen)

    target, d, gx, gxi, gen = _read_file(args.model, "a Hopf model", model)
    value = hopf_invariant(target, gx, gxi, d=d, generator_choice=gen)
    result = {"hopf": target.field.scalar_to_json(value),
              "zeroInField": target.field.is_zero(value)}
    return _report("hopf", {"model": os.path.basename(args.model), "d": d},
                   result, "hopf-invariant", args)


def cmd_p_tower(args):
    tower = build_P_tower(args.l, args.d, args.m)
    result = {
        "d": tower.d,
        "targetLevel": tower.target_level,
        "m": tower.m,
        "extension": [[lbl, deg] for lbl, deg in tower.extension],
        "fibreFinite": True,    # TowerSpec admits only odd generators
    }
    if args.report == "level":
        result["level"] = tower_level_bounds(tower).to_json()
    return _report("p-tower", {"l": args.l, "d": args.d, "m": args.m},
                   result, "tower-level", args)


def cmd_pile(args):
    bound, filt = pile_upper_bound(args.stages, args.odd_spheres)
    result = {
        "levelUpperBound": bound,
        "filtrationClass": filtration_class(filt),
        "stages": [sorted(stage) for stage in filt.stages],
    }
    return _report("pile", {"stages": args.stages, "oddSpheres": args.odd_spheres},
                   result, "pile-bound", args)


def cmd_bundle_level(args):
    field = parse_field(args.field)
    lvl, dec, dims = bundle_level(args.gens, args.f4 == "nonzero", field,
                                  formalizable_declared=args.declare_formalizable)
    result = {
        "level": lvl,
        "tor": dims_to_json(dims),
        "decomposition": dec.to_json(),
    }
    return _report("bundle-level", {"gens": args.gens, "f4": args.f4,
                                    "field": str(field)},
                   result, "bundle-level", args)


# -- parser ------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="dglevels",
        description="Exact levels of DG modules over sphere cochain algebras",
    )
    p.add_argument("--timing", action="store_true",
                   help="include wall time in reports (breaks byte-identity)")
    sub = p.add_subparsers(dest="subcommand", required=True)

    q = sub.add_parser("quiver", help="a translation-quiver component")
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--component", type=int, default=0)
    q.add_argument("--rows", type=int, default=3)
    q.add_argument("--cols", type=int, default=4)
    q.add_argument("--field", default="q")
    q.add_argument("--format", choices=["json", "dot"], default="json")
    q.set_defaults(func=cmd_quiver)

    m = sub.add_parser("molecule", help="catalog data for one molecule")
    m.add_argument("--d", type=int, required=True)
    m.add_argument("--l", type=int, required=True)
    m.add_argument("--m", type=int, required=True)
    m.add_argument("--field", default="q")
    m.set_defaults(func=cmd_molecule)

    dc = sub.add_parser("decompose", help="decompose cohomology dims into molecules")
    dc.add_argument("--d", type=int, required=True)
    dc.add_argument("--dims", type=_dims_arg, required=True, help="e.g. 0:1,5:1,7:2")
    dc.add_argument("--field", default="q")
    dc.set_defaults(func=cmd_decompose)

    lv = sub.add_parser("level", help="sphere level of a dimension table or a module")
    lv.add_argument("--d", type=int, required=True)
    given = lv.add_mutually_exclusive_group(required=True)
    given.add_argument("--dims", type=_dims_arg)
    given.add_argument("--module", help="JSON file of a module presentation")
    lv.set_defaults(func=cmd_level)

    sp = sub.add_parser("split", help="split or certify indecomposable a free module")
    sp.add_argument("--module", required=True, help="JSON file of a module presentation")
    sp.set_defaults(func=cmd_split)

    t = sub.add_parser("tor", help="derived tensor over a sphere algebra")
    t.add_argument("--d", type=int, required=True)
    t.add_argument("--module", default="k", help="k or s<n>")
    t.add_argument("--arg", default="k", help="right factor: k or s<n>")
    t.add_argument("--strategy", choices=["bar", "koszul"], default="koszul")
    t.add_argument("--field", default="q")
    t.add_argument("--window", type=_window_arg)
    t.set_defaults(func=cmd_tor)

    ph = sub.add_parser("phi", help="compactness verdict of a module")
    ph.add_argument("--d", type=int, required=True)
    ph.add_argument("--module", default="k")
    ph.add_argument("--field", default="q")
    ph.add_argument("--window", type=_window_arg)
    ph.set_defaults(func=cmd_phi)

    em = sub.add_parser("emss", help="Eilenberg-Moore spectral sequence run")
    em.add_argument("--d", type=int, required=True)
    em.add_argument("--top", default="point", help="point or s<n>")
    em.add_argument("--hopf", type=int, default=0)
    em.add_argument("--extra", help="extra tensor factor s<n>")
    em.add_argument("--field", default="q")
    em.add_argument("--window", type=_window_arg)
    em.add_argument("--format", choices=["json", "table"], default="json")
    em.set_defaults(func=cmd_emss)

    hp = sub.add_parser("hopf", help="Hopf invariant of a model map (JSON file)")
    hp.add_argument("--model", required=True)
    hp.add_argument("--generator", default="auto", choices=["auto", "file"])
    hp.set_defaults(func=cmd_hopf)

    pt = sub.add_parser("p-tower", help="odd-sphere extension tower and its level")
    pt.add_argument("--l", type=int, required=True)
    pt.add_argument("--d", type=int, required=True)
    pt.add_argument("--m", type=int)
    pt.add_argument("--report", choices=["level", "shape"], default="level")
    pt.set_defaults(func=cmd_p_tower)

    pl = sub.add_parser("pile", help="pile filtration level bound")
    pl.add_argument("--stages", type=int, required=True)
    pl.add_argument("--odd-spheres", type=int, default=0, dest="odd_spheres")
    pl.set_defaults(func=cmd_pile)

    bl = sub.add_parser("bundle-level", help="level of a bundle over S^4")
    bl.add_argument("--gens", type=_gens_arg, required=True,
                    help="comma-separated generator degrees")
    bl.add_argument("--f4", choices=["nonzero", "zero"], default="nonzero")
    bl.add_argument("--field", default="q")
    bl.add_argument("--declare-formalizable", action="store_true",
                    dest="declare_formalizable")
    bl.set_defaults(func=cmd_bundle_level)

    return p


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:      # argparse trees are reusable; build one per process
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        report = args.func(args)
    except DomainError as e:
        payload = {"error": {"code": getattr(e, "code", "domain-error"),
                             "message": str(e)}}
        print(json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False))
        return 1
    if report is not None:
        print(json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
