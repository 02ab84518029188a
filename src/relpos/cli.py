"""Command-line front end: system file I/O, catalog access, batch analyses.

Exit codes: 0 success, 2 parse/usage errors, 3 uncertified results (with the
report still printed), 4 internal invariant violations."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .angles import classify_two_system
from .catalog import CatalogKey, build
from .coxeter import check_duality, phi_minus, phi_perp, phi_plus, phi_zero
from .decompose import are_isomorphic, decompose, verify_decomposition
from .errors import (
    InvariantViolation,
    ParseError,
    RelposError,
    UncertifiedError,
)
from .gaussian import GQ, format_gq, parse_gq
from .matrix import DEFAULT_TOL
from .sysfile import SystemFile, parse as parse_sysfile, render, system_from_text
from .system import defect, intersection_diagram
from .toeplitz import (
    LaurentSymbol,
    exotic_report,
    fredholm_index,
    region_classify,
    single_operator_defect_report,
)
from . import verify as verify_mod

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNCERTIFIED = 3
EXIT_INVARIANT = 4


def _default_tol() -> float:
    env = os.environ.get("RELPOS_TOL")
    if env:
        try:
            return _threshold(env)
        except argparse.ArgumentTypeError:
            raise ParseError(f"bad RELPOS_TOL value {env!r}") from None
    return DEFAULT_TOL


def _threshold(text: str) -> float:
    """argparse type of --tol and --threshold: a finite float above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and above 0: {text!r}")
    return value


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from exc


def _load_system(path: str, tol: float):
    return system_from_text(_read_text(path), tol)


def _render_report(report: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(report, sort_keys=True, default=str)
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in value:
                walk(f"{prefix}{k}." if prefix else f"{k}.", value[k])
        elif isinstance(value, (list, tuple)):
            lines.append(f"{prefix[:-1]}: {' '.join(str(v) for v in value)}")
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    walk("", report)
    return "\n".join(lines)


def _emit(report: dict, args) -> None:
    print(_render_report(report, args.json))


def cmd_catalog(args) -> int:
    key = CatalogKey.parse(args.key)
    s = build(key)
    text = render(SystemFile.from_system(s, metadata={"catalog-key": key.text()}))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_defect(args) -> int:
    s = _load_system(args.file, args.tol)
    rep = defect(s)
    report = {
        "command": "defect",
        "ambient_dim": rep.ambient_dim,
        "dims": list(rep.dims),
        "defect": str(rep.defect),
        "m": {f"{i},{j}": v for (i, j), v in rep.m.items()},
        "n_perp": {f"{i},{j}": v for (i, j), v in rep.nperp.items()},
        "consistency": rep.consistency,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_decompose(args) -> int:
    s = _load_system(args.file, args.tol)
    tree = decompose(s, seed=args.seed)
    ok = verify_decomposition(s, tree)
    if not ok:
        raise InvariantViolation("decomposition witness failed verification")
    report = {
        "command": "decompose",
        "seed": args.seed,
        "component_count": len(tree.components),
        "components": [
            {"ambient_dim": c.ambient_dim, "dims": list(c.dims()), "status": st}
            for c, st in zip(tree.components, tree.leaf_status)
        ],
        "witness_verified": ok,
        "certified": tree.certified(),
    }
    _emit(report, args)
    return EXIT_OK if tree.certified() else EXIT_UNCERTIFIED


def cmd_isom(args) -> int:
    s = _load_system(args.file_a, args.tol)
    t = _load_system(args.file_b, args.tol)
    res = are_isomorphic(s, t, seed=args.seed)
    report = {
        "command": "isom",
        "seed": args.seed,
        "status": res.status,
        "reason": res.reason,
    }
    if res.witness is not None:
        report["witness_rows"] = [
            " ".join(format_gq(res.witness.entry(i, j)) for j in range(res.witness.cols))
            for i in range(res.witness.rows)
        ]
    _emit(report, args)
    return EXIT_OK if res.status != "undecided" else EXIT_UNCERTIFIED


def cmd_coxeter(args) -> int:
    s = _load_system(args.file, args.tol)
    if args.functor == "duality":
        rep = check_duality(s, seed=args.seed)
        report = {
            "command": "coxeter duality",
            "seed": args.seed,
            "clauses": rep.clauses,
            "reduced_above": rep.predicates.reduced_above,
            "reduced_below": rep.predicates.reduced_below,
            "ok": rep.ok(),
        }
        _emit(report, args)
        return EXIT_OK if rep.ok() else EXIT_INVARIANT
    if args.functor == "perp":
        out = phi_perp(s)
    elif args.functor == "plus":
        out = phi_plus(s).system
    elif args.functor == "minus":
        out = phi_minus(s).system
    else:
        out = phi_zero(s).system
    meta = {"coxeter": args.functor}
    sys.stdout.write(render(SystemFile.from_system(out, metadata=meta)))
    return EXIT_OK


def cmd_diagram(args) -> int:
    s = _load_system(args.file, args.tol)
    dia = intersection_diagram(s, tol=args.threshold)
    report = {
        "command": "diagram",
        "n": dia.n,
        "edges": sorted(",".join(str(v) for v in sorted(e)) for e in dia.edges),
        "connected": dia.connected,
    }
    if dia.threshold is not None:
        report["threshold"] = dia.threshold
    _emit(report, args)
    return EXIT_OK


def cmd_angles(args) -> int:
    s = _load_system(args.file, args.tol)
    cls = classify_two_system(s)
    report = {
        "command": "angles",
        "tolerance": args.tol,
        "multiplicities": cls.multiplicities,
        "angles": [float(a) for a in cls.angles],
        "reconstruction_residual": cls.decomposition.residual,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_toeplitz(args) -> int:
    if args.mode == "index":
        sym = LaurentSymbol.parse(args.symbol)
        rep = fredholm_index(sym)
        report = {
            "command": "toeplitz index",
            "fredholm": rep.fredholm,
            "winding": rep.winding,
            "index": rep.index,
            "ker": rep.ker_dim,
            "coker": rep.coker_dim,
            "certification": rep.certification,
        }
        _emit(report, args)
        if rep.certification.get("kernel_certification") == "uncertified":
            return EXIT_UNCERTIFIED
        return EXIT_OK
    if args.mode == "defect":
        sym = LaurentSymbol.parse(args.symbol)
        parts = single_operator_defect_report(sym)
        report = {
            "command": "toeplitz defect",
            "defect": str(parts.defect),
            "contributions": parts.contributions,
            "certifications": parts.certifications,
        }
        _emit(report, args)
        return EXIT_OK
    if args.mode == "regions":
        alpha = parse_gq(args.alpha)
        value = region_classify(alpha)
        report = {
            "command": "toeplitz regions",
            "alpha": format_gq(alpha),
            "defect": str(value),
        }
        _emit(report, args)
        return EXIT_OK
    # exotic
    gamma = parse_gq(args.gamma)
    rep = exotic_report(gamma, args.size, args.threshold)
    report = {
        "command": "toeplitz exotic",
        "gamma": format_gq(gamma),
        "N": args.size,
        "tolerance": args.threshold,
        "pair_intersections": {f"{i},{j}": v for (i, j), v in rep.pair_intersections.items()},
        "pair_angles": {f"{i},{j}": v for (i, j), v in rep.pair_angles.items()},
        "not_operator_system": rep.not_operator_system,
        "defect_estimate": str(rep.defect_estimate),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.sweep == "all":
        return _verify_all(args)
    (crit,) = [c for c in verify_mod.CRITERIA if c.name == args.sweep]
    rep = crit.sweep()
    report = {
        "command": f"verify {args.sweep}",
        "name": rep.name,
        "passed": rep.passed,
        "checked": rep.checked,
        "failures": rep.failures,
        "details": rep.details,
    }
    _emit(report, args)
    return EXIT_OK if rep.passed else EXIT_INVARIANT


def _verify_all(args) -> int:
    """Every CRITERIA entry in order, one line (or one JSON record) each."""
    results = []
    for crit in verify_mod.CRITERIA:
        rep = crit.sweep()
        results.append({
            "number": crit.number,
            "name": crit.name,
            "passed": rep.passed,
            "checked": rep.checked,
            "failures": rep.failures,
        })
    passed = all(r["passed"] for r in results)
    if args.json:
        _emit({"command": "verify all", "passed": passed, "criteria": results}, args)
    else:
        for r in results:
            status = "PASS" if r["passed"] else "FAIL"
            print(f"{r['number']} {r['name']}: {status} [checked {r['checked']}]")
    return EXIT_OK if passed else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="relpos",
        description="relative position of n subspaces: exact analyses and labs",
    )
    p.add_argument("--version", action="version", version=f"relpos {__version__}")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--tol", type=_threshold, default=None,
        help="float-backend tolerance (default 1e-9 or RELPOS_TOL)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("catalog", help="build catalog systems")
    pcsub = pc.add_subparsers(dest="catalog_command", required=True)
    pcb = pcsub.add_parser("build", help="emit a catalog system file")
    pcb.add_argument("key", help="catalog key, e.g. gp4:S(2k+1,2).k=1 or gp3:9")
    pcb.add_argument("-o", "--output", default=None)
    pcb.set_defaults(func=cmd_catalog)

    pd = sub.add_parser("defect", help="defect of a four-subspace system")
    pd.add_argument("file", help="system file path or - for stdin")
    pd.set_defaults(func=cmd_defect)

    pdec = sub.add_parser("decompose", help="decompose into indecomposables")
    pdec.add_argument("file")
    pdec.add_argument("--seed", type=int, default=0)
    pdec.set_defaults(func=cmd_decompose)

    piso = sub.add_parser("isom", help="decide isomorphism of two systems")
    piso.add_argument("file_a")
    piso.add_argument("file_b")
    piso.add_argument("--seed", type=int, default=0)
    piso.set_defaults(func=cmd_isom)

    pcox = sub.add_parser("coxeter", help="apply a Coxeter functor")
    pcox.add_argument("functor", choices=["plus", "minus", "perp", "zero", "duality"])
    pcox.add_argument("file")
    pcox.add_argument("--seed", type=int, default=0)
    pcox.set_defaults(func=cmd_coxeter)

    pdia = sub.add_parser("diagram", help="intersection diagram")
    pdia.add_argument("file")
    pdia.add_argument("--threshold", type=_threshold, default=None,
                      help="near-intersection threshold (float surrogate)")
    pdia.set_defaults(func=cmd_diagram)

    pang = sub.add_parser("angles", help="two-subspace classification")
    pang.add_argument("file")
    pang.set_defaults(func=cmd_angles)

    pt = sub.add_parser("toeplitz", help="symbol-level Fredholm analyses")
    ptsub = pt.add_subparsers(dest="mode", required=True)
    pti = ptsub.add_parser("index", help="winding index of a symbol")
    pti.add_argument("--symbol", required=True)
    pti.set_defaults(func=cmd_toeplitz)
    ptd = ptsub.add_parser("defect", help="defect of the symbol's system")
    ptd.add_argument("--symbol", required=True)
    ptd.set_defaults(func=cmd_toeplitz)
    ptr = ptsub.add_parser("regions", help="shift-plus-constant region value")
    ptr.add_argument("--alpha", required=True)
    ptr.set_defaults(func=cmd_toeplitz)
    pte = ptsub.add_parser("exotic", help="truncation lab report")
    pte.add_argument("--gamma", required=True)
    pte.add_argument("--N", dest="size", type=int, default=32)
    pte.add_argument("--threshold", type=_threshold, default=1e-6)
    pte.set_defaults(func=cmd_toeplitz)

    pv = sub.add_parser("verify", help="acceptance sweeps")
    pv.add_argument(
        "sweep", choices=sorted(c.name for c in verify_mod.CRITERIA) + ["all"],
        help="a criterion name, or all to run every criterion in order",
    )
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.tol is None:
            args.tol = _default_tol()
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; devnull takes the flush at interpreter exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARSE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UncertifiedError as exc:
        print(f"uncertified: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except RelposError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
