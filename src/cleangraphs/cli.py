"""Command-line front end.

Subcommands: ring (structure listing), build (graph construction to the
edge-list format), export (format conversion from stdin), degrees
(degree table with formula comparison), verify (theorem checks).

Exit codes: 0 success or all checks passed, 1 at least one check
failed, 2 usage error or out-of-scope instance, 3 checks ran but some
were inconclusive and none failed.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import verify as verify_mod
from ._kernels import backend
from .cleangraph import cl1, cl2, cl2_pairs, clean_graph, idempotent_graph, legacy_degree, predicted_degree
from .graph import EXPORT_FORMATS, export, parse_edgelist
from .modring import factorize
from .shuriken import build_sh, build_shu

# CLI theorem name -> per-modulus statement
_NUMERIC = {t.cli_name: t for t in verify_mod.NUMERIC_THEOREMS.values() if t.cli_name}

# graph-argument theorem -> the arguments it reads
_GRAPH_THEOREM_READS = {
    "shu-connectivity": {"t", "shn", "input"},
    "shu-inheritance": {"t", "shn", "input", "input2"},
    "bridge": {"t", "shn"},
}

THEOREMS = (*_NUMERIC, *_GRAPH_THEOREM_READS, "all")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cleangraphs",
        description="Clean, idempotent and shuriken graphs over Z_n, "
        "with mechanical checks of their structure theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ring = sub.add_parser("ring", help="list idempotents, units and the unit pairing")
    p_ring.add_argument("n", type=int)

    p_build = sub.add_parser("build", help="construct a graph, emit edge-list format")
    p_build.add_argument(
        "family", choices=["idempotent", "clean", "cl1", "cl2", "sh", "shu"]
    )
    p_build.add_argument("n", type=int, nargs="?", help="modulus for ring families")
    p_build.add_argument("--t", type=int, help="shuriken parameter t")
    p_build.add_argument("--n", dest="shn", type=int, help="shuriken parameter n")
    p_build.add_argument("--input", help="edge-list file (shu input graph)")

    p_export = sub.add_parser(
        "export", help="convert an edge-list graph from stdin to another format"
    )
    p_export.add_argument("--format", required=True, choices=list(EXPORT_FORMATS))
    p_export.add_argument("--out", help="output file (default stdout)")

    p_deg = sub.add_parser(
        "degrees", help="per-vertex degree table for cl2(Z_n) with both formulas"
    )
    p_deg.add_argument("n", type=int)

    p_verify = sub.add_parser("verify", help="run theorem checks")
    p_verify.add_argument("theorem", choices=list(THEOREMS))
    p_verify.add_argument("n", type=int, nargs="?", help="single modulus")
    p_verify.add_argument("--range", dest="range_", metavar="A..B", help="modulus range")
    p_verify.add_argument("--json", action="store_true", help="machine-readable reports")
    p_verify.add_argument(
        "--stable", action="store_true", help="omit elapsed times from reports"
    )
    p_verify.add_argument("--t", type=int, help="shuriken parameter t")
    p_verify.add_argument("--n", dest="shn", type=int, help="shuriken parameter n")
    p_verify.add_argument("--input", help="edge-list file (graph argument)")
    p_verify.add_argument("--input2", help="second edge-list file (inheritance)")

    p_back = sub.add_parser("backend", help="print the name of the arithmetic kernels")
    p_back.set_defaults(command="backend")

    return parser


def _read_graph_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edgelist(fh.read())


# argparse dest -> how an error message names the argument
_ARGUMENT_NAMES = {
    "n": "a modulus",
    "range_": "--range",
    "t": "--t",
    "shn": "--n",
    "input": "--input",
    "input2": "--input2",
}


def _reject_unread(args, parser: argparse.ArgumentParser, command: str, reads: set[str]) -> None:
    """Usage error for any argument given to ``command`` that it does not read."""
    for dest, name in _ARGUMENT_NAMES.items():
        if dest not in reads and getattr(args, dest, None) is not None:
            parser.error(f"{command} does not take {name}")


def _cmd_ring(args) -> int:
    ring = factorize(args.n)
    part = ring.unit_partition()
    ids = ring.idempotents()
    units = ring.units()
    print(ring)
    print(f"idempotents ({len(ids)}): {' '.join(map(str, ids))}")
    print(f"units ({len(units)}): {' '.join(map(str, units))}")
    print(
        f"self-inverse units ({part.t}): {' '.join(map(str, part.self_inverse))}"
    )
    couples = " ".join(f"{a}*{b}" for a, b in part.pairs())
    print(f"inverse couples ({len(part.pairs())}): {couples if couples else '-'}")
    print(f"unit layout: {' '.join(map(str, part.ordered_units()))}")
    return 0


def _cmd_build(args, parser: argparse.ArgumentParser) -> int:
    fam = args.family
    if fam in ("idempotent", "clean", "cl1", "cl2"):
        _reject_unread(args, parser, f"build {fam}", {"n"})
        if args.n is None:
            parser.error(f"build {fam} requires a modulus argument")
        builder = {
            "idempotent": idempotent_graph,
            "clean": clean_graph,
            "cl1": cl1,
            "cl2": cl2,
        }[fam]
        g = builder(args.n)
    elif fam == "sh":
        _reject_unread(args, parser, "build sh", {"t", "shn"})
        if args.t is None or args.shn is None:
            parser.error("build sh requires --t and --n")
        g = build_sh(args.t, args.shn)
    else:
        _reject_unread(args, parser, "build shu", {"t", "shn", "input"})
        if args.t is None or args.shn is None or args.input is None:
            parser.error("build shu requires --t, --n and --input")
        g = build_shu(_read_graph_file(args.input), args.t, args.shn)
    sys.stdout.write(export(g, "edgelist"))
    return 0


def _cmd_export(args) -> int:
    g = parse_edgelist(sys.stdin.read())
    text = export(g, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_degrees(args) -> int:
    ring = factorize(args.n)
    g = cl2(ring)
    print(f"cl2(Z_{args.n}): vertex (e,u), actual degree, both formulas")
    for (e, u), row in zip(cl2_pairs(ring), g.adj):
        actual = len(row)
        corrected = predicted_degree(ring, e, u)
        legacy = legacy_degree(ring, e, u)
        flag = " MISMATCH" if legacy != actual else ""
        if corrected != actual:
            flag += " CORRECTED-MISMATCH"
        print(f"({e},{u}): actual={actual} corrected={corrected} legacy={legacy}{flag}")
    return 0


def _parse_range(spec: str, parser: argparse.ArgumentParser) -> range:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", spec)
    if not m:
        parser.error(f"--range expects A..B, got {spec!r}")
    a, b = int(m.group(1)), int(m.group(2))
    if a < 2 or b < a:
        parser.error(f"--range needs 2 <= A <= B, got {spec!r}")
    return range(a, b + 1)


def _exit_code(reports) -> int:
    if not reports:
        return 2
    statuses = {r.status for r in reports}
    if "fail" in statuses:
        return 1
    if "inconclusive" in statuses:
        return 3
    if "rejected" in statuses:
        return 2
    return 0


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    theorem = args.theorem
    if theorem in _GRAPH_THEOREM_READS:
        _reject_unread(args, parser, f"verify {theorem}", _GRAPH_THEOREM_READS[theorem])
        if args.t is None or args.shn is None:
            parser.error(f"verify {theorem} requires --t and --n")
        if theorem == "bridge":
            reports = [verify_mod.verify_sh_shu_bridge(args.t, args.shn)]
        elif theorem == "shu-connectivity":
            if args.input is None:
                parser.error("verify shu-connectivity requires --input")
            g = _read_graph_file(args.input)
            reports = [verify_mod.verify_shu_connectivity(g, args.t, args.shn)]
        else:
            if args.input is None or args.input2 is None:
                parser.error("verify shu-inheritance requires --input and --input2")
            g1 = _read_graph_file(args.input)
            g2 = _read_graph_file(args.input2)
            reports = [verify_mod.verify_shu_inheritance(g1, g2, args.t, args.shn)]
    else:
        _reject_unread(args, parser, f"verify {theorem}", {"n", "range_"})
        if args.range_ is not None and args.n is not None:
            parser.error("give a single modulus or --range, not both")
        if args.range_ is not None:
            ids = None if theorem == "all" else [_NUMERIC[theorem].theorem_id]
            reports = verify_mod.sweep(_parse_range(args.range_, parser), ids)
        elif args.n is None:
            parser.error(f"verify {theorem} requires a modulus or --range")
        elif theorem == "all":
            reports = verify_mod.sweep([args.n])
        else:
            reports = [_NUMERIC[theorem].run(factorize(args.n))]

    if args.json:
        sys.stdout.write(verify_mod.reports_to_json(reports, stable=args.stable))
    else:
        for r in reports:
            print(verify_mod.format_report(r, stable=args.stable))
        if not reports:
            print("no applicable instances in range", file=sys.stderr)
    return _exit_code(reports)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "ring":
            return _cmd_ring(args)
        if args.command == "build":
            return _cmd_build(args, parser)
        if args.command == "export":
            return _cmd_export(args)
        if args.command == "degrees":
            return _cmd_degrees(args)
        if args.command == "backend":
            print(backend())
            return 0
        return _cmd_verify(args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
