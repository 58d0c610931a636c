"""Command-line front end.

Subcommands: ring (structure listing), build (graph construction to the
edge-list format), export (format conversion from stdin), degrees
(degree table with formula comparison), verify (theorem checks).

Exit codes: 0 success or all checks passed, 1 at least one check
failed, 2 usage error, out-of-scope instance or out of memory, 3 checks
ran but some were inconclusive and none failed.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import verify as verify_mod
from .cleangraph import cl1, cl2, cl2_pairs, clean_graph, idempotent_graph
from .graph import EXPORT_FORMATS, _export_pieces, parse_edgelist
from .modring import factorize
from .shuriken import build_sh, build_shu

# CLI theorem name -> per-modulus statement
_NUMERIC = {t.cli_name: t for t in verify_mod.NUMERIC_THEOREMS.values() if t.cli_name}


def _read_graph_file(path: str):
    """The graph in the edge-list file at ``path``, parsed from the open
    file a block at a time, so the file's text is never held whole."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edgelist(fh)


# build family -> (the arguments it needs, the graph built from them)
_FAMILIES = {
    "idempotent": ({"n"}, lambda a: idempotent_graph(a.n)),
    "clean": ({"n"}, lambda a: clean_graph(a.n)),
    "cl1": ({"n"}, lambda a: cl1(a.n)),
    "cl2": ({"n"}, lambda a: cl2(a.n)),
    "sh": ({"t", "shn"}, lambda a: build_sh(a.t, a.shn)),
    "shu": ({"t", "shn", "input"}, lambda a: build_shu(_read_graph_file(a.input), a.t, a.shn)),
}

# graph-argument theorem -> (the arguments it needs, its report)
_GRAPH_THEOREMS = {
    "shu-connectivity": (
        {"t", "shn", "input"},
        lambda a: verify_mod.verify_shu_connectivity(_read_graph_file(a.input), a.t, a.shn),
    ),
    "shu-inheritance": (
        {"t", "shn", "input", "input2"},
        lambda a: verify_mod.verify_shu_inheritance(
            _read_graph_file(a.input), _read_graph_file(a.input2), a.t, a.shn
        ),
    ),
    "bridge": ({"t", "shn"}, lambda a: verify_mod.verify_sh_shu_bridge(a.t, a.shn)),
}

THEOREMS = (*_NUMERIC, *_GRAPH_THEOREMS, "all")

# argparse dest -> how an error message names the argument
_ARGUMENT_NAMES = {
    "n": "a modulus",
    "range_": "--range",
    "t": "--t",
    "shn": "--n",
    "input": "--input",
    "input2": "--input2",
}


def _check_arguments(args, parser, command: str, takes: set[str], needs: set[str]) -> None:
    """Usage error for any argument given to ``command`` that it does not
    take, then for the ones it needs that are missing."""
    given = {dest for dest in _ARGUMENT_NAMES if getattr(args, dest, None) is not None}
    for dest, name in _ARGUMENT_NAMES.items():
        if dest in given - takes:
            parser.error(f"{command} does not take {name}")
    missing = [name for dest, name in _ARGUMENT_NAMES.items() if dest in needs - given]
    if missing:
        parser.error(f"{command} requires {', '.join(missing)}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cleangraphs",
        description="Clean, idempotent and shuriken graphs over Z_n, "
        "with mechanical checks of their structure theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ring = sub.add_parser("ring", help="list idempotents, units and the unit pairing")
    p_ring.add_argument("n", type=int)
    p_ring.set_defaults(run=_cmd_ring)

    p_build = sub.add_parser("build", help="construct a graph, emit edge-list format")
    p_build.add_argument("family", choices=list(_FAMILIES))
    p_build.add_argument("n", type=int, nargs="?", help="modulus for ring families")
    p_build.add_argument("--t", type=int, help="shuriken parameter t")
    p_build.add_argument("--n", dest="shn", type=int, help="shuriken parameter n")
    p_build.add_argument("--input", help="edge-list file (shu input graph)")
    p_build.set_defaults(run=_cmd_build)

    p_export = sub.add_parser(
        "export", help="convert an edge-list graph from stdin to another format"
    )
    p_export.add_argument("--format", required=True, choices=list(EXPORT_FORMATS))
    p_export.add_argument("--out", help="output file (default stdout)")
    p_export.set_defaults(run=_cmd_export)

    p_deg = sub.add_parser(
        "degrees", help="per-vertex degree table for cl2(Z_n) with both formulas"
    )
    p_deg.add_argument("n", type=int)
    p_deg.set_defaults(run=_cmd_degrees)

    p_verify = sub.add_parser("verify", help="run theorem checks")
    p_verify.add_argument("theorem", choices=list(THEOREMS))
    p_verify.add_argument("n", type=int, nargs="?", help="single modulus")
    p_verify.add_argument("--range", dest="range_", metavar="A..B", help="modulus range")
    p_verify.add_argument("--json", action="store_true", help="machine-readable reports")
    p_verify.add_argument("--stable", action="store_true", help="omit elapsed times from reports")
    p_verify.add_argument("--t", type=int, help="shuriken parameter t")
    p_verify.add_argument("--n", dest="shn", type=int, help="shuriken parameter n")
    p_verify.add_argument("--input", help="edge-list file (graph argument)")
    p_verify.add_argument("--input2", help="second edge-list file (inheritance)")
    p_verify.set_defaults(run=_cmd_verify)

    return parser


def _cmd_ring(args, parser: argparse.ArgumentParser) -> int:
    ring = factorize(args.n)
    part = ring.unit_partition()
    ids = ring.idempotents()
    units = ring.units()
    print(ring)
    print(f"idempotents ({len(ids)}): {' '.join(map(str, ids))}")
    print(f"units ({len(units)}): {' '.join(map(str, units))}")
    print(f"self-inverse units ({part.t}): {' '.join(map(str, part.self_inverse))}")
    couples = " ".join(f"{a}*{b}" for a, b in part.pairs())
    print(f"inverse couples ({len(part.pairs())}): {couples if couples else '-'}")
    print(f"unit layout: {' '.join(map(str, part.ordered_units()))}")
    return 0


def _cmd_build(args, parser: argparse.ArgumentParser) -> int:
    needs, build = _FAMILIES[args.family]
    _check_arguments(args, parser, f"build {args.family}", needs, needs)
    sys.stdout.writelines(_export_pieces(build(args), "edgelist"))
    return 0


def _cmd_export(args, parser: argparse.ArgumentParser) -> int:
    # stdin is parsed a block at a time and the pieces are written as they
    # come, so neither text is held whole; a graph that cannot be exported
    # fails before the file is opened
    pieces = _export_pieces(parse_edgelist(sys.stdin), args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
    return 0


def _cmd_degrees(args, parser: argparse.ArgumentParser) -> int:
    ring = factorize(args.n)
    columns = verify_mod.degree_table(ring)
    if len(columns[0]) != len(columns[1]):
        raise ValueError(f"cl2 has {len(columns[0])} vertices, the closed form {len(columns[1])}")
    print(f"cl2(Z_{args.n}): vertex (e,u), actual degree, both formulas")
    for (e, u), actual, corrected, legacy in zip(cl2_pairs(ring), *columns):
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
    command = f"verify {theorem}"
    if theorem in _GRAPH_THEOREMS:
        needs, run = _GRAPH_THEOREMS[theorem]
        _check_arguments(args, parser, command, needs, needs)
        reports = [run(args)]
    else:
        _check_arguments(args, parser, command, {"n", "range_"}, set())
        if args.range_ is not None and args.n is not None:
            parser.error("give a single modulus or --range, not both")
        if args.range_ is not None:
            ids = None if theorem == "all" else [_NUMERIC[theorem].theorem_id]
            reports = verify_mod.sweep(_parse_range(args.range_, parser), ids)
        elif args.n is None:
            parser.error(f"{command} requires a modulus or --range")
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
    args, extra = parser.parse_known_args(argv)
    # argparse leaves the optional modulus of build and verify empty once an
    # option follows the command words, so a modulus typed after the
    # options is left over: take it as the modulus
    if len(extra) == 1 and getattr(args, "n", 0) is None and re.fullmatch(r"\d+", extra[0]):
        args.n = int(extra.pop())
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.run(args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
