"""Command-line front end: heron <enumerate|cycles|verify|catalog>.

Data goes to stdout, diagnostics to stderr. The json and csv formats
are schema-stable and byte-deterministic (catalog timestamps aside);
the table format is for humans and makes no stability promises.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from heronian import catalog as catalog_mod
from heronian import verify as verify_mod
from heronian.cycles import find_cycles
from heronian.enumeration import triangles_with_area, triangles_with_perimeter
from heronian.necklace import enumerate_words

CATALOG_ENV_VAR = "HERON_CATALOG"


def _emit(fmt: str, payload, rows: list[dict], fieldnames, lines=None) -> None:
    """Write one result to stdout in the requested format.

    json writes the payload, csv writes the rows, and table writes the
    given text lines or, without them, the rows as aligned columns. The
    result is flushed, so a closed stdout pipe fails here, inside main's
    file-error exit, and not in the flush at interpreter exit.
    """
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    elif fmt == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    elif lines is not None:
        for line in lines:
            print(line)
    elif not rows:
        print("(no results)")
    else:
        widths = {
            name: max(len(name), *(len(str(r[name])) for r in rows)) for name in fieldnames
        }
        print("  ".join(name.ljust(widths[name]) for name in fieldnames))
        for r in rows:
            print("  ".join(str(r[name]).ljust(widths[name]) for name in fieldnames))
    sys.stdout.flush()


def cmd_enumerate(args) -> int:
    if args.perimeter is not None:
        triangles = triangles_with_perimeter(args.perimeter)
        query = {"perimeter": args.perimeter}
    else:
        try:
            triangles = triangles_with_area(args.area)
        except ValueError as exc:  # a prime factor too large to certify
            print(f"error: {exc}", file=sys.stderr)
            return 2
        query = {"area": args.area}
    rows = [catalog_mod.CatalogRecord.from_triangle(t).row() for t in triangles]
    _emit(args.format, {"query": query, "triangles": rows}, rows, catalog_mod.RECORD_FIELDS)
    return 0


def cmd_cycles(args) -> int:
    if args.concrete != (args.p_max is not None):
        raise ValueError("--concrete requires --p-max" if args.concrete
                         else "--p-max requires --concrete")
    if args.concrete:
        cycles = [[list(t.sides) for t in c.members] for c in find_cycles(args.n, args.p_max)]
        payload = {"n": args.n, "mode": "concrete", "p_max": args.p_max, "cycles": cycles}
        rows = [
            {"cycle": i, "position": j, "a": m[0], "b": m[1], "c": m[2]}
            for i, cyc in enumerate(cycles)
            for j, m in enumerate(cyc)
        ]
        fieldnames = ["cycle", "position", "a", "b", "c"]
        lines = [
            f"cycle {i}: " + " -> ".join(f"({m[0]},{m[1]},{m[2]})" for m in cyc)
            for i, cyc in enumerate(cycles)
        ]
    else:
        cycles = [w.symbols for w in enumerate_words(args.n)]
        payload = {"n": args.n, "mode": "symbolic", "cycles": cycles}
        rows = [{"n": args.n, "word": w} for w in cycles]
        fieldnames = ["n", "word"]
        lines = cycles
    _emit(args.format, payload, rows, fieldnames, lines or ["(no cycles)"])
    return 0


def _check_point(args) -> verify_mod.TheoremReport:
    if None in (args.x, args.y, args.z):
        raise ValueError("--claim theorem1 requires --x, --y and --z")
    return verify_mod.check_theorem1(args.x, args.y, args.z, args.n)


# --claim value -> check, in --help order. "all" runs every claim but the
# theorem1 point query.
_CLAIMS = {
    "lemma2": lambda args: verify_mod.check_lemma2(args.p_max),
    "lemma3": lambda args: verify_mod.check_lemma3(args.p_max),
    "theorem1": _check_point,
    "theorem2": lambda args: verify_mod.check_theorem2(args.n, args.p_max),
    "theorem3": lambda args: verify_mod.check_theorem3(args.p_max, args.n_max),
    "gersonides": lambda args: verify_mod.check_gersonides(args.exp_max),
    "equable-five": lambda args: verify_mod.check_equable_census(),
}


def cmd_verify(args) -> int:
    if args.claim == "all":
        reports = [check(args) for claim, check in _CLAIMS.items() if claim != "theorem1"]
    else:
        reports = [_CLAIMS[args.claim](args)]
    dicts = [r.to_dict() for r in reports]
    rows = [
        dict(d, bounds=json.dumps(d["bounds"], separators=(",", ":")),
             witnesses=json.dumps(d["witnesses"], separators=(",", ":")))
        for d in dicts
    ]
    # table lines keep each report's own key order
    lines = []
    for r in reports:
        lines.append(f"{r.claim}: {r.verdict}  bounds={r.bounds}")
        lines.extend(f"  {w}" for w in r.witnesses)
    _emit(args.format, {"reports": dicts}, rows, ["claim", "verdict", "bounds", "witnesses"], lines)
    return 0 if all(r.ok for r in reports) else 1


def cmd_catalog_build(args) -> int:
    cat = catalog_mod.build(args.p_max)
    catalog_mod.save(cat, args.out)
    print(f"wrote {len(cat)} records to {args.out}", file=sys.stderr)
    return 0


def cmd_catalog_info(args) -> int:
    path = args.path or os.environ.get(CATALOG_ENV_VAR)
    if path is None:
        raise ValueError(f"catalog info requires --in or ${CATALOG_ENV_VAR}")
    header = catalog_mod.load(path).header()
    lines = [f"{key}: {value}" for key, value in header.items()]
    _emit(args.format, header, [header], list(header), lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heron",
        description="Enumerate Heronian triangles, search sociable cycles, "
        "and machine-check the facts the search relies on.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("table", "json", "csv"), default="table",
                     help="output format (default: table)")

    p_enum = sub.add_parser("enumerate", parents=[fmt], help="list Heronian triangles")
    group = p_enum.add_mutually_exclusive_group(required=True)
    group.add_argument("--perimeter", type=int, help="exact perimeter to match")
    group.add_argument("--area", type=int, help="exact area to match")
    p_enum.set_defaults(run=cmd_enumerate)

    p_cyc = sub.add_parser("cycles", parents=[fmt], help="enumerate n-sociable cycles")
    p_cyc.add_argument("--n", type=int, required=True, help="cycle length")
    mode = p_cyc.add_mutually_exclusive_group()
    mode.add_argument("--symbolic", action="store_true",
                      help="print cycle words over U, V, W (default)")
    mode.add_argument("--concrete", action="store_true",
                      help="search concrete triangle cycles (needs --p-max)")
    p_cyc.add_argument("--p-max", type=int, help="perimeter bound for concrete search")
    p_cyc.set_defaults(run=cmd_cycles)

    p_ver = sub.add_parser("verify", parents=[fmt], help="machine-check a claim within bounds")
    p_ver.add_argument(
        "--claim", required=True,
        choices=(*_CLAIMS, "all"),
    )
    p_ver.add_argument("--p-max", type=int, default=2000, help="perimeter bound (default 2000)")
    p_ver.add_argument("--n-max", type=int, default=8, help="max cycle length (default 8)")
    p_ver.add_argument("--n", type=int, default=2,
                       help="divisibility exponent parameter (default 2)")
    p_ver.add_argument("--exp-max", type=int, default=64,
                       help="exponent bound for the power-difference scan (default 64)")
    p_ver.add_argument("--x", type=int)
    p_ver.add_argument("--y", type=int)
    p_ver.add_argument("--z", type=int)
    p_ver.set_defaults(run=cmd_verify)

    p_cat = sub.add_parser("catalog", help="build or inspect a triangle catalog")
    cat_sub = p_cat.add_subparsers(dest="action", required=True)
    p_build = cat_sub.add_parser("build", help="write every triangle up to a perimeter bound")
    p_build.add_argument("--p-max", type=int, required=True, help="perimeter bound")
    p_build.add_argument("--out", required=True, help="output path")
    p_build.set_defaults(run=cmd_catalog_build)
    p_info = cat_sub.add_parser("info", parents=[fmt], help="print a catalog's header")
    p_info.add_argument("--in", dest="path", help=f"catalog path (default: ${CATALOG_ENV_VAR})")
    p_info.set_defaults(run=cmd_catalog_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        finally:
            # --help writes to stdout and exits inside parse_args; the flush
            # turns a closed pipe into the file-error exit below, and a good
            # flush lets argparse's SystemExit through unchanged
            sys.stdout.flush()
        return args.run(args)
    except (OSError, catalog_mod.CatalogFormatError) as exc:
        # a file that cannot be read or written, a malformed catalog or a
        # closed stdout pipe; caught first, as CatalogFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # precondition violations (n < 1, a missing flag) are usage errors
        parser.error(str(exc))


def run() -> None:
    code = main()
    if code == 1:
        # after a closed stdout pipe, which main has reported, the bytes it
        # refused are still buffered (any other output _emit has flushed), so
        # stdout (fd 1) goes to os.devnull and the flush at exit cannot fail
        # again: the "Note on SIGPIPE" in Python's signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    raise SystemExit(code)


if __name__ == "__main__":
    run()
