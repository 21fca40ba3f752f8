"""Command-line interface.

Exit codes: 0 all requested checks pass, 1 at least one mismatch,
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__
from .classnum import genfun_F, genfun_H, hurwitz, hurwitz12
from .combinat import count_P, count_Q, list_P, list_Q
from .errors import BFileError, QheckeError
from .mock import F4_series, F8_series, eulerian
from .oeis import SEQUENCES, oeis_compare
from .registry import registry
from .verify import all_passed, verify

_MOCK_NAMES = {"A": "A", "V1": "V1", "sigma": "sigma", "phi-": "phi_minus",
               "phi_minus": "phi_minus"}


def _build_family(family, order):
    kind, _, rest = family.partition(":")
    if kind == "F" or kind == "H":
        try:
            a, b = (int(t) for t in rest.split(","))
        except ValueError:
            raise QheckeError(f"bad family {family!r}: expected {kind}:a,b")
        return genfun_F(a, b, order) if kind == "F" else genfun_H(a, b, order)
    if kind == "mock":
        if rest not in _MOCK_NAMES:
            raise QheckeError(f"unknown mock series {rest!r}; "
                              f"choose from {sorted(_MOCK_NAMES)}")
        return eulerian(_MOCK_NAMES[rest], order)
    if family == "F4z":
        return F4_series(order)
    if family == "F8z":
        return F8_series(order)
    raise QheckeError(f"unknown family {family!r}; use F:a,b H:a,b "
                      f"mock:A|V1|sigma|phi- F4z F8z")


def _report_rows(reports):
    for r in reports:
        flag = " (allow-fail)" if r.allow_fail and r.status != "pass" else ""
        mm = ""
        if r.first_mismatch:
            mm = (f"q^{r.first_mismatch['exp']}: {r.first_mismatch['lhs']} vs "
                  f"{r.first_mismatch['rhs']}")
            if r.first_mismatch.get("slot"):
                mm += f" [{r.first_mismatch['slot']}]"
        yield r.id, r.status + flag, r.certified_order, r.ms, mm


def _print_reports(reports, fmt):
    if fmt == "json":
        print(json.dumps([r.to_json() for r in reports], indent=2))
        return
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["id", "status", "certified_order", "ms", "first_mismatch"])
        for row in _report_rows(reports):
            writer.writerow(row)
        sys.stdout.write(out.getvalue())
        return
    width = max((len(r.id) for r in reports), default=10) + 2
    print(f"{'id':<{width}}{'status':<20}{'order':>6}{'ms':>8}  mismatch")
    for rid, status, order, ms, mm in _report_rows(reports):
        print(f"{rid:<{width}}{status:<20}{order:>6}{ms:>8}  {mm}")
    npass = sum(r.status == "pass" for r in reports)
    print(f"-- {npass}/{len(reports)} passed")


def _cmd_verify(args):
    ids = args.id or None
    try:
        reports = verify(ids, args.order, args.jobs, args.scale)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    _print_reports(reports, args.format)
    return 0 if all_passed(reports) else 1


def _cmd_ids(args):
    for case in registry():
        print(f"{case.id:<28} {case.mode:<12} order {case.default_order}"
              + ("  [allow-fail]" if case.allow_fail else ""))
    return 0


def _cmd_hurwitz(args):
    h12 = hurwitz12(args.n)
    print(f"H({args.n}) = {hurwitz(args.n)}   (12*H = {h12})")
    return 0


def _cmd_series(args):
    if args.order < 0:
        raise ValueError(f"order must be at least 0, got {args.order}")
    series = _build_family(args.family, args.order)
    if args.format == "json":
        print(json.dumps(series.to_json()))
    else:
        print(series)
    return 0


def _cmd_partitions(args):
    counter = count_P if args.kind == "P" else count_Q
    print(f"{args.kind}({args.n}) = {counter(args.n)}")
    if args.list:
        lister = list_P if args.kind == "P" else list_Q
        for item in lister(args.n):
            print(" ", "+".join(str(p) for p in item.parts()))
    return 0


def _cmd_oeis(args):
    checked, mismatches = oeis_compare(args.seq, args.bfile, args.max)
    if mismatches:
        for n, computed, filed in mismatches[:10]:
            print(f"n={n}: computed {computed}, b-file {filed}")
        print(f"-- {len(mismatches)} mismatches out of {checked} checked")
        return 1
    print(f"-- all {checked} b-file values match {args.seq}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qhecke",
        description="Exact q-series identities for Hurwitz class number "
                    "generating functions and mock theta functions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run identity verifications")
    p.add_argument("--id", action="append", help="case id (repeatable); default all")
    depth = p.add_mutually_exclusive_group()
    depth.add_argument("--order", type=int, help="override the per-case default order")
    depth.add_argument("--scale", type=int, metavar="K",
                       help="run each case at K times its own default order")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--format", choices=("human", "json", "csv"), default="human")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ids", help="list registry case ids")
    p.set_defaults(func=_cmd_ids)

    p = sub.add_parser("hurwitz", help="print one Hurwitz class number")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_hurwitz)

    p = sub.add_parser("series", help="print a named series")
    p.add_argument("--family", required=True,
                   help="F:a,b | H:a,b | mock:A|V1|sigma|phi- | F4z | F8z")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("partitions", help="count or list P(n)/Q(n) objects")
    p.add_argument("--kind", choices=("P", "Q"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_partitions)

    p = sub.add_parser("oeis", help="compare against an OEIS b-file")
    p.add_argument("--seq", required=True, choices=sorted(SEQUENCES))
    p.add_argument("--bfile", required=True)
    p.add_argument("--max", type=int, default=10**9)
    p.set_defaults(func=_cmd_oeis)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BFileError as exc:
        print(f"b-file error: {exc}", file=sys.stderr)
        return 2
    except (QheckeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
