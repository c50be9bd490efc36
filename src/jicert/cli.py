"""Command line front end.

Exit codes: 0 all requested checks pass, 1 some check fails, 2 the input
could not be used (bad file, bad format, a stage above --dense-bound where
an element table is needed), 3 every non-passing check is merely bounded,
so the run is inconclusive rather than failed, 4 a defect in jicert: a
failed cross-check or an unexpected exception.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import sys

from .certifier import (
    BOUNDED,
    DEFAULT_SUBGROUP_BOUND,
    FAIL,
    CertifyOptions,
    certify_system,
)
from .classdata import SchurTable, class_from_names
from .errors import InputFormatError, JicertError, KernelBugError
from .group import DEFAULT_DENSE_BOUND
from .lattice import (
    chief_series,
    composition_factors,
    critical_pairs,
    maximal_normal_subgroups,
    minimal_normal_subgroups,
    normal_subgroups,
)
from .prefixes import build_wreath_tower, parse_system, serialize_system
from .report import emit_report, input_digest, make_report


def _bound(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jicert",
        description="certify finiteness-stage conditions of inverse system prefixes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run stage checks over a prefix file")
    c.add_argument("file", help="prefix document (JSON)")
    c.add_argument("--wilson", action="store_true", help="add the kernel checks")
    c.add_argument(
        "--commuting-conjugates",
        action="store_true",
        help="add the commuting-conjugates subgroup sweep",
    )
    c.add_argument(
        "--strengthened",
        action="store_true",
        help="add the dichotomy and central-factor checks",
    )
    c.add_argument("--json", dest="json_out", metavar="OUT", help="also write a JSON report")
    c.add_argument(
        "--dense-bound",
        type=_bound,
        default=DEFAULT_DENSE_BOUND,
        help="largest group order kept as an explicit element table",
    )
    c.add_argument(
        "--subgroup-bound",
        type=_bound,
        default=DEFAULT_SUBGROUP_BOUND,
        help="largest group order swept for witness subgroups",
    )
    c.add_argument(
        "--count-class",
        metavar="NAMES",
        help="comma-separated simple group names to count per stage, e.g. C2,C3",
    )
    c.set_defaults(func=cmd_check)

    b = sub.add_parser("build-wreath", help="write an iterated wreath tower prefix")
    b.add_argument("spec", help="comma-separated NAME:DEGREE bases, e.g. S3:3,A5:5")
    b.add_argument("--depth", type=int, required=True, help="number of stages")
    b.add_argument("-o", "--output", metavar="FILE", help="write here instead of stdout")
    b.set_defaults(func=cmd_build)

    l = sub.add_parser("lattice", help="print the normal structure of one stage")
    l.add_argument("file", help="prefix document (JSON)")
    l.add_argument("--stage", type=int, default=0, help="stage index (default 0)")
    l.add_argument("--dense-bound", type=_bound, default=DEFAULT_DENSE_BOUND)
    l.set_defaults(func=cmd_lattice)
    return parser


def _read_text(path: str) -> tuple[bytes, str]:
    try:
        data = pathlib.Path(path).read_bytes()
        return data, data.decode()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not UTF-8 text: {exc}") from None


def _write_bytes(path: str, data: bytes) -> None:
    try:
        pathlib.Path(path).write_bytes(data)
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from None


def _write_stdout(text: str) -> None:
    """All standard output goes here; with fd 1 closed it is an input error."""
    if sys.stdout is None:
        raise InputFormatError("cannot write standard output")
    sys.stdout.write(text)


def cmd_check(args: argparse.Namespace) -> int:
    data, text = _read_text(args.file)
    prefix = parse_system(text, dense_bound=args.dense_bound)

    names = None
    cls = None
    if args.count_class is not None:
        parts = re.split(r",(?![^(]*\))", args.count_class)  # keeps PSL(3,4) whole
        names = sorted(s.strip() for s in parts if s.strip())
        if not names:
            raise InputFormatError("bad --count-class: no group names")
        try:
            cls = class_from_names(names, SchurTable.load())
        except (KeyError, ValueError) as exc:
            raise InputFormatError(f"bad --count-class: {exc}") from None

    options = CertifyOptions(
        wilson=args.wilson,
        commuting_conjugates=args.commuting_conjugates,
        strengthened=args.strengthened,
        subgroup_bound=args.subgroup_bound,
        count_class=cls,
    )
    verdict = certify_system(prefix, options)
    report = make_report(
        verdict,
        digest=input_digest(data),
        orders=[g.order for g in prefix.groups],
        degrees=[g.degree for g in prefix.groups],
        options={**options._asdict(), "dense_bound": args.dense_bound, "count_class": names},
    )
    _write_stdout(emit_report(report, "text").decode())
    if args.json_out:
        _write_bytes(args.json_out, emit_report(report, "json"))

    statuses = {res.status for sv in verdict.stages for res in sv.checks.values()}
    if FAIL in statuses:
        return 1
    if BOUNDED in statuses:
        return 3
    return 0


def _parse_specs(text: str) -> list[tuple[str, int]]:
    specs = []
    for part in text.split(","):
        name, sep, deg = part.strip().partition(":")
        if not sep or not deg.isdigit() or not name:
            raise InputFormatError(
                f"bad base spec {part.strip()!r}: expected NAME:DEGREE"
            )
        specs.append((name, int(deg)))
    return specs


def cmd_build(args: argparse.Namespace) -> int:
    prefix = build_wreath_tower(_parse_specs(args.spec), args.depth)
    text = serialize_system(prefix)
    if args.output:
        _write_stdout("")  # fails before the file is written when fd 1 is closed
        _write_bytes(args.output, text.encode())
        orders = ", ".join(str(g.order) for g in prefix.groups)
        _write_stdout(f"wrote {args.output}: {len(prefix.groups)} stages, orders {orders}\n")
    else:
        _write_stdout(text)
    return 0


def cmd_lattice(args: argparse.Namespace) -> int:
    _, text = _read_text(args.file)
    prefix = parse_system(text, dense_bound=args.dense_bound)
    if not 0 <= args.stage < len(prefix.groups):
        raise InputFormatError(
            f"stage {args.stage} out of range: prefix has {len(prefix.groups)} stages"
        )
    g = prefix.groups[args.stage]
    _write_stdout(f"stage {args.stage}: order {g.order}, degree {g.degree}\n")

    def orders(groups) -> str:
        return ", ".join(str(h.order) for h in groups)

    _write_stdout(f"normal subgroup orders: {orders(normal_subgroups(g))}\n")
    if not g.is_trivial():
        _write_stdout(f"minimal normal orders: {orders(minimal_normal_subgroups(g))}\n")
        _write_stdout(f"maximal normal orders: {orders(maximal_normal_subgroups(g))}\n")
    pairs = ", ".join(f"({a.order}, {b.order})" for a, b in critical_pairs(g))
    _write_stdout(f"critical pairs (top, bottom): {pairs or 'none'}\n")
    _write_stdout(f"chief series orders: {orders(chief_series(g))}\n")
    facts = composition_factors(g)
    shown = ", ".join(f"{name} x {k}" for name, k in sorted(facts.items()))
    _write_stdout(f"composition factors: {shown or 'none'}\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KernelBugError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except JicertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.__excepthook__(type(exc), exc, exc.__traceback__)
        return 4


def run(argv=None) -> int:
    """main(), then flush the output and end the process with main's code,
    skipping the interpreter's teardown. If a flush fails (a closed pipe),
    return instead: the interpreter's own exit reports it and exits 120."""
    code = main(argv)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
