"""Command line front end: enumerate families, run the merge map, verify.

Exit codes: 0 for success (including verification runs whose only failures
are informational), 1 for a verification failure that was expected to hold,
2 for invalid input or out-of-range requests, 3 for an internal error, with
its traceback on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import traceback

from .classes import (
    ALL,
    CLASS_REGULAR,
    INFERIOR_REGULAR,
    REGULAR,
    EmptyTuple,
    ModulusTuple,
    NotCoprime,
    PartitionClass,
    TooSmall,
    enumerate_class,
    validate_tuple,
)
from .glaisher import NotRegular, glaisher_forward, glaisher_inverse
from .partition import Partition
from .qseries import verify_series_vs_enumeration
from .stats import XYCRow, verify_length_identity, verify_xyc

MAX_PLAIN_N = 200
MAX_PLAIN_TRUNC = 500

class UsageError(ValueError):
    pass


_DOMAIN_ERRORS = (EmptyTuple, TooSmall, NotCoprime, NotRegular, UsageError)


def _parse_moduli(text: str) -> ModulusTuple:
    try:
        values = [int(piece) for piece in text.split(",") if piece.strip() != ""]
    except ValueError:
        raise UsageError(f"cannot parse moduli {text!r}") from None
    return validate_tuple(values)


def _parse_parts(text: str) -> Partition:
    stripped = text.strip()
    if not stripped:
        return Partition()
    try:
        values = [int(piece) for piece in stripped.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse parts {text!r}") from None
    if any(value < 1 for value in values):
        raise UsageError(f"parts must be positive, got {text!r}")
    return Partition(values)


def _parse_n_range(text: str) -> list[int]:
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise UsageError(f"cannot parse range {text!r}") from None
        if lo < 0 or hi < lo:
            raise UsageError(f"bad range {text!r}")
        return list(range(lo, hi + 1))
    try:
        n = int(text)
    except ValueError:
        raise UsageError(f"cannot parse size {text!r}") from None
    if n < 0:
        raise UsageError(f"size must be nonnegative, got {n}")
    return [n]


def _guard_n(values: list[int], force: bool) -> None:
    worst = max(values, default=0)
    if worst > MAX_PLAIN_N and not force:
        raise UsageError(
            f"refusing n={worst} above {MAX_PLAIN_N}; pass --force to override"
        )


def _guard_trunc(trunc: int, force: bool) -> None:
    if trunc < 0:
        raise UsageError(f"truncation must be nonnegative, got {trunc}")
    if trunc > MAX_PLAIN_TRUNC and not force:
        raise UsageError(
            f"refusing truncation {trunc} above {MAX_PLAIN_TRUNC}; "
            "pass --force to override"
        )


_CLASS_NAMES = {
    "all": ALL,
    "cp": CLASS_REGULAR,
    "class-regular": CLASS_REGULAR,
    "rp": REGULAR,
    "regular": REGULAR,
    "irp": INFERIOR_REGULAR,
    "inferior-regular": INFERIOR_REGULAR,
}


def _family_from_args(name: str, moduli_text: str | None) -> PartitionClass:
    kind = _CLASS_NAMES[name]
    if kind == ALL:
        if moduli_text:
            raise UsageError("the all class takes no moduli")
        return PartitionClass.all_partitions()
    if not moduli_text:
        raise UsageError(f"class {name} needs --moduli")
    mt = _parse_moduli(moduli_text)
    return PartitionClass(kind, mt)


def _compact(values) -> str:
    return json.dumps(list(values), separators=(",", ":"))


def _csv_writer(stream):
    return csv.writer(stream, lineterminator="\n")


def _emit_rows(rows, header, fmt, stream) -> None:
    """Rows are dicts keyed exactly by the header entries."""
    if fmt == "csv":
        writer = _csv_writer(stream)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(row[key]) for key in header])
    elif fmt == "jsonl":
        for row in rows:
            print(json.dumps({key: row[key] for key in header}), file=stream)
    else:
        for row in rows:
            pieces = []
            for key in header:
                if key in ("pass", "coefficients"):
                    continue
                value = row[key]
                pieces.append(f"{key}={'none' if value is None else _cell(value)}")
            verdict = ""
            if "pass" in row:
                verdict = " PASS" if row["pass"] else " FAIL"
            print(" ".join(pieces) + verdict, file=stream)


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    if value is None:
        return ""
    return value


def _cmd_enumerate(args) -> int:
    family = _family_from_args(args.family, args.moduli)
    sizes = _parse_n_range(args.n)
    if len(sizes) != 1:
        raise UsageError("enumerate takes a single size, not a range")
    _guard_n(sizes, args.force)
    n = sizes[0]
    out = sys.stdout
    if args.format == "csv":
        writer = _csv_writer(out)
        writer.writerow(["partition"])
        for p in enumerate_class(family, n):
            writer.writerow([_compact(p.parts)])
    elif args.format == "jsonl":
        for p in enumerate_class(family, n):
            print(json.dumps({"partition": list(p.parts)}), file=out)
    else:
        for p in enumerate_class(family, n):
            print(_compact(p.parts), file=out)
    return 0


def _cmd_glaisher(args) -> int:
    partition = _parse_parts(args.parts)
    modulus = args.modulus
    trace = (
        glaisher_inverse(partition, modulus)
        if args.inverse
        else glaisher_forward(partition, modulus)
    )
    states = trace.states()
    out = sys.stdout
    if args.format == "csv":
        writer = _csv_writer(out)
        writer.writerow(["step", "partition"])
        for index, state in enumerate(states):
            writer.writerow([index, _compact(state.parts)])
    elif args.format == "jsonl":
        for state in states:
            print(json.dumps({"state": list(state.parts)}), file=out)
        print(json.dumps({"count": trace.count}), file=out)
    else:
        for state in states:
            print(_compact(state.parts), file=out)
        print(f"count={trace.count}", file=out)
    return 0


XYC_HEADER = ["moduli", "n", "j", "X", "Y", "diff", "c", "inferior", "hypothesis", "pass"]
LENGTH_HEADER = [
    "modulus", "n", "class_regular_lengths", "regular_lengths", "operations", "pass",
]
SERIES_HEADER = [
    "family", "moduli", "trunc",
    "count_mismatch", "operations_mismatch", "regular_differs_at",
    "coefficients", "pass",
]


def _xyc_row_dict(row: XYCRow) -> dict:
    return {
        "moduli": list(row.moduli),
        "n": row.n,
        "j": row.residue,
        "X": row.x_total,
        "Y": row.y_total,
        "diff": row.difference,
        "c": row.operation_total,
        "inferior": row.inferior_count,
        "hypothesis": row.hypothesis_holds,
        "pass": row.ok,
    }


def xyc_exit_code(rows) -> int:
    """Failures only count against the exit code under the hypothesis."""
    for row in rows:
        if row.hypothesis_holds and not row.ok:
            return 1
    return 0


def checks_exit_code(checks) -> int:
    """0 when every length or series check passed, 1 otherwise."""
    return 0 if all(check.ok for check in checks) else 1


def _cmd_verify(args) -> int:
    scope = args.scope
    fmt = args.format
    out = sys.stdout
    exit_code = 0

    wants_sizes = scope in ("xyc", "length", "all")
    sizes: list[int] = []
    if wants_sizes:
        if args.n is None:
            raise UsageError(f"scope {scope} needs --n")
        sizes = _parse_n_range(args.n)
        _guard_n(sizes, args.force)
    if args.moduli is None:
        raise UsageError("verify needs --moduli")
    mt = _parse_moduli(args.moduli)
    if scope in ("series", "all"):
        _guard_trunc(args.trunc, args.force)

    if scope in ("xyc", "all"):
        rows = []
        for n in sizes:
            rows.extend(verify_xyc(mt, n))
        _emit_rows([_xyc_row_dict(row) for row in rows], XYC_HEADER, fmt, out)
        exit_code = max(exit_code, xyc_exit_code(rows))

    if scope in ("length", "all"):
        if len(mt) == 1:
            checks = [verify_length_identity(mt.head, n) for n in sizes]
            dicts = [
                {
                    "modulus": check.modulus,
                    "n": check.n,
                    "class_regular_lengths": check.class_regular_length_sum,
                    "regular_lengths": check.regular_length_sum,
                    "operations": check.operation_total,
                    "pass": check.ok,
                }
                for check in checks
            ]
            _emit_rows(dicts, LENGTH_HEADER, fmt, out)
            exit_code = max(exit_code, checks_exit_code(checks))
        elif scope == "length":
            raise UsageError("length scope needs a single modulus")
        else:
            print("length: skipped, needs a single modulus", file=sys.stderr)

    if scope in ("series", "all"):
        families = [
            PartitionClass.all_partitions(),
            PartitionClass.class_regular(mt),
            PartitionClass.regular(mt),
            PartitionClass.inferior_regular(mt),
        ]
        checks = [verify_series_vs_enumeration(f, args.trunc) for f in families]
        dicts = [
            {
                "family": check.family.kind,
                "moduli": list(check.family.moduli) if check.family.moduli else [],
                "trunc": check.truncation,
                "count_mismatch": check.count_mismatch,
                "operations_mismatch": check.operations_mismatch,
                "regular_differs_at": check.regular_counts_differ_at,
                "coefficients": list(check.series.coefficients),
                "pass": check.ok,
            }
            for check in checks
        ]
        _emit_rows(dicts, SERIES_HEADER, fmt, out)
        exit_code = max(exit_code, checks_exit_code(checks))

    return exit_code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regpart",
        description="Restricted partition families, the merge correspondence, "
        "and exact identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list a family at one size")
    p_enum.add_argument(
        "--class", dest="family", required=True,
        choices=sorted(_CLASS_NAMES),
        help="all, or one of cp/rp/irp (long names also accepted)",
    )
    p_enum.add_argument("--moduli", help="comma separated, e.g. 3 or 3,5")
    p_enum.add_argument("--n", required=True, help="total size")
    p_enum.add_argument("--format", choices=["plain", "csv", "jsonl"], default="plain")
    p_enum.add_argument("--force", action="store_true")
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_gl = sub.add_parser("glaisher", help="run the merge map on one partition")
    p_gl.add_argument("--parts", required=True, help="comma separated parts, may be empty")
    p_gl.add_argument("--r", "--modulus", dest="modulus", type=int, required=True)
    p_gl.add_argument("--inverse", action="store_true")
    p_gl.add_argument("--format", choices=["plain", "csv", "jsonl"], default="plain")
    p_gl.set_defaults(handler=_cmd_glaisher)

    p_ver = sub.add_parser("verify", help="check the counting identities")
    p_ver.add_argument("--scope", choices=["xyc", "length", "series", "all"], required=True)
    p_ver.add_argument("--moduli", help="comma separated, e.g. 3 or 3,5")
    p_ver.add_argument("--n", help="size or inclusive range lo..hi")
    p_ver.add_argument("--trunc", type=int, default=60, help="series truncation degree")
    p_ver.add_argument("--format", choices=["plain", "csv", "jsonl"], default="plain")
    p_ver.add_argument("--force", action="store_true")
    p_ver.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
