"""Command line front end: enumerate families, run the merge map, verify.

Exit codes: 0 for success (including verification runs whose only failures
are informational), 1 for a verification failure that was expected to hold,
2 for invalid input or out-of-range requests, 3 for an internal error, with
its traceback on stderr, and 141 (128 + SIGPIPE) when the reader of stdout
goes away before the output ends.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import re
import sys
import traceback

from . import classes
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
    validate_tuple,
)
from .glaisher import NotRegular, glaisher_forward, glaisher_inverse
from .partition import Partition
from .stats import aggregate, verify_length_identity, verify_series_vs_enumeration, verify_xyc

MAX_PLAIN_N = 200
MAX_PLAIN_TRUNC = 500

class UsageError(ValueError):
    pass


_DOMAIN_ERRORS = (EmptyTuple, TooSmall, NotCoprime, NotRegular, UsageError)


# an optional sign and ASCII digits, with surrounding whitespace; int() alone
# would also take underscores and non-ASCII digits
_INT = re.compile(r"\s*[+-]?[0-9]+\s*")


def _ints(pieces, what: str, text: str) -> list[int]:
    if not all(_INT.fullmatch(piece) for piece in pieces):
        raise UsageError(f"cannot parse {what} {text!r}")
    return [int(piece) for piece in pieces]


def _parse_moduli(text: str) -> ModulusTuple:
    pieces = [piece for piece in text.split(",") if piece.strip() != ""]
    return validate_tuple(_ints(pieces, "moduli", text))


def _parse_parts(text: str) -> Partition:
    stripped = text.strip()
    if not stripped:
        return Partition()
    values = _ints(stripped.split(","), "parts", text)
    if any(value < 1 for value in values):
        raise UsageError(f"parts must be positive, got {text!r}")
    return Partition(values)


def _parse_n_range(text: str) -> range:
    if ".." in text:
        lo, hi = _ints(text.split("..", 1), "range", text)
        if lo < 0 or hi < lo:
            raise UsageError(f"bad range {text!r}")
        return range(lo, hi + 1)
    (n,) = _ints([text], "size", text)
    if n < 0:
        raise UsageError(f"size must be nonnegative, got {n}")
    return range(n, n + 1)


def _guard(what: str, value: int, limit: int, force: bool) -> None:
    # what carries its own separator: "n=", "truncation " or "head modulus ";
    # --force lifts the limit only as far as a list of value + 1 entries can
    # be indexed
    if force:
        limit = sys.maxsize - 1
    if value > limit:
        hint = ", even with --force" if force else "; pass --force to override"
        raise UsageError(f"refusing {what}{value} above {limit}{hint}")


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
        if moduli_text is not None:
            raise UsageError("the all class takes no moduli")
        return PartitionClass.all_partitions()
    if moduli_text is None:
        raise UsageError(f"class {name} needs --moduli")
    mt = _parse_moduli(moduli_text)
    return PartitionClass(kind, mt)


def _block_texts(blocks, before: str, sep: str, after: str):
    """Yield ``(lead, tails)`` for each block ``(prefix, part, rest, top,
    low)`` (see classes), in order: the block's members read ``lead + tail``
    for each tail, as ``before + parts joined by sep + after``.

    The lead is made once per block, and the tails of a block shape
    ``(part, rest, top, low)`` once per call, so each member costs one
    concatenation. A command meets at most the distinct runs of size <= n,
    O(n log n) of them, and O(n^2) block shapes.
    """
    run_texts: dict[tuple[int, int], str] = {}
    tail_texts: dict[tuple[int, int, int, int], list[str]] = {}

    def text(runs):
        pieces = []
        for run in runs:
            piece = run_texts.get(run)
            if piece is None:
                piece = run_texts[run] = sep.join([str(run[0])] * run[1])
            pieces.append(piece)
        return sep.join(pieces)

    for prefix, part, rest, top, low in blocks:
        shape = part, rest, top, low
        tails = tail_texts.get(shape)
        if tails is None:
            tails = tail_texts[shape] = [
                text(tail) + after for tail in classes._block_tails(part, rest, top, low)
            ]
        lead = before + text(prefix)
        yield (lead + sep if prefix and rest else lead), tails


def _write_blocks(out, texts) -> None:
    # a block's rows go out in one write: lead + tail1 + lead + tail2 + ...
    out.writelines(lead + lead.join(tails) for lead, tails in texts)


def _csv_writer(stream):
    return csv.writer(stream, lineterminator="\n")


def _emit_rows(results, columns, fmt, stream) -> list:
    """Write one row per result as soon as it arrives and return the results.

    ``columns`` is a table of (name, getter) pairs: the names make the header
    and the jsonl keys, and each getter reads its cell from a result.
    """
    writer = _csv_writer(stream)
    if fmt == "csv":
        writer.writerow([name for name, _ in columns])
    kept = []
    for result in results:
        row = {name: get(result) for name, get in columns}
        if fmt == "csv":
            writer.writerow([_cell(value) for value in row.values()])
        elif fmt == "jsonl":
            print(json.dumps(row), file=stream)
        else:
            pieces = [
                f"{name}={'none' if value is None else _cell(value)}"
                for name, value in row.items()
                if name not in ("pass", "coefficients")
            ]
            print(" ".join(pieces) + (" PASS" if row["pass"] else " FAIL"), file=stream)
        stream.flush()
        kept.append(result)
    return kept


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
    n = sizes[0]
    if n != sizes[-1]:  # len() of a huge range overflows
        raise UsageError("enumerate takes a single size, not a range")
    _guard("n=", n, MAX_PLAIN_N, args.force)
    blocks = classes._family_blocks(family, n)
    out = sys.stdout
    if args.format == "csv":
        writer = _csv_writer(out)
        writer.writerow(["partition"])
        texts = _block_texts(blocks, "[", ",", "]")
        writer.writerows([lead + tail] for lead, tails in texts for tail in tails)
    elif args.format == "jsonl":
        _write_blocks(out, _block_texts(blocks, '{"partition": [', ", ", "]}\n"))
    else:
        _write_blocks(out, _block_texts(blocks, "[", ",", "]\n"))
    return 0


def _cmd_glaisher(args) -> int:
    partition = _parse_parts(args.parts)
    (modulus,) = _ints([args.modulus], "modulus", args.modulus)
    trace = (
        glaisher_inverse(partition, modulus)
        if args.inverse
        else glaisher_forward(partition, modulus)
    )
    blocks = ((p.runs, 1, 0, 0, 0) for p in trace.states())
    out = sys.stdout
    if args.format == "csv":
        writer = _csv_writer(out)
        writer.writerow(["step", "partition"])
        texts = _block_texts(blocks, "[", ",", "]")
        writer.writerows(enumerate(lead + tail for lead, (tail,) in texts))
    elif args.format == "jsonl":
        _write_blocks(out, _block_texts(blocks, '{"state": [', ", ", "]}\n"))
        print(json.dumps({"count": trace.count}), file=out)
    else:
        _write_blocks(out, _block_texts(blocks, "[", ",", "]\n"))
        print(f"count={trace.count}", file=out)
    return 0


XYC_COLUMNS = (
    ("moduli", lambda row: list(row.moduli)),
    ("n", lambda row: row.n),
    ("j", lambda row: row.residue),
    ("X", lambda row: row.x_total),
    ("Y", lambda row: row.y_total),
    ("diff", lambda row: row.difference),
    ("c", lambda row: row.operation_total),
    ("inferior", lambda row: row.inferior_count),
    ("hypothesis", lambda row: row.hypothesis_holds),
    ("pass", lambda row: row.ok),
)
LENGTH_COLUMNS = (
    ("modulus", lambda check: check.modulus),
    ("n", lambda check: check.n),
    ("class_regular_lengths", lambda check: check.class_regular_length_sum),
    ("regular_lengths", lambda check: check.regular_length_sum),
    ("operations", lambda check: check.operation_total),
    ("pass", lambda check: check.ok),
)
SERIES_COLUMNS = (
    ("family", lambda check: check.family.kind),
    ("moduli", lambda check: list(check.family.moduli or ())),
    ("trunc", lambda check: check.truncation),
    ("count_mismatch", lambda check: check.count_mismatch),
    ("operations_mismatch", lambda check: check.operations_mismatch),
    ("regular_differs_at", lambda check: check.regular_counts_differ_at),
    ("coefficients", lambda check: list(check.series.coefficients)),
    ("pass", lambda check: check.ok),
)


def xyc_exit_code(rows) -> int:
    """Failures only count against the exit code under the hypothesis."""
    return checks_exit_code(row for row in rows if row.hypothesis_holds)


def checks_exit_code(checks) -> int:
    """0 when every length or series check passed, 1 otherwise."""
    return 0 if all(check.ok for check in checks) else 1


def _cmd_verify(args) -> int:
    scope = args.scope
    (trunc,) = _ints([args.trunc], "truncation", args.trunc)
    # every input is checked whatever the scope reads
    sizes = range(0)
    if args.n is not None:
        sizes = _parse_n_range(args.n)
        _guard("n=", sizes[-1], MAX_PLAIN_N, args.force)
    elif scope != "series":
        raise UsageError(f"scope {scope} needs --n")
    if args.moduli is None:
        raise UsageError("verify needs --moduli")
    mt = _parse_moduli(args.moduli)
    if scope == "length" and len(mt) > 1:
        raise UsageError("length scope needs a single modulus")
    if scope != "series":
        # xyc writes head - 1 residue rows per size
        _guard("head modulus ", mt.head, MAX_PLAIN_N, args.force)
    if trunc < 0:
        raise UsageError(f"truncation must be nonnegative, got {trunc}")
    _guard("truncation ", trunc, MAX_PLAIN_TRUNC, args.force)

    # one report per size feeds both the xyc and the length section
    xyc_reports, length_reports = itertools.tee(aggregate(mt, n) for n in sizes)
    # (name, results, columns, exit rule); every results entry is lazy, so
    # each row is written as soon as its size or family is done
    sections = [
        ("xyc", (row for report in xyc_reports for row in verify_xyc(report)),
         XYC_COLUMNS, xyc_exit_code),
        ("length", (verify_length_identity(report) for report in length_reports),
         LENGTH_COLUMNS, checks_exit_code),
        ("series", verify_series_vs_enumeration(mt, trunc), SERIES_COLUMNS, checks_exit_code),
    ]
    exit_code = 0
    for name, results, columns, exit_rule in sections:
        if scope not in (name, "all"):
            continue
        if name == "length" and len(mt) > 1:
            print("length: skipped, needs a single modulus", file=sys.stderr)
            continue
        kept = _emit_rows(results, columns, args.format, sys.stdout)
        exit_code = max(exit_code, exit_rule(kept))
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
    p_gl.add_argument("--r", "--modulus", dest="modulus", required=True)
    p_gl.add_argument("--inverse", action="store_true")
    p_gl.add_argument("--format", choices=["plain", "csv", "jsonl"], default="plain")
    p_gl.set_defaults(handler=_cmd_glaisher)

    p_ver = sub.add_parser("verify", help="check the counting identities")
    p_ver.add_argument("--scope", choices=["xyc", "length", "series", "all"], required=True)
    p_ver.add_argument("--moduli", help="comma separated, e.g. 3 or 3,5")
    p_ver.add_argument("--n", help="size or inclusive range lo..hi")
    p_ver.add_argument("--trunc", default="60", help="series truncation degree")
    p_ver.add_argument("--format", choices=["plain", "csv", "jsonl"], default="plain")
    p_ver.add_argument("--force", action="store_true")
    p_ver.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        return 141
    except _DOMAIN_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    return code


def run() -> None:
    code = main()
    if code == 141:
        # the reader is gone: let the interpreter's final flush go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    run()
