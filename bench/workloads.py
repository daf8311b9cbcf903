"""The benchmark's workloads: inputs made from a seed, the timed work, and
correctness checks that run after timing.

Each workload is a (prepare, run, check) triple:

* ``prepare(seed)`` builds the inputs before timing;
* ``run(inputs)`` is the timed work, and returns its outputs;
* ``check(inputs, outputs, full)`` returns ``(checks, digests)``: a list
  of ``(name, ok)`` pairs and a ``{name: sha256}`` table that the caller
  compares with ``reference.json``. ``full`` asks for the checks that cost
  more than the timed work, which the caller runs once per run.

Library functions are looked up on their module at call time, so that a
traced run goes through the tracer's wrappers. The expected values in the
checks come from this file's own recurrences, never from the library.
"""

from __future__ import annotations

import hashlib
import io
import random
import sys

# Sizes are chosen so the timed work of one repetition takes 0.7-0.85 s on
# a 2-vCPU x86-64 container with Python 3.11. On a shared host single
# repetitions vary by 10% or more, so a 30 s run holds 25 or more of them
# and reports their median.
VERIFY_N = "0..30"
ENUMERATE_N = 38
SERIES_TRUNC = 420
SERIES_MODULI = ((3,), (2, 3), (3, 7), (2, 3, 7))
CENSUS_MAX_N = 21
CENSUS_MODULI = ((2, 3), (3, 4), (3, 7))


class HashSink(io.RawIOBase):
    """Byte sink for the CLI's stdout: hashes and counts what it is given
    and keeps nothing else."""

    def __init__(self):
        super().__init__()
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.lines = 0
        self.fail_rows = 0
        self._tail = b""

    def writable(self):
        return True

    def write(self, data):
        chunk = bytes(data)
        self.sha.update(chunk)
        self.bytes += len(chunk)
        self.lines += chunk.count(b"\n")
        # a plain-format row that failed ends in " FAIL"; the 5-byte tail
        # catches a row split across two writes
        joined = self._tail + chunk
        self.fail_rows += joined.count(b" FAIL\n")
        self._tail = joined[-5:]
        return len(chunk)


def run_cli(argv):
    """Run one CLI command in-process with stdout going to a HashSink.

    Returns ``(exit_code, sink)``; an escaping exception is reported as the
    exit code, as its type and message.
    """
    from regpart import cli

    sink = HashSink()
    stream = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8", newline="\n")
    saved = sys.stdout
    sys.stdout = stream
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # counted as a failed check, not a crash
        code = f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdout = saved
        stream.flush()
    return code, sink


def _cli_checks(commands, results):
    checks = []
    digests = {}
    for label, (code, sink) in zip(commands, results):
        checks.append((f"{label}: exit 0", code == 0))
        checks.append((f"{label}: no FAIL rows", sink.fail_rows == 0))
        digests[label] = sink.sha.hexdigest()
    return checks, digests


def cli_totals(outputs):
    """Bytes and rows a CLI workload wrote, or zeros for a library workload."""
    pairs = outputs if isinstance(outputs, list) else []
    sinks = [pair[1] for pair in pairs if isinstance(pair, tuple)]
    return sum(s.bytes for s in sinks), sum(s.lines for s in sinks)


# Independent counts ------------------------------------------------------

def partition_numbers(limit):
    """p(0..limit) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def inferior_regular_count(n, head):
    """Partitions of n with exactly one part size of multiplicity >= head,
    by a dynamic program over part sizes (single modulus, no tail)."""
    # ways[h][s]: partitions of s into the sizes seen so far with h heavy sizes
    ways = [[1] + [0] * n, [0] * (n + 1)]
    for k in range(1, n + 1):
        new = [[0] * (n + 1), [0] * (n + 1)]
        for h in (0, 1):
            for s, w in enumerate(ways[h]):
                if not w:
                    continue
                m = 0
                while s + k * m <= n:
                    hh = h + (m >= head)
                    if hh <= 1:
                        new[hh][s + k * m] += w
                    m += 1
        ways = new
    return ways[1][n]


def partitions_of(n, limit=None):
    """Part tuples of all partitions of n, descending lex order."""
    limit = n if limit is None else limit
    if n == 0:
        yield ()
        return
    for first in range(min(n, limit), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first, *rest)


def _multiplicities(parts):
    table = {}
    for part in parts:
        table[part] = table.get(part, 0) + 1
    return table


def expected_preimages(moduli, residue, mults):
    """The preimage count the counting identity predicts for a target with
    the given ``(size, multiplicity)`` pairs."""
    head, tail = moduli[0], moduli[1:]
    if any(size % t == 0 for size, _ in mults for t in tail):
        return 0
    heavy = sum(1 for _, m in mults if m >= head)
    if heavy == 0:
        return sum(1 for _, m in mults if m >= residue)
    return 1 if heavy == 1 else 0


# verify-identities -------------------------------------------------------

VERIFY_COMMANDS = {
    "xyc-3": ["verify", "--scope", "xyc", "--moduli", "3", "--n", VERIFY_N],
    "length-3": ["verify", "--scope", "length", "--moduli", "3", "--n", VERIFY_N],
    "xyc-2,3,7": ["verify", "--scope", "xyc", "--moduli", "2,3,7", "--n", VERIFY_N],
}


def _prepare_verify(seed):
    return None


def _run_verify(inputs):
    return [run_cli(argv) for argv in VERIFY_COMMANDS.values()]


def _check_verify(inputs, outputs, full):
    return _cli_checks(list(VERIFY_COMMANDS), outputs)


# enumerate-stream --------------------------------------------------------

ENUMERATE_COMMANDS = {
    "all-plain": ["enumerate", "--class", "all", "--n", str(ENUMERATE_N)],
    "irp-3-jsonl": [
        "enumerate", "--class", "irp", "--moduli", "3",
        "--n", str(ENUMERATE_N), "--format", "jsonl",
    ],
}


def _prepare_enumerate(seed):
    return None


def _run_enumerate(inputs):
    return [run_cli(argv) for argv in ENUMERATE_COMMANDS.values()]


def _check_enumerate(inputs, outputs, full):
    checks, digests = _cli_checks(list(ENUMERATE_COMMANDS), outputs)
    (_, all_sink), (_, irp_sink) = outputs
    checks.append((
        "all-plain: one line per partition",
        all_sink.lines == partition_numbers(ENUMERATE_N)[ENUMERATE_N],
    ))
    checks.append((
        "irp-3-jsonl: one line per partition",
        irp_sink.lines == inferior_regular_count(ENUMERATE_N, 3),
    ))
    return checks, digests


# series-gf ---------------------------------------------------------------

def _prepare_series(seed):
    from regpart.classes import PartitionClass, validate_tuple

    families = [("all", PartitionClass.all_partitions())]
    for moduli in SERIES_MODULI:
        mt = validate_tuple(moduli)
        label = ",".join(map(str, moduli))
        families += [
            (f"cp-{label}", PartitionClass.class_regular(mt)),
            (f"rp-{label}", PartitionClass.regular(mt)),
            (f"irp-{label}", PartitionClass.inferior_regular(mt)),
        ]
    random.Random(seed).shuffle(families)
    return families


def _run_series(families):
    from regpart import qseries

    return {label: qseries.gf_class(family, SERIES_TRUNC) for label, family in families}


def _check_series(families, series, full):
    coefficients = {label: list(s.coefficients) for label, s in series.items()}
    checks = [(
        "all: coefficients are p(n)",
        coefficients["all"] == partition_numbers(SERIES_TRUNC),
    )]
    for moduli in SERIES_MODULI:
        label = ",".join(map(str, moduli))
        checks.append((
            f"cp-{label} equals rp-{label}",
            coefficients[f"cp-{label}"] == coefficients[f"rp-{label}"],
        ))
    sha = hashlib.sha256()
    for label in sorted(coefficients):
        sha.update(f"{label}:{coefficients[label]}\n".encode())
    return checks, {"coefficients": sha.hexdigest()}


# preimage-census ---------------------------------------------------------

def _prepare_census(seed):
    from regpart.classes import validate_tuple
    from regpart.partition import Partition

    targets = [
        (n, parts, Partition(parts), _multiplicities(parts).items())
        for n in range(CENSUS_MAX_N + 1)
        for parts in partitions_of(n)
    ]
    queries = [
        (moduli, mt, j, n, parts, mu, mults)
        for moduli, mt in ((m, validate_tuple(m)) for m in CENSUS_MODULI)
        for j in range(1, moduli[0])
        for n, parts, mu, mults in targets
    ]
    order = list(range(len(queries)))
    random.Random(seed).shuffle(order)
    return queries, order


def _run_census(inputs):
    from regpart import glaisher

    queries, order = inputs
    counts = [0] * len(queries)
    for index in order:
        _, mt, j, n, _, mu, _ = queries[index]
        counts[index] = len(glaisher.insertion_preimages(mt, j, n, mu))
    return counts


def _check_census(inputs, counts, full):
    from regpart import glaisher

    queries, _ = inputs
    wrong = sum(
        got != expected_preimages(moduli, j, mults)
        for (moduli, _, j, _, _, _, mults), got in zip(queries, counts)
    )
    checks = [("preimage counts match the counting identity", wrong == 0)]
    digests = {"counts": hashlib.sha256(repr(counts).encode()).hexdigest()}
    if full:
        # the nonempty preimage sets themselves, queried again
        sha = hashlib.sha256()
        for (moduli, mt, j, n, parts, mu, _), got in zip(queries, counts):
            if got:
                found = sorted(
                    (t.partition.runs, t.part, t.copies)
                    for t in glaisher.insertion_preimages(mt, j, n, mu)
                )
                sha.update(f"{moduli}|{j}|{parts}|{found}\n".encode())
        digests["preimages"] = sha.hexdigest()
    return checks, digests


WORKLOADS = {
    "verify-identities": (_prepare_verify, _run_verify, _check_verify),
    "enumerate-stream": (_prepare_enumerate, _run_enumerate, _check_enumerate),
    "series-gf": (_prepare_series, _run_series, _check_series),
    "preimage-census": (_prepare_census, _run_census, _check_census),
}
