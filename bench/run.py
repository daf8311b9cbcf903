"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each repetition of the workload's fixed work runs in a fresh single-threaded
interpreter (worker.py), one after another, until the next one would end
past ``--seconds``. Untraced runs report medians over the repetitions of
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The line before it
records the run context.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PACKAGE = os.path.join(ROOT, "src", "regpart")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
from tracer import unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 20180415
# Every worker must end this long after the run started, which keeps a
# whole run under three minutes.
HARD_LIMIT_S = 170.0

UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spawn(spec, timeout):
    """One worker repetition: its parsed result, or None with a reason."""
    spec = dict(spec, spawned_at=_monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, f"worker printed no result: {proc.stdout[-500:]!r}"


def _context(seed):
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    loc = 0
    for name in sorted(os.listdir(SRC_PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_PACKAGE, name), encoding="utf-8") as f:
                loc += sum(1 for _ in f)
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_regpart_loc": loc,
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_PACKAGE, "__init__.py")):
        print(f"no regpart sources at {SRC_PACKAGE}", file=sys.stderr)
        return 2
    try:
        with open(REFERENCE, encoding="utf-8") as f:
            reference = json.load(f)[args.workload]
    except (OSError, ValueError, KeyError) as exc:
        print(f"no reference digests for {args.workload}: {exc}", file=sys.stderr)
        return 2

    started = _monotonic()
    base = {"workload": args.workload, "seed": args.seed}
    modes = (False, True) if args.trace else (False,)
    reps = {False: [], True: []}
    last_duration = {}
    attempted = failed = 0
    untraced_digests = None
    deadline = started + args.seconds
    for index in itertools.count():
        traced = modes[index % len(modes)]
        now = _monotonic()
        if len(last_duration) == len(modes) and now + last_duration[traced] > deadline:
            break
        # the first repetition of each kind also runs the costly checks
        full = not reps[traced]
        rep, problem = _spawn(
            dict(base, traced=traced, full_check=full),
            max(1.0, started + HARD_LIMIT_S - now),
        )
        last_duration[traced] = _monotonic() - now
        attempted += 1
        if problem:
            failed += 1
            print(problem, file=sys.stderr)
            break
        reps[traced].append(rep)
        checks = list(rep["checks"])
        digests = rep["digests"]
        for name in reference if full else digests:
            checks.append((f"digest {name}", digests.get(name) == reference.get(name)))
        if untraced_digests is None and not traced:
            untraced_digests = digests
        if traced:
            checks.append((
                "traced digests equal untraced",
                all(untraced_digests.get(name) == d for name, d in digests.items()),
            ))
        for name, ok in checks:
            attempted += 1
            if not ok:
                failed += 1
                print(f"FAIL {'traced' if traced else 'untraced'}: {name}", file=sys.stderr)

    if not reps[False] or (args.trace and not reps[True]):
        print("no repetition completed", file=sys.stderr)
        return 1

    plain = reps[False]
    print(f"# {args.workload}: {len(plain)} untraced, {len(reps[True])} traced repetitions")
    fail_ratio = failed / attempted
    print(f"# fail_ratio = {failed}/{attempted} = {fail_ratio}")
    metrics = {}
    for name, unit in UNITS.items():
        values = [rep[name] for rep in plain]
        q1, q3 = _quartiles(values)
        median = statistics.median(values)
        print(f"# {name} = {median:.6g} {unit} (median; quartiles {q1:.6g} .. {q3:.6g})")
        metrics[name] = {"value": median, "unit": unit}
    metrics["pass_ratio"] = {"value": 1 - fail_ratio, "unit": "ratio"}

    if args.trace:
        traced_wall = statistics.median(rep["wall_s"] for rep in reps[True])
        untraced_wall = metrics["wall_s"]["value"]
        layers = {
            name: statistics.median(rep["layers"][name] for rep in reps[True])
            for name in reps[True][0]["layers"]
        }
        layers["trace.wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = untraced_wall
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        metrics = {}
        for name, value in layers.items():
            unit = unit_of(name)
            print(f"# {name} = {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({"context": _context(args.seed)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
