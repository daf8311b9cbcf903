"""One repetition of one workload, in a fresh interpreter.

Started by run.py with one JSON argument:
``{"workload", "seed", "traced", "full_check", "spawned_at"}``, where
``spawned_at`` is the CLOCK_MONOTONIC reading taken just before the spawn.
Prints one JSON line with the repetition's timings, checks and digests.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import regpart  # noqa: E402  (setup_s ends here)

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402

import regpart.cli  # noqa: E402,F401  (the CLI layer is traced too)
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, cli_totals  # noqa: E402


def main():
    spec = json.loads(sys.argv[1])
    result = {"setup_s": IMPORTED_AT - spec["spawned_at"]}
    if not os.path.abspath(regpart.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported {regpart.__file__}, not the checkout's src/regpart")
    if sys.flags.optimize:
        sys.exit("refusing to run under -O: the library's assert checks would vanish")

    prepare, run, check = WORKLOADS[spec["workload"]]
    inputs = prepare(spec["seed"])
    checks = []
    tracer = None
    if spec["traced"]:
        tracer = Tracer()
        missed = tracer.install()
        for binding in missed:
            print(f"untraced binding: {binding}", file=sys.stderr)
        checks.append(("tracer wraps every binding", not missed))

    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        outputs = run(inputs)
    finally:
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    found, digests = check(inputs, outputs, spec["full_check"])
    checks += found
    if tracer is not None:
        result["layers"] = tracer.metrics(*cli_totals(outputs))
        checks += [
            (f"no exception escaped {layer}", not tracer.errors[layer]) for layer in LAYERS
        ]
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=peak_kib / 1024,
        checks=checks,
        digests=digests,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
