"""Write reference.json: the output digests of one untraced repetition of
every workload at the current library.

    python3 bench/record_reference.py

Run it only when a workload's inputs change, after checking that the
library's tests pass; a change to the library must keep these digests.
"""

import json

from run import DEFAULT_SEED, REFERENCE, _spawn
from workloads import WORKLOADS


def main():
    reference = {}
    for name in sorted(WORKLOADS):
        spec = {"workload": name, "seed": DEFAULT_SEED, "traced": False, "full_check": True}
        rep, problem = _spawn(spec, timeout=170)
        if problem:
            raise SystemExit(f"{name}: {problem}")
        failed = [check for check, ok in rep["checks"] if not ok]
        if failed:
            raise SystemExit(f"{name}: checks failed: {failed}")
        reference[name] = rep["digests"]
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
