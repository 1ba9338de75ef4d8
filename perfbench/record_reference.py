"""Record the reference output digests the benchmark checks at seed 7.

    python3 perfbench/record_reference.py [workload ...]

Runs each named workload (default: all) once at the canonical seed and
size and rewrites its entry in perfbench/reference_digests.json. Run it
only when a change is meant to alter the pipeline's outputs, and say so
in CHANGES.md; a performance change must leave the digests as they are.
"""

import json
import os
import sys
import tempfile

THREADS = str(min(2, len(os.sched_getaffinity(0))))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import (CANONICAL_SEED, REFERENCE_FILE, WORKLOADS,  # noqa: E402
                       Session)


def main(names: list[str]) -> int:
    os.chdir(ROOT)
    try:
        with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            session = Session(workload, CANONICAL_SEED, tmp)
            session.reference = None
            session.reset()
            outcome = session.run()
            session.check(outcome)
        if outcome.failures:
            print(f"{name}: not recorded, failed {outcome.failures}",
                  file=sys.stderr)
            return 1
        reference[name] = {"seed": CANONICAL_SEED, "rows": workload.rows,
                           "sha256": outcome.digests}
        print(f"{name}: recorded {len(outcome.digests)} digests")
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
