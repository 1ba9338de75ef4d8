"""Runs one benchmark workload in a fresh process; started by run.py.

The set-up time is measured from the first line of this file: importing
numpy, scipy and botsift and building the workload's config or argv.
Then the worker runs timed iterations until the next one would end past
``--seconds`` (at least one), checks the outputs after each, and writes a
JSON result to ``--result``. With ``--trace 1`` each unit is an untraced
iteration followed by a traced one, so the trace overhead is measured in
the same process; the spans are written next to the result.
With ``--setup-only`` it stops after set-up and writes only that time.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from tracing import COMPUTED_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Session  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--rows", type=int, default=None)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _iteration(session: Session, run_id: str, traced: bool) -> dict:
    session.reset()
    tracer = Tracer(run_id) if traced else None
    with tracer or contextlib.nullcontext():
        start, cpu_start = time.perf_counter(), time.process_time()
        outcome = session.run()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
    session.check(outcome)
    record = {
        "run": run_id,
        "traced": traced,
        "wall_s": wall,
        "cpu_s": cpu,
        "ops": len(outcome.ops),
        "failed": outcome.failed,
        "failures": {outcome.ops[op]: msgs
                     for op, msgs in sorted(outcome.failures.items())},
        "digests": outcome.digests,
        "class_counts_in": outcome.class_counts_in,
    }
    if tracer is not None:
        record["layer_metrics"] = layer_metrics(tracer.spans, tracer.counts)
        record["spans"] = [span.as_dict() for span in tracer.spans]
    return record


def _consistency_failures(iterations: list[dict]) -> list[str]:
    """Outputs and computed counts must repeat exactly within a run."""
    problems = []
    digests = [it["digests"] for it in iterations if not it["failed"]]
    if any(d != digests[0] for d in digests[1:]):
        problems.append("output digests differ between iterations "
                        "(traced and untraced included)")
    counts = [{name: it["layer_metrics"][name] for name in COMPUTED_METRICS}
              for it in iterations if it["traced"]]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("computed counts differ between traced iterations")
    return problems


def main(argv=None) -> int:
    args = _parse(argv)
    workload = WORKLOADS[args.workload]
    if args.rows is not None:
        workload = dataclasses.replace(workload, rows=args.rows)
    workdir = os.path.join(ROOT, ".bench_work", f"{workload.name}-{os.getpid()}")
    session = Session(workload, args.seed, workdir)
    setup_s = time.perf_counter() - SETUP_START
    result: dict = {"setup_s": setup_s}
    if not args.setup_only:
        unit = (False, True) if args.trace else (False,)
        iterations: list[dict] = []
        try:
            while True:
                for traced in unit:
                    run_id = f"{workload.name}-seed{args.seed}-{len(iterations)}"
                    iterations.append(_iteration(session, run_id, traced))
                measured = sum(it["wall_s"] for it in iterations)
                units_done = len(iterations) // len(unit)
                if measured + measured / units_done > args.seconds:
                    break
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        spans = [span for it in iterations for span in it.pop("spans", [])]
        if spans:
            spans_path = args.result.removesuffix(".json") + "-spans.json"
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(spans, fh)
        result.update({
            "workload": dataclasses.asdict(workload),
            "seed": args.seed,
            "reference_checked": session.reference is not None,
            "iterations": iterations,
            "consistency_failures": _consistency_failures(iterations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "versions": {"python": platform.python_version(),
                         "numpy": numpy.__version__, "scipy": scipy.__version__},
        })
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
