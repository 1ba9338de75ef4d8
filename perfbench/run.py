"""botsift benchmark: times the pipeline end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload experiment-50k --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all        # every workload, seed 7

Workloads are described in perfbench/workloads.py and BENCHMARK.json.
Each run starts fresh worker processes (perfbench/worker.py) with the
BLAS/OpenMP thread count pinned to min(2, nproc):

- two set-up probes, which only import botsift and build the workload's
  config or argv; ``setup_s`` is the median of their set-up times and the
  workload process's own;
- one workload process, which runs timed iterations for about
  ``--seconds`` (at least one) and checks every iteration's outputs.

With ``--trace 0`` the result carries the end-to-end metrics (wall_s,
rows_per_s, peak_rss_mb, setup_s). With ``--trace 1`` it carries the
per-layer metrics of traced iterations (see perfbench/tracing.py) and
``trace_overhead_frac``. A readable report comes first; the last line of
standard output is the JSON result. The full result, with the run
environment, goes to .bench_work/results/.

The exit code is 0 when a result was printed, including one with failed
operations ("correct": false), and 2 when nothing could be measured, for
instance when the checkout holds no botsift sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracing import metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(ROOT, ".bench_work", "results")
# run.py imports no botsift code, so that it can fail cleanly in a
# checkout without sources; the names repeat workloads.WORKLOADS.
WORKLOAD_NAMES = ("experiment-50k", "botiot-scale", "cli-session")
END_TO_END_UNITS = {"wall_s": "s", "rows_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
UNITS = {**END_TO_END_UNITS, **metric_units()}
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(Exception):
    """Nothing could be measured."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    return min(2, nproc())


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(blas_threads()) for var in THREAD_VARS})
    tmp = os.path.join(ROOT, ".bench_work", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              timeout=30, capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git failed)"
    return done.stdout.strip() or "unknown"


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p90/p99/p99.9 (nearest rank) with ten samples above it."""
    ordered = sorted(samples)
    best = None
    for p in (90.0, 99.0, 99.9):
        rank = math.ceil(len(ordered) * p / 100.0)
        if len(ordered) - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def _spawn(args: list[str], result_path: str, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    if os.path.exists(result_path):
        os.remove(result_path)
    try:
        done = subprocess.run(
            [sys.executable, WORKER, *args, "--result", result_path],
            cwd=ROOT, env=worker_env(), stdout=subprocess.DEVNULL,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError("worker ran past the time limit and was stopped")
    if done.returncode != 0 or not os.path.exists(result_path):
        raise BenchmarkError(f"worker exited with code {done.returncode}")
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 rows: int | None) -> dict:
    """Measure one workload; returns the full result record."""
    if not os.path.isfile(os.path.join(ROOT, "src", "botsift", "__init__.py")):
        raise BenchmarkError(f"no botsift sources under {ROOT}/src")
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}")
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(trace)]
    if rows is not None:
        common += ["--rows", str(rows)]
    setups = [_spawn(common + ["--setup-only"], f"{stem}-setup.json",
                     deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    record = _spawn(common, f"{stem}.json", deadline)
    setups.append(record["setup_s"])
    iterations = record["iterations"]
    plain = [it["wall_s"] for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    attempted = sum(it["ops"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    input_rows = record["workload"]["rows"]
    wall = statistics.median(plain)
    if trace:
        metrics = {key: statistics.median(it["layer_metrics"][key] for it in traced)
                   for key in traced[0]["layer_metrics"]}
        metrics["trace_overhead_frac"] = (
            statistics.median(it["wall_s"] for it in traced) / wall - 1.0)
    else:
        metrics = {"wall_s": wall, "rows_per_s": input_rows / wall,
                   "peak_rss_mb": record["peak_rss_mb"],
                   "setup_s": statistics.median(setups)}
    record.update({
        "environment": {
            "git_sha": git_sha(), **record.pop("versions"),
            "nproc": nproc(), "blas_threads": blas_threads(),
            "seed": seed, "trace": trace, "seconds": seconds,
            "input_rows": input_rows,
            "class_counts_in": iterations[0]["class_counts_in"],
        },
        "samples": {"wall_s": len(plain), "traced": len(traced),
                    "setup_s": len(setups)},
        "setup_samples_s": setups,
        "wall_tail": tail_percentile(plain),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not record["consistency_failures"],
        "metrics": metrics,
    })
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    os.remove(f"{stem}-setup.json")
    return record


def report(record: dict) -> str:
    env = record["environment"]
    samples = record["samples"]
    checks = ("reference digests and invariants" if record["reference_checked"]
              else "invariants (no reference digests for this seed and size)")
    lines = [
        f"== {record['workload']['name']}: seed {env['seed']}, "
        f"trace {env['trace']}, {env['input_rows']} input rows "
        f"(normal {env['class_counts_in'].get('normal')}, "
        f"botnet {env['class_counts_in'].get('botnet')})",
        f"   git {env['git_sha']}; python {env['python']}, numpy "
        f"{env['numpy']}, scipy {env['scipy']}; nproc {env['nproc']}, "
        f"BLAS/OpenMP threads {env['blas_threads']}",
        f"   output checks: {checks}; "
        f"{record['attempted']} operations, {record['failed']} failed, "
        f"error_rate {record['failed'] / record['attempted']:.4f}",
    ]
    for it in record["iterations"]:
        for op, messages in it["failures"].items():
            lines.append(f"   FAILED {it['run']} {op}: {'; '.join(messages)}")
    for problem in record["consistency_failures"]:
        lines.append(f"   FAILED {problem}")
    counts = {"wall_s": samples["wall_s"], "rows_per_s": samples["wall_s"],
              "peak_rss_mb": 1, "setup_s": samples["setup_s"]}
    for name, value in record["metrics"].items():
        unit = UNITS[name]
        if name in counts:
            note = f"median of {counts[name]}" if counts[name] > 1 else "1 sample"
        elif unit in ("count", "bytes"):
            note = "computed count"
        else:
            note = f"median of {samples['traced']} traced"
        lines.append(f"   {name:<32} {value:>16.6f} {unit:<6} ({note})")
    if record["wall_tail"]:
        p, value = record["wall_tail"]
        lines.append(f"   wall_s p{p:g}: {value:.6f} s")
    if samples["traced"]:
        metrics = record["metrics"]
        traced_wall = statistics.median(
            it["wall_s"] for it in record["iterations"] if it["traced"])
        unattributed = metrics["experiment.self_s"] + metrics["cli.self_s"]
        lines.append(f"   experiment.self_s + cli.self_s = {unattributed:.6f} s, "
                     f"{unattributed / traced_wall:.2%} of traced wall_s")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="botsift benchmark")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=None,
                        help="override the workload's input rows (self-test)")
    args = parser.parse_args(argv)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace,
                                  args.rows)
            print(report(record), flush=True)
            records.append(record)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']['name']}/{k}": v
                   for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": value, "unit": UNITS[name.split("/")[-1]]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
