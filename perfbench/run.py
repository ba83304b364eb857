"""Benchmark for cbtopo: seeded verdict jobs, checked, timed and optionally traced.

Usage, from the repository root:

    python3 perfbench/run.py [--workload verify|search|simulate|all]
                             [--seed N] [--seconds S] [--trace 0|1]

One workload runs as a closed loop with a single client in this process:
set-up, then as many passes over the workload's jobs as fit in ``--seconds``
(by default ``run_seconds`` from BENCHMARK.json), then, with ``--trace 1``,
one more pass with spans recorded.  The gated timings are measured against
the reference kernel in ``reference.py``, timed just before every job and
every set-up.  ``all`` runs each workload in a fresh process and ends with
one result holding every workload's metrics as ``<workload>.<metric>``.  The
last line of output is one JSON object.  No result is printed when a run
fails: a wrong verdict exits with code 3, a checkout without ``src/cbtopo``
with code 2, and a traced run that cannot find a layer to wrap with code 4.
``all`` stops at the first failed run and exits with its code.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import reference
from spans import MissingTarget, Recorder
from verdicts import NoVerdict, VerdictError
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUPS_MIN = 5
SETUP_SECONDS = 3.0
END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("verdict_p50_ref", "ref"),
              ("peak_rss_mb", "MB"))
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
EXIT_NO_PROGRAM = 2
EXIT_WRONG_VERDICT = 3
EXIT_MISSING_TARGET = 4


def nearest_rank(samples, percentile: float) -> float:
    """The smallest sample with at least ``percentile`` % of samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_percentile(samples):
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it,
    as ``(percentile, value)``, or None when there are too few samples."""
    for p in TAIL_PERCENTILES:
        if len(samples) * (100.0 - p) / 100.0 >= 10 - 1e-9:
            return p, nearest_rank(samples, p)
    return None


def import_cbtopo():
    """Import the package from ``src`` afresh, so every set-up pays for it."""
    for key in [k for k in sys.modules if k == "cbtopo" or k.startswith("cbtopo.")]:
        del sys.modules[key]
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    lib = importlib.import_module("cbtopo")
    if not os.path.abspath(lib.__file__).startswith(src + os.sep):
        raise ImportError(f"cbtopo was found at {lib.__file__}, outside this checkout")
    importlib.import_module("cbtopo.cli")
    return lib


def set_up(name: str, seed: int, workdir: str):
    """Import cbtopo and build the workload's seeded inputs, at least
    SETUPS_MIN times and until SETUP_SECONDS have gone, each right after a
    timed run of the reference kernel; return the last workload, the set-up
    times and the kernel times."""
    times, kernels = [], []
    while len(times) < SETUPS_MIN or sum(times) < SETUP_SECONDS:
        gc.collect()
        kernels.append(reference.timed())
        start = time.perf_counter()
        workload = WORKLOADS[name](import_cbtopo(), seed, workdir)
        workload.jobs(0)
        times.append(time.perf_counter() - start)
    return workload, times, kernels


def run_pass(jobs, run=None, kernel=None):
    """One job at a time, ``gc.collect()`` between jobs outside the timer.
    With ``kernel``, times it just before each job, also outside the job's
    timer.  Returns per-job durations, kernel durations, jobs without a
    verdict and task bytes."""
    durations, kernels, failed, task_bytes = [], [], 0, 0
    for job_id, fn in jobs:
        gc.collect()
        if kernel:
            kernels.append(kernel())
        start = time.perf_counter()
        try:
            task_bytes += run(job_id, fn) if run else fn()
        except NoVerdict:
            failed += 1
        durations.append(time.perf_counter() - start)
    return durations, kernels, failed, task_bytes


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        workload, setups, setup_kernels = set_up(name, seed, workdir)
        walls, ratios, durations, kernels, failed = [], [], [], [], 0
        start = time.perf_counter()
        # Start another pass only if it should end within the time given.
        while not walls or time.perf_counter() - start + statistics.mean(walls) <= seconds:
            pass_durations, pass_kernels, pass_failed, _ = run_pass(
                workload.jobs(len(walls)), kernel=reference.timed)
            walls.append(sum(pass_durations))
            ratios.append(sum(pass_durations) / sum(pass_kernels))
            durations += pass_durations
            kernels += pass_kernels
            failed += pass_failed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            recorder = Recorder()
            try:
                recorder.install()
                traced, _, traced_failed, task_bytes = run_pass(workload.jobs(0), recorder.run_job)
            finally:
                recorder.restore()
            recorder.counts["serialize.task_bytes"] += task_bytes
            metrics = recorder.metrics(statistics.median(walls))
            spans_path = os.path.join(OUT_DIR, f"spans-{name}.jsonl")
            recorder.write(spans_path)
            _print_traced(name, seed, metrics, recorder, spans_path)
            attempted, failed = len(traced), traced_failed
        else:
            # A shared host changes speed for minutes at a time, longer than a
            # run, so the gated times are in units of the reference kernel
            # timed in the same spell: per pass, and per job or set-up beside
            # its kernel.  Set-up time is then scaled back to seconds at the
            # reference speed.
            setup_s = reference.KERNEL_S * statistics.median(
                t / k for t, k in zip(setups, setup_kernels))
            values = {"setup_s": setup_s, "wall_ref": statistics.median(ratios),
                      "verdict_p50_ref": statistics.median(
                          d / k for d, k in zip(durations, kernels)),
                      "peak_rss_mb": peak_rss_mb}
            metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
            attempted = len(durations)
            _print_untraced(name, seed, metrics, setups, walls, durations, kernels, failed)
        return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir)


def _print_untraced(name, seed, metrics, setups, walls, durations, kernels, failed) -> None:
    jobs, passes = len(durations), len(walls)
    print(f"workload {name} (seed {seed}): {passes} passes, {jobs} jobs, closed loop, 1 client")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, at the reference speed",
        "wall_ref": f"median of {passes} passes, pass time / kernel time",
        "verdict_p50_ref": f"median of {jobs} jobs, job time / kernel time",
        "peak_rss_mb": "peak RSS of this process",
    }
    for key, metric in metrics.items():
        print(f"  {key:<15} {metric['value']:12.6f} {metric['unit']:<5} ({notes[key]})")
    print(f"  setup_raw_s     {statistics.median(setups):12.6f} s     "
          f"(median of {len(setups)} set-ups as timed)")
    print(f"  wall_s          {statistics.median(walls):12.6f} s     "
          f"(median of {passes} passes; fastest {min(walls):.6f} s)")
    print(f"  verdict_p50_s   {statistics.median(durations):12.6f} s     (median of {jobs} jobs)")
    tail = tail_percentile(durations)
    if tail is not None:
        p, value = tail
        beyond = jobs - math.ceil(p / 100.0 * jobs - 1e-9)
        print(f"  {f'verdict_p{p:g}_s':<15} {value:12.6f} s     ({jobs} jobs, {beyond} beyond it)")
    print(f"  kernel_p50_s    {statistics.median(kernels):12.6f} s     "
          f"(reference kernel, median of {jobs} runs)")
    print(f"  failed_ratio    {failed / jobs:12.6f} ratio ({failed} of {jobs} jobs without a verdict)")


def _print_traced(name, seed, metrics, recorder, spans_path) -> None:
    wall = metrics["trace.wall_s"]["value"]
    own = recorder.self_times()
    print(f"workload {name} (seed {seed}): traced pass, {len(recorder.spans)} spans "
          f"written to {os.path.relpath(spans_path, ROOT)}")
    print(f"  self time accounted {sum(own.values()):.6f} s of traced wall {wall:.6f} s; "
          f"overhead {metrics['trace.overhead_ratio']['value']:.3f}")
    for key, metric in metrics.items():
        print(f"  {key:<44} {metric['value']:16.6f} {metric['unit']}")


def run_all(args) -> int:
    """Every workload in a fresh process, one after another.  Stops at the
    first run that fails; otherwise prints one result for them all."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        if child.returncode:
            print("\n".join(lines))
            return child.returncode
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{key}": metric for key, metric in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def default_seconds() -> int:
    """``run_seconds`` from BENCHMARK.json, the one place the run length is set."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = default_seconds()
    if args.workload == "all":
        return run_all(args)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import cbtopo from {os.path.join(ROOT, 'src')}: {exc}",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    except VerdictError as exc:
        print(f"error: wrong verdict: {exc}", file=sys.stderr)
        return EXIT_WRONG_VERDICT
    except MissingTarget as exc:
        print(f"error: the program has no such layer to trace: {exc}; "
              "point spans.SPANS or spans.COUNTED at where it lives now", file=sys.stderr)
        return EXIT_MISSING_TARGET
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
