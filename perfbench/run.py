"""rotaperm benchmark: one workload per process, checked outputs, one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classify|verify-m9|invert|algebra \\
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

The program under test is `src/rotaperm` of the current directory,
imported from source.  A run sets up (import, contexts, tables,
warm-up; for `invert` also the T2 inverse table), then one closed-loop
caller repeats the workload's job until `--seconds` have passed (at
least one job), and every output is checked afterwards.  Set-up is
repeated in fresh processes and its median is reported as `setup_s`.

With `--trace 0` the metrics are the end-to-end ones, measured without
tracing.  With `--trace 1` the run wraps rotaperm's public functions in
spans and counters (see tracing.py), traces set-up and exactly one job,
reports the per-layer metrics, writes the spans under `.perfbench/`,
and then runs untraced jobs to report the tracing overhead.

`--smoke` shrinks every workload (classify at m=3, 100 inversions, the
lift at m=3, verify at m=5) so that all metric names and checks run in
seconds.

stdout: a report line (environment, every metric by name and unit,
including `failed_ratio` and the per-verb timings that apply to the
workload), then the result line {"correct", "attempted", "failed",
"metrics"}.  The exit code is 1 when an output check failed and 2 when
`src/rotaperm` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

START = time.perf_counter()
ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 1
SETUP_REPEATS = 5  # set-ups per run: this process plus fresh ones
# verify-m9 (one 2^27-point decision, 35-45 s and 2.7 GB on a 2-CPU Xeon)
# is left out of BENCHMARK.json so that the repeated runs of a comparison
# fit their time limit; it stays runnable by name.
WORKLOAD_NAMES = ("classify", "verify-m9", "invert", "algebra")

# The end-to-end metrics every workload reports on its result line.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    from rotaperm import _kernels
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "backend": _kernels.BACKEND,
        "ROTAPERM_THREADS": os.environ["ROTAPERM_THREADS"],
        "cpu": _cpu_model(),
    }


def run_job(wl):
    """One timed job plus its CPU time; checks are left to the caller."""
    cpu = _cpu_seconds()
    result = wl.job()
    result.cpu = _cpu_seconds() - cpu
    return result


def run_jobs(wl, seconds: float) -> list:
    """Closed loop: the next job starts when the previous one returns."""
    jobs = []
    deadline = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < deadline:
        jobs.append(run_job(wl))
    return jobs


def check_jobs(wl, jobs) -> tuple[int, int]:
    attempted = failed = 0
    for job in jobs:
        a, f = wl.check(job)
        attempted += a
        failed += f
    return attempted, failed


def setup_in_fresh_processes(args, count: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q / 100 * len(ordered)) - 1))]


def verb_timings(jobs) -> dict:
    """Median of each kind of timed call; p50, p99 and sample count for inversions."""
    merged: dict[str, list[float]] = {}
    for job in jobs:
        for kind, values in job.samples.items():
            merged.setdefault(kind, []).extend(values)
    out = {}
    for kind, values in merged.items():
        if kind == "invert":
            out["invert_p50_us"] = {"value": statistics.median(values) * 1e6, "unit": "us"}
            out["invert_p99_us"] = {"value": percentile(values, 99) * 1e6, "unit": "us"}
            out["invert_samples"] = {"value": len(values), "unit": "count"}
        else:
            out[f"{kind}_s"] = {"value": statistics.median(values), "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "rotaperm" / "__init__.py").is_file():
        print(f"error: no rotaperm sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    os.environ["ROTAPERM_THREADS"] = str(min(2, os.cpu_count() or 1))
    sys.path.insert(0, str(src))
    OUT_DIR.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        import workloads  # imports rotaperm: part of set-up
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, Path(workdir))
        if args.trace:
            return traced_run(args, wl)
        wl.setup()
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(setup_s)
            return 0
        setups = [setup_s] + setup_in_fresh_processes(args, (2 if args.smoke else SETUP_REPEATS) - 1)
        jobs = run_jobs(wl, args.seconds)
        # ru_maxrss before the checks, so the benchmark's oracles do not count.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed = check_jobs(wl, jobs)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(j.wall for j in jobs),
            "cpu_s": statistics.median(j.cpu for j in jobs),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        report = {
            "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "jobs": len(jobs), "setup_runs": len(setups), "environment": environment(),
            "metrics": {**metrics,
                        "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
                        **verb_timings(jobs)},
        }
        return emit(report, attempted, failed, metrics)


def traced_run(args, wl) -> int:
    from tracing import LAYER_METRICS, Tracer, layer_metrics
    import rotaperm.search

    tracer = Tracer()
    tracer.install()
    try:
        wl.setup()
        traced = run_job(wl)
    finally:
        tracer.uninstall()
    untraced = run_jobs(wl, args.seconds)
    attempted, failed = check_jobs(wl, [traced, *untraced])
    values = layer_metrics(tracer, rotaperm.search.worker_count())
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    span_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(span_file)
    untraced_wall = statistics.median(j.wall for j in untraced)
    report = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "environment": environment(), "spans": len(tracer.spans()),
        "span_file": str(span_file.relative_to(ROOT)),
        "tracing_overhead": {
            "traced_wall_s": traced.wall, "untraced_wall_s": untraced_wall,
            "overhead_s": traced.wall - untraced_wall, "untraced_jobs": len(untraced),
        },
        "metrics": metrics,
    }
    return emit(report, attempted, failed, metrics)


def emit(report: dict, attempted: int, failed: int, metrics: dict) -> int:
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
