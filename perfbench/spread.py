"""Run-to-run spread of the end-to-end metrics, and this machine's baseline.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] \\
        [--workload NAME ...] [--baseline perfbench/baseline.json]

Runs `perfbench/run.py` once per seed (first-seed, first-seed+1, ...)
on each workload with BENCHMARK.json's run length, one run at a time,
and prints for every end-to-end metric its median, quartiles and
spread: (Q3 - Q1) / median, from `statistics.quantiles(values, n=4)`.
A spread at or above a third of the metric's bound is flagged, except
for setup_s, whose medians are compared across runs instead.  With
`--baseline` the environment, the default seed and the figures are
written to that file.  Exits 1 if a run fails or a spread is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED  # noqa: E402


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    flagged = False
    figures: dict[str, dict] = {}
    environment = None
    for workload in args.workload or names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            report, result = run_once(bench["command"], workload, seed, bench["run_seconds"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} checks failed", file=sys.stderr)
                flagged = True
            environment = report["environment"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        figures[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            limit = bounds[name] / 3
            flag = name != "setup_s" and spread >= limit
            flagged |= flag
            figures[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "values": vals}
            print(f"{workload:10} {name:12} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
                  f"  spread {spread:7.4f}  (bound/3 {limit:.4f}){'  FLAG' if flag else ''}"
                  f"\n{'':23} values {' '.join(f'{v:.5g}' for v in vals)}", flush=True)
    if args.baseline:
        args.baseline.write_text(json.dumps({
            "default_seed": DEFAULT_SEED,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "run_seconds": bench["run_seconds"],
            "environment": environment,
            "end_to_end": figures,
        }, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
