"""Smoke test of the benchmark: every metric name is emitted and every check bites.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs in `--smoke` mode (classify at m=3, 100 inversions,
the lift at m=3, verify at m=5), untraced and traced twice.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# Report-line metrics beyond the end-to-end ones, by workload.
VERB_METRICS = {
    "classify": set(),
    "verify-m9": set(),
    "invert": {"invert_p50_us", "invert_p99_us", "invert_samples"},
    "algebra": {"lift_s", "is_pp_s", "qm_s", "certify_s", "resultant_s"},
}

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
os.environ.setdefault("ROTAPERM_THREADS", "2")

from run import WORKLOAD_NAMES as WORKLOADS  # noqa: E402  (verify-m9 too)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
            "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def runs():
    """(workload, trace) -> list of (report, result) pairs, run lazily once."""
    cache: dict[tuple[str, int], list] = {}

    def get(workload: str, trace: int, count: int = 1):
        done = cache.setdefault((workload, trace), [])
        while len(done) < count:
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            done.append((report, result))
        return done[:count]
    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_has_every_metric(runs, workload, trace):
    report, result = runs(workload, trace)[0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert report["environment"]["backend"] in ("numpy", "numba")
    if trace:
        assert set(report["tracing_overhead"]) >= {"traced_wall_s", "untraced_wall_s",
                                                    "overhead_s"}
        spans = json.loads((ROOT / report["span_file"]).read_text())
        assert spans["fields"][:5] == ["name", "start", "end", "parent", "thread"]
        assert len(spans["spans"]) == report["spans"] > 0
    else:
        assert all(v > 0 for v in (m["value"] for m in result["metrics"].values()))
        assert report["metrics"]["failed_ratio"]["value"] == 0
        assert VERB_METRICS[workload] <= set(report["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(runs, workload):
    (_, first), (_, second) = runs(workload, 1, count=2)
    counts = {name for name, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_traced_layers_are_exercised(runs):
    """Each layer's work shows on the workload that is meant to exercise it."""
    m = {w: runs(w, 1)[0][1]["metrics"] for w in WORKLOADS}
    assert m["classify"]["search.vectors_decided"]["value"] == 256
    assert m["classify"]["permcheck.is_permutation_calls"]["value"] >= 256
    assert 0 < m["classify"]["permcheck.decide_useful_ratio"]["value"] < 1
    assert m["verify-m9"]["kernels.scan_bytes"]["value"] > 0
    for name in ("field.cubic_roots_calls", "resolvent.coeffs_calls", "family.eval_F_calls",
                 "invert.table_cache_misses"):
        assert m["invert"][name]["value"] > 0, name
    for name in ("kernels.interp_s", "mpoly.resultant_calls", "lift.qm_calls",
                 "certify.resultant_Q_s", "certify.A_zero_classification_m5_s"):
        assert m["algebra"][name]["value"] > 0, name


def _tamper_classify(out):
    code, text = out[0]
    payload = json.loads(text)
    payload["results"]["3"].remove("00000011")
    return [(code, json.dumps(payload))]


def _tamper_verify(out):
    code, text = out[0]
    return [(code, text.replace("true", "false"))]


def _tamper_invert(out):
    x, y, z = out[0]
    return [(x ^ 1, y, z), *out[1:]]


def _tamper_algebra(out):
    return [{**out[0], "qm_pair": (0, '{"equivalent": true}')}]


@pytest.mark.parametrize("workload, tamper", [
    ("classify", _tamper_classify),
    ("verify-m9", _tamper_verify),
    ("invert", _tamper_invert),
    ("algebra", _tamper_algebra),
])
def test_checks_catch_a_wrong_output(tmp_path, workload, tamper):
    import workloads
    wl = workloads.WORKLOADS[workload](5, True, tmp_path)
    wl.setup()
    job = wl.job()
    assert wl.check(job)[1] == 0
    job.outputs = tamper(job.outputs)
    assert wl.check(job)[1] >= 1


def test_failed_check_exits_nonzero(capsys):
    import run
    assert run.emit({}, 3, 1, {}) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("classify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
