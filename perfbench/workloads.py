"""The benchmark's workloads: seeded inputs, set-up, timed job and output checks.

Each workload drives rotaperm through its public entry points only
(`rotaperm.cli.main` with stdout captured, or the library functions the
CLI calls), always looked up as module attributes at call time so that
the tracer's wrappers are the ones called.  `job` does the timed work
and keeps its outputs; `check` verifies them afterwards, untimed and
untraced.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

import rotaperm.cli
import rotaperm.family
import rotaperm.field
import rotaperm.invert
import rotaperm.lift
import rotaperm.permcheck
from rotaperm.errors import RotapermError

HERE = Path(__file__).resolve().parent
# The five named families as a1..a8 bitstrings, and the paper's counts of
# permutation vectors per degree; written out here, not read from rotaperm.
NAMED_BITS = {"T1": "10011010", "T2": "00111010", "T3": "00000011",
              "T4": "10101010", "T5": "00111100"}
NAMED = tuple(NAMED_BITS)
SEARCH_COUNTS = {3: 36, 5: 29, 7: 29}
RESULTANT_ARGV = ["resultant", "-v", "x", "-f", "x^3+y^3+a", "-g", "x*y^2+y*z^2+x^2*z+c"]
RESULTANT_OUT = ('{"var": "x", "resultant": "y^9 + y^6*a + y^5*z*c + y^3*z^6 + y^3*z^3*a'
                 ' + y^2*z^4*c + y^2*z*a*c + y*z^2*c^2 + z^3*a^2 + c^3"}\n')


@dataclass
class JobResult:
    wall: float                                  # seconds of timed work
    cpu: float = 0.0                             # process CPU seconds of the job
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    outputs: list = field(default_factory=list)  # whatever `check` needs


def cli(argv: list[str]) -> tuple[int, str, float]:
    """Run one rotaperm command in-process: (exit code, stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = rotaperm.cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - start


class Classify:
    """`rotaperm search --m 3,5,7`: all 768 (vector, degree) decisions.

    The inputs are fixed; the seed changes nothing.
    """

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.degrees = (3,) if smoke else (3, 5, 7)
        self.argv = ["search", "--m", ",".join(map(str, self.degrees))]
        tag = "_".join(map(str, self.degrees))
        self.expected = (HERE / "expected" / f"search_m{tag}.json").read_text()

    def setup(self) -> None:
        # Warms the CLI, permcheck and the kernels without a search, so the
        # traced search.* metrics describe the job alone.
        cli(["verify", "--family", "T3", "--m", "3"])

    def job(self) -> JobResult:
        code, out, wall = cli(self.argv)
        return JobResult(wall, outputs=[(code, out)])

    def check(self, result: JobResult) -> tuple[int, int]:
        attempted = 256 * len(self.degrees)
        code, out = result.outputs[0]
        if code != 0:
            return attempted, attempted
        got = json.loads(out)["results"]
        want = json.loads(self.expected)["results"]
        failed = 0
        for m in self.degrees:
            vectors = set(got.get(str(m), ()))
            failed += len(vectors ^ set(want[str(m)]))
            if len(vectors) != SEARCH_COUNTS[m] or not set(NAMED_BITS.values()) <= vectors:
                failed += 1
        failed += out != self.expected
        return attempted, min(failed, attempted)


class VerifyM9:
    """`rotaperm verify --family <seeded> --m 9`: one 2^27-point decision."""

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.m = 5 if smoke else 9
        self.family = random.Random(seed).choice(NAMED)

    def setup(self) -> None:
        cli(["verify", "--family", "T3", "--m", "3"])

    def job(self) -> JobResult:
        code, out, wall = cli(["verify", "--family", self.family, "--m", str(self.m)])
        return JobResult(wall, outputs=[(code, out)])

    def check(self, result: JobResult) -> tuple[int, int]:
        code, out = result.outputs[0]
        want = {"family": NAMED_BITS[self.family], "m": self.m, "permutation": True,
                "points": 1 << (3 * self.m)}
        return 1, int(code != 0 or json.loads(out) != want)


class Invert:
    """A seeded stream of single-point `invert_point(..., "auto")` calls.

    Four fifths of the points are at m=7 over T1..T5 and one fifth at
    m=9 over T1, T3, T4 and T5 (T2 has no full table at m=9).  Every
    (degree, family) pair gets the same number of points, so the cost
    of a pass barely depends on the seed.
    """

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        n = 100 if smoke else 1000
        rng = random.Random(seed)
        plan = [(7, f) for f in NAMED for _ in range(4 * n // 25)]
        plan += [(9, f) for f in NAMED if f != "T2" for _ in range(n // 20)]
        self.stream = [(m, f, tuple(rng.randrange(1 << m) for _ in range(3))) for m, f in plan]
        rng.shuffle(self.stream)

    def setup(self) -> None:
        # Warm every (degree, family) route; for T2 this builds the inverse table.
        self.ctx = {m: rotaperm.field.FieldCtx(m) for m in (7, 9)}
        self.fams = {f: rotaperm.family.named_family(f) for f in NAMED}
        for m, f in sorted({(m, f) for m, f, _ in self.stream}):
            rotaperm.invert.invert_point(self.ctx[m], self.fams[f], (1, 2, 3), "auto")

    @cached_property
    def expected(self) -> dict[int, tuple[int, int, int]]:
        """Expected m=7 preimages, from a full inverse table per family.

        Built on first use by `check`, after the timed jobs, so that the
        oracle adds neither to set-up nor to peak RSS.
        """
        ctx = rotaperm.field.FieldCtx(7)
        expected = {}
        for f in NAMED:
            images = rotaperm.permcheck.family_images(ctx, rotaperm.family.named_family(f))
            inverse = np.empty_like(images)
            inverse[images] = np.arange(images.size, dtype=images.dtype)
            for i, (m, g, (a, b, c)) in enumerate(self.stream):
                if m == 7 and g == f:
                    p = int(inverse[(a << 14) | (b << 7) | c])
                    expected[i] = (p >> 14, (p >> 7) & 0x7F, p & 0x7F)
        return expected

    def job(self) -> JobResult:
        invert_point = rotaperm.invert.invert_point
        latencies = []
        preimages = []
        clock = time.perf_counter
        start = clock()
        for m, f, target in self.stream:
            t = clock()
            try:
                pre = invert_point(self.ctx[m], self.fams[f], target, "auto")[0]
            except RotapermError:
                pre = None
            latencies.append(clock() - t)
            preimages.append(pre)
        result = JobResult(clock() - start, outputs=preimages)
        result.samples["invert"] = latencies
        return result

    def check(self, result: JobResult) -> tuple[int, int]:
        failed = 0
        for i, ((m, f, target), pre) in enumerate(zip(self.stream, result.outputs)):
            if pre is None or rotaperm.family.eval_F(self.ctx[m], self.fams[f], pre) != target:
                failed += 1
            elif m == 7 and pre != self.expected[i]:
                failed += 1
        return len(self.stream), failed


class Algebra:
    """The CLI sequence lift, is_pp, JSON round trip, qm, certify, resultant.

    Lifts a seeded pair of named families, decides QM-equivalence once on
    that (inequivalent) pair and once against a seeded a*P(c*X^d) of the
    first lift, then repeats `certify` and the README's resultant.
    """

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        rng = random.Random(seed)
        self.m = 3 if smoke else 5
        self.repeats = 1 if smoke else 5
        self.pair = rng.sample(NAMED, 2)
        size = 1 << (3 * self.m)
        self.a = rng.randrange(1, size)
        self.c = rng.randrange(1, size)
        self.d = rng.randrange(1, size)
        while math.gcd(self.d, size - 1) != 1:
            self.d = rng.randrange(1, size)
        self.points = [rng.randrange(size) for _ in range(16)]
        self.workdir = workdir
        self.paths = [workdir / f"lift_{f}.json" for f in self.pair]
        self.target_path = workdir / "target.json"

    def setup(self) -> None:
        cli(["lift", "--family", "T3", "--m", "3", "--out", str(self.workdir / "warm.json")])

    def job(self) -> JobResult:
        lift = rotaperm.lift
        result = JobResult(0.0)
        out = {}
        for f, path in zip(self.pair, self.paths):
            code, text, dt = cli(["lift", "--family", f, "--m", str(self.m), "--out", str(path)])
            result.samples["lift"].append(dt)
            out[f"lift_{f}"] = (code, text)
        polys = []
        for f, path in zip(self.pair, self.paths):
            start = time.perf_counter()
            poly = lift.lifted_from_json(json.loads(path.read_text()))
            ok = lift.is_pp(poly.ext, poly)
            result.samples["is_pp"].append(time.perf_counter() - start)
            polys.append(poly)
            out[f"is_pp_{f}"] = ok
        code, text, dt = cli(["qm", "--p", str(self.paths[0]), "--q", str(self.paths[1])])
        result.samples["qm"].append(dt)
        out["qm_pair"] = (code, text)
        # The seeded target is input, made outside the timed calls.
        target = lift.qm_transform(polys[0].ext, polys[0], self.a, self.c, self.d)
        self.target_path.write_text(json.dumps(target.to_json()))
        code, text, dt = cli(["qm", "--p", str(self.target_path), "--q", str(self.paths[0])])
        result.samples["qm"].append(dt)
        out["qm_target"] = (code, text, target, polys[0])
        for i in range(self.repeats):
            code, text, dt = cli(["certify"])
            result.samples["certify"].append(dt)
            out[f"certify_{i}"] = (code, text)
            code, text, dt = cli(RESULTANT_ARGV)
            result.samples["resultant"].append(dt)
            out[f"resultant_{i}"] = (code, text)
        result.wall = sum(sum(v) for v in result.samples.values())
        result.outputs = [out]
        return result

    def check(self, result: JobResult) -> tuple[int, int]:
        out = result.outputs[0]
        lift = rotaperm.lift
        failures = []
        for f, path in zip(self.pair, self.paths):
            code, text = out[f"lift_{f}"]
            payload = json.loads(text) if code == 0 else None
            failures.append(payload is None or payload != json.loads(path.read_text()))
            if payload is None:
                failures.append(True)
                continue
            poly = lift.lifted_from_json(payload)
            ext, fam = poly.ext, rotaperm.family.named_family(f)
            maps = all(
                poly.evaluate(t) == ext.pack(rotaperm.family.eval_F(ext.base, fam, ext.unpack(t)))
                for t in self.points)
            failures.append(not (out[f"is_pp_{f}"] and maps and poly.to_json() == payload))
        code, text = out["qm_pair"]
        failures.append(code != 1 or json.loads(text) != {"equivalent": False})
        code, text, target, base = out["qm_target"]
        if code == 0:
            w = json.loads(text)["witness"]
            found = lift.qm_transform(base.ext, base, int(w["a"], 16), int(w["c"], 16), w["d"])
            failures.append(found.terms != target.terms)
        else:
            failures.append(True)
        for i in range(self.repeats):
            code, text = out[f"certify_{i}"]
            reports = json.loads(text) if text else []
            failures.append(code != 0 or not reports or any(
                r["status"] != "pass" for r in reports if r["mandatory"]))
            failures.append(out[f"resultant_{i}"] != (0, RESULTANT_OUT))
        return len(failures), sum(failures)


WORKLOADS = {
    "classify": Classify,
    "verify-m9": VerifyM9,
    "invert": Invert,
    "algebra": Algebra,
}
