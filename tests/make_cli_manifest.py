"""Write tests/golden/cli_manifest.json and the qm documents it reads.

Run from the repository root:

    PYTHONPATH=src python tests/make_cli_manifest.py

Each manifest row is one CLI command: its argv, its exit code, the
SHA-256 of its stdout, and the stdout text itself when it is short.
test_cli_manifest.py runs the rows in order through cli.main in one
directory, so a `lift --out` row writes the document later `qm` rows
read.  An argument "{golden}/..." names a file under tests/golden.

The rows:
- `lift --out` of T1..T5 at m = 3 and 5;
- `qm` of every ordered pair of same-degree lifts (50 rows);
- six seeded targets a*P(c*X^d) per degree, each against its base P in
  both orders (written to golden/qm/target_m<m>_<i>.json);
- the crafted base-7 pair q = X + X^(1+D) + X^(2+D), D = (2^21-1)/7, and
  p = q with its last coefficient replaced by the extension's generator
  (golden/qm/crafted_{p,q}_m7.json), against each other and each
  against itself;
- `verify --coeffs` of all 256 vectors at m = 3, 5, 7 and 9;
- `invert` of T1..T5 at every odd m from 3 to 11, with `--method auto`
  and `--method table`, at one seeded target per degree;
- `search --m` of each odd degree from 3 to 11, and of 3,5,7;
- `certify`, `certify --only resultant_Q` and `certify --only nothing`;
- the three `resultant` lines of README.md;
- even m, answered by the cube lemma: `verify --family T3` at m = 2, 4
  and 16 (exit 1), `lift --family T1` at m = 2 and 4, `search --m 4` and
  `search` of every even degree from 2 to 16 (exit 0), and `invert` of
  T1 and T2 at m = 4 (exit 2);
- the exit-2 refusals: m = 13 for `verify`, `search` and table
  `invert`; `lift` at m = 9; and `qm` of a base-9 document
  (golden/qm/base9.json);
- the base-7 pair q = X^D + X^(D+1) and p = X^D + X^(D+2), D =
  (2^21-1)/7, whose first exponent shares the factor D with 2^21 - 1
  (golden/qm/shared_factor_{p,q}_m7.json): p against q, q against p,
  and q against itself.

Rewrite the file only for an output change that is declared.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
from pathlib import Path

from rotaperm import cli
from rotaperm.family import NAMED_COEFFS, named_family
from rotaperm.field import shared_field
from rotaperm.lift import ExtCtx, LiftedPoly, lift_permutation, qm_transform, shared_ext

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "cli_manifest.json"
SHORT_STDOUT = 200  # characters; longer stdout is kept as its hash alone
DEGREES = (3, 5)
TARGETS_PER_DEGREE = 6
ODD_DEGREES = (3, 5, 7, 9, 11)
README_RESULTANTS = (
    ["-v", "x", "-f", "x^3+y^3+a", "-g", "x*y^2+y*z^2+x^2*z+c"],
    ["-v", "x", "-f", "x^30+y", "-g", "x^30+z"],
    ["-v", "x", "-f", "x^30*a+y", "-g", "x^30*a+z"],
)


def _write(poly: LiftedPoly, name: str) -> str:
    path = GOLDEN / "qm" / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(poly.to_json()) + "\n")
    return "{golden}/qm/" + name


def _random_unit(rng: random.Random, group: int) -> int:
    while True:
        d = rng.randrange(1, group)
        if math.gcd(d, group) == 1:
            return d


def _commands() -> list[list[str]]:
    names = sorted(NAMED_COEFFS)
    commands = []
    for m in DEGREES:
        commands += [["lift", "--family", n, "--m", str(m), "--out", f"{n}_m{m}.json"]
                     for n in names]
    for m in DEGREES:
        commands += [["qm", "--p", f"{p}_m{m}.json", "--q", f"{q}_m{m}.json"]
                     for p in names for q in names]
    for m in DEGREES:
        ext = shared_ext(m)
        rng = random.Random(700 + m)
        for i in range(TARGETS_PER_DEGREE):
            base = rng.choice(names)
            a, c = rng.randrange(1, ext.size), rng.randrange(1, ext.size)
            target = qm_transform(ext, lift_permutation(ext, named_family(base)),
                                  a, c, _random_unit(rng, ext.group))
            path, base_path = _write(target, f"target_m{m}_{i}.json"), f"{base}_m{m}.json"
            commands += [["qm", "--p", path, "--q", base_path],
                         ["qm", "--p", base_path, "--q", path]]
    ext = shared_ext(7)
    ext._ensure_tables()
    delta = ext.group // 7
    q = LiftedPoly.make(ext, {1: 1, 1 + delta: 1, 2 + delta: 1})
    p = LiftedPoly.make(ext, {1: 1, 1 + delta: 1, 2 + delta: ext.generator})
    p_path, q_path = _write(p, "crafted_p_m7.json"), _write(q, "crafted_q_m7.json")
    commands += [["qm", "--p", x, "--q", y] for x in (p_path, q_path) for y in (p_path, q_path)]
    return commands + _other_verbs() + _even_degrees() + _refusals() + _shared_factor_pair()


def _other_verbs() -> list[list[str]]:
    names = sorted(NAMED_COEFFS)
    commands = [["verify", "--coeffs", f"{v:08b}", "--m", str(m)]
                for m in (3, 5, 7, 9) for v in range(256)]
    for m in ODD_DEGREES:
        rng = random.Random(900 + m)
        target = ",".join(hex(rng.randrange(1 << m)) for _ in range(3))
        commands += [["invert", "--family", n, "--m", str(m), "--target", target,
                      "--method", method] for n in names for method in ("auto", "table")]
    commands += [["search", "--m", str(m)] for m in ODD_DEGREES] + [["search", "--m", "3,5,7"]]
    commands += [["certify"], ["certify", "--only", "resultant_Q"],
                 ["certify", "--only", "nothing"]]
    return commands + [["resultant", *argv] for argv in README_RESULTANTS]


def _even_degrees() -> list[list[str]]:
    """Commands at even m, where no family permutes: verify exits 1 with
    the cube table's witness, lift prints the lift, search finds nothing,
    and invert is refused."""
    return [
        ["verify", "--family", "T3", "--m", "2"],
        ["verify", "--family", "T3", "--m", "4"],
        ["verify", "--family", "T3", "--m", "16"],
        ["invert", "--family", "T1", "--m", "4", "--target", "0x1,0x0,0x1"],
        ["invert", "--family", "T2", "--m", "4", "--target", "0x1,0x0,0x1"],
        ["lift", "--family", "T1", "--m", "2"],
        ["lift", "--family", "T1", "--m", "4"],
        ["search", "--m", "4"],
        ["search", "--m", "2,4,6,8,10,12,14,16"],
    ]


def _refusals() -> list[list[str]]:
    """Commands that exit 2: tables the budget refuses."""
    base9 = _write(LiftedPoly.make(ExtCtx(shared_field(9)), {1: 1}), "base9.json")
    return [
        ["verify", "--family", "T3", "--m", "13"],
        ["search", "--m", "13"],
        ["invert", "--family", "T2", "--m", "13", "--target", "0x1,0x2,0x3", "--method", "table"],
        ["lift", "--family", "T1", "--m", "9"],
        ["qm", "--p", base9, "--q", base9],
    ]


def _shared_factor_pair() -> list[list[str]]:
    ext = shared_ext(7)
    delta = ext.group // 7
    q = LiftedPoly.make(ext, {delta: 1, delta + 1: 1})
    p = LiftedPoly.make(ext, {delta: 1, delta + 2: 1})
    p_path = _write(p, "shared_factor_p_m7.json")
    q_path = _write(q, "shared_factor_q_m7.json")
    return [["qm", "--p", p_path, "--q", q_path], ["qm", "--p", q_path, "--q", p_path],
            ["qm", "--p", q_path, "--q", q_path]]


def run_row(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of cli.main on argv, "{golden}" resolved."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([a.replace("{golden}", str(GOLDEN)) for a in argv])
    return code, out.getvalue()


def row(argv: list[str], code: int, stdout: str) -> dict:
    entry = {"argv": argv, "code": code,
             "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    if len(stdout) <= SHORT_STDOUT:
        entry["stdout"] = stdout
    return entry


def main() -> int:
    rows = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as where:
        os.chdir(where)
        try:
            for argv in _commands():
                rows.append(row(argv, *run_row(argv)))
        finally:
            os.chdir(here)
    MANIFEST.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"{len(rows)} rows -> {MANIFEST}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
