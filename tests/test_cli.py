"""CLI contract: JSON on stdout, exit-code trichotomy, reproducible output."""

import json
import time
from pathlib import Path

import pytest

from rotaperm import cli, lift, permcheck
from rotaperm.cli import build_parser, main
from rotaperm.family import eval_F, named_family
from rotaperm.field import FieldCtx

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_true(capsys):
    code, out, err = run(capsys, "verify", "--family", "T3", "--m", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["permutation"] is True
    assert payload["family"] == "00000011"
    assert payload["points"] == 512
    assert "permutation" in err


def test_verify_coeffs_negative_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--coeffs", "00000001", "--m", "3")
    assert code == 1
    payload = json.loads(out)
    assert payload["permutation"] is False
    assert "witness" in payload


# Golden stdout: the witness of a negative is the full scan's lexicographically
# first collision, and a positive counts every point, whichever path decided.
@pytest.mark.parametrize("argv, code, stdout", [
    (("--coeffs", "00000001", "--m", "3"), 1,
     '{"family": "00000001", "m": 3, "permutation": false, "points": 66,'
     ' "witness": [["0x0", "0x1", "0x1"], ["0x1", "0x0", "0x1"]]}\n'),
    (("--coeffs", "00000001", "--m", "5"), 1,
     '{"family": "00000001", "m": 5, "permutation": false, "points": 1026,'
     ' "witness": [["0x0", "0x1", "0x1"], ["0x1", "0x0", "0x1"]]}\n'),
    (("--coeffs", "11111111", "--m", "7"), 1,
     '{"family": "11111111", "m": 7, "permutation": false, "points": 129,'
     ' "witness": [["0x0", "0x0", "0x1"], ["0x0", "0x1", "0x0"]]}\n'),
    (("--family", "T3", "--m", "9"), 0,
     '{"family": "00000011", "m": 9, "permutation": true, "points": 134217728}\n'),
])
def test_verify_golden_stdout(capsys, argv, code, stdout):
    assert run(capsys, "verify", *argv)[:2] == (code, stdout)


def test_verify_even_m_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--coeffs", "00000011", "--m", "4")
    assert code == 2
    assert out == ""
    assert "odd" in err


def test_verify_bad_coeffs(capsys):
    code, _, _ = run(capsys, "verify", "--coeffs", "0101", "--m", "3")
    assert code == 2


def test_unknown_verb(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_invert_round_trip(capsys):
    ctx = FieldCtx(5)
    fam = named_family("T1")
    target = eval_F(ctx, fam, (1, 0, 0))
    arg = ",".join(hex(v) for v in target)
    code, out, _ = run(capsys, "invert", "--family", "T1", "--m", "5", "--target", arg)
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "resolvent"
    assert [int(h, 16) for h in payload["preimage"]] == [1, 0, 0]
    assert payload["target"] == [hex(v) for v in target]


def test_invert_method_table(capsys):
    code, out, _ = run(capsys, "invert", "--family", "T2", "--m", "3",
                       "--target", "0x0,0x0,0x0", "--method", "table")
    assert code == 0
    assert json.loads(out)["preimage"] == ["0x0", "0x0", "0x0"]


def test_invert_t2_at_m9_through_the_projective_table(capsys):
    """The README example: T2 at m=9 is served by the table."""
    code, out, _ = run(capsys, "invert", "--family", "T2", "--m", "9", "--target", "0x1,0x2,0x3")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"target": ["0x1", "0x2", "0x3"],
                       "preimage": ["0x1cd", "0xbb", "0x176"], "method": "table"}
    preimage = tuple(int(h, 16) for h in payload["preimage"])
    assert eval_F(FieldCtx(9), named_family("T2"), preimage) == (1, 2, 3)


def test_invert_table_above_the_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "invert", "--family", "T2", "--m", "11", "--target", "0x1,0x0,0x0")
    assert code == 2 and out == "" and "m=11 > 9" in err


def test_invert_target_out_of_range(capsys):
    code, _, _ = run(capsys, "invert", "--family", "T3", "--m", "3", "--target", "0x8,0x0,0x0")
    assert code == 2


def test_lift_and_qm(capsys, tmp_path):
    lift_file = tmp_path / "t3.json"
    code, out, _ = run(capsys, "lift", "--family", "T3", "--m", "3", "--out", str(lift_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 3 and len(payload["terms"]) > 3
    assert json.loads(lift_file.read_text()) == payload

    code, out, _ = run(capsys, "qm", "--p", str(lift_file), "--q", str(lift_file))
    assert code == 0
    qm_payload = json.loads(out)
    assert qm_payload["equivalent"] is True
    assert qm_payload["witness"] == {"a": "0x1", "c": "0x1", "d": 1}

    trinomial = {
        "m": 3,
        "cubic": payload["cubic"],
        "terms": [
            {"e": 1, "c": ["0x1", "0x0", "0x0"]},
            {"e": 57, "c": ["0x1", "0x0", "0x0"]},
            {"e": 71, "c": ["0x1", "0x0", "0x0"]},
        ],
    }
    tri_file = tmp_path / "tri.json"
    tri_file.write_text(json.dumps(trinomial))
    code, out, _ = run(capsys, "qm", "--p", str(lift_file), "--q", str(tri_file))
    assert code == 1
    assert json.loads(out) == {"equivalent": False}


# Golden stdout of `lift` as the pointwise sums over all 2^3m points gave it;
# the coset sums must reproduce it byte for byte.
@pytest.mark.parametrize("m", [3, 5])
@pytest.mark.parametrize("name", ["T1", "T2", "T3", "T4", "T5"])
def test_lift_golden_stdout(capsys, name, m):
    want = (GOLDEN / f"lift_{name}_m{m}.json").read_text()
    assert run(capsys, "lift", "--family", name, "--m", str(m))[:2] == (0, want)


def test_qm_duplicate_exponent_is_usage_error(capsys, tmp_path):
    data = json.loads((GOLDEN / "lift_T3_m3.json").read_text())
    data["terms"].append(dict(data["terms"][0], c=["0x1", "0x0", "0x0"]))
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "qm", "--p", str(bad), "--q", str(GOLDEN / "lift_T3_m3.json"))
    assert (code, out) == (2, "")
    assert "appears twice" in err


def _t3_document(**fields):
    """The golden T3 lift at m=3 with some top-level fields replaced."""
    return {**json.loads((GOLDEN / "lift_T3_m3.json").read_text()), **fields}


@pytest.mark.parametrize("document, field", [
    ({}, "'m'"),
    ([1, 2], "'m'"),
    (_t3_document(terms=5), "'terms'"),
    (_t3_document(terms=[{"e": 3}]), "'c'"),
    (_t3_document(m=True), "'m'"),
    (_t3_document(cubic=["0x100", "0x0", "0x0", "0x1"]), "cubic"),
    (_t3_document(cubic=["-0x1", "0x0", "0x0", "0x1"]), "cubic"),
])
def test_qm_malformed_document_is_usage_error(capsys, tmp_path, document, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    code, out, err = run(capsys, "qm", "--p", str(bad), "--q", str(GOLDEN / "lift_T3_m3.json"))
    assert (code, out) == (2, "")
    assert field in err


def test_qm_above_the_base_cap_is_refused_on_reading(capsys, tmp_path):
    """Two m=16 documents over the rootless cubic u^3+u+1: a domain error,
    exit 2 and no stdout, before any base field is scanned for roots."""
    paths = []
    for name, e in (("p", 1), ("q", 2)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"m": 16, "cubic": ["0x1", "0x1", "0x0", "0x1"],
                                    "terms": [{"e": e, "c": ["0x1", "0x0", "0x0"]}]}))
        paths.append(str(path))
    code, out, err = run(capsys, "qm", "--p", paths[0], "--q", paths[1])
    assert (code, out) == (2, "")
    assert "capped at base m=5" in err


@pytest.mark.parametrize("m", [6, 7, 9, 11, 13])
def test_lift_is_refused_before_any_field_is_built(capsys, monkeypatch, m):
    """Even m, and a base m above LIFT_MAX_BASE_M: exit 2 and no stdout,
    with no field, permutation mask or extension built first."""
    def no_build(*args, **kwargs):
        raise AssertionError(f"built for lift --m {m}")

    monkeypatch.setattr(cli, "FieldCtx", no_build)
    monkeypatch.setattr(cli, "ExtCtx", no_build)
    monkeypatch.setattr(permcheck, "permutation_mask", no_build)
    code, out, err = run(capsys, "lift", "--family", "T1", "--m", str(m))
    assert (code, out) == (2, "")
    assert ("m must be odd" if m % 2 == 0 else "capped at base m=5") in err


def test_lift_of_non_cubic_values_is_internal_error(capsys, monkeypatch):
    original = lift.projective_images

    def flip_one(ctx, fam):
        images = original(ctx, fam).copy()
        images[0, 5] ^= 1
        return images

    monkeypatch.setattr(lift, "projective_images", flip_one)
    code, out, err = run(capsys, "lift", "--family", "T3", "--m", "3")
    assert (code, out) == (3, "")
    assert "disagrees with F at a projective representative" in err


def test_certify_json_and_exit(capsys):
    code, out, _ = run(capsys, "certify")
    assert code == 0
    reports = json.loads(out)
    assert all(r["status"] == "pass" for r in reports)
    code, _, _ = run(capsys, "certify", "--only", "no_such_cert")
    assert code == 2


def test_certify_golden_stdout(capsys):
    """Byte for byte the stdout of the certificate suite."""
    want = (GOLDEN / "certify.json").read_text()
    assert run(capsys, "certify")[:2] == (0, want)


def test_certify_filtered_stdout_is_the_golden_subset(capsys):
    reports = json.loads((GOLDEN / "certify.json").read_text())
    for only in ("charsum", "resultant"):
        want = json.dumps([r for r in reports if only in r["name"]]) + "\n"
        assert run(capsys, "certify", "--only", only)[:2] == (0, want)


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_keeps_no_state_between_calls(capsys, tmp_path):
    """Calls in one process share one parser; no option of one call leaks into the next."""
    code, out, _ = run(capsys, "certify", "--only", "charsum")
    assert code == 0 and len(json.loads(out)) == 2
    code, out, _ = run(capsys, "certify")
    assert code == 0 and len(json.loads(out)) == 11

    target = tmp_path / "lift.json"
    assert run(capsys, "lift", "--family", "T3", "--m", "3", "--out", str(target))[0] == 0
    assert json.loads(target.read_text())
    target.write_text("untouched")
    assert run(capsys, "lift", "--family", "T3", "--m", "3")[0] == 0
    assert target.read_text() == "untouched"

    assert run(capsys, "verify", "--family", "T3")[0] == 2
    assert run(capsys, "verify", "--family", "T3", "--m", "3")[0] == 0

    first = run(capsys, "--help")
    second = run(capsys, "--help")
    assert first[0] == second[0] == 0
    assert first[1] == second[1] and "usage: rotaperm" in first[1]


def test_search_json_schema_and_reproducibility(capsys, tmp_path):
    out_file = tmp_path / "search.json"
    code, out1, _ = run(capsys, "search", "--m", "3", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out1)
    assert payload["m"] == [3]
    assert "00000011" in payload["results"]["3"]
    assert json.loads(out_file.read_text()) == payload
    code, out2, _ = run(capsys, "search", "--m", "3")
    assert out2 == out1  # byte-identical reruns


def test_search_m3_5_7_golden_stdout(capsys):
    """Byte for byte the stdout the benchmark's classify workload expects."""
    want = (GOLDEN / "search_m3_5_7.json").read_text()
    assert run(capsys, "search", "--m", "3,5,7")[:2] == (0, want)


def test_search_even_m(capsys):
    assert run(capsys, "search", "--m", "3,4")[0] == 2
    assert run(capsys, "search", "--m", "3,-1")[0] == 2


def test_resultant_verb(capsys):
    code, out, err = run(capsys, "resultant", "-v", "x", "-f", "x+y", "-g", "x+z")
    assert code == 0
    assert json.loads(out) == {"var": "x", "resultant": "y + z"}
    assert err.strip() == "y + z"


def test_resultant_reproduces_first_elimination(capsys):
    code, out, _ = run(capsys, "resultant", "-v", "x",
                       "-f", "x^3+y^3+a", "-g", "x*y^2+y*z^2+x^2*z+c")
    assert code == 0
    assert json.loads(out)["resultant"] == (
        "y^9 + y^6*a + y^5*z*c + y^3*z^6 + y^3*z^3*a + y^2*z^4*c"
        " + y^2*z*a*c + y*z^2*c^2 + z^3*a^2 + c^3"
    )


def test_resultant_missing_flag(capsys):
    assert run(capsys, "resultant", "-f", "x+y", "-g", "x+z")[0] == 2


def test_resultant_syntax_error(capsys):
    assert run(capsys, "resultant", "-v", "x", "-f", "x+^", "-g", "x")[0] == 2


def test_resultant_past_the_work_bound_is_usage_error(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "resultant", "-v", "x", "-f", "x^30+y", "-g", "x^30+z")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert "monomials of minors" in err


def test_resultant_at_the_exponent_cap(capsys):
    code, out, _ = run(capsys, "resultant", "-v", "x", "-f", "x^63*y", "-g", "x^63*z")
    assert (code, out) == (0, '{"var": "x", "resultant": "0"}\n')
