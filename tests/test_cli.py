"""CLI contract: JSON on stdout, exit-code trichotomy, reproducible output."""

import json
import shlex
import time
from pathlib import Path

import pytest

from rotaperm import cli, lift, permcheck
from rotaperm.cli import build_parser, main
from rotaperm.family import eval_F, named_family
from rotaperm.field import FieldCtx, shared_field

GOLDEN = Path(__file__).parent / "golden"
BENCH_SEARCH = Path(__file__).parent.parent / "perfbench" / "expected" / "search_m3_5_7.json"
README = Path(__file__).parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _readme_examples():
    """(argv, stdout) of every README line `rotaperm ...  # <comment>` whose
    comment is a whole JSON document: the command and its exact stdout."""
    examples = []
    for line in README.read_text().splitlines():
        command, _, comment = line.partition(" #")
        if not command.startswith("rotaperm "):
            continue
        try:
            json.loads(comment)
        except ValueError:
            continue
        examples.append((shlex.split(command)[1:], comment.strip() + "\n"))
    return examples


def test_readme_examples_print_their_comments(capsys):
    examples = _readme_examples()
    assert len(examples) >= 2
    for argv, stdout in examples:
        main(argv)
        assert capsys.readouterr().out == stdout, argv


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
    (("--coeffs", "00000001", "--m", "9"), 1,
     '{"family": "00000001", "m": 9, "permutation": false, "points": 262146,'
     ' "witness": [["0x0", "0x1", "0x1"], ["0x1", "0x0", "0x1"]]}\n'),
    (("--coeffs", "11111111", "--m", "9"), 1,
     '{"family": "11111111", "m": 9, "permutation": false, "points": 513,'
     ' "witness": [["0x0", "0x0", "0x1"], ["0x0", "0x1", "0x0"]]}\n'),
    (("--coeffs", "01011111", "--m", "9"), 1,
     '{"family": "01011111", "m": 9, "permutation": false, "points": 263265,'
     ' "witness": [["0x0", "0x4e", "0x13"], ["0x1", "0x2", "0x60"]]}\n'),
])
def test_verify_golden_stdout(capsys, argv, code, stdout):
    assert run(capsys, "verify", *argv)[:2] == (code, stdout)


def test_verify_even_m_is_a_negative(capsys):
    """Even m is answered by the cube lemma, not refused: exit 1 and the
    cube table's first collision as the witness."""
    assert run(capsys, "verify", "--coeffs", "00000011", "--m", "4")[:2] == (
        1, '{"family": "00000011", "m": 4, "permutation": false, "points": 7,'
           ' "witness": [["0x0", "0x0", "0x1"], ["0x0", "0x0", "0x6"]]}\n')


@pytest.mark.parametrize("m", range(2, 17, 2))
def test_verify_even_m_witness_is_a_true_collision(capsys, m):
    """At every even m, each named family's witness is two points with one image."""
    ctx = shared_field(m)
    for name in ("T1", "T2", "T3", "T4", "T5"):
        code, out, _ = run(capsys, "verify", "--family", name, "--m", str(m))
        first, second = (tuple(int(v, 16) for v in p) for p in json.loads(out)["witness"])
        assert code == 1 and first < second, name
        fam = named_family(name)
        assert eval_F(ctx, fam, first) == eval_F(ctx, fam, second), name


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


def test_invert_table_at_m11(capsys):
    """m = 11 is served from a table of q^2+q+1 = 4 196 353 entries, which
    the budget admits, and the preimage maps back."""
    code, out, _ = run(capsys, "invert", "--family", "T2", "--m", "11", "--target", "0x1,0x2,0x3")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "table"
    preimage = tuple(int(h, 16) for h in payload["preimage"])
    assert eval_F(shared_field(11), named_family("T2"), preimage) == (1, 2, 3)


@pytest.mark.parametrize("bits", ["00101110", "01001101"])
def test_verify_u1_and_u2_at_m11(capsys, bits):
    """U1 and U2 permute at m = 11, the largest degree the mask's budget
    admits."""
    code, out, _ = run(capsys, "verify", "--coeffs", bits, "--m", "11")
    assert (code, out) == (0, json.dumps({"family": bits, "m": 11, "permutation": True,
                                          "points": 1 << 33}) + "\n")


def test_invert_table_above_the_cap_is_usage_error(capsys):
    """m = 13 is the first degree whose q^2+q+1 table the budget refuses."""
    code, out, err = run(capsys, "invert", "--family", "T2", "--m", "13", "--target", "0x1,0x0,0x0")
    assert code == 2 and out == ""
    assert "the inverse table at m=13: 67117057 entries > 16777216" in err


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


def _qm_documents(tmp_path, m):
    """Paths of two base-m documents over the cubic u^3+u+1."""
    paths = []
    for name, e in (("p", 1), ("q", 2)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"m": m, "cubic": ["0x1", "0x1", "0x0", "0x1"],
                                    "terms": [{"e": e, "c": ["0x1", "0x0", "0x0"]}]}))
        paths.append(str(path))
    return paths


def test_qm_above_the_base_cap_is_refused_on_reading(capsys, monkeypatch, tmp_path):
    """Two base m = 9 documents, the first degree whose 2^27-entry log
    tables the budget refuses: a domain error, exit 2 and no stdout,
    before any base field is built or scanned for roots."""
    def no_build(*args, **kwargs):
        raise AssertionError("a field was built for a refused document")

    monkeypatch.setattr(lift, "shared_field", no_build)
    monkeypatch.setattr(lift.ExtCtx, "_has_root", staticmethod(no_build))
    p, q = _qm_documents(tmp_path, 9)
    code, out, err = run(capsys, "qm", "--p", p, "--q", q)
    assert (code, out) == (2, "")
    assert "the log tables of GF(2^27): 134217728 entries > 16777216" in err


@pytest.mark.parametrize("m", [0, -1, 17])
def test_qm_degree_outside_the_fields_is_unsupported(capsys, monkeypatch, tmp_path, m):
    """A base degree with no field is UnsupportedDegree, checked before the
    table count 2^3m is formed: not a negative shift's ValueError at
    m = -1, nor the budget's refusal at m = 17."""
    def no_build(*args, **kwargs):
        raise AssertionError("a field was built for a refused document")

    monkeypatch.setattr(lift, "shared_field", no_build)
    p, q = _qm_documents(tmp_path, m)
    code, out, err = run(capsys, "qm", "--p", p, "--q", q)
    assert (code, out) == (2, "")
    assert err == f"error: degree {m} outside 1..16\n"


_LIFT_REFUSALS = {
    9: "the log tables of GF(2^27): 134217728 entries > 16777216",
    11: "the log tables of GF(2^33)",
    13: "the log tables of GF(2^39)",
    -1: "degree -1 outside 1..16",
    17: "degree 17 outside 1..16",
}


@pytest.mark.parametrize("m", list(_LIFT_REFUSALS))
def test_lift_is_refused_before_any_field_is_built(capsys, monkeypatch, m):
    """A base m whose log tables the budget refuses (9 is the first), and
    a degree with no field (checked before the count 2^3m is formed, so
    m = -1 is no negative shift): exit 2 and no stdout, with no field,
    permutation mask or extension built first."""
    def no_build(*args, **kwargs):
        raise AssertionError(f"built for lift --m {m}")

    monkeypatch.setattr(cli, "shared_field", no_build)
    monkeypatch.setattr(lift, "shared_field", no_build)
    monkeypatch.setattr(lift, "ExtCtx", no_build)
    monkeypatch.setattr(permcheck, "permutation_mask", no_build)
    code, out, err = run(capsys, "lift", "--family", "T1", "--m", str(m))
    assert (code, out) == (2, "")
    assert _LIFT_REFUSALS[m] in err


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
    """An even degree is searched and permutes nothing; a degree outside
    1..16 is still refused."""
    code, out, _ = run(capsys, "search", "--m", "3,4")
    report = json.loads(out)
    assert code == 0 and report["results"]["4"] == [] and report["intersection"] == []
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
    code, out, err = run(capsys, "resultant", "-v", "x", "-f", "x^30*a+y", "-g", "x^30*b+z")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert "monomials of minors" in err


def test_monic_resultant_past_the_old_bound(capsys):
    """(y + z)^30: x^30 + y is monic, so its 30 x 30 multiplication matrix
    decides, where the order-60 Sylvester expansion was refused."""
    want = ("y^30 + y^28*z^2 + y^26*z^4 + y^24*z^6 + y^22*z^8 + y^20*z^10 + y^18*z^12"
            " + y^16*z^14 + y^14*z^16 + y^12*z^18 + y^10*z^20 + y^8*z^22 + y^6*z^24"
            " + y^4*z^26 + y^2*z^28 + z^30")
    start = time.perf_counter()
    code, out, err = run(capsys, "resultant", "-v", "x", "-f", "x^30+y", "-g", "x^30+z")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, json.dumps({"var": "x", "resultant": want}) + "\n", want + "\n")
    assert want.count("+") == 15


def test_equal_leading_coefficients_past_the_old_bound(capsys):
    """x^30*a + y and x^30*a + z share the leading coefficient a: one
    remainder step leaves x^30*a + y against y + z, so a^30 (y + z)^30,
    where the order-60 Sylvester expansion was refused with exit 2."""
    start = time.perf_counter()
    code, out, _ = run(capsys, "resultant", "-v", "x", "-f", "x^30*a+y", "-g", "x^30*a+z")
    assert time.perf_counter() - start < 1
    want = " + ".join(f"y^{30 - k}*z^{k}*a^30".replace("y^0*", "").replace("*z^0", "")
                      for k in range(0, 31, 2))
    assert (code, out) == (0, json.dumps({"var": "x", "resultant": want}) + "\n")


def test_resultant_at_the_exponent_cap(capsys):
    code, out, _ = run(capsys, "resultant", "-v", "x", "-f", "x^63*y", "-g", "x^63*z")
    assert (code, out) == (0, '{"var": "x", "resultant": "0"}\n')


# -- one field context per degree per process (field.shared_field) ----------------

def _recorded_builds(monkeypatch) -> list:
    """(m, key) of every table FieldCtx._table builds from now on."""
    builds = []
    original = FieldCtx._table

    def recorded(self, key, build):
        def recorded_build(ctx):
            builds.append((ctx.m, key))
            return build(ctx)
        return original(self, key, recorded_build)

    monkeypatch.setattr(FieldCtx, "_table", recorded)
    return builds


@pytest.mark.parametrize("argv", [
    ("search", "--m", "3,5,7"),
    ("verify", "--family", "T3", "--m", "7"),
    ("certify",),
])
def test_a_second_call_builds_no_table(capsys, monkeypatch, argv):
    """The verbs take their fields from shared_field: a second call in the
    same process reads the tables the first one built, and prints the
    same bytes with the same exit code."""
    shared_field.cache_clear()
    builds = _recorded_builds(monkeypatch)
    first = run(capsys, *argv)
    assert builds
    builds.clear()
    assert run(capsys, *argv)[:2] == first[:2]
    assert builds == []


def test_repeated_search_prints_the_golden(capsys, monkeypatch):
    """Two in-process searches print the benchmark's golden stdout; the
    second builds no table."""
    want = BENCH_SEARCH.read_text()
    builds = _recorded_builds(monkeypatch)
    assert run(capsys, "search", "--m", "3,5,7")[:2] == (0, want)
    builds.clear()
    assert run(capsys, "search", "--m", "3,5,7")[:2] == (0, want)
    assert builds == []


def test_shared_tables_are_read_only(capsys):
    """A stray write into a shared table would corrupt every later call of
    the process, so every array cached on a shared context is read-only
    after search, certify, lift and a table invert."""
    for argv in (("search", "--m", "3,5,7"), ("certify",),
                 ("lift", "--family", "T1", "--m", "5"),
                 ("invert", "--family", "T2", "--m", "7", "--target", "0x1,0x2,0x3",
                  "--method", "table")):
        assert run(capsys, *argv)[0] == 0, argv
    for m in (1, 3, 5, 7):
        cache = shared_field(m)._np_cache
        arrays = [a for v in cache.values() for a in (v if isinstance(v, tuple) else (v,))]
        assert arrays, m
        assert not any(a.flags.writeable for a in arrays), m
