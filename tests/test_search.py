"""Coefficient-space classification: contents, determinism, candidate diff."""

import json
import threading
from pathlib import Path

import pytest

from rotaperm import search
from rotaperm.errors import DomainTooLarge, UnsupportedDegree
from rotaperm.family import COEFF_EXPONENTS, NAMED_COEFFS
from rotaperm.field import FieldCtx, shared_field
from rotaperm.search import ALL_ZERO, SearchReport, named_bitstrings, search_all, search_diff

GOLDEN_M3_5_7 = Path(__file__).parent / "golden" / "search_m3_5_7.json"
NAMED_BITS = {"".join(str(b) for b in v) for v in NAMED_COEFFS.values()}


@pytest.fixture(scope="module")
def report_m3():
    return search_all([3])


def test_named_families_present(report_m3):
    assert NAMED_BITS <= set(report_m3.results[3])
    assert set(named_bitstrings()) <= set(report_m3.results[3])


def test_monomial_vector_present(report_m3):
    assert ALL_ZERO in report_m3.results[3]


def test_results_sorted_and_deterministic(report_m3):
    assert list(report_m3.results[3]) == sorted(report_m3.results[3])
    again = search_all([3])
    assert again.results == report_m3.results
    assert again.intersection == report_m3.intersection


def test_even_degrees_have_no_permutation(projective_degrees):
    """Even m permutes nothing, by the cube lemma, and decides no vector."""
    report = search_all([2, 4, 16])
    assert report.results == {2: (), 4: (), 16: ()} and report.intersection == ()
    assert search_diff(report) == ()
    assert projective_degrees == []


def test_domain_caps(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a degree was decided before every degree was checked")

    monkeypatch.setattr(search, "is_permutation", no_work)
    monkeypatch.setattr(search, "permutation_mask", no_work)
    with pytest.raises(DomainTooLarge):
        search_all([13])
    with pytest.raises(DomainTooLarge):
        search_all([3, 13])
    with pytest.raises(DomainTooLarge):
        search_all([4, 13])
    with pytest.raises(UnsupportedDegree):
        search_all([3, -1])
    with pytest.raises(UnsupportedDegree):
        search_all([3, 17])


def test_m11_permutations_are_the_m5_ones():
    """P(11) = P(5), 29 vectors, at the largest degree whose mask, q^2+q+1 =
    4 196 353 entries, the budget admits."""
    report = search_all([5, 11])
    assert report.results[11] == report.results[5]
    assert len(report.results[11]) == 29


def test_m9_permutations_are_the_m3_5_7_intersection():
    m9 = search_all([9])
    assert m9.results[9] == search_all([3, 5, 7]).intersection
    assert len(m9.results[9]) == 23
    assert set(named_bitstrings()) <= set(m9.results[9])


@pytest.mark.parametrize("threads", [None, "1", "3", "100000", "nonsense"])
def test_search_reads_no_thread_setting(monkeypatch, threads):
    """One search thread whatever ROTAPERM_THREADS says: the package reads
    no environment, and the results are the same."""
    if threads is None:
        monkeypatch.delenv("ROTAPERM_THREADS", raising=False)
    else:
        monkeypatch.setenv("ROTAPERM_THREADS", threads)
    assert search.worker_count() == 1
    report = search_all([3, 5, 7])
    assert report.to_json(search_diff(report)) == json.loads(GOLDEN_M3_5_7.read_text())


def test_only_gf2_permutations_reach_the_projective_decision(projective_degrees, report_m3):
    """184 of the 256 vectors fail on GF(2)^3 and are never imaged at m=3;
    of the other 72, one of each y <-> z pair is imaged, 38 in all.  GF(2)
    itself is decided first, on one vector of each of the 136 pairs."""
    assert search_all([3]).results == report_m3.results
    assert projective_degrees == [1] * 136 + [3] * 38


def test_gf2_is_decided_once_per_process(projective_degrees):
    """Every mask, GF(2)'s included, lives on a shared context: a second
    search reads the masks of m = 3, 5 and 7 and decides no row at all."""
    first = search_all([3, 5, 7])
    assert projective_degrees == [1] * 136 + [3] * 38 + [5] * 38 + [7] * 38
    projective_degrees.clear()
    assert search_all([3, 5, 7]).results == first.results
    assert projective_degrees == []


def test_repeated_degree_is_decided_once(projective_degrees, report_m3):
    report = search_all([3, 3])
    assert projective_degrees == [1] * 136 + [3] * 38
    assert report.to_json()["m"] == [3, 3]
    assert report.results == report_m3.results
    assert report.intersection == report_m3.results[3]


def test_every_table_is_built_before_the_pool(monkeypatch):
    """search_all builds every table on the main thread before its pool
    thread starts; that thread only looks the permutation mask up.  The
    shared contexts are dropped first, so that every degree's tables,
    GF(2)'s and GF(8)'s included, are built inside the test."""
    main = threading.get_ident()
    builds, deciders = [], set()
    original_table, original_decide = FieldCtx._table, search.is_permutation

    def recorded_table(self, key, build):
        def recorded_build(ctx):
            builds.append((threading.get_ident(), ctx.m, key))
            return build(ctx)
        return original_table(self, key, recorded_build)

    def recorded_decide(ctx, fam, **kwargs):
        deciders.add(threading.get_ident())
        return original_decide(ctx, fam, **kwargs)

    shared_field.cache_clear()
    monkeypatch.setattr(FieldCtx, "_table", recorded_table)
    monkeypatch.setattr(search, "is_permutation", recorded_decide)
    search_all([3, 5, 7])
    search_all([9])
    assert {(m, key) for _, m, key in builds} >= {
        (m, "permutation_mask") for m in (3, 5, 7, 9)}
    assert {thread for thread, _, _ in builds} == {main}
    assert deciders and main not in deciders


def _swap_y_z(bits):
    """The vector of f'(x, y, z) = f(x, z, y), read off COEFF_EXPONENTS."""
    position = {e: i for i, e in enumerate(COEFF_EXPONENTS)}
    return "".join(bits[position[(ex, ez, ey)]] for ex, ey, ez in COEFF_EXPONENTS)


def test_search_sets_are_closed_under_y_z_conjugation():
    """With tau(x, y, z) = (x, z, y), tau F tau is the rotatable map of
    f(x, z, y), and a permutation exactly when F is one."""
    report = search_all([3, 5, 7])
    orbits = {}
    for m, hits in report.results.items():
        assert {_swap_y_z(b) for b in hits} == set(hits), m
        orbits[m] = len({min(b, _swap_y_z(b)) for b in hits})
    assert {m: len(v) for m, v in report.results.items()} == {3: 36, 5: 29, 7: 29}
    assert orbits == {3: 20, 5: 16, 7: 16}


def test_diff_needs_two_degrees(report_m3):
    with pytest.raises(ValueError):
        search_diff(report_m3)


def test_diff_excludes_named_and_monomial():
    report = SearchReport(
        degrees=(3, 5),
        results={3: tuple(sorted(NAMED_BITS | {ALL_ZERO, "01010101"})),
                 5: tuple(sorted(NAMED_BITS | {ALL_ZERO, "01010101"}))},
        intersection=tuple(sorted(NAMED_BITS | {ALL_ZERO, "01010101"})),
    )
    assert set(named_bitstrings()) <= set(report.results[3])
    assert search_diff(report) == ("01010101",)


def test_json_shape(report_m3):
    data = report_m3.to_json(candidates=("01010101",))
    assert data["m"] == [3]
    assert data["results"]["3"] == list(report_m3.results[3])
    assert data["candidates"] == ["01010101"]
