"""Bijectivity decisions, the difference criterion, and the D(Y,Z) zero count."""

import json
import warnings

import numpy as np
import pytest

from rotaperm.errors import DomainTooLarge, FormulaInconsistent, OddDegreeRequired
from rotaperm.family import NAMED_COEFFS, all_families, eval_F, family_from_coeffs, named_family
from rotaperm.field import FieldCtx
from rotaperm.mpoly import evaluate, substitute, parse
from rotaperm.permcheck import (
    _MONOMIAL_EXPONENTS,
    REPEATED_KEY,
    ZERO_IMAGE,
    _monomial_column,
    _representative,
    count_zeros_D,
    difference_check,
    family_images,
    full_scan,
    is_permutation,
    projective_obstruction,
    projective_representatives,
)
from rotaperm.resolvent import D_POLY


def test_t3_is_permutation(f8):
    report = is_permutation(f8, named_family("T3"))
    assert report.is_permutation
    assert report.points_checked == 512
    assert report.witness is None


def test_monomial_family_is_permutation(f8):
    assert is_permutation(f8, family_from_coeffs((0,) * 8)).is_permutation


def test_cube_fails_at_even_m():
    ctx = FieldCtx(2)
    fam = family_from_coeffs((0,) * 8)
    report = is_permutation(ctx, fam)
    assert not report.is_permutation
    assert report.witness is not None
    p1, p2 = report.witness
    assert p1 != p2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert eval_F(ctx, fam, p1) == eval_F(ctx, fam, p2)
    assert report.points_checked < 64


def test_witness_is_first_collision_in_scan_order():
    ctx = FieldCtx(2)
    fam = family_from_coeffs((0,) * 8)
    report = is_permutation(ctx, fam)
    images = family_images(ctx, fam)
    first_dup = next(
        i for i in range(64) if images[i] in set(images[:i].tolist())
    )
    p2 = report.witness[1]
    assert (p2[0] << 4) | (p2[1] << 2) | p2[2] == first_dup


def test_image_is_full_space_for_permutations(f8):
    images = family_images(f8, named_family("T2"))
    assert np.array_equal(np.sort(images), np.arange(512))


@pytest.mark.parametrize("m, vectors", [
    (3, [f"{v:08b}" for v in range(256)]),
    (5, [NAMED_COEFFS[n] for n in sorted(NAMED_COEFFS)] + ["00000001", "11111111"]),
], ids=["m3-all", "m5-named"])
def test_family_images_match_eval_F(m, vectors):
    """The x-slab images against the pointwise map at every point."""
    ctx = FieldCtx(m)
    points = [(x, y, z) for x in range(ctx.q) for y in range(ctx.q) for z in range(ctx.q)]
    for bits in vectors:
        fam = family_from_coeffs(bits)
        want = [(a << (2 * m)) | (b << m) | c for a, b, c in (eval_F(ctx, fam, p) for p in points)]
        assert family_images(ctx, fam).tolist() == want, bits


@pytest.mark.parametrize("m", [3, 5])
def test_family_images_independent_of_block(m, monkeypatch):
    """The block size bounds memory, not results: one slab, uneven blocks, one block."""
    import rotaperm.permcheck as pc
    ctx = FieldCtx(m)
    for bits in ("00000001", "11111111", "10011010"):
        fam = family_from_coeffs(bits)
        want = family_images(ctx, fam)
        for block in (1, 3 * ctx.q * ctx.q, 1 << 30):
            monkeypatch.setattr(pc, "IMAGE_BLOCK", block)
            assert np.array_equal(family_images(ctx, fam), want), (bits, block)


def test_report_serialization(f8):
    report = is_permutation(f8, named_family("T3"))
    assert json.loads(report.dumps()) == {
        "family": "00000011",
        "m": 3,
        "permutation": True,
        "points": 512,
    }


def test_is_permutation_domain_cap():
    with pytest.raises(DomainTooLarge):
        is_permutation(FieldCtx(11), named_family("T3"))


def test_difference_check_domain_cap(f32):
    with pytest.raises(DomainTooLarge):
        difference_check(f32, named_family("T2"))


def test_difference_check_t2(f8):
    assert difference_check(f8, named_family("T2"))


def test_difference_check_detects_collisions(f8):
    # any non-permutation family has a colliding pair, i.e. a bad shift
    fam = family_from_coeffs("00000001")
    assert not is_permutation(f8, fam).is_permutation
    assert not difference_check(f8, fam)


def test_difference_check_equals_is_permutation_for_all_vectors(f8):
    for fam in all_families():
        assert difference_check(f8, fam) == is_permutation(f8, fam).is_permutation


# -- projective decision against the full-scan oracle ----------------------------

def _proportional(ctx, u, v):
    """True iff u = c*v for some nonzero c."""
    return any(tuple(ctx.mul(c, w) for w in v) == u for c in range(1, ctx.q))


def test_projective_representatives_cover_each_line_once(f8):
    q = f8.q
    reps = list(zip(*(a.tolist() for a in projective_representatives(f8))))
    assert len(reps) == q * q + q + 1
    lines = {frozenset((f8.mul(c, x), f8.mul(c, y), f8.mul(c, z)) for c in range(1, q))
             for x, y, z in reps}
    assert len(lines) == len(reps)
    covered = {p for line in lines for p in line}
    assert len(covered) == q ** 3 - 1


def test_representative_indexing(f8):
    reps = list(zip(*(a.tolist() for a in projective_representatives(f8))))
    assert [_representative(f8, i) for i in range(len(reps))] == reps


@pytest.mark.parametrize("m", [3, 5])
def test_projective_matches_full_scan_for_all_vectors(m):
    ctx = FieldCtx(m)
    reasons = set()
    for fam in all_families():
        oracle = full_scan(ctx, fam)
        obstruction = projective_obstruction(ctx, fam)
        assert (obstruction is None) == oracle.is_permutation, fam.bitstring()
        assert is_permutation(ctx, fam) == oracle, fam.bitstring()
        if obstruction is not None:
            reasons.add(obstruction[0])
    assert reasons == {ZERO_IMAGE, REPEATED_KEY}


@pytest.mark.parametrize("bits", [*("".join(map(str, c)) for c in NAMED_COEFFS.values()),
                                  "00000001", "11111111"])
def test_projective_matches_full_scan_m7(f128, bits):
    fam = family_from_coeffs(bits)
    oracle = full_scan(f128, fam)
    assert (projective_obstruction(f128, fam) is None) == oracle.is_permutation
    assert is_permutation(f128, fam) == oracle


def test_m7_permutation_set_has_29_members(f128):
    hits = [fam for fam in all_families() if projective_obstruction(f128, fam) is None]
    assert len(hits) == 29


@pytest.mark.parametrize("m", [3, 5])
def test_monomial_columns_match_scalar_products(m):
    ctx = FieldCtx(m)
    reps = list(zip(*(a.tolist() for a in projective_representatives(ctx))))
    for j, (ex, ey, ez) in enumerate(_MONOMIAL_EXPONENTS):
        col = _monomial_column(ctx, j)
        assert col.shape == (3, len(reps)) and col.dtype == np.uint16
        for i, (x, y, z) in enumerate(reps):
            for row, (a, b, c) in enumerate([(x, y, z), (y, z, x), (z, x, y)]):
                expected = ctx.mul(ctx.mul(ctx.pow(a, ex), ctx.pow(b, ey)), ctx.pow(c, ez))
                assert col[row, i] == expected


def test_column_cache_follows_the_modulus():
    """x^5+x^3+1 first, then the default x^5+x^2+1 in the same process:
    columns shared across moduli would give wrong decisions."""
    for ctx in (FieldCtx(5, 0b101001), FieldCtx(5)):
        hits = 0
        for fam in all_families():
            oracle = full_scan(ctx, fam)
            assert is_permutation(ctx, fam) == oracle, (ctx, fam.bitstring())
            hits += oracle.is_permutation
        assert hits == 29


@pytest.mark.parametrize("m", [3, 5])
def test_obstructions_are_genuine(m):
    """A zero image is a nonzero point mapped to 0; a repeated key is two
    representatives with proportional images."""
    ctx = FieldCtx(m)
    for fam in all_families():
        obstruction = projective_obstruction(ctx, fam)
        if obstruction is None:
            continue
        reason, points = obstruction
        if reason == ZERO_IMAGE:
            (r,) = points
            assert r != (0, 0, 0) and eval_F(ctx, fam, r) == (0, 0, 0)
        else:
            r, s = points
            assert r != s
            assert _proportional(ctx, eval_F(ctx, fam, r), eval_F(ctx, fam, s))


@pytest.mark.parametrize("m", [3, 5, 7])
def test_negative_without_witness(m):
    ctx = FieldCtx(m)
    q = ctx.q
    for bits in ("00000001", "11111111"):
        report = is_permutation(ctx, family_from_coeffs(bits), witness=False)
        assert not report.is_permutation
        assert report.witness is None
        assert report.points_checked == q * q + q + 1


def test_positive_without_witness_counts_every_point(f32):
    report = is_permutation(f32, named_family("T1"), witness=False)
    assert report.is_permutation and report.points_checked == 1 << 15


def test_even_m_takes_the_full_scan():
    ctx = FieldCtx(2)
    fam = family_from_coeffs((0,) * 8)
    with pytest.raises(OddDegreeRequired):
        projective_obstruction(ctx, fam)
    assert is_permutation(ctx, fam, witness=False) == full_scan(ctx, fam)


def test_disagreeing_full_scan_is_an_internal_error(f8, monkeypatch):
    import rotaperm.permcheck as pc
    monkeypatch.setattr(pc, "full_scan", lambda ctx, fam: pc.PermReport(
        fam.bitstring(), ctx.m, True, 512))
    with pytest.raises(FormulaInconsistent):
        is_permutation(f8, family_from_coeffs("00000001"))


# -- D(Y, Z) zero count ----------------------------------------------------------

def test_count_zeros_matches_pointwise_oracle(f8):
    """Direct 64-point evaluation of the symbolic D, per parameter."""
    for t in f8.elements():
        direct = sum(
            1
            for yy in f8.elements()
            for zz in f8.elements()
            if evaluate(D_POLY, f8, {"t": t, "Y": yy, "Z": zz}) == 0
        )
        assert count_zeros_D(f8, t) == direct == 0


def test_d_poly_special_parameters():
    assert substitute(D_POLY, {"t": parse("0")}) == parse("Y^4 + Y + Z^2 + Z + 1")
    assert substitute(D_POLY, {"t": parse("1")}) == parse("Y^4 + Y^2 + Z^4 + Z^2 + 1")


def test_count_zeros_domain_cap():
    ctx = FieldCtx(11)
    with pytest.raises(DomainTooLarge):
        count_zeros_D(ctx, 1)
    assert ctx._np_cache == {}


def test_count_zeros_rejects_a_mixed_term(f8, monkeypatch):
    import rotaperm.permcheck as pc
    monkeypatch.setattr(pc, "D_POLY", D_POLY + parse("Y*Z"))
    with pytest.raises(FormulaInconsistent):
        count_zeros_D(f8, 1)


@pytest.mark.parametrize("m", [3, 5, 7])
def test_no_zeros_for_any_parameter(m):
    ctx = FieldCtx(m)
    assert all(count_zeros_D(ctx, t) == 0 for t in ctx.elements())
