"""Certificates pass on the recorded identities and fail on perturbations."""

import random

import numpy as np
import pytest

import rotaperm.resolvent as rs
from rotaperm.certify import (
    CertReport,
    beta_printed_expansions,
    cert_A_zero_classification,
    cert_beta_identity,
    cert_charsum_support,
    cert_factorizations,
    cert_resultant_Q,
    cert_resultant_g,
    cert_resultant_h,
    run_all,
)
from rotaperm.errors import DomainTooLarge
from rotaperm.field import FieldCtx, shared_field
from rotaperm.mpoly import parse, resultant
from rotaperm.permcheck import projective_representatives

import oracles
from oracles import beta_trace_fallback, evaluate


def test_full_suite_passes():
    reports = run_all()
    assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]
    names = [r.name for r in reports]
    assert names == [
        "resultant_g", "resultant_h", "factorizations", "beta_identity",
        "printed_K1", "printed_K2", "resultant_Q",
        "charsum_support_m3", "charsum_support_m5",
        "A_zero_classification_m3", "A_zero_classification_m5",
    ]


def test_run_all_builds_one_field_per_degree(monkeypatch):
    """charsum_support and A_zero_classification share one FieldCtx per
    degree, from field.shared_field: a second run_all builds none."""
    built = []

    def counted(m):
        built.append(m)
        return FieldCtx(m)
    shared_field.cache_clear()
    monkeypatch.setattr("rotaperm.field.FieldCtx", counted)
    assert [r.name for r in run_all()][-4:] == [
        "charsum_support_m3", "charsum_support_m5",
        "A_zero_classification_m3", "A_zero_classification_m5",
    ]
    assert built == [3, 5]
    run_all()
    assert built == [3, 5]


def test_only_filter():
    assert [r.name for r in run_all(only="charsum")] == [
        "charsum_support_m3", "charsum_support_m5",
    ]


def test_printed_expansions_are_informational():
    for report in beta_printed_expansions():
        assert not report.mandatory


# The symbolic certificates read their inputs from rotaperm.resolvent when
# called, so each perturbation patches the recorded constant there.

def test_resultant_g_perturbation_fails(monkeypatch):
    monkeypatch.setattr(rs, "P3", rs.P3 + parse("y^3"))
    report = cert_resultant_g()
    assert not report.passed
    assert report.diff


def test_resultant_h_perturbation_fails(monkeypatch):
    monkeypatch.setattr(rs, "P2", rs.P2 + parse("z"))
    assert not cert_resultant_h().passed


def test_factorization_perturbation_fails(monkeypatch):
    factors = list(rs.A_FACTORS)
    factors[0] = factors[0] + parse("a*c")  # one flipped monomial
    monkeypatch.setattr(rs, "A_FACTORS", tuple(factors))
    report = cert_factorizations()
    assert not report.passed and "A" in report.notes


def test_beta_perturbation_fails(monkeypatch):
    # drop the cube on (a+b): beta must no longer satisfy the quadratic
    wrong = rs.product((
        parse("a^3"), parse("b^3"), parse("c^3"), parse("a + b"),
        parse("a^2 + a*b + b^2") ** 3, parse("a^2*b + a*b^2 + c^3"),
    ))
    monkeypatch.setattr(rs, "BETA", wrong)
    assert not cert_beta_identity().passed


def test_block_products_are_formed_once_per_process():
    """AD+BC, AC+B^2, K1 and K2 are formed by the first run_all alone;
    a second run and direct calls reuse them."""
    import rotaperm.certify as cert
    cert._block_products.cache_clear()
    cert._k1_k2.cache_clear()
    assert all(r.passed for r in run_all() + run_all())
    assert cert_beta_identity().passed
    assert cert._block_products.cache_info().misses == 1
    assert cert._k1_k2.cache_info().misses == 1
    adbc, acb2 = cert._block_products()
    assert cert._k1_k2() == (acb2 ** 3, rs.A_BLOCK * adbc)


def test_resultant_Q_perturbation_fails(monkeypatch):
    monkeypatch.setattr(rs, "Q1", rs.Q1 + parse("b*z^2"))  # drops the z^2 term
    assert not cert_resultant_Q().passed


def test_g_evaluation_cross_check(f8):
    """The computed resultant and the recorded expansion agree pointwise."""
    rng = random.Random(71)
    g = resultant(rs.P1, rs.P3, "x")
    for _ in range(100):
        point = {v: rng.randrange(8) for v in ("y", "z", "a", "b", "c")}
        assert evaluate(g, f8, point) == evaluate(rs.G_EXPANDED, f8, point)


def test_factorizations_numeric_agreement(f8):
    lhs = rs.A_BLOCK * rs.D_BLOCK + rs.B_BLOCK * rs.C_BLOCK
    rhs = rs.product(rs.AD_BC_FACTORS)
    for a in f8.elements():
        for b in f8.elements():
            for c in f8.elements():
                point = {"a": a, "b": b, "c": c}
                assert evaluate(lhs, f8, point) == evaluate(rhs, f8, point)


@pytest.mark.parametrize("m", [3, 5])
def test_charsum_support(m):
    assert cert_charsum_support(FieldCtx(m)).passed


def _charsum_support_py(ctx) -> CertReport:
    """Reference loop: the zero set of M1, M2 and the trace obstruction, one (t, w) at a time."""
    if ctx.m % 2 == 0:
        return CertReport(f"charsum_support_m{ctx.m}", "fail", None, "odd m required")
    mul, inv, sqr = ctx.mul, ctx.inv, ctx.sqr
    bad = []
    for t in ctx.elements():
        if t == 1:
            continue
        s = 1 ^ t ^ sqr(t)
        u = 1 ^ t
        m1c2 = sqr(mul(sqr(t), s))
        m2c2 = sqr(s)
        c4 = mul(sqr(sqr(u)), sqr(sqr(sqr(s))))
        zeros = set()
        for w in ctx.elements():
            w2, w4 = sqr(w), sqr(sqr(w))
            m1 = w ^ mul(w2, m1c2) ^ mul(w4, c4)
            m2 = mul(w, sqr(t)) ^ mul(w2, m2c2) ^ mul(w4, c4)
            if m1 == 0 and m2 == 0:
                zeros.add(w)
        expected = {0, inv(sqr(mul(u, s)))}
        if zeros != expected:
            bad.append(f"t={t:#x}: zero set {sorted(zeros)} != {sorted(expected)}")
        if ctx.trace(1 ^ inv(u) ^ sqr(inv(u))) != 1:
            bad.append(f"t={t:#x}: trace obstruction absent")
    notes = "; ".join(bad[:4]) if bad else f"all {ctx.q - 1} parameters verified"
    return CertReport(f"charsum_support_m{ctx.m}", "pass" if not bad else "fail", None, notes)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7])
def test_charsum_support_matches_reference_loop(m):
    ctx = FieldCtx(m)
    assert cert_charsum_support(ctx) == _charsum_support_py(ctx)


@pytest.mark.parametrize("m, entry", [(3, 2), (3, 5), (5, 3), (5, 9), (7, 100)])
def test_charsum_support_notes_match_reference_loop_on_a_wrong_square(monkeypatch, m, entry):
    """One square flipped: both versions fail, with byte-equal notes."""
    ctx = FieldCtx(m)
    flipped = ctx.sqr_table.copy()
    flipped[entry] ^= 1
    monkeypatch.setitem(ctx._np_cache, "sqr", flipped)
    monkeypatch.setattr(ctx, "sqr", lambda a: int(flipped[a]))
    fast, slow = cert_charsum_support(ctx), _charsum_support_py(ctx)
    assert not fast.passed
    assert fast.notes == slow.notes
    assert fast == slow


@pytest.mark.parametrize("m", [3, 5, 7])
def test_trace_of_artin_schreier_shift_is_one(m):
    """Tr(1 + u + u^2) = 1 for every u when m is odd."""
    ctx = FieldCtx(m)
    for u in ctx.elements():
        assert ctx.trace(1 ^ u ^ ctx.sqr(u)) == 1


@pytest.mark.parametrize("m", [3, 5])
def test_A_zero_classification(m):
    assert cert_A_zero_classification(FieldCtx(m)).passed


def test_A_zero_examples(f8):
    assert rs.resolvent_coeffs(f8, 1, 0, 1)[0] == 0   # b=0, a=c
    assert rs.resolvent_coeffs(f8, 1, 1, 1)[0] == 0   # a=b=c
    assert rs.resolvent_coeffs(f8, 1, 0x2, 0)[0] != 0


@pytest.mark.parametrize("m", [3, 5])
def test_resolvent_coeffs_arrays_match_scalars(m):
    """One array call gives all four blocks at every point, as the scalar calls do."""
    ctx = FieldCtx(m)
    a, b, c = np.indices((ctx.q,) * 3).reshape(3, -1)
    blocks = rs.resolvent_coeffs(ctx, a, b, c)
    want = np.array([rs.resolvent_coeffs(ctx, *p) for p in zip(a.tolist(), b.tolist(), c.tolist())])
    for got, column in zip(blocks, want.T):
        assert got.shape == a.shape
        assert np.array_equal(got, column)


def test_resolvent_A_is_the_A_block_at_every_point_m3(f8):
    """The A-zero certificate's A, one array call over the cube, is A_BLOCK
    at each of the 512 points."""
    a, b, c = np.indices((f8.q,) * 3).reshape(3, -1)
    got = rs.resolvent_A(f8, a, b, c)
    assert got.shape == a.shape
    want = [evaluate(rs.A_BLOCK, f8, {"a": u, "b": v, "c": w})
            for u, v, w in zip(a.tolist(), b.tolist(), c.tolist())]
    assert got.tolist() == want
    assert [rs.resolvent_A(f8, u, v, w) for u, v, w in zip(a.tolist(), b.tolist(), c.tolist())] == want


@pytest.mark.parametrize("m", [5, 7])
def test_resolvent_A_is_resolvent_coeffs_A_at_the_representatives(m):
    ctx = FieldCtx(m)
    a, b, c = (np.append(r, 0) for r in projective_representatives(ctx))
    assert np.array_equal(rs.resolvent_A(ctx, a, b, c), rs.resolvent_coeffs(ctx, a, b, c)[0])


def _A_zero_classification_full(ctx, evaluate_A) -> CertReport:
    """Oracle: A = 0 against the three lines at every one of the q^3 points."""
    a, b, c = np.indices((ctx.q,) * 3).reshape(3, -1)
    A = evaluate_A(ctx, a, b, c)
    classified = ((b == 0) & (a == c)) | ((a == 0) & (b == c)) | ((a == b) & (b == c))
    bad = int(np.count_nonzero((A == 0) != classified))
    notes = f"{bad} misclassified points" if bad else f"all {ctx.q ** 3} points classified"
    return CertReport(f"A_zero_classification_m{ctx.m}", "pass" if bad == 0 else "fail", None, notes)


def _flip_A_on_line(ctx, point):
    """resolvent_A with A = 0 and A != 0 swapped on the whole line
    {l*point : l != 0} (just the origin when point is 0): still homogeneous."""
    line = {tuple(ctx.mul(lam, u) for u in point) for lam in range(1, ctx.q)}
    packed = np.array(sorted((a << (2 * ctx.m)) | (b << ctx.m) | c for a, b, c in line))

    def mutant(ctx, a, b, c):
        A = rs.resolvent_A(ctx, a, b, c)
        hit = np.isin((a.astype(np.int64) << (2 * ctx.m)) | (b.astype(np.int64) << ctx.m) | c, packed)
        return np.where(hit, A == 0, A)
    return mutant


@pytest.mark.parametrize("point", [(0, 0, 0), (1, 2, 3), (5, 0, 5)])
def test_A_zero_classification_counts_a_single_flip(monkeypatch, point):
    """A flipped on the single line through the point: its q-1 points, or the origin alone."""
    ctx = FieldCtx(3)
    monkeypatch.setattr("rotaperm.certify.resolvent_A", _flip_A_on_line(ctx, point))
    report = cert_A_zero_classification(ctx)
    assert not report.passed
    assert report.notes == ("1 misclassified points" if point == (0, 0, 0) else "7 misclassified points")


def _lines(m):
    """The origin, the three classified lines, and seeded other lines."""
    rng = random.Random(41 + m)
    q = 1 << m
    return [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (0, 0, 1)] + [
        (rng.randrange(q), rng.randrange(q), rng.randrange(1, q)) for _ in range(6)]


@pytest.mark.parametrize("m", [3, 5])
def test_A_zero_classification_matches_full_cube_oracle(monkeypatch, m):
    """The projective certificate gives the full q^3 pass's status and notes,
    on the true blocks and with A flipped on any one line."""
    ctx = FieldCtx(m)
    assert cert_A_zero_classification(ctx) == _A_zero_classification_full(ctx, rs.resolvent_A)
    for point in _lines(m):
        mutant = _flip_A_on_line(ctx, point)
        monkeypatch.setattr("rotaperm.certify.resolvent_A", mutant)
        report = cert_A_zero_classification(ctx)
        assert not report.passed
        assert report == _A_zero_classification_full(ctx, mutant), point


def _assert_blocks_homogeneous(ctx, lam, a, b, c):
    """A, B, C, D at l*v are l^6, l^7, l^8, l^9 times their values at v."""
    scaled = rs.resolvent_coeffs(ctx, ctx.vmul(lam, a), ctx.vmul(lam, b), ctx.vmul(lam, c))
    for degree, block, at_scaled in zip((6, 7, 8, 9), rs.resolvent_coeffs(ctx, a, b, c), scaled):
        assert np.array_equal(at_scaled, ctx.vmul(ctx.vpow(lam, degree), block)), degree


def test_resolvent_blocks_are_homogeneous_m3():
    """Every point and every l at m=3: the A-zero certificate's reduction rests on this."""
    ctx = FieldCtx(3)
    a, b, c = np.indices((ctx.q,) * 3).reshape(3, -1)
    for lam in range(1, ctx.q):
        _assert_blocks_homogeneous(ctx, np.full(a.shape, lam), a, b, c)


def test_resolvent_blocks_are_homogeneous_m5():
    """Every point at m=5, each with its own seeded l."""
    ctx = FieldCtx(5)
    a, b, c = np.indices((ctx.q,) * 3).reshape(3, -1)
    lam = np.random.default_rng(5).integers(1, ctx.q, size=a.shape)
    _assert_blocks_homogeneous(ctx, lam, a, b, c)


@pytest.mark.parametrize("m", [7, 4, 2])
def test_A_zero_classification_refuses_before_building_the_grid(monkeypatch, m):
    def no_grid(*_):
        raise AssertionError("grid built")
    monkeypatch.setattr(oracles, "_cube_grid", no_grid)
    monkeypatch.setattr("rotaperm.certify.projective_representatives", no_grid)
    monkeypatch.setattr("rotaperm.certify.resolvent_A", no_grid)
    report = cert_A_zero_classification(FieldCtx(m))
    assert not report.passed
    assert report.notes == "odd m <= 5 required"


def _beta_trace_fallback_py(ctx, coeffs) -> bool:
    """Reference loop: Tr((AC+B^2)^3 / (A^2 (AD+BC)^2)) = 0 at every point where it is defined."""
    for a in ctx.elements():
        for b in ctx.elements():
            for c in ctx.elements():
                A, B, C, D = (int(v) for v in coeffs(ctx, a, b, c))
                if A == 0:
                    continue
                adbc = ctx.mul(A, D) ^ ctx.mul(B, C)
                if adbc == 0:
                    continue
                acb2 = ctx.mul(A, C) ^ ctx.sqr(B)
                frac = ctx.div(ctx.pow(acb2, 3), ctx.sqr(ctx.mul(A, adbc)))
                if ctx.trace(frac) != 0:
                    return False
    return True


@pytest.mark.parametrize("m", [3, 5])
def test_beta_trace_is_zero_wherever_defined(m):
    assert beta_trace_fallback(FieldCtx(m))


@pytest.mark.parametrize("block", ["B", "C", "D"])
def test_beta_trace_matches_reference_loop(monkeypatch, f8, block):
    """The array pass and the scalar loop agree on the true blocks and on a perturbed one."""
    assert beta_trace_fallback(f8) is _beta_trace_fallback_py(f8, rs.resolvent_coeffs) is True
    i = "ABCD".index(block)

    def perturbed(ctx, a, b, c):
        coeffs = list(rs.resolvent_coeffs(ctx, a, b, c))
        coeffs[i] ^= 1
        return tuple(coeffs)
    monkeypatch.setattr(oracles, "resolvent_coeffs", perturbed)
    assert beta_trace_fallback(f8) is _beta_trace_fallback_py(f8, perturbed) is False


def test_beta_trace_fallback_capped():
    with pytest.raises(DomainTooLarge):
        beta_trace_fallback(FieldCtx(7))
