"""Field arithmetic against naive oracles, plus the trace-machinery laws."""

import random

import numpy as np
import pytest

from rotaperm.errors import (
    DomainTooLarge,
    EvenDegree,
    FormulaInconsistent,
    NoSolution,
    ReducibleModulus,
    UnsupportedDegree,
)
from rotaperm.field import DEFAULT_MODULI, MAX_TABLE_ENTRIES, FieldCtx, admit, shared_field


def naive_mul(m: int, modulus: int, a: int, b: int) -> int:
    """Schoolbook carryless multiply, then long-division remainder."""
    prod = 0
    for i in range(m):
        if (b >> i) & 1:
            prod ^= a << i
    for shift in range(prod.bit_length() - m, -1, -1):
        if (prod >> (shift + m)) & 1:
            prod ^= modulus << shift
    return prod


# -- construction ------------------------------------------------------------

def test_default_modulus_m3():
    assert FieldCtx(3).modulus == 0xB  # x^3 + x + 1


def test_reducible_modulus_rejected(patch_modulus):
    patch_modulus(3, 0xF)  # x^3+x^2+x+1 = (x+1)(x^2+1)
    with pytest.raises(ReducibleModulus):
        FieldCtx(3)
    with pytest.raises(ReducibleModulus):
        shared_field(3)


def test_unsupported_degree():
    with pytest.raises(UnsupportedDegree):
        FieldCtx(17)


def test_admit_is_one_budget_of_2_24_entries():
    """The smallest power of two that admits every witness prefix at m = 11
    (4 x-slabs of 2^22 points); one entry more is refused, with the count."""
    assert MAX_TABLE_ENTRIES == 1 << 24
    admit(MAX_TABLE_ENTRIES, "a table")
    with pytest.raises(DomainTooLarge, match="a table: 16777217 entries > 16777216"):
        admit(MAX_TABLE_ENTRIES + 1, "a table")


def test_m5_default_and_inv3():
    ctx = FieldCtx(5)
    assert ctx.modulus == 0x25  # x^5 + x^2 + 1
    assert ctx.inv3 == 21
    assert (3 * 21) % 31 == 1


def test_every_table_entry_is_irreducible():
    for m in DEFAULT_MODULI:
        FieldCtx(m)  # construction re-validates by trial division


def test_inv3_only_for_odd_m():
    assert FieldCtx(4).inv3 is None
    assert (3 * FieldCtx(7).inv3) % 127 == 1


# -- multiplication ----------------------------------------------------------

def test_mul_examples(f8):
    assert f8.mul(0x2, 0x4) == 0x3  # g*g^2 = g^3 = g+1
    assert f8.mul(0x7, 0x7) == 0x3
    assert all(f8.mul(a, 0x1) == a for a in f8.elements())


@pytest.mark.parametrize("m", range(1, 9))
def test_mul_matches_naive_oracle_exhaustive(m):
    ctx = FieldCtx(m)
    for a in ctx.elements():
        for b in ctx.elements():
            assert ctx.mul(a, b) == naive_mul(m, ctx.modulus, a, b)


@pytest.mark.parametrize("m", range(9, 17))
def test_mul_matches_naive_oracle_sampled(m):
    ctx = FieldCtx(m)
    rng = random.Random(7)
    for _ in range(500):
        a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
        assert ctx.mul(a, b) == naive_mul(m, ctx.modulus, a, b)


def test_imprimitive_modulus_searches_for_a_generator(patch_modulus):
    # x^4+x^3+x^2+x+1 is irreducible, but x has order 5, not 15.
    patch_modulus(4, 0x1F)
    ctx = FieldCtx(4)
    assert ctx.modulus == 0x1F
    assert ctx.pow(0x2, 5) == 1
    assert ctx.generator != 0x2
    powers = [ctx.pow(ctx.generator, i) for i in range(15)]
    assert sorted(powers) == list(range(1, 16))
    for a in ctx.elements():
        for b in ctx.elements():
            assert ctx.mul(a, b) == naive_mul(4, 0x1F, a, b)
    for a in range(1, ctx.q):
        assert naive_mul(4, 0x1F, a, ctx.inv(a)) == 1


def test_field_laws_exhaustive_m3(f8):
    for a in f8.elements():
        for b in f8.elements():
            assert f8.mul(a, b) == f8.mul(b, a)
            for c in f8.elements():
                assert f8.mul(f8.mul(a, b), c) == f8.mul(a, f8.mul(b, c))
                assert f8.mul(a, b ^ c) == f8.mul(a, b) ^ f8.mul(a, c)


def test_inverse_and_pow(f8):
    for a in range(1, f8.q):
        assert f8.mul(a, f8.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f8.inv(0)
    assert f8.pow(0, 0) == 1
    assert f8.pow(0x2, 7) == 1
    assert f8.sqrt(f8.sqr(0x6)) == 0x6


def test_pow_and_inv_at_m1():
    ctx = FieldCtx(1)
    assert ctx.generator == 1
    assert [ctx.pow(1, n) for n in range(5)] == [1] * 5
    assert ctx.pow(0, 0) == 1 and ctx.pow(0, 3) == 0
    assert ctx.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


@pytest.mark.parametrize("m", range(1, 10))
def test_vector_tables_match_scalar_ops(m):
    ctx = FieldCtx(m)
    elems = list(ctx.elements())
    assert ctx.mul_table.tolist() == [[ctx.mul(a, b) for b in elems] for a in elems]
    assert ctx.sqr_table.tolist() == [ctx.sqr(a) for a in elems]
    assert ctx.cube_table.tolist() == [ctx.pow(a, 3) for a in elems]
    assert ctx.inv_table.tolist() == [0] + [ctx.inv(a) for a in elems[1:]]
    for t in (ctx.mul_table, ctx.sqr_table, ctx.cube_table, ctx.inv_table):
        assert t.dtype == np.uint16
        assert not t.flags.writeable


def test_cached_tuples_are_read_only():
    """_table marks every array of a cached tuple read-only, not the tuple alone."""
    ctx = FieldCtx(3)
    pair = ctx._table("test_pair", lambda c: (np.zeros(c.m), np.ones(2)))
    assert ctx._table("test_pair", lambda c: None) is pair
    assert pair[0].shape == (3,)
    assert not any(a.flags.writeable for a in pair)
    with pytest.raises(ValueError):
        pair[1][0] = 0


def test_shared_field_is_one_context_per_degree():
    """One context per degree per process; the constructor still builds a
    context of its own, equal to the shared one."""
    assert shared_field(5) is shared_field(5)
    own = FieldCtx(5)
    assert own is not shared_field(5) and own == shared_field(5)
    assert shared_field(5).modulus == DEFAULT_MODULI[5]
    with pytest.raises(UnsupportedDegree):
        shared_field(17)


def test_vpow_matches_scalar_pow(f32):
    vec = np.arange(f32.q)
    for n in (0, 1, 2, 5, 31, 32, 100):
        assert f32.vpow(vec, n).tolist() == [f32.pow(a, n) for a in range(f32.q)]


@pytest.mark.parametrize("m", [1, 3, 5])
def test_vmul_matches_scalar_mul(m):
    """Every pair, in a 2-D grid of uint16 operands, keeps its shape and dtype;
    scalar x array, (q, 1) x (1, q) and (3, n) x (n,) operands broadcast."""
    ctx = FieldCtx(m)
    a, b = np.indices((ctx.q, ctx.q), dtype=np.uint16)
    got = ctx.vmul(a, b)
    assert got.shape == a.shape and got.dtype == np.uint16
    assert got.tolist() == [[ctx.mul(x, y) for y in ctx.elements()] for x in ctx.elements()]
    vec = np.arange(ctx.q)
    for s in ctx.elements():
        assert ctx.vmul(s, vec).tolist() == [ctx.mul(s, y) for y in ctx.elements()]
        assert ctx.vmul(vec, s).tolist() == [ctx.mul(x, s) for x in ctx.elements()]
    assert np.array_equal(ctx.vmul(vec[:, None], vec[None, :]), got)
    rng = np.random.default_rng(m)
    rows, row = rng.integers(ctx.q, size=(3, 7)), rng.integers(ctx.q, size=7).astype(np.uint16)
    assert ctx.vmul(rows, row).tolist() == [
        [ctx.mul(int(x), int(y)) for x, y in zip(r, row)] for r in rows]


def test_mul_table_matches_scalar(f32):
    table = f32.mul_table
    rng = random.Random(3)
    for _ in range(300):
        a, b = rng.randrange(32), rng.randrange(32)
        assert int(table[a, b]) == f32.mul(a, b)


# -- cube roots ---------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 3, 9])
def test_inv_table_matches_scalar_inverse(m):
    ctx = FieldCtx(m)
    inv = ctx.inv_table
    assert inv[0] == 0
    assert [int(v) for v in inv[1:]] == [ctx.inv(a) for a in range(1, ctx.q)]


def test_cube_root_examples(f8):
    assert f8.cube_root(0) == 0
    assert f8.cube_root(1) == 1
    # 3^-1 = 5 mod 7; g^5 by repeated squaring: g^4 * g
    g5 = f8.mul(f8.sqr(f8.sqr(0x2)), 0x2)
    assert f8.cube_root(0x2) == g5 == 0x7


@pytest.mark.parametrize("m", [3, 5, 7])
def test_cube_root_is_cubing_inverse_and_bijective(m):
    ctx = FieldCtx(m)
    roots = set()
    for a in ctx.elements():
        r = ctx.cube_root(a)
        assert ctx.pow(r, 3) == a
        roots.add(r)
    assert len(roots) == ctx.q


def test_cube_root_needs_odd_m():
    with pytest.raises(EvenDegree):
        FieldCtx(4).cube_root(0x2)


# -- trace family --------------------------------------------------------------

def test_trace_examples(f8):
    assert f8.trace(0) == 0
    assert f8.trace(1) == 1
    g = 0x2
    assert f8.trace(g) == g ^ f8.sqr(g) ^ f8.sqr(f8.sqr(g)) == 0


@pytest.mark.parametrize("m", [3, 5, 7])
def test_trace_frobenius_invariance(m):
    ctx = FieldCtx(m)
    for a in ctx.elements():
        assert ctx.trace(ctx.sqr(a)) == ctx.trace(a)
        assert ctx.trace(a) in (0, 1)


def test_trace_additivity_exhaustive_m3(f8):
    for a in f8.elements():
        for b in f8.elements():
            assert f8.trace(a ^ b) == f8.trace(a) ^ f8.trace(b)


@pytest.mark.parametrize("m", [3, 5])
def test_character_orthogonality(m):
    ctx = FieldCtx(m)
    for a in ctx.elements():
        total = sum((-1) ** ctx.trace(ctx.mul(a, w)) for w in ctx.elements())
        assert total == (ctx.q if a == 0 else 0)


def test_half_trace_examples(f8):
    assert f8.half_trace(0) == 0
    r = f8.half_trace(0x6)
    assert f8.sqr(r) ^ r == 0x6
    with pytest.raises(NoSolution):
        f8.half_trace(1)  # Tr(1) = 1 for odd m


@pytest.mark.parametrize("m", [3, 5, 7])
def test_half_trace_defining_identity(m):
    ctx = FieldCtx(m)
    for b in ctx.elements():
        if ctx.trace(b) == 0:
            r = ctx.half_trace(b)
            assert ctx.sqr(r) ^ r == b


# -- quadratic and cubic solvers ----------------------------------------------

def scan_quadratic(ctx, a, b):
    return {x for x in ctx.elements() if ctx.sqr(x) ^ ctx.mul(a, x) ^ b == 0}


def test_solve_quadratic_examples(f8):
    assert f8.solve_quadratic(0, 0) == {0}
    assert f8.solve_quadratic(1, 1) == set()  # Tr(1) = 1
    roots = f8.solve_quadratic(1, 0x6)
    assert len(roots) == 2 and roots == scan_quadratic(f8, 1, 0x6)


@pytest.mark.parametrize("m", [3, 5])
def test_solve_quadratic_matches_scan_exhaustive(m):
    ctx = FieldCtx(m)
    for a in ctx.elements():
        for b in ctx.elements():
            assert ctx.solve_quadratic(a, b) == scan_quadratic(ctx, a, b)


def test_solve_quadratic_no_root_criterion(f8):
    for a in range(1, 8):
        for b in f8.elements():
            empty = f8.solve_quadratic(a, b) == set()
            assert empty == (f8.trace(f8.div(b, f8.sqr(a))) == 1)


def test_cubic_roots_examples(f8):
    assert f8.cubic_roots(0, 0, 0) == {0}
    assert f8.cubic_roots(0, 1, 0) == {0, 1}  # Y^3 + Y = Y(Y+1)^2


@pytest.mark.parametrize("m", [3, 5])
def test_cubic_unique_root_iff_trace_criterion(m):
    ctx = FieldCtx(m)
    for q in ctx.elements():
        for r in range(1, ctx.q):
            roots = ctx.cubic_roots(0, q, r)  # cubic_roots re-checks the criterion itself
            crit = ctx.trace(ctx.div(ctx.pow(q, 3), ctx.sqr(r)) ^ 1)
            assert (len(roots) == 1) == (crit == 1)


def test_cubic_trace_criterion_violation_is_typed(f8, monkeypatch):
    # A wrong trace makes the scanned roots contradict the criterion.
    monkeypatch.setattr(f8, "trace", lambda a: 1 - FieldCtx.trace(f8, a))
    with pytest.raises(FormulaInconsistent):
        f8.cubic_roots(0, 1, 1)
