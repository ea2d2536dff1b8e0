"""Closed-form, resolvent, and table inverters: examples and round trips."""

import random

import numpy as np
import pytest

import rotaperm.invert as inv
import rotaperm.permcheck as pc
from rotaperm.errors import DomainTooLarge, FormulaInconsistent, NotAPermutation
from rotaperm.family import all_families, family_from_coeffs, eval_F, named_family
from rotaperm.field import FieldCtx
from rotaperm.invert import (
    _checked,
    invert_T1_resolvent,
    invert_T3,
    invert_T4,
    invert_T5,
    invert_point,
    invert_table,
)
from rotaperm.resolvent import A_BLOCK, B_BLOCK, C_BLOCK, D_BLOCK, resolvent_coeffs

from oracles import evaluate

INVERTERS = {
    "T1": lambda ctx, fam, t: invert_T1_resolvent(ctx, t),
    "T2": invert_table,
    "T3": lambda ctx, fam, t: invert_T3(ctx, t),
    "T4": lambda ctx, fam, t: invert_T4(ctx, t),
    "T5": lambda ctx, fam, t: invert_T5(ctx, t),
}


def test_origin_is_fixed(f8):
    assert invert_T3(f8, (0, 0, 0)) == (0, 0, 0)
    assert invert_T4(f8, (0, 0, 0)) == (0, 0, 0)
    assert invert_T5(f8, (0, 0, 0)) == (0, 0, 0)
    assert invert_T1_resolvent(f8, (0, 0, 0)) == (0, 0, 0)
    for name in INVERTERS:
        assert invert_table(f8, named_family(name), (0, 0, 0)) == (0, 0, 0)


def test_t3_fixed_point(f8):
    assert invert_T3(f8, (1, 1, 1)) == (1, 1, 1)


def test_t4_equal_ab_branch(f8):
    assert invert_T4(f8, (1, 1, 0)) == (0, 1, 0)
    assert eval_F(f8, named_family("T4"), (0, 1, 0)) == (1, 1, 0)


def test_t5_equal_ac_branch(f8):
    assert invert_T5(f8, (1, 0, 1)) == (1, 0, 1)
    assert eval_F(f8, named_family("T5"), (1, 0, 1)) == (1, 0, 1)


def test_t1_degenerate_branch(f8):
    # phi(0,1,0) = (1,0,1): the b=0, a=c case with solution (0, a^(1/3), a^(1/3)).
    assert invert_T1_resolvent(f8, (0, 1, 0)) == (0, 1, 1)
    assert eval_F(f8, named_family("T1"), (0, 1, 1)) == (0, 1, 0)


@pytest.mark.parametrize("name", sorted(INVERTERS))
def test_round_trip_exhaustive_m3(f8, name):
    fam = named_family(name)
    inverter = INVERTERS[name]
    for x in f8.elements():
        for y in f8.elements():
            for z in f8.elements():
                target = eval_F(f8, fam, (x, y, z))
                assert inverter(f8, fam, target) == (x, y, z)


def test_table_agrees_with_closed_form_on_all_targets(f8):
    fam = named_family("T3")
    for packed in range(512):
        target = (packed >> 6, (packed >> 3) & 7, packed & 7)
        assert invert_table(f8, fam, target) == invert_T3(f8, target)


def test_sheared_system_matches_family():
    """phi composed with the T1 map is exactly the three-equation system
    the resolvent eliminates."""
    from rotaperm.mpoly import parse
    from rotaperm.resolvent import P1, P2, P3
    from oracles import H_SYSTEM, symbolic_map
    f1, f2, f3 = symbolic_map(named_family("T1"))
    assert (f2 + f3, f1 + f3, f1 + f2 + f3) == H_SYSTEM
    assert P1 == H_SYSTEM[0] + parse("a")
    assert P2 == H_SYSTEM[1] + parse("b")
    assert P3 == H_SYSTEM[2] + parse("c")


def test_resolvent_coeffs_match_symbolic_blocks(f32):
    rng = random.Random(13)
    for _ in range(100):
        a, b, c = (rng.randrange(32) for _ in range(3))
        big_a, big_b, big_c, big_d = resolvent_coeffs(f32, a, b, c)
        point = {"a": a, "b": b, "c": c}
        assert big_a == evaluate(A_BLOCK, f32, point)
        assert big_b == evaluate(B_BLOCK, f32, point)
        assert big_c == evaluate(C_BLOCK, f32, point)
        assert big_d == evaluate(D_BLOCK, f32, point)


def test_degenerate_resolvent_classification_m3(f8):
    """A = 0 exactly on the three classified target shapes."""
    for a in f8.elements():
        for b in f8.elements():
            for c in f8.elements():
                classified = (b == 0 and a == c) or (a == 0 and b == c) or a == b == c
                assert (resolvent_coeffs(f8, a, b, c)[0] == 0) == classified


def test_reevaluation_guard_raises():
    ctx = FieldCtx(3)
    with pytest.raises(FormulaInconsistent):
        _checked(ctx, named_family("T3"), (1, 2, 3), (0, 0, 0))


def test_invert_table_rejects_non_permutations(f8):
    with pytest.raises(NotAPermutation):
        invert_table(f8, family_from_coeffs("00000001"), (0, 0, 0))


def test_invert_table_domain_cap():
    with pytest.raises(DomainTooLarge):
        invert_table(FieldCtx(11), named_family("T2"), (0, 0, 0))


def _full_inverse_table(ctx, fam):
    """The slow oracle: every one of the q^3 images, inverted by one scatter."""
    images = pc.family_images(ctx, fam)
    table = np.empty_like(images)
    table[images] = np.arange(images.shape[0], dtype=images.dtype)
    return table


@pytest.mark.parametrize("m, count", [(3, 36), (5, 29)])
def test_projective_table_matches_full_table(m, count):
    """Every target of every permutation vector, against the q^3 table."""
    ctx = FieldCtx(m)
    families = [fam for fam in all_families() if pc.is_permutation(ctx, fam).is_permutation]
    assert len(families) == count
    for fam in families:
        full = _full_inverse_table(ctx, fam).tolist()
        for packed in range(ctx.q ** 3):
            target = pc._unpack(ctx, packed)
            assert invert_table(ctx, fam, target) == pc._unpack(ctx, full[packed]), (fam, target)


@pytest.mark.parametrize("m, trips", [(7, 2000), (9, 500)])
def test_t2_table_round_trips(m, trips):
    ctx = FieldCtx(m)
    fam = named_family("T2")
    rng = random.Random(m)
    for _ in range(trips):
        point = tuple(rng.randrange(ctx.q) for _ in range(3))
        assert invert_table(ctx, fam, eval_F(ctx, fam, point)) == point


def test_non_permutation_decided_without_the_full_scan(f128, monkeypatch):
    def no_scan(ctx, fam):
        raise AssertionError("the q^3 scan must not run")
    monkeypatch.setattr(pc, "full_scan", no_scan)
    monkeypatch.setattr(pc, "family_images", no_scan)
    for bits in ("00000001", "11111111"):
        with pytest.raises(NotAPermutation):
            invert_table(f128, family_from_coeffs(bits), (1, 2, 3))


def test_even_m_is_refused_before_any_table():
    with pytest.raises(NotAPermutation, match="even m"):
        invert_table(FieldCtx(4), named_family("T2"), (1, 2, 3))


def test_inverse_table_is_read_only(f128):
    tables = inv._inverse_table(f128, named_family("T2").coeffs)
    lead, source = tables
    n = 128 * 128 + 128 + 1
    assert lead.size == source.size == n
    assert not any(t.flags.writeable for t in tables)
    assert sorted(source.tolist()) == list(range(n))


@pytest.mark.parametrize("corrupt", ["lead", "source"])
def test_corrupted_table_entry_is_caught(f128, monkeypatch, corrupt):
    """A wrong lead or source entry yields a point that fails the re-check."""
    fam = named_family("T2")
    lead, source = (a.copy() for a in inv._inverse_table(f128, fam.coeffs))
    point = (5, 9, 77)
    target = eval_F(f128, fam, point)
    j = pc.representative_index(f128, target)[1]
    i = int(source[j])
    if corrupt == "lead":
        lead[i] = f128.mul(lead[i], 2)
    else:
        source[j] = (i + 1) % source.size
    monkeypatch.setattr(inv, "_inverse_table", lambda ctx, coeffs: (lead, source))
    with pytest.raises(FormulaInconsistent):
        invert_table(f128, fam, target)


def test_dispatcher_methods(f8):
    target = eval_F(f8, named_family("T1"), (3, 5, 6))
    pre, method = invert_point(f8, named_family("T1"), target)
    assert pre == (3, 5, 6) and method == "resolvent"
    pre, method = invert_point(f8, named_family("T2"), eval_F(f8, named_family("T2"), (1, 2, 3)))
    assert pre == (1, 2, 3) and method == "table"
    pre, method = invert_point(f8, named_family("T5"), eval_F(f8, named_family("T5"), (4, 2, 7)),
                               method="closed")
    assert pre == (4, 2, 7) and method == "closed-form"
    pre, method = invert_point(f8, named_family("T4"), eval_F(f8, named_family("T4"), (6, 0, 2)),
                               method="table")
    assert pre == (6, 0, 2) and method == "table"
    t1, t2, t3 = named_family("T1"), named_family("T2"), named_family("T3")
    with pytest.raises(ValueError, match="no closed form for T1"):
        invert_point(f8, t1, (1, 2, 3), method="closed")
    with pytest.raises(ValueError, match="no closed form for T2"):
        invert_point(f8, t2, (1, 2, 3), method="closed")
    with pytest.raises(ValueError, match="the resolvent inverter serves the T1 family"):
        invert_point(f8, t3, (1, 2, 3), method="resolvent")
    with pytest.raises(ValueError, match="unknown method 'newton'"):
        invert_point(f8, t3, (1, 2, 3), method="newton")
    unnamed = family_from_coeffs("00000011")
    pre, method = invert_point(f8, unnamed, eval_F(f8, unnamed, (5, 1, 2)))
    assert pre == (5, 1, 2) and method == "table"
