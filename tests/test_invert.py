"""Closed-form, resolvent, and table inverters: examples and round trips."""

import random

import pytest

from rotaperm.errors import DomainTooLarge, FormulaInconsistent, NotAPermutation
from rotaperm.family import family_from_coeffs, eval_F, named_family
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
from rotaperm.mpoly import evaluate
from rotaperm.resolvent import A_BLOCK, B_BLOCK, C_BLOCK, D_BLOCK, resolvent_coeffs

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
    from rotaperm.resolvent import H_SYSTEM, P1, P2, P3
    f1, f2, f3 = named_family("T1").F
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
        invert_table(FieldCtx(9), named_family("T2"), (0, 0, 0))


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
