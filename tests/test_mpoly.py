"""Symbolic ring: parsing, ring laws, substitution, evaluation, resultants."""

import random

import pytest

from rotaperm.errors import (
    DegenerateInput,
    DegreeOverflow,
    MissingAssignment,
    PolyParseError,
    UnknownVariable,
)
from rotaperm.mpoly import (
    VARS,
    MPoly,
    evaluate,
    homogeneous_degree,
    one,
    parse,
    resultant,
    substitute,
    to_text,
    var,
    zero,
)
from rotaperm.resolvent import G_EXPANDED, P1, P3

SIGMA = {"x": "y", "y": "z", "z": "x"}


def random_poly(rng, nvars=6, max_terms=4, max_exp=4):
    terms = []
    for _ in range(rng.randrange(max_terms + 1)):
        term = [0] * len(VARS)
        for i in range(nvars):
            term[i] = rng.randrange(max_exp + 1) if rng.random() < 0.5 else 0
        terms.append(tuple(term))
    return MPoly(terms)


# -- parse / print ------------------------------------------------------------

def test_parse_three_term_cubic():
    p = parse("x^3 + y*z^2 + y^2*z")
    assert len(p.terms) == 3
    # canonical printing is descending-lex: y^2*z before y*z^2
    assert to_text(p) == "x^3 + y^2*z + y*z^2"
    assert parse(to_text(p)) == p


def test_parse_zero_and_cancellation():
    assert parse("0") == zero()
    assert parse("x + x") == zero()
    assert parse("1 + 1") == zero()


def test_parse_constant_in_sum():
    assert parse("1 + t + t^2") == one() + var("t") + var("t") ** 2


def test_parse_star_is_optional():
    assert parse("y^6a") == parse("y^6*a")
    assert parse("x y") == parse("x*y")


def test_parse_reports_position():
    with pytest.raises(PolyParseError) as err:
        parse("x^3 + ^2")
    assert err.value.position == 6


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse("x + w")


def test_roundtrip_on_random_polys():
    rng = random.Random(11)
    for _ in range(200):
        p = random_poly(rng)
        assert parse(to_text(p)) == p


def test_exponent_cap_is_hard():
    with pytest.raises(DegreeOverflow):
        parse("x^64")
    with pytest.raises(DegreeOverflow):
        parse("x^32") * parse("x^32")


# -- ring laws ------------------------------------------------------------------

def test_mul_examples():
    p = parse("x^3 + y*z^2 + y^2*z")
    assert p * one() == p
    assert parse("x + y") * parse("x + y") == parse("x^2 + y^2")
    assert parse("a + b") * parse("a^2 + a*b + b^2") == parse("a^3 + b^3")


def test_ring_laws_randomized():
    rng = random.Random(23)
    for _ in range(1000):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
    for _ in range(100):
        p, q, r = (random_poly(rng, max_terms=3, max_exp=3) for _ in range(3))
        assert (p * q) * r == p * (q * r)


def test_frobenius_squaring():
    rng = random.Random(5)
    for _ in range(100):
        p = random_poly(rng)
        assert p.sqr() == p * p
        assert (p ** 4) == p.sqr().sqr()


# -- substitution -----------------------------------------------------------------

def test_substitute_rotation():
    p = parse("x^3 + y*z^2 + y^2*z")
    assert substitute(p, SIGMA) == parse("y^3 + z*x^2 + z^2*x")


def test_substitute_identity_and_char2():
    p = parse("x^2 + y")
    assert substitute(p, {"x": "x"}) == p
    assert substitute(parse("x^2"), {"x": parse("x + a")}) == parse("x^2 + a^2")


def test_rotation_has_order_three():
    rng = random.Random(31)
    for _ in range(50):
        p = random_poly(rng, nvars=3)
        q = substitute(substitute(substitute(p, SIGMA), SIGMA), SIGMA)
        assert q == p


def test_substitute_unknown_key():
    with pytest.raises(UnknownVariable):
        substitute(parse("x"), {"w": parse("x")})


# -- evaluation --------------------------------------------------------------------

def test_evaluate_examples(f8):
    p = parse("x^3 + y*z^2 + y^2*z")
    assert evaluate(p, f8, {"x": 1, "y": 1, "z": 1}) == 1
    assert evaluate(zero(), f8, {}) == 0
    with pytest.raises(MissingAssignment):
        evaluate(p, f8, {"x": 1, "y": 1})


def test_evaluation_is_ring_homomorphism(f8):
    rng = random.Random(41)
    for _ in range(1000):
        p = random_poly(rng, nvars=4, max_terms=3, max_exp=3)
        q = random_poly(rng, nvars=4, max_terms=3, max_exp=3)
        point = {v: rng.randrange(8) for v in VARS}
        lhs_mul = evaluate(p * q, f8, point)
        assert lhs_mul == f8.mul(evaluate(p, f8, point), evaluate(q, f8, point))
        assert evaluate(p + q, f8, point) == evaluate(p, f8, point) ^ evaluate(q, f8, point)


# -- homogeneity -----------------------------------------------------------------------

def test_homogeneous_degree():
    assert homogeneous_degree(parse("x^3 + y*z^2 + y^2*z")) == 3
    assert homogeneous_degree(parse("x^3 + x")) is None
    assert homogeneous_degree(zero()) == 0


# -- resultants ---------------------------------------------------------------------------

def test_linear_resultant():
    assert resultant(parse("x + y"), parse("x + z"), "x") == parse("y + z")


def test_resultant_of_identical_polys_vanishes():
    p = parse("x^2 + y")
    assert resultant(p, p, "x") == zero()


def test_resultant_degenerate_input():
    with pytest.raises(DegenerateInput):
        resultant(parse("y"), parse("z"), "x")


def test_first_elimination_matches_recorded_expansion():
    assert resultant(P1, P3, "x") == G_EXPANDED


def test_resultant_vanishes_on_shared_roots(f8):
    """R_x(p, q) lies in the ideal (p, q): any specialization where the two
    univariate images share a root must kill the evaluated resultant."""
    rng = random.Random(59)
    p = parse("x^3 + y^3 + a")
    q = parse("x*y^2 + y*z^2 + x^2*z + c")
    r = resultant(p, q, "x")
    checked = 0
    trials = 0
    while checked < 200 and trials < 20000:
        trials += 1
        point = {v: rng.randrange(8) for v in ("y", "z", "a", "c")}
        roots_p = {x for x in f8.elements() if evaluate(p, f8, {**point, "x": x}) == 0}
        roots_q = {x for x in f8.elements() if evaluate(q, f8, {**point, "x": x}) == 0}
        if roots_p & roots_q:
            checked += 1
            assert evaluate(r, f8, point) == 0
    assert checked == 200
