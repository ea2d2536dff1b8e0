"""Symbolic ring: parsing, ring laws, substitution, evaluation, resultants."""

import ast
import random
import re
import time

import pytest

import rotaperm.certify as cert
from rotaperm.errors import (
    DegenerateInput,
    DegreeOverflow,
    DomainTooLarge,
    PolyParseError,
    UnknownVariable,
    VariableMismatch,
)
from rotaperm.mpoly import (
    MAX_EXPONENT,
    VARS,
    MPoly,
    one,
    parse,
    resultant,
    substitute,
    to_text,
    var,
    zero,
)
from rotaperm.certify import G_EXPANDED, P1, P3

from oracles import MissingAssignment, evaluate, homogeneous_degree

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


def test_exponent_vector_of_wrong_length_is_refused():
    """Every polynomial lives in the one ring VARS, so the arity check of
    MPoly() is the one place a foreign exponent vector can be caught."""
    with pytest.raises(VariableMismatch, match="wrong arity"):
        MPoly([(1, 2)])
    assert MPoly([(1,) + (0,) * (len(VARS) - 1)]) == var("x")


# -- packed monomials against the exponent-tuple oracle -----------------------------

def _mul_tuples(p, q):
    """Reference product on exponent tuples: every pair sum, cancelled in
    pairs, before the exponent cap is checked."""
    acc = set()
    for e1 in p.terms:
        for e2 in q.terms:
            acc ^= {tuple(u + v for u, v in zip(e1, e2))}
    return frozenset(acc)


def test_packed_product_matches_tuple_product():
    rng = random.Random(97)
    overflows = 0
    for _ in range(200):
        p = random_poly(rng, nvars=len(VARS), max_terms=6, max_exp=rng.choice((3, 40)))
        q = random_poly(rng, nvars=len(VARS), max_terms=6, max_exp=rng.choice((3, 40)))
        want = _mul_tuples(p, q)
        over = {term for term in want if max(term) > MAX_EXPONENT}
        if not over:
            assert (p * q).terms == want
            continue
        overflows += 1
        with pytest.raises(DegreeOverflow) as err:
            p * q
        prefix = f"product exponent outside 0..{MAX_EXPONENT}: "
        assert str(err.value).startswith(prefix)
        assert ast.literal_eval(str(err.value)[len(prefix):]) in over
    assert 0 < overflows < 200


def test_packed_product_keeps_odd_multiplicities():
    p, q = parse("x + y + z"), parse("x + y")
    assert (p * q).terms == _mul_tuples(p, q) == parse("x^2 + y^2 + x*z + y*z").terms


@pytest.mark.parametrize("var_name", VARS)
def test_overflow_edges_in_every_field(var_name):
    assert parse(f"{var_name}^31") * parse(f"{var_name}^32") == parse(f"{var_name}^63")
    assert parse(f"{var_name}") ** 63 == parse(f"{var_name}^63")
    assert parse(f"{var_name}^31").sqr() == parse(f"{var_name}^62")
    overflow = tuple(64 if v == var_name else 0 for v in VARS)
    with pytest.raises(DegreeOverflow, match=re.escape(f"product exponent outside 0..63: {overflow}")):
        parse(f"{var_name}^32") * parse(f"{var_name}^32")
    with pytest.raises(DegreeOverflow, match=re.escape(f"square exponent outside 0..63: {overflow}")):
        parse(f"{var_name}^32").sqr()
    with pytest.raises(DegreeOverflow):
        parse(f"{var_name}") ** 64
    with pytest.raises(DegreeOverflow):
        parse(f"{var_name}^2") ** 32


def test_terms_is_a_read_only_view_of_tuples():
    p = parse("x^3 + y*z^2 + Z^63")
    assert p.terms == frozenset({
        (3, 0, 0, 0, 0, 0, 0, 0, 0), (0, 1, 2, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 63)})
    with pytest.raises(AttributeError):
        p.terms = frozenset()
    assert MPoly(p.terms) == p


def test_packed_queries_match_tuple_queries():
    rng = random.Random(53)
    for _ in range(200):
        p = random_poly(rng, nvars=len(VARS), max_terms=5, max_exp=63)
        assert to_text(p) == " + ".join(
            to_text(MPoly([term])) for term in sorted(p.terms, reverse=True)) or to_text(p) == "0"
        for i, name in enumerate(VARS):
            assert p.degree_in(name) == max((term[i] for term in p.terms), default=0)
            power = rng.randrange(4)
            want = {term[:i] + (0,) + term[i + 1:] for term in p.terms if term[i] == power}
            assert p.coefficient_of(name, power).terms == want


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


def _resultant_unsorted(p, q, eliminate):
    """Reference Sylvester determinant: rows in their natural order, expanded
    by minors memoized on column subsets."""
    n, m = p.degree_in(eliminate), q.degree_in(eliminate)
    pc = [p.coefficient_of(eliminate, n - k) for k in range(n + 1)]
    qc = [q.coefficient_of(eliminate, m - k) for k in range(m + 1)]
    order = n + m
    z = zero()
    rows = [[z] * i + pc + [z] * (order - n - 1 - i) for i in range(m)]
    rows += [[z] * i + qc + [z] * (order - m - 1 - i) for i in range(n)]
    memo = {0: one()}

    def det(mask):
        if mask not in memo:
            row = order - bin(mask).count("1")
            acc = z
            for j in range(order):
                if mask >> j & 1 and rows[row][j]:
                    acc = acc + rows[row][j] * det(mask ^ (1 << j))
            memo[mask] = acc
        return memo[mask]

    return det((1 << order) - 1)


# The README's pair is the first: P1 and P3.  P1 and P2 are monic in the
# eliminated variable, so the first two go through the multiplication
# matrix; Q1 and Q2 share the leading coefficient a + b, so one remainder
# step leaves Q1 and the linear Q1 + Q2, and an order-3 Sylvester matrix
# decides the third.
CERTIFY_ELIMINATIONS = [(cert.P1, cert.P3, "x"), (cert.G_EXPANDED, cert.P2, "z"), (cert.Q1, cert.Q2, "x")]


@pytest.fixture
def decided(monkeypatch):
    """(order, held) of every determinant that `resultant` finished while
    the test runs: held is 0 for the Sylvester matrix and the monomials
    formed to build a multiplication matrix otherwise."""
    import rotaperm.mpoly as mp
    calls = []
    original = mp._determinant

    def recorded(rows, held, width, too_large):
        result = original(rows, held, width, too_large)
        calls.append((len(rows), held))
        return result

    monkeypatch.setattr(mp, "_determinant", recorded)
    return calls


@pytest.mark.parametrize("p, q, eliminate", CERTIFY_ELIMINATIONS)
def test_sparse_rows_first_matches_natural_row_order(p, q, eliminate):
    assert resultant(p, q, eliminate) == _resultant_unsorted(p, q, eliminate)


@pytest.mark.parametrize("p, q, eliminate, order, monic", [
    (*CERTIFY_ELIMINATIONS[0], 3, True),
    (*CERTIFY_ELIMINATIONS[1], 3, True),
    (*CERTIFY_ELIMINATIONS[2], 3, False),
])
def test_certify_eliminations_take_the_monic_path_where_there_is_one(p, q, eliminate, order,
                                                                      monic, decided):
    resultant(p, q, eliminate)
    assert [n for n, _ in decided] == [order]
    assert (decided[0][1] > 0) == monic


def test_sparse_rows_first_on_random_pairs():
    rng = random.Random(61)
    checked = 0
    while checked < 60:
        p = random_poly(rng, nvars=4, max_terms=4, max_exp=3)
        q = random_poly(rng, nvars=4, max_terms=4, max_exp=3)
        if not (p.degree_in("x") or q.degree_in("x")):
            continue
        assert resultant(p, q, "x") == _resultant_unsorted(p, q, "x")
        checked += 1


def _of_degree(rng, v, degree, monic):
    """A random polynomial of degree `degree` in v whose leading coefficient
    is 1 when monic, and otherwise neither 0 nor 1."""
    i = VARS.index(v)
    lead = one()
    while not monic and lead in (zero(), one()):
        lead = MPoly(t[:i] + (0,) + t[i + 1:]
                     for t in random_poly(rng, nvars=4, max_terms=2, max_exp=2).terms)
    lower = MPoly(t for t in random_poly(rng, nvars=4, max_terms=4, max_exp=2).terms
                  if t[i] < degree)
    return lead * var(v) ** degree + lower


# (degree of p, p monic, degree of q, q monic)
MONIC_SHAPES = [
    (4, True, 2, False), (2, True, 4, False),  # p monic, of higher and of lower degree
    (2, False, 4, True), (4, False, 2, True),  # q monic, of higher and of lower degree
    (2, True, 3, True), (3, True, 2, True), (3, True, 3, True),  # both monic
    (3, True, 0, False), (0, False, 2, True),  # the other operand of degree 0 in v
    (0, True, 3, False),  # the monic operand is 1
]


@pytest.mark.parametrize("eliminate", ["x", "y", "z"])
@pytest.mark.parametrize("n, p_monic, m, q_monic", MONIC_SHAPES)
def test_multiplication_matrix_matches_sylvester_on_random_pairs(n, p_monic, m, q_monic,
                                                                 eliminate, decided):
    rng = random.Random(f"{n}{p_monic}{m}{q_monic}{eliminate}")
    d = min(k for k, monic in ((n, p_monic), (m, q_monic)) if monic)
    for _ in range(4):
        p = _of_degree(rng, eliminate, n, p_monic)
        q = _of_degree(rng, eliminate, m, q_monic)
        decided.clear()
        assert resultant(p, q, eliminate) == _resultant_unsorted(p, q, eliminate)
        assert len(decided) == 1 and decided[0][0] == d and decided[0][1] > 0


def test_resultant_product_count_is_pinned(monkeypatch):
    """Res_z(g, P2) through the 3 x 3 multiplication matrix of the monic P2
    takes 17 products (527 for its order-9 Sylvester matrix expanded in
    natural row order)."""
    calls = []
    product = MPoly.__mul__

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(MPoly, "__mul__", counted)
    resultant(cert.G_EXPANDED, cert.P2, "z")
    assert len(calls) == 17
    calls.clear()
    _resultant_unsorted(cert.G_EXPANDED, cert.P2, "z")
    assert len(calls) == 527


def _dense(v, degree):
    """Every power of x up to degree, each with a coefficient in two variables."""
    return parse(" + ".join(f"x^{i}*{v} + x^{i}*{'abcYZt'[i % 6]}" for i in range(degree + 1)))


@pytest.mark.parametrize("f, g", [
    (_dense("y", 10), _dense("z", 10)),
    (parse("x^30*a + y"), parse("x^30*b + z")),  # no monic operand
    (parse("x^30*a + 1"), parse("x^29*b + 1")),  # no monic operand; almost every minor is zero
])
def test_resultant_past_the_work_bound_is_refused(f, g):
    start = time.perf_counter()
    with pytest.raises(DomainTooLarge, match="monomials of minors"):
        resultant(f, g, "x")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("f, g, want", [
    (parse("x^30 + y"), parse("x^30 + z"), parse("y + z") ** 30),
    (parse("x^30 + 1"), parse("x^29 + 1"), zero()),  # both vanish at x = 1
])
def test_monic_resultant_past_the_old_bound(f, g, want):
    """Both pairs passed the work bound as order-60 and order-59 Sylvester
    expansions; through the multiplication matrix they are exact."""
    start = time.perf_counter()
    assert resultant(f, g, "x") == want
    assert time.perf_counter() - start < 5
    assert len(want.terms) in (0, 16)


def _same_lead(rng, v, n, e):
    """A pair of degree n in v with one random leading coefficient, neither
    0 nor 1, whose sum has degree e < n in v."""
    f = _of_degree(rng, v, n, monic=False)
    return f, f + _of_degree(rng, v, e, monic=rng.random() < 0.3)


@pytest.mark.parametrize("eliminate", ["x", "y"])
@pytest.mark.parametrize("n, e", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_remainder_step_matches_sylvester_on_random_pairs(n, e, eliminate, decided):
    """Operands of one degree n and one leading coefficient c != 1:
    c^(n-e) * Res(f, f + g) is the order-2n Sylvester determinant, and the
    matrix that decides it has order n + e (e when f + g is monic)."""
    rng = random.Random(f"same lead {n} {e} {eliminate}")
    for _ in range(8):
        f, g = _same_lead(rng, eliminate, n, e)
        h = f + g
        decided.clear()
        assert resultant(f, g, eliminate) == _resultant_unsorted(f, g, eliminate)
        monic = h.coefficient_of(eliminate, e) == one()
        assert [order for order, _ in decided] == [e if monic else n + e]


def test_remainder_step_when_the_sum_vanishes(decided):
    """f + g = 0: f = g, a common factor of positive degree, so 0 with no matrix."""
    f = parse("x^2*a + x*y + z")
    assert resultant(f, f, "x") == zero() == _resultant_unsorted(f, f, "x")
    assert decided == []


def test_remainder_step_to_a_constant_sum(decided):
    """deg(f + g) = 0: Res(f, g) = c^n * (f + g)^n.  x^30*a + y against
    x^30*a + z was refused as an order-60 Sylvester expansion."""
    f, g = parse("x^30*a + y"), parse("x^30*a + z")
    assert resultant(f, g, "x") == parse("a") ** 30 * parse("y + z") ** 30
    assert decided == [(30, 0)]
    f, g = parse("x^2*a + x*b + y"), parse("x^2*a + x*b + z")
    assert resultant(f, g, "x") == _resultant_unsorted(f, g, "x") == parse("a^2*y^2 + a^2*z^2")


def test_remainder_step_falls_back_where_the_sum_is_denser(decided):
    """g has two terms, so the pair's order-24 Sylvester matrix is sparse;
    f + g has four, and the order-22 matrix of (f, f + g) passes the bound.
    The pair decides, as it did without the step.  The value is the one
    the reference expansion gives (about 20 s, so not rerun here)."""
    import rotaperm.mpoly as mp
    f = parse("x^12*y^4 + x^10*y*c + x^5*z^3*b^2 + b*t")
    g = parse("x^12*y^4 + x^8*b^3")
    with pytest.raises(DomainTooLarge):
        mp._matrix_resultant(_coefficients(f, "x"), _coefficients(f + g, "x"), "refused")
    decided.clear()
    start = time.perf_counter()
    assert resultant(f, g, "x") == parse(
        "y^48*b^12*t^12 + y^28*z^12*b^31*t^8 + y^16*b^44*t^8 + y^12*b^38*c^4*t^8")
    assert time.perf_counter() - start < 5
    assert [order for order, _ in decided] == [24]


@pytest.mark.parametrize("f, g, error", [
    # The factor a^80 passes the exponent cap, and so does the result.
    (parse("x^2*a^40 + y"), parse("x^2*a^40 + z"), DegreeOverflow),
    # Dense operands: the reduced pair (order 59) and the pair (order 60) both pass the bound.
    (parse("x^30*a") + _dense("y", 29), parse("x^30*a") + _dense("z", 29), DomainTooLarge),
])
def test_remainder_step_past_a_bound_is_refused(f, g, error):
    start = time.perf_counter()
    with pytest.raises(error):
        resultant(f, g, "x")
    assert time.perf_counter() - start < 5


def _coefficients(p, v):
    """p's coefficients in v, highest power first."""
    n = p.degree_in(v)
    return [p.coefficient_of(v, n - k) for k in range(n + 1)]


def test_multiplication_matrix_build_is_bounded(monkeypatch):
    """The reduction of x^60 by a monic quadratic forms more monomials than
    the bound: it is refused before the product that would pass it, and
    the Sylvester matrix, whose x^60 rows hold one entry each, decides."""
    import rotaperm.mpoly as mp
    f = parse("x^2 + x*y + x*z + x*a + x*b + x*c + x*t + y + z")
    g = parse("x^60")
    formed = []
    product = MPoly.__mul__

    def counted(a, b):
        formed.append(len(a.terms) * len(b.terms))
        return product(a, b)

    monkeypatch.setattr(MPoly, "__mul__", counted)
    with pytest.raises(DomainTooLarge, match="monomials of minors"):
        mp._multiplication_rows(_coefficients(f, "x"), _coefficients(g, "x"), "monomials of minors")
    assert len(g.terms) + sum(formed) <= mp.RESULTANT_MAX_MONOMIALS
    monkeypatch.undo()
    start = time.perf_counter()
    assert resultant(f, g, "x") == parse("y + z") ** 60
    assert time.perf_counter() - start < 5


def test_determinant_bounds_each_product_before_forming_it():
    """det [[e, 1], [1, e]] = e^2 + 1 with e of 324 monomials: the product
    e * e forms 104 976 > 2^16 monomials before cancellation, so it is
    refused for inputs whose widest coefficient has one monomial, and
    formed for two."""
    import rotaperm.mpoly as mp
    e = MPoly((0, i, j) + (0,) * 6 for i in range(18) for j in range(18))
    rows = [[(1, e), (2, one())], [(1, one()), (2, e)]]
    with pytest.raises(DomainTooLarge, match="monomials of minors"):
        mp._determinant(rows, 0, 1, "monomials of minors")
    assert mp._determinant(rows, 0, 2, "monomials of minors") == e.sqr() + one()


def test_monic_pair_past_both_bounds_is_refused():
    f = parse("x^11") + _dense("y", 10)
    start = time.perf_counter()
    with pytest.raises(DomainTooLarge, match="monomials of minors"):
        resultant(f, _dense("z", 10), "x")
    assert time.perf_counter() - start < 5


def test_multiplication_matrix_past_the_exponent_cap():
    """x^3 mod (x^2 + y^40) is y^40 * x, and x times that is y^80: an
    overflow, never a wrapped exponent.  The resultant is y^120, so the
    Sylvester matrix overflows too."""
    import rotaperm.mpoly as mp
    f, g = parse("x^2 + y^40"), parse("x^3")
    with pytest.raises(DegreeOverflow, match="80"):
        mp._multiplication_rows(_coefficients(f, "x"), _coefficients(g, "x"), "")
    with pytest.raises(DegreeOverflow):
        resultant(f, g, "x")


def test_sylvester_decides_where_the_reduced_entries_overflow(decided):
    """Both are monic; reducing x^18 by the quintic passes exponent 63,
    while the order-23 Sylvester minors stay under it."""
    f, g = parse("x^18 + x^8*y*a"), parse("x^5 + x^4*y^2 + x*a^2 + a")
    assert resultant(f, g, "x") == _resultant_unsorted(f, g, "x")
    assert decided == [(23, 0)]


def test_resultant_at_the_exponent_cap_fits_the_bound():
    assert resultant(parse("x^63*y"), parse("x^63*z"), "x") == zero()
    assert resultant(parse("x^63 + y"), parse("x + z"), "x") == parse("z^63 + y")


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
