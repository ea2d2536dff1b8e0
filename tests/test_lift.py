"""Cubic extension construction, interpolation, and QM-equivalence."""

import random

import numpy as np
import pytest

from rotaperm import lift
from rotaperm.errors import DomainTooLarge, FormulaInconsistent, ReducibleModulus
from rotaperm.family import eval_F, family_from_coeffs, named_family
from rotaperm.field import FieldCtx, _factorize
from rotaperm.lift import (
    ExtCtx,
    LiftedPoly,
    is_pp,
    lift_permutation,
    lifted_from_json,
    qm_equivalent,
    qm_transform,
    support,
)


@pytest.fixture(scope="module")
def e8():
    ext = ExtCtx(FieldCtx(3))
    ext._ensure_tables()
    return ext


def test_first_cubic_over_gf2():
    ext = ExtCtx(FieldCtx(1))
    assert ext.cubic == (0, 1, 1)  # u^3 + u + 1


def test_selected_cubic_has_no_base_root(e8):
    base = e8.base
    alpha, beta, gamma = e8.cubic
    for u in base.elements():
        value = base.mul(base.mul(u ^ alpha, u) ^ beta, u) ^ gamma
        assert value != 0


def test_supplied_cubic_with_root_rejected(f8):
    with pytest.raises(ReducibleModulus):
        ExtCtx(f8, (0, 0, 1))  # u^3 + 1 has the root 1


def test_generator_order_oracle(e8):
    """The stored generator has full order; primitivity metadata agrees
    with the direct order computation for omega."""
    group = e8.group
    gen = e8.generator
    assert e8.pow(gen, group) == 1
    for p in _factorize(group):
        assert e8.pow(gen, group // p) != 1
    assert e8.omega_primitive == (e8.element_order(e8.omega) == group)
    if e8.omega_primitive:
        assert e8.pow(e8.omega, group) == 1
        for p in _factorize(group):
            assert e8.pow(e8.omega, group // p) != 1


@pytest.mark.parametrize("m", [1, 3, 5])
def test_ext_tables_match_scalar_loop(m):
    """The doubling build of exp/log against repeated scalar multiplication."""
    ext = ExtCtx(FieldCtx(m))
    ext._ensure_tables()
    exp = np.zeros(ext.group, dtype=np.uint32)
    v = 1
    for i in range(ext.group):
        exp[i] = v
        v = ext.mul(v, ext.generator)
    assert v == 1
    assert np.array_equal(ext._exp, exp)
    assert ext._log[0] == -1
    assert np.array_equal(ext._log[exp], np.arange(ext.group))


def test_ext_tables_shared_per_process():
    """Equal extensions share one read-only exp/log pair; another cubic gets its own."""
    first, second = ExtCtx(FieldCtx(3)), ExtCtx(FieldCtx(3))
    first._ensure_tables()
    second._ensure_tables()
    assert first._exp is second._exp and first._log is second._log
    assert first.generator == second.generator
    for table in (first._exp, first._log):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = 0
    base = first.base
    cubic = next(
        (alpha, beta, gamma)
        for alpha in base.elements() for beta in base.elements() for gamma in range(1, base.q)
        if (alpha, beta, gamma) != first.cubic and not ExtCtx._has_root(base, (alpha, beta, gamma))
    )
    other = ExtCtx(base, cubic)
    other._ensure_tables()
    assert other._exp is not first._exp and other._log is not first._log
    assert other.omega_primitive == (other.element_order(other.omega) == other.group)
    assert sorted(other._exp.tolist()) == list(range(1, other.size))
    assert all(other.mul(int(other._exp[i]), other.generator) == int(other._exp[i + 1])
               for i in range(other.group - 1))


def test_vmul_matches_scalar_mul(e8):
    u = np.arange(e8.size, dtype=np.uint32)
    for v in (0, 1, e8.omega, 0x155, 511):
        assert e8.vmul(u, v).tolist() == [e8.mul(int(t), v) for t in u]


def test_ext_mul_against_omega_relation(e8):
    # w^3 must equal alpha*w^2 + beta*w + gamma by construction.
    alpha, beta, gamma = e8.cubic
    w = e8.omega
    w2 = e8.mul(w, w)
    w3 = e8.mul(w2, w)
    expected = e8.pack((gamma, 0, 0)) ^ e8.mul(e8.pack((beta, 0, 0)), w) \
        ^ e8.mul(e8.pack((alpha, 0, 0)), w2)
    assert w3 == expected


def test_ext_field_laws_sampled(e8):
    rng = random.Random(6)
    for _ in range(300):
        u, v, w = (rng.randrange(512) for _ in range(3))
        assert e8.mul(u, v) == e8.mul(v, u)
        assert e8.mul(u, e8.mul(v, w)) == e8.mul(e8.mul(u, v), w)
        assert e8.mul(u, v ^ w) == e8.mul(u, v) ^ e8.mul(u, w)
    for u in range(1, 512):
        assert e8.mul(u, e8.inv(u)) == 1


# -- interpolation ---------------------------------------------------------------

def test_identity_lifts_to_x(e8):
    poly = lift_permutation(e8, lambda p: p)
    assert poly.terms == ((1, 1),)


def test_zero_map_lifts_to_zero(e8):
    poly = lift_permutation(e8, lambda p: (0, 0, 0))
    assert poly.terms == ()


def test_frobenius_lifts_to_x_squared(e8):
    poly = lift_permutation(e8, lambda p: e8.unpack(e8.mul(e8.pack(p), e8.pack(p))))
    assert poly.terms == ((2, 1),)


def test_inverse_lifts_to_top_coset_exponent(e8):
    """t -> 1/t has degree q-2, the class holding the exponent 2^3m - 2."""
    poly = lift_permutation(e8, lambda p: e8.unpack(e8.inv(e8.pack(p)) if any(p) else 0))
    assert poly.terms == ((e8.group - 1, 1),)


def test_t3_lift_structure(e8):
    poly = lift_permutation(e8, named_family("T3"))
    exponents, count = support(poly)
    assert count > 3
    assert all(e % 7 == 3 for e in exponents)
    assert is_pp(e8, poly)


def test_homogeneity_shadow(e8):
    """Base-scalar homogeneity survives the lift: F'(l*t) = l^3 * F'(t)."""
    values = lift_permutation(e8, named_family("T3")).values()
    for lam in range(1, 8):
        packed_lam = e8.pack((lam, 0, 0))
        cube = e8.pow(packed_lam, 3)
        for t in range(512):
            assert int(values[e8.mul(packed_lam, t)]) == e8.mul(cube, int(values[t]))


def test_lift_agrees_with_forward_map_everywhere(e8):
    fam = named_family("T1")
    poly = lift_permutation(e8, fam)
    values = poly.values()
    for t in range(512):
        x, y, z = e8.unpack(t)
        assert int(values[t]) == e8.pack(eval_F(e8.base, fam, (x, y, z)))
        assert poly.evaluate(t) == int(values[t])


def _interp_coeffs_py(logv, exp_table, group):
    """Reference: c[k] = sum over all nonzero t of F'(t) t^-k, 1 <= k < group.

    logv[j] is the log of the value at the point with log j (-1 for 0).
    """
    coeffs = np.zeros(group + 1, dtype=np.uint32)
    for k in range(1, group):
        e = group - k
        acc = 0
        for j in range(group):
            lv = logv[j]
            if lv >= 0:
                acc ^= exp_table[(lv + j * e) % group]
        coeffs[k] = acc
    return coeffs


def _interp_coeffs_matrix(logv, exp_table, group):
    """The same sums as _interp_coeffs_py in one (group-1) x group gather."""
    coeffs = np.zeros(group + 1, dtype=np.uint32)
    j = np.flatnonzero(logv >= 0)
    k = np.arange(1, group, dtype=np.int64)[:, None]
    coeffs[1:group] = np.bitwise_xor.reduce(exp_table[(logv[j] + j * (group - k)) % group], axis=1)
    return coeffs


def _full_lift_terms(ext, values):
    """Terms of the unique interpolant through every point, by the full sums."""
    logv = ext._log[values[ext._exp]]
    coeffs = _interp_coeffs_matrix(logv, ext._exp, ext.group)
    coeffs[0] = values[0]
    coeffs[ext.group] = np.bitwise_xor.reduce(values)
    return tuple((int(e), int(c)) for e, c in enumerate(coeffs) if c)


@pytest.mark.parametrize("m", [1, 3])
def test_interp_matrix_oracle_matches_reference_loop(m):
    ext = ExtCtx(FieldCtx(m))
    ext._ensure_tables()
    rng = np.random.default_rng(21 + m)
    for _ in range(2):
        logv = rng.integers(-1, ext.group, size=ext.group, dtype=np.int64)
        assert np.array_equal(_interp_coeffs_matrix(logv, ext._exp, ext.group),
                              _interp_coeffs_py(logv, ext._exp, ext.group))


def test_coset_lift_matches_full_oracle_all_vectors_m3(e8):
    """Every coefficient vector, permutation or not, lifts as the full sums say."""
    for v in range(256):
        fam = family_from_coeffs(f"{v:08b}")
        values = lift._map_values(e8, fam)
        assert lift_permutation(e8, fam).terms == _full_lift_terms(e8, values), fam.bitstring()


@pytest.mark.parametrize("name", ["T1", "T2", "T3", "T4", "T5"])
def test_coset_lift_agrees_with_forward_map_m5(name):
    """The reduced interpolant is unique, so agreeing everywhere pins it."""
    ext = ExtCtx(FieldCtx(5))
    fam = named_family(name)
    values = lift_permutation(ext, fam).values()
    want = [ext.pack(eval_F(ext.base, fam, ext.unpack(t))) for t in range(ext.size)]
    assert values.tolist() == want


def test_non_homogeneous_callable_rejected(e8):
    def translate(p):  # t -> t + 1 vanishes at 1 but not at base multiples of 1
        return (p[0] ^ 1, p[1], p[2])

    def mixed(p):  # degree 1 off the plane x = 0, degree 2 on it
        t = e8.pack(p)
        return e8.unpack(e8.mul(t, t) if p[0] == 0 else t)

    step = e8.group // 7
    lone_value = e8.unpack(int(e8._exp[e8.group - 1 - 3 * step]))

    def lone(p):  # nonzero only at 1, where the logs of 1 -> g agree with degree 3
        return lone_value if p == (1, 0, 0) else (0, 0, 0)

    for fn in (translate, mixed, lone):
        with pytest.raises(ValueError):
            lift_permutation(e8, fn)


def test_family_lift_of_wrong_degree_is_inconsistent(e8, monkeypatch):
    """A FamilySpec whose values are not 3-homogeneous fails loudly."""
    square = np.array([e8.mul(t, t) for t in range(e8.size)], dtype=np.uint32)
    for fake in (np.arange(e8.size, dtype=np.uint32), square, square ^ 1):
        monkeypatch.setattr(lift, "_map_values", lambda ext, fam, fake=fake: fake)
        with pytest.raises(FormulaInconsistent):
            lift_permutation(e8, named_family("T3"))


def test_lift_domain_cap():
    with pytest.raises(DomainTooLarge):
        lift_permutation(ExtCtx(FieldCtx(7)), named_family("T3"))


def test_support_examples(e8):
    assert support(LiftedPoly.make(e8, {1: 1})) == ((1,), 1)
    assert support(LiftedPoly.make(e8, {})) == ((), 0)


def test_lifted_poly_exponent_range(e8):
    with pytest.raises(ValueError):
        LiftedPoly.make(e8, {512: 1})


def test_json_round_trip(e8):
    poly = lift_permutation(e8, named_family("T3"))
    data = poly.to_json()
    assert data["m"] == 3
    assert data["cubic"] == ["0x2", "0x1", "0x0", "0x1"]
    back = lifted_from_json(data)
    assert back.ext == e8
    assert back.terms == poly.terms


def test_json_duplicate_exponent_rejected(e8):
    data = LiftedPoly.make(e8, {3: 1, 10: 2}).to_json()
    data["terms"].append({"e": 3, "c": ["0x2", "0x0", "0x0"]})
    with pytest.raises(ValueError, match="exponent 3"):
        lifted_from_json(data)


# -- is_pp ------------------------------------------------------------------------

def test_is_pp_basics(e8):
    assert is_pp(e8, LiftedPoly.make(e8, {1: 1}))
    assert is_pp(e8, LiftedPoly.make(e8, {2: 1}))  # Frobenius
    assert not is_pp(e8, LiftedPoly.make(e8, {7: 1}))  # gcd(7, 511) = 7
    assert is_pp(e8, lift_permutation(e8, named_family("T1")))


# -- QM equivalence ----------------------------------------------------------------

def test_qm_reflexive(e8):
    poly = lift_permutation(e8, named_family("T3"))
    assert qm_equivalent(e8, poly, poly) == (1, 1, 1)


def test_qm_recovers_constructed_witness(e8):
    q = lift_permutation(e8, named_family("T3"))
    w = e8.omega
    p = qm_transform(e8, q, w, e8.pow(w, 2), 5)
    witness = qm_equivalent(e8, p, q)
    assert witness is not None
    a, c, d = witness
    assert qm_transform(e8, q, a, c, d).terms == p.terms


def test_qm_symmetric_on_random_instances(e8):
    rng = random.Random(99)
    base_poly = lift_permutation(e8, named_family("T4"))
    group = e8.group
    for _ in range(5):
        a = rng.randrange(1, 512)
        c = rng.randrange(1, 512)
        d = 1
        while True:
            d = rng.randrange(1, group)
            import math
            if math.gcd(d, group) == 1:
                break
        p = qm_transform(e8, base_poly, a, c, d)
        w1 = qm_equivalent(e8, p, base_poly)
        assert w1 is not None and qm_transform(e8, base_poly, *w1).terms == p.terms
        w2 = qm_equivalent(e8, base_poly, p)
        assert w2 is not None and qm_transform(e8, p, *w2).terms == base_poly.terms


def test_qm_transform_composition_reduces_exponents(e8):
    # X^511 composed with d=2 must land back inside 1..511.
    p = LiftedPoly.make(e8, {511: 1})
    q = qm_transform(e8, p, 1, 1, 2)
    assert q.terms == ((511, 1),)


def test_qm_term_count_filter(e8):
    lifted = lift_permutation(e8, named_family("T3"))
    trinomial = LiftedPoly.make(e8, {1: 1, 57: 1, 71: 1})
    assert qm_equivalent(e8, lifted, trinomial) is None


def test_qm_zero_polynomials(e8):
    z = LiftedPoly.make(e8, {})
    assert qm_equivalent(e8, z, z) == (1, 1, 1)
    assert qm_equivalent(e8, z, LiftedPoly.make(e8, {1: 1})) is None
