"""Cubic extension construction, interpolation, and QM-equivalence."""

import math
import random

import numpy as np
import pytest

from rotaperm import cli, lift
from rotaperm.errors import DomainTooLarge, FormulaInconsistent, ReducibleModulus
from rotaperm.family import eval_F, family_from_coeffs, named_family
from rotaperm.field import FieldCtx, _factorize
from rotaperm.lift import (
    LIFT_MAX_BASE_M,
    ExtCtx,
    LiftedPoly,
    is_pp,
    lift_permutation,
    lifted_from_json,
    qm_equivalent,
    qm_transform,
    shared_ext,
)
from rotaperm.permcheck import family_images, is_permutation

from oracles import support


@pytest.fixture(scope="module")
def e8():
    ext = ExtCtx(FieldCtx(3))
    ext._ensure_tables()
    return ext


def test_first_cubic_over_gf2():
    ext = ExtCtx(FieldCtx(1))
    assert ext.cubic == (0, 1, 1)  # u^3 + u + 1


def test_no_rootless_cubic_is_typed(monkeypatch):
    """The unreachable end of the cubic scan raises a typed error, not an assert."""
    monkeypatch.setattr(ExtCtx, "_has_root", staticmethod(lambda base, cubic: True))
    with pytest.raises(FormulaInconsistent):
        ExtCtx(FieldCtx(1))


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
    """The stored generator has full order."""
    group = e8.group
    gen = e8.generator
    assert e8.pow(gen, group) == 1
    for p in _factorize(group):
        assert e8.pow(gen, group // p) != 1


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
    assert sorted(other._exp.tolist()) == list(range(1, other.size))
    assert all(other.mul(int(other._exp[i]), other.generator) == int(other._exp[i + 1])
               for i in range(other.group - 1))


def test_lift_verb_scans_for_its_cubic_once_per_degree(monkeypatch, capsys):
    """The lift verb reads shared_ext: repeated lifts at one base degree
    scan for the default cubic once, and print the same bytes; a direct
    ExtCtx(base) still scans."""
    scans = []
    original = ExtCtx._first_rootless_cubic.__func__

    def counted(cls, base):
        scans.append(base.m)
        return original(cls, base)

    shared_ext.cache_clear()
    monkeypatch.setattr(ExtCtx, "_first_rootless_cubic", classmethod(counted))
    outs = []
    for family in ("T1", "T3", "T1"):
        assert cli.main(["lift", "--family", family, "--m", "3"]) == 0
        outs.append(capsys.readouterr().out)
    assert scans == [3]
    assert outs[0] == outs[2] != outs[1]
    assert shared_ext(3) is shared_ext(3) == ExtCtx(FieldCtx(3))
    assert scans == [3, 3]


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


def _full_cube_values(ext, fam):
    """Packed F'(t) for every packed t, reordered from the full q^3 image."""
    m, mask = ext.m, ext.base.mask
    imgs = family_images(ext.base, fam)  # indexed by x<<2m | y<<m | z
    t = np.arange(ext.size, dtype=np.int64)
    x, y, z = t & mask, (t >> m) & mask, t >> (2 * m)
    img = imgs[(x << (2 * m)) | (y << m) | z].astype(np.int64)
    img = (img >> (2 * m)) | (((img >> m) & mask) << m) | ((img & mask) << (2 * m))
    return img.astype(np.uint32)


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


@pytest.mark.parametrize("m", [1, 3])
def test_lift_matches_full_oracle_all_vectors(m):
    """Every coefficient vector, permutation or not, lifts as the full sums say.

    At m = 1 the nine DO exponents reduce mod 2^3 - 1 and some coincide.
    """
    ext = ExtCtx(FieldCtx(m))
    ext._ensure_tables()
    for v in range(256):
        fam = family_from_coeffs(f"{v:08b}")
        values = _full_cube_values(ext, fam)
        assert lift_permutation(ext, fam).terms == _full_lift_terms(ext, values), fam.bitstring()


@pytest.mark.parametrize("m", [1, 3, 5])
def test_do_exponents(m):
    """The nine 2^(im) + 2^(jm+1), reduced into 1..2^3m-2; all = 3 (mod q-1)."""
    ext = ExtCtx(FieldCtx(m))
    ks = lift._do_exponents(ext).tolist()
    assert ks == sorted(set(ks))
    assert all(0 < k < ext.group and k % (ext.base.q - 1) == 3 % (ext.base.q - 1) for k in ks)
    assert len(ks) == (6 if m == 1 else 9)


def test_flipped_coefficient_is_caught(e8, monkeypatch, capsys):
    """A kernel that corrupts one coefficient bit fails the check at the representatives."""
    original = lift._kernels.interp_coeffs

    def flip_one(*args):
        coeffs = original(*args)
        coeffs[0] ^= 1
        return coeffs

    monkeypatch.setattr(lift._kernels, "interp_coeffs", flip_one)
    with pytest.raises(FormulaInconsistent):
        lift_permutation(e8, named_family("T1"))
    assert cli.main(["lift", "--family", "T1", "--m", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "internal inconsistency" in err


@pytest.mark.parametrize("name", ["T1", "T2", "T3", "T4", "T5"])
def test_coset_lift_agrees_with_forward_map_m5(name):
    """The reduced interpolant is unique, so agreeing everywhere pins it."""
    ext = ExtCtx(FieldCtx(5))
    fam = named_family(name)
    values = lift_permutation(ext, fam).values()
    want = [ext.pack(eval_F(ext.base, fam, ext.unpack(t))) for t in range(ext.size)]
    assert values.tolist() == want


def test_family_lift_of_wrong_degree_is_inconsistent(e8, monkeypatch):
    """Values that are not a 3-homogeneous lift fail the check at the representatives."""
    original = lift.projective_images
    for at, bit in ((0, 0), (40, 1), (72, 2)):
        def flip_one(ctx, fam, at=at, bit=bit):
            images = original(ctx, fam).copy()
            images[bit, at] ^= 1
            return images

        monkeypatch.setattr(lift, "projective_images", flip_one)
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


def test_json_base_degree_refused_before_the_extension(monkeypatch):
    """A base degree above LIFT_MAX_BASE_M is refused on reading "m": the
    root scan of ExtCtx never runs."""
    def no_scan(base, cubic):
        raise AssertionError("the base field must not be scanned")
    monkeypatch.setattr(ExtCtx, "_has_root", staticmethod(no_scan))
    data = {"m": LIFT_MAX_BASE_M + 1, "cubic": ["0x1", "0x1", "0x0", "0x1"],
            "terms": [{"e": 1, "c": ["0x1", "0x0", "0x0"]}]}
    with pytest.raises(DomainTooLarge, match="capped at base m"):
        lifted_from_json(data)


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


def test_is_pp_refuses_another_field(e8):
    """The map is evaluated over p.ext; another ext would size the table
    by the wrong field and call a permutation of GF(8) a non-permutation
    of GF(2^9)."""
    poly = lift_permutation(ExtCtx(FieldCtx(1)), named_family("T3"))
    assert is_pp(poly.ext, poly)
    with pytest.raises(ValueError, match="is_pp over"):
        is_pp(e8, poly)


def _is_pp_full(p):
    """Oracle: p permutes exactly when its values at all 2^3m points are distinct."""
    return np.unique(p.values()).size == p.ext.size


def _lifts(m, vectors=range(256)):
    ext = ExtCtx(FieldCtx(m))
    for v in vectors:
        yield v, lift_permutation(ext, family_from_coeffs(f"{v:08b}"))


@pytest.mark.parametrize("m", [1, 3, 5])
def test_is_pp_projective_path_matches_full_evaluation_on_all_lifts(m):
    """Every lift takes the projective path, and its verdict is the full
    evaluation's and the bijectivity decision's of the family."""
    ctx = FieldCtx(m)
    verdicts = []
    for v, poly in _lifts(m):
        assert lift._is_projective(poly.ext, poly)
        verdict = is_pp(poly.ext, poly)
        decided = is_permutation(ctx, family_from_coeffs(f"{v:08b}")).is_permutation
        assert verdict == _is_pp_full(poly) == decided, v
        verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def _no_representatives(*_):
    raise AssertionError("projective path taken")


def test_is_pp_off_the_projective_path_evaluates_everywhere(e8, monkeypatch):
    """Polynomials that are not 3-homogeneous over an odd base keep the full
    evaluation: monomials whose exponent is not 3 mod q-1, a constant term,
    X^(2^3m-1), and an extension of GF(4), where l -> l^3 is not bijective."""
    t1 = lift_permutation(e8, named_family("T1")).coeff_map()
    e2 = ExtCtx(FieldCtx(1))  # q-1 = 1: only the range 0 < e < 7 keeps these off
    e2_t1 = lift_permutation(e2, named_family("T1")).coeff_map()
    e4 = ExtCtx(FieldCtx(2))
    cases = [
        (LiftedPoly.make(e8, {1: 1}), True),
        (LiftedPoly.make(e8, {2: 1}), True),
        (LiftedPoly.make(e8, {7: 1}), False),
        (LiftedPoly.make(e8, {**t1, 0: 5}), True),
        (LiftedPoly.make(e8, {**t1, e8.group: 1}), False),
        (LiftedPoly.make(e2, {**e2_t1, 0: 1}), True),
        (LiftedPoly.make(e2, {**e2_t1, e2.group: 1}), False),
        (lift_permutation(e4, named_family("T1")), False),
        (LiftedPoly.make(e4, {1: 1}), True),
        (LiftedPoly.make(e4, {3: 1}), False),
    ]
    monkeypatch.setattr(lift, "_representative_logs", _no_representatives)
    for poly, want in cases:
        assert not lift._is_projective(poly.ext, poly), poly.terms
        assert is_pp(poly.ext, poly) is _is_pp_full(poly) is want, poly.terms


def test_is_pp_zero_at_one_representative(e8):
    """T1's lift with its value at one representative r0 set to 0: the other
    cosets stay distinct, but r0's whole coset and 0 share the image 0.
    r0 is the representative whose coset key was the last one, q^2+q."""
    rep_log = lift._representative_logs(e8)
    reps = e8._exp[rep_log].tolist()
    values = lift_permutation(e8, named_family("T1"))._values_at_logs(rep_log).tolist()
    n = len(reps)
    r0 = [int(e8._log[v]) % n for v in values].index(n - 1)
    values[r0] = 0
    # sum_t f(t) t^-k over the cosets: sum_r f(r) r^-k for k = 3 (mod q-1), else 0.
    coeffs = {}
    for k in range(3, e8.group, e8.base.q - 1):
        acc = 0
        for r, v in zip(reps, values):
            acc ^= e8.mul(v, e8.pow(r, e8.group - k))
        coeffs[k] = acc
    poly = LiftedPoly.make(e8, coeffs)
    assert poly._values_at_logs(rep_log).tolist() == values
    assert lift._is_projective(e8, poly)
    assert is_pp(e8, poly) is _is_pp_full(poly) is False


@pytest.mark.parametrize("m", [3, 5])
def test_is_pp_perturbed_coefficient_same_verdict_on_both_paths(m):
    """One coefficient of a lift changed keeps the polynomial on the projective
    path; its verdict equals the full evaluation's."""
    rng = random.Random(19 + m)
    picks = range(256) if m == 3 else sorted(rng.sample(range(256), 24))
    verdicts = []
    for v, poly in _lifts(m, picks):
        if not poly.terms:
            continue
        coeffs = poly.coeff_map()
        e = rng.choice(sorted(coeffs))
        coeffs[e] ^= rng.randrange(1, poly.ext.size)
        mutant = LiftedPoly.make(poly.ext, coeffs)
        assert lift._is_projective(mutant.ext, mutant)
        verdict = is_pp(mutant.ext, mutant)
        assert verdict == _is_pp_full(mutant), (v, e)
        verdicts.append(verdict)
    assert not all(verdicts)


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


def _qm_equivalent_all_d(ext, p, q):
    """Reference: qm_equivalent with d running over every value coprime to 2^3m - 1."""
    if len(p.terms) != len(q.terms):
        return None
    if not p.terms:
        return (1, 1, 1)
    group = ext.group
    p_map = p.coeff_map()
    q_items = list(q.terms)
    e0, qc0 = q_items[0]
    for d in range(1, group + 1):
        if math.gcd(d, group) != 1:
            continue
        mapped = [lift._reduce_exponent(e, d, group) for e, _ in q_items]
        if set(mapped) != set(p_map):
            continue
        anchor_ratio = ext.mul(p_map[mapped[0]], ext.inv(qc0))
        constraints = []
        for (e, qc), me in zip(q_items[1:], mapped[1:]):
            rho = ext.mul(ext.mul(p_map[me], ext.inv(qc)), ext.inv(anchor_ratio))
            constraints.append(((e - e0) % group, rho))
        for c in lift._solve_power_constraints(ext, constraints):
            a = ext.mul(anchor_ratio, ext.inv(ext.pow(c, e0)))
            if a and qm_transform(ext, q, a, c, d).terms == p.terms:
                return (a, c, d)
    return None


def _random_unit(rng, group):
    while True:
        d = rng.randrange(1, group)
        if math.gcd(d, group) == 1:
            return d


def _assert_qm_matches_oracle(ext, p, q):
    assert qm_equivalent(ext, p, q) == _qm_equivalent_all_d(ext, p, q)
    # Every d under which the supports match is tried, witness or not.
    group = ext.group
    matched = [d for d in range(1, group) if math.gcd(d, group) == 1
               and {lift._reduce_exponent(e, d, group) for e, _ in q.terms} == set(p.coeff_map())]
    candidates = set(lift._candidate_exponents(group, set(p.coeff_map()), [e for e, _ in q.terms]))
    assert candidates.issuperset(matched)


@pytest.mark.parametrize("m", [3, 5])
def test_qm_matches_all_d_oracle_on_named_lifts(m):
    """Every ordered pair of the T1..T5 lifts, and seeded a*P(c*X^d) targets."""
    ext = ExtCtx(FieldCtx(m))
    ext._ensure_tables()
    polys = [lift_permutation(ext, named_family(f"T{i}")) for i in range(1, 6)]
    for p in polys:
        for q in polys:
            _assert_qm_matches_oracle(ext, p, q)
    rng = random.Random(300 + m)
    for _ in range(20 if m == 3 else 5):
        base = rng.choice(polys)
        a, c = rng.randrange(1, ext.size), rng.randrange(1, ext.size)
        target = qm_transform(ext, base, a, c, _random_unit(rng, ext.group))
        _assert_qm_matches_oracle(ext, target, base)
        _assert_qm_matches_oracle(ext, base, target)


def test_qm_matches_oracle_when_anchor_shares_a_factor(e8):
    """gcd(7, 511) = 7, so each exponent of p gives seven candidate d."""
    q = LiftedPoly.make(e8, {7: 1, 73: 1})
    rng = random.Random(41)
    targets = [q] + [qm_transform(e8, q, rng.randrange(1, 512), rng.randrange(1, 512),
                                  _random_unit(rng, e8.group)) for _ in range(8)]
    for p in targets:
        _assert_qm_matches_oracle(e8, p, q)
        _assert_qm_matches_oracle(e8, q, p)
        assert qm_equivalent(e8, p, q) is not None


def test_qm_without_anchor_runs_every_d(e8):
    """Exponents 0 and 2^3m - 1 are fixed by every d, so nothing restricts d."""
    q = LiftedPoly.make(e8, {0: 1, e8.group: 5})
    assert lift._candidate_exponents(e8.group, {0, e8.group}, [0, e8.group]) == [
        d for d in range(1, e8.group + 1) if math.gcd(d, e8.group) == 1]
    for p in (q, LiftedPoly.make(e8, {0: 3, e8.group: 5}), LiftedPoly.make(e8, {0: 1, e8.group: 9})):
        _assert_qm_matches_oracle(e8, p, q)
    assert qm_equivalent(e8, q, q) == (1, 1, 1)


def test_qm_zero_polynomials(e8):
    z = LiftedPoly.make(e8, {})
    assert qm_equivalent(e8, z, z) == (1, 1, 1)
    assert qm_equivalent(e8, z, LiftedPoly.make(e8, {1: 1})) is None
