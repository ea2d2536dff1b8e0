"""Bijectivity decisions, the difference criterion, and the D(Y,Z) zero count."""

import json
import random

import numpy as np
import pytest

from rotaperm._kernels import scan_bijection
from rotaperm.errors import DomainTooLarge, FormulaInconsistent, NotAPermutation
from rotaperm.family import NAMED_COEFFS, all_families, eval_F, family_from_coeffs, named_family
from rotaperm.field import DEFAULT_MODULI, FieldCtx, shared_field
from rotaperm.invert import _inverse_table
from rotaperm.mpoly import substitute, parse
import rotaperm.permcheck as pc
from rotaperm.permcheck import (
    _MONOMIAL_EXPONENTS,
    _ROTATED,
    _VECTOR_BITS,
    _Y_Z_PARTNER,
    _decide_rows,
    _images,
    _monomial,
    family_images,
    full_scan,
    GroupTables,
    group_tables,
    is_permutation,
    permutation_mask,
    projective_images,
    projective_keys,
    projective_representatives,
    representative,
    representative_index,
    representatives,
)

import oracles
from oracles import (D_POLY, count_zeros_D, difference_check, evaluate, frobenius_map, permutes_gf2,
                     rotation_map)


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


@pytest.mark.parametrize("m", [3, 5, 7])
def test_family_images_of_a_prefix_are_the_cube_images_truncated(m):
    """The first k x-slabs are the first k*q^2 entries of the whole cube,
    for one slab, two, and all but the last."""
    ctx = FieldCtx(m)
    for bits in ("00000001", "11111111", "10011010"):
        fam = family_from_coeffs(bits)
        cube = family_images(ctx, fam)
        for k in (1, 2, ctx.q - 1):
            assert np.array_equal(family_images(ctx, fam, k), cube[:k * ctx.q * ctx.q]), (bits, k)


def _whole_cube_scan(ctx, fam):
    """full_scan's report from one scan of all q^3 images."""
    ok, at, first = scan_bijection(family_images(ctx, fam))
    if ok:
        return pc.PermReport(fam.bitstring(), ctx.m, True, 1 << (3 * ctx.m))
    witness = (pc._unpack(ctx, first), pc._unpack(ctx, at))
    return pc.PermReport(fam.bitstring(), ctx.m, False, at + 1, witness)


@pytest.mark.parametrize("m, vectors", [
    (3, [f"{v:08b}" for v in range(256)]),
    (5, [f"{v:08b}" for v in range(256)]),
    (7, ["".join(map(str, c)) for c in NAMED_COEFFS.values()] + ["00000001", "11111111"]),
], ids=["m3-all", "m5-all", "m7-named"])
def test_full_scan_of_slab_prefixes_matches_the_whole_cube(m, vectors):
    ctx = FieldCtx(m)
    for bits in vectors:
        fam = family_from_coeffs(bits)
        assert full_scan(ctx, fam) == _whole_cube_scan(ctx, fam), bits


@pytest.mark.parametrize("m", [3, 5, 7])
def test_every_negative_witness_images_at_most_four_slabs(m, monkeypatch):
    """Each negative's first repeat lies in x-slab 0, 1 or 2, so the
    witness scan stops at the prefix of 4 slabs, never at the cube."""
    ctx = FieldCtx(m)
    original = pc.family_images
    asked = []

    def recorded(ctx, fam, slabs=None):
        asked.append(slabs)
        return original(ctx, fam, slabs)

    monkeypatch.setattr(pc, "family_images", recorded)
    negatives = 0
    for fam in all_families():
        if not is_permutation(ctx, fam).is_permutation:
            negatives += 1
    assert negatives == {3: 220, 5: 227, 7: 227}[m]
    assert asked and None not in asked and max(asked) <= 4


def test_report_serialization(f8):
    report = is_permutation(f8, named_family("T3"))
    assert json.loads(json.dumps(report.to_json())) == {
        "family": "00000011",
        "m": 3,
        "permutation": True,
        "points": 512,
    }


def test_is_permutation_domain_cap():
    """m = 13 is the first degree whose mask the budget refuses, before
    any table is cached on the context."""
    ctx = FieldCtx(13)
    with pytest.raises(DomainTooLarge):
        is_permutation(ctx, named_family("T3"))
    assert ctx._np_cache == {}


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

def _verdict(ctx, fam):
    """The projective decision on fam's row alone, with no subfield step."""
    return bool(_decide_rows(ctx, np.array([fam.row]))[0])


def _rotation_classes(ctx):
    """O, the rotation orbit minima in increasing order, and canon[i], the
    position in O of the orbit of r_i, from the oracle S."""
    s = rotation_map(ctx)
    least = np.minimum(np.minimum(np.arange(s.size), s), s[s])
    o = np.unique(least)
    return o, np.searchsorted(o, least)


def test_projective_representatives_cover_each_line_once(f8):
    q = f8.q
    reps = list(zip(*(a.tolist() for a in projective_representatives(f8))))
    assert len(reps) == q * q + q + 1
    lines = {frozenset((f8.mul(c, x), f8.mul(c, y), f8.mul(c, z)) for c in range(1, q))
             for x, y, z in reps}
    assert len(lines) == len(reps)
    covered = {p for line in lines for p in line}
    assert len(covered) == q ** 3 - 1


def _gathered_representatives(ctx):
    """The oracle: every representative's coordinates, laid out chart by chart."""
    q = ctx.q
    yz = np.arange(q * q)
    x = np.repeat([1, 0], [q * q, q + 1])
    y = np.concatenate([yz >> ctx.m, np.ones(q, dtype=yz.dtype), [0]])
    z = np.concatenate([yz & ctx.mask, np.arange(q), [1]])
    return x, y, z


@pytest.mark.parametrize("m", [3, 5, 7])
def test_representatives_from_indices_match_gathered_arrays(m):
    """Coordinates built from an index array equal those gathered from the
    full arrays, for every representative, the rotation minima and the
    G-minima, in the index array's dtype."""
    ctx = FieldCtx(m)
    full = _gathered_representatives(ctx)
    o = _rotation_classes(ctx)[0]
    for idx in (np.arange(full[0].size), o, o.astype(np.uint32), group_tables(ctx).minima):
        got = representatives(ctx, idx)
        for axis, want in zip(got, full):
            assert axis.dtype == idx.dtype
            assert axis.tolist() == want[idx].tolist()
    assert all(a.tolist() == b.tolist() for a, b in zip(projective_representatives(ctx), full))


def test_representative_indexing(f8):
    reps = list(zip(*(a.tolist() for a in projective_representatives(f8))))
    assert [representative(f8, i) for i in range(len(reps))] == reps
    for i, r in enumerate(reps):
        for s in range(1, f8.q):
            assert representative_index(f8, tuple(f8.mul(s, v) for v in r)) == (s, i)
    with pytest.raises(ValueError):
        representative_index(f8, (0, 0, 0))


def _full_columns(ctx):
    """Each monomial of _MONOMIAL_EXPONENTS at all q^2+q+1 representatives,
    under the arguments (x,y,z), (y,z,x) and (z,x,y)."""
    q = ctx.q
    products = ctx.mul_table.reshape(-1).astype(np.intp)
    powers = (None, np.arange(q), ctx.sqr_table, ctx.cube_table)
    x, y, z = projective_representatives(ctx)

    def mono(exponents, *args):
        value = np.ones(x.size, dtype=np.intp)
        for e, v in zip(exponents, args):
            if e:
                value = products[value * q + powers[e][v]]
        return value

    return [np.stack([mono(ex, x, y, z), mono(ex, y, z, x), mono(ex, z, x, y)]).astype(np.uint16)
            for ex in _MONOMIAL_EXPONENTS]


def _full_keys(ctx, columns, fam):
    """The slow oracle: lead and key of F at every representative, with no
    rotation orbits."""
    q = ctx.q
    u = columns[0].copy()
    for bit, col in zip(fam.coeffs, columns[1:]):
        if bit:
            u ^= col
    u1, u2, u3 = u.astype(np.intp)
    lead = np.where(u1 != 0, u1, np.where(u2 != 0, u2, u3))
    if not lead.all():
        return lead, None
    products = ctx.mul_table.reshape(-1).astype(np.intp)
    inv = ctx.inv_table[lead].astype(np.intp) * q
    sy, sz = products[inv + u2], products[inv + u3]
    keys = np.where(u1 != 0, (sy << ctx.m) | sz, np.where(u2 != 0, q * q + sz, q * q + q))
    return lead, keys


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_orbit_decision_matches_full_key_oracle(m):
    """Every vector: the orbit decision against the keys at all q^2+q+1
    representatives, which permute exactly when no image is zero and no
    key repeats."""
    ctx = FieldCtx(m)
    columns = _full_columns(ctx)
    for fam in all_families():
        _, keys = _full_keys(ctx, columns, fam)
        want = keys is not None and not (np.diff(np.sort(keys)) == 0).any()
        assert _verdict(ctx, fam) == want, fam.bitstring()


def _rotation_decision(ctx, fam, o, canon):
    """The oracle: the decision on rotation orbits alone, keying F at every
    orbit minimum r_O[p] and scanning the rotation classes of the keys."""
    _, keys = projective_keys(ctx, projective_images(ctx, fam)[:, o])
    return keys is not None and scan_bijection(canon[keys])[0]


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_frobenius_decision_matches_rotation_oracle(m):
    """Every vector: the decision on <sigma, phi>-orbits against the one on
    rotation orbits, which keys about m times as many points."""
    ctx = FieldCtx(m)
    o, canon = _rotation_classes(ctx)
    for fam in all_families():
        assert _verdict(ctx, fam) == _rotation_decision(ctx, fam, o, canon), fam.bitstring()


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_frobenius_orbits_match_burnside(m):
    """The G-orbits of the representatives, G = <sigma, phi> of order 3m:
    their number is Burnside's count (1/3m) sum_g |fix g| over the oracle
    S and phi, the classes are constant on G-orbits and each minimum is
    the least index of its orbit."""
    ctx = FieldCtx(m)
    s, phi = rotation_map(ctx), frobenius_map(ctx)
    t = group_tables(ctx)
    n = s.size
    idx = np.arange(n)
    fixed, least, g_phi = 0, idx.copy(), idx
    for _ in range(m):
        g = g_phi
        for _ in range(3):
            fixed += int(np.count_nonzero(g == idx))
            least = np.minimum(least, g)
            g = s[g]
        g_phi = phi[g_phi]
    assert np.array_equal(g_phi, idx)
    assert fixed % (3 * m) == 0 and t.minima.size == fixed // (3 * m)
    assert t.minima.tolist() == np.unique(least).tolist()
    assert np.array_equal(t.classes, t.classes[s]) and np.array_equal(t.classes, t.classes[phi])
    assert np.array_equal(t.minima[t.classes], least)
    assert t.minima.size == {3: 13, 5: 73, 7: 789, 9: 9749}[m]


def _minima_keys(ctx, fam):
    """lead and keys of F at the G-minima, as the block decision keys them."""
    return projective_keys(ctx, projective_images(ctx, fam)[:, group_tables(ctx).minima])


def _edited_verdict(ctx, bits, edit, monkeypatch):
    """The projective decision on the family with keys edit(keys) at the G-minima."""
    fam = family_from_coeffs(bits)
    lead, keys = _minima_keys(ctx, fam)
    edited = edit(keys)
    monkeypatch.setattr(pc, "projective_keys", lambda ctx, images: (lead, edited))
    return _verdict(ctx, fam)


def test_size_mismatch_pair(f32, monkeypatch):
    """A G-minimum whose image class is smaller: its key is kept and every
    other minimum is keyed to itself.  The smaller image forces a repeat
    of its class, which the scan over the classes finds."""
    t = group_tables(f32)
    sizes = np.bincount(t.classes)  # representatives in each G-class
    where = {}

    def edit(keys):
        classes = t.classes[keys]
        p = int(np.flatnonzero(sizes[classes] != sizes)[0])
        where.update(p=p, sizes=(int(sizes[p]), int(sizes[classes[p]])))
        edited = t.minima.copy()
        edited[p] = keys[p]
        return edited

    assert _edited_verdict(f32, "00000110", edit, monkeypatch) is False
    assert where == {"p": 60, "sizes": (15, 3)}


def test_class_repeat_pair(f32, monkeypatch):
    """Two G-minima keyed to different representatives of one G-orbit: both
    keys are kept, every other minimum is keyed to itself except the one
    whose class they take, which takes the first one's.  Every class keeps
    its size, so the repeat is not one that a smaller image forces."""
    t = group_tables(f32)
    where = {}

    def edit(keys):
        classes = t.classes[keys]
        p, p2 = next((p, p2) for p in range(keys.size) for p2 in range(p + 1, keys.size)
                     if classes[p] == classes[p2] and keys[p] != keys[p2])
        c = int(classes[p])
        where.update(p=p, p2=p2, c=c)
        edited = t.minima.copy()
        edited[[p, p2]] = keys[[p, p2]]
        edited[c] = t.minima[p]
        return edited

    assert _edited_verdict(f32, "00000101", edit, monkeypatch) is False
    assert where == {"p": 2, "p2": 68, "c": 20}


def test_repeat_between_members_of_one_orbit(f32, monkeypatch):
    """Two G-minima keyed to different members of one rotation orbit: the
    keys differ, their classes repeat.  The keys of a permutation are
    edited, at the first two minima whose key is not (1,1,1) and whose
    G-classes are of one size."""
    fam = named_family("T3")
    sizes = np.bincount(group_tables(f32).classes)
    lead, keys = _minima_keys(f32, fam)
    s = rotation_map(f32)
    fixed = representative_index(f32, (1, 1, 1))[1]
    p, p2 = np.flatnonzero(keys != fixed)[:2].tolist()
    assert (p, p2) == (0, 1) and sizes[p] == sizes[p2]
    assert _verdict(f32, fam) is True
    edited = keys.copy()
    edited[p2] = s[keys[p]]
    monkeypatch.setattr(pc, "projective_keys", lambda ctx, images: (lead, edited))
    assert _verdict(f32, fam) is False


@pytest.mark.parametrize("m", [3, 5])
def test_keys_at_every_representative_match_full_key_oracle(m):
    """Every vector: projective_keys of F at all q^2+q+1 representatives
    equals the orbit-free oracle, and the inverse table refuses exactly
    the vectors whose oracle has a zero image or a repeated key."""
    ctx = FieldCtx(m)
    columns = _full_columns(ctx)
    for fam in all_families():
        expected_lead, expected_keys = _full_keys(ctx, columns, fam)
        lead, keys = projective_keys(ctx, projective_images(ctx, fam))
        assert lead.tolist() == expected_lead.tolist(), fam.bitstring()
        if expected_keys is None:
            assert keys is None, fam.bitstring()
        else:
            assert keys.tolist() == expected_keys.tolist(), fam.bitstring()
        refused = expected_keys is None or (np.diff(np.sort(expected_keys)) == 0).any()
        try:
            _inverse_table(ctx, fam.coeffs)
        except NotAPermutation:
            assert refused, fam.bitstring()
        else:
            assert not refused, fam.bitstring()


@pytest.mark.parametrize("m", [3, 5, 7])
def test_orbit_tables(m):
    """The oracle S is the rotation, of order 3 with the one fixed point
    (1,1,1); O holds the orbit minima and canon is constant on every
    orbit.  group_tables' classes are constant on every rotation orbit."""
    ctx = FieldCtx(m)
    q = ctx.q
    s = rotation_map(ctx)
    o, canon = _rotation_classes(ctx)
    idx = np.arange(q * q + q + 1)
    assert np.array_equal(s[s[s]], idx)
    assert np.flatnonzero(s == idx).tolist() == [representative_index(ctx, (1, 1, 1))[1]]
    assert o.size == (q * q + q) // 3 + 1
    assert np.array_equal(canon, canon[s])
    assert np.array_equal(o[canon[o]], o)
    t = group_tables(ctx)
    assert np.array_equal(t.classes, t.classes[s])


@pytest.mark.parametrize("m", [3, 5])
def test_projective_keys_match_scalar_images(m):
    """lead and keys at the orbit minima against eval_F and representative_index."""
    ctx = FieldCtx(m)
    o = _rotation_classes(ctx)[0]
    points = [representative(ctx, i) for i in o.tolist()]
    for bits in ("00000011", "01001000", "00000001", "11111111"):
        fam = family_from_coeffs(bits)
        images = [eval_F(ctx, fam, r) for r in points]
        lead, keys = projective_keys(ctx, projective_images(ctx, fam)[:, o])
        assert lead.tolist() == [next((v for v in w if v), 0) for w in images], bits
        if (0, 0, 0) in images:
            assert keys is None, bits
        else:
            assert keys.dtype == np.uint32, bits
            assert keys.tolist() == [representative_index(ctx, w)[1] for w in images], bits


_ALL_VECTORS = [f"{v:08b}" for v in range(256)]
_NAMED_VECTORS = [NAMED_COEFFS[n] for n in sorted(NAMED_COEFFS)] + ["00000001", "11111111"]


@pytest.mark.parametrize("m, vectors", [
    (1, _ALL_VECTORS),
    (3, _ALL_VECTORS),
    (5, _ALL_VECTORS),
    (7, _NAMED_VECTORS),
    (9, _NAMED_VECTORS),
], ids=["m1-all", "m3-all", "m5-all", "m7-named", "m9-named"])
def test_projective_images_match_eval_F(m, vectors):
    """F from the nine monomial rows equals F at every representative."""
    ctx = FieldCtx(m)
    points = list(zip(*(a.tolist() for a in projective_representatives(ctx))))
    for bits in vectors:
        fam = family_from_coeffs(bits)
        got = projective_images(ctx, fam)
        assert got.shape == (3, len(points)), bits
        assert list(zip(*got.tolist())) == [eval_F(ctx, fam, r) for r in points], bits


@pytest.mark.parametrize("m", [3, 5])
def test_projective_matches_full_scan_for_all_vectors(m):
    ctx = FieldCtx(m)
    for fam in all_families():
        oracle = full_scan(ctx, fam)
        assert _verdict(ctx, fam) == oracle.is_permutation, fam.bitstring()
        assert is_permutation(ctx, fam) == oracle, fam.bitstring()


@pytest.mark.parametrize("bits", [*("".join(map(str, c)) for c in NAMED_COEFFS.values()),
                                  "00000001", "11111111"])
def test_projective_matches_full_scan_m7(f128, bits):
    fam = family_from_coeffs(bits)
    oracle = full_scan(f128, fam)
    assert _verdict(f128, fam) == oracle.is_permutation
    assert is_permutation(f128, fam) == oracle


def test_m7_permutation_set_has_29_members(f128):
    hits = [fam for fam in all_families() if _verdict(f128, fam)]
    assert len(hits) == 29


# The zero vector, then the unit vector of each bit a1..a8: F of unit
# vector j is x^3 and monomial j, each at the three rotated arguments.
_UNIT_VECTORS = np.vstack([np.zeros(8, dtype=np.uint16), np.eye(8, dtype=np.uint16)])


@pytest.mark.parametrize("m", [3, 5])
def test_monomial_columns_match_scalar_products(m):
    """_images at the G-minima, for the zero vector and each unit vector,
    against scalar products of powers."""
    ctx = FieldCtx(m)
    minima = group_tables(ctx).minima
    points = [representative(ctx, i) for i in minima.tolist()]

    def scalar(exponents, v):
        a, b, c = (ctx.pow(t, e) for t, e in zip(v, exponents))
        return ctx.mul(ctx.mul(a, b), c)

    for j, bits in enumerate(_UNIT_VECTORS):
        got = _images(ctx, bits, *representatives(ctx, minima))
        assert got.shape == (3, len(points)) and got.dtype == np.uint16
        for p, (x, y, z) in enumerate(points):
            for i, v in enumerate([(x, y, z), (y, z, x), (z, x, y)]):
                want = scalar(_MONOMIAL_EXPONENTS[0], v)
                if j:
                    want ^= scalar(_MONOMIAL_EXPONENTS[j], v)
                assert got[i, p] == want, (j, p, i)


def _monomials_at_oracle(ctx, idx):
    """Each monomial evaluated at each of the three rotated arguments."""
    r = representatives(ctx, idx)
    return np.array([[_monomial(ctx, exponents, *r[e:], *r[:e]) for e in range(3)]
                     for exponents in _MONOMIAL_EXPONENTS], dtype=np.uint16)


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_rotated_monomial_table_matches_27_evaluations(m):
    """Each unit vector's images, XORed with the zero vector's, equal its
    monomial at the three rotated arguments (27 evaluations in all), at
    every representative and at the G-minima."""
    ctx = FieldCtx(m)
    for idx in (np.arange(ctx.q * ctx.q + ctx.q + 1), group_tables(ctx).minima):
        want = _monomials_at_oracle(ctx, idx)
        r = representatives(ctx, idx)
        base = _images(ctx, _UNIT_VECTORS[0], *r)
        assert np.array_equal(base, want[0])
        for j in range(1, 9):
            got = _images(ctx, _UNIT_VECTORS[j], *r)
            assert got.shape == want[j].shape == (3, idx.size)
            assert got.dtype == want.dtype == np.uint16
            assert np.array_equal(got ^ base, want[j]), j


def _uses(bits):
    """The monomials F of the vectors bits reads: x^3 and each set bit's,
    at the three rotated arguments."""
    used = [0, *(np.flatnonzero(np.reshape(bits, (-1, 8)).any(axis=0)) + 1).tolist()]
    return sorted({_MONOMIAL_EXPONENTS[_ROTATED[j][i]] for j in used for i in range(3)})


def test_monomial_table_evaluates_each_monomial_once(monkeypatch):
    """group_tables images nothing; projective_images makes two _monomial
    calls per monomial the family uses, one for the chart (1, y, z) and one
    for the q+1 points with x = 0, and so evaluates each once per
    representative; _decide_rows makes one per used monomial per block."""
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _monomial(*args)

    monkeypatch.setattr(pc, "_monomial", counted)
    ctx = FieldCtx(5)
    group_tables(ctx)
    assert calls == []
    t1 = named_family("T1")
    projective_images(ctx, t1)
    assert sorted(calls) == sorted(_uses(t1.coeffs) * 2)
    assert len(_uses(t1.coeffs)) < len(_MONOMIAL_EXPONENTS)
    calls.clear()
    _decide_rows(ctx, np.arange(256))  # 73 minima: one block
    assert sorted(calls) == sorted(_MONOMIAL_EXPONENTS)
    calls.clear()
    rows = np.array([0, t1.row, 255])
    monkeypatch.setattr(pc, "IMAGE_BLOCK", 1)  # one row a block
    _decide_rows(ctx, rows)
    assert sorted(calls) == sorted(e for v in rows for e in _uses(_VECTOR_BITS[v]))


def _point_shapes(ctx, rng):
    """Seeded points in the three shapes the package images: the chart
    grid (1, y, z), a block of x-slabs over lines of y and z, and three
    index arrays of one shape."""
    def draw(*shape):
        return rng.integers(0, ctx.q, size=shape)

    return [(1, draw(3, 1), draw(4)),
            (draw(2, 1, 1), draw(1, 3, 1), draw(4)),
            (draw(7), draw(7), draw(7))]


@pytest.mark.parametrize("m, vectors", [
    (1, range(256)), (3, range(256)), (5, range(256)),
    (7, [family_from_coeffs(b).row for b in _NAMED_VECTORS]),
], ids=["m1-all", "m3-all", "m5-all", "m7-named"])
def test_images_match_eval_F(m, vectors):
    """_images against the pointwise map, at seeded points of each shape."""
    ctx = FieldCtx(m)
    rng = np.random.default_rng(m)
    for x, y, z in _point_shapes(ctx, rng):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z))
        points = list(zip(*(np.broadcast_to(v, shape).ravel().tolist() for v in (x, y, z))))
        for v in vectors:
            fam = family_from_coeffs(_VECTOR_BITS[v].tolist())
            got = _images(ctx, _VECTOR_BITS[v], x, y, z)
            assert got.shape == (3,) + shape and got.dtype == np.uint16
            want = [eval_F(ctx, fam, r) for r in points]
            assert list(zip(*got.reshape(3, -1).tolist())) == want, v


@pytest.mark.parametrize("m", [1, 3, 5])
def test_images_of_a_block_match_single_vectors(m):
    """A (k, 8) block of vectors images as its k rows do one at a time."""
    ctx = FieldCtx(m)
    rng = np.random.default_rng(10 + m)
    rows = rng.choice(256, size=9, replace=False)
    for x, y, z in _point_shapes(ctx, rng):
        got = _images(ctx, _VECTOR_BITS[rows], x, y, z)
        for b, v in enumerate(rows):
            assert np.array_equal(got[:, b], _images(ctx, _VECTOR_BITS[v], x, y, z)), v


def test_decision_caches_two_tables_per_field():
    """All 256 decisions at m=5 add the group tables and the permutation
    mask they decide to the field tables, nothing more; projective_images
    adds no entry."""
    ctx = FieldCtx(5)
    for table in (ctx.mul_table, ctx.sqr_table, ctx.cube_table, ctx.inv_table):
        assert table.size
    field_keys = set(ctx._np_cache)
    decided = {"group_tables", "permutation_mask"}
    for fam in all_families():
        is_permutation(ctx, fam, witness=False)
    assert set(ctx._np_cache) - field_keys == decided
    projective_images(ctx, named_family("T3"))
    assert set(ctx._np_cache) - field_keys == decided


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_group_tables_hold_one_array_per_representative(m):
    """The cached decision data holds the group structure alone, the
    G-orbit minima and one array over the q^2+q+1 representatives, the
    uint32 G-classes; the rotation and Frobenius maps and every image of F
    are not kept, and no cached array is int64."""
    ctx = FieldCtx(m)
    permutation_mask(ctx)
    t = group_tables(ctx)
    assert GroupTables._fields == ("minima", "classes")
    n = ctx.q * ctx.q + ctx.q + 1
    assert [name for name, a in t._asdict().items() if a.size == n] == ["classes"]
    assert t.classes.dtype == np.uint32
    cached = [a for v in ctx._np_cache.values() for a in (v if isinstance(v, tuple) else (v,))]
    assert cached and all(a.dtype != np.int64 for a in cached)


def test_column_cache_follows_the_modulus(patch_modulus):
    """x^5+x^3+1 first, then the default x^5+x^2+1 in the same process:
    columns shared across moduli would give wrong decisions."""
    for modulus in (0b101001, DEFAULT_MODULI[5]):
        patch_modulus(5, modulus)
        ctx = FieldCtx(5)
        assert ctx.modulus == modulus
        hits = 0
        for fam in all_families():
            oracle = full_scan(ctx, fam)
            assert is_permutation(ctx, fam) == oracle, (ctx, fam.bitstring())
            hits += oracle.is_permutation
        assert hits == 29


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


def test_even_m_is_decided_by_the_cube_lemma(monkeypatch):
    """Even m is never projective: the mask is all False with no decision
    run, at every even m up to 16, and the report is the cube table's
    first repeat at (0,0,z), the same the full scan gives."""
    def no_decision(*args):
        raise AssertionError("a projective decision ran at even m")

    monkeypatch.setattr(pc, "_decide_rows", no_decision)
    monkeypatch.setattr(pc, "group_tables", no_decision)
    for m in (2, 4, 16):
        assert not permutation_mask(FieldCtx(m)).any(), m
    ctx = FieldCtx(2)
    fam = family_from_coeffs((0,) * 8)
    report = is_permutation(ctx, fam, witness=False)
    assert report == full_scan(ctx, fam)
    assert report.witness == ((0, 0, 1), (0, 0, 2)) and report.points_checked == 3


@pytest.mark.parametrize("m", [2, 4, 6])
def test_even_m_matches_full_scan_on_all_vectors(m):
    ctx = FieldCtx(m)
    for fam in all_families():
        oracle = full_scan(ctx, fam)
        assert not oracle.is_permutation
        assert is_permutation(ctx, fam) == oracle, fam.bitstring()
        assert is_permutation(ctx, fam, witness=False) == oracle, fam.bitstring()


@pytest.mark.parametrize("m", [10, 12, 14, 16])
def test_even_m_past_m9_is_the_cube_report(m):
    """Even m builds no table beyond the q-entry cube table, so every even
    degree up to 16 is answered: the first repeat of z^3, as a pointwise
    loop finds it, with a witness pair of one image."""
    ctx = FieldCtx(m)
    first_of = {}
    at = next(z for z in range(ctx.q) if first_of.setdefault(ctx.pow(z, 3), z) != z)
    fam = named_family("T1")
    witness = ((0, 0, first_of[ctx.pow(at, 3)]), (0, 0, at))
    assert is_permutation(ctx, fam) == pc.PermReport(fam.bitstring(), m, False, at + 1, witness)
    assert eval_F(ctx, fam, witness[0]) == eval_F(ctx, fam, witness[1])


def test_witnesses_at_m11_are_true_collisions():
    """At m = 11 an image takes 33 bits: packed into 32, the top bit of f1
    is lost and 67 of the 227 negatives get a false witness.  The two whose
    first repeat lies in x-slab 2 (so the scan images 4 slabs, 2^24
    points, all the table budget admits), and a seeded sample of the
    others: each witness is two points, in scan order, with one image."""
    ctx = shared_field(11)
    mask = permutation_mask(ctx)
    negatives = sorted(fam.bitstring() for fam in all_families() if not mask[fam.row])
    assert len(negatives) == 227
    late = ["00001100", "00110000"]
    others = [b for b in negatives if b not in late]
    for bits in late + random.Random(11).sample(others, 6):
        fam = family_from_coeffs(bits)
        report = is_permutation(ctx, fam)
        first, second = report.witness
        assert not report.is_permutation and first < second, bits
        assert report.points_checked == ((second[0] << 22) | (second[1] << 11) | second[2]) + 1
        assert eval_F(ctx, fam, first) == eval_F(ctx, fam, second), bits
        assert (second[0] == 2) == (bits in late), bits


def test_every_witness_prefix_is_admitted(monkeypatch):
    """family_images admits slabs * q^2 entries before it images a point:
    8 slabs at m = 11 and one at m = 13 exceed the 2^24-entry budget."""
    def no_images(*args):
        raise AssertionError("imaged before the prefix was admitted")

    monkeypatch.setattr(pc, "_images", no_images)
    for m, slabs in ((11, 8), (13, 1)):
        with pytest.raises(DomainTooLarge, match=f"the images of {slabs} x-slabs at m={m}"):
            family_images(FieldCtx(m), named_family("T1"), slabs)


@pytest.mark.parametrize("m", [7, 9])
def test_mask_build_peak_is_within_the_table_budget(m, within_table_budget):
    """A cold permutation mask, product table and group tables included,
    peaks at most 64 B per admitted entry (q^2+q+1) plus 1 MiB."""
    ctx = FieldCtx(m)
    within_table_budget(lambda: permutation_mask(ctx), ctx.q * ctx.q + ctx.q + 1)


@pytest.mark.parametrize("m", [7, 9])
def test_witness_prefix_peak_is_within_the_table_budget(m, within_table_budget):
    """The longest witness prefix, 4 x-slabs, imaged and scanned on a cold
    context, peaks at most 64 B per admitted entry (4q^2) plus 1 MiB."""
    ctx = FieldCtx(m)
    fam = family_from_coeffs("00001100")
    within_table_budget(lambda: scan_bijection(family_images(ctx, fam, 4)), 4 * ctx.q * ctx.q)


def test_even_m_images_no_point(monkeypatch):
    import rotaperm.permcheck as pc

    def no_images(ctx, fam):
        raise AssertionError("even m imaged the cube")

    monkeypatch.setattr(pc, "family_images", no_images)
    for m in (2, 4, 6, 8):
        report = is_permutation(FieldCtx(m), named_family("T1"))
        assert not report.is_permutation and report.points_checked <= 1 << m


def test_disagreeing_full_scan_is_an_internal_error(f8, monkeypatch):
    import rotaperm.permcheck as pc
    monkeypatch.setattr(pc, "full_scan", lambda ctx, fam: pc.PermReport(
        fam.bitstring(), ctx.m, True, 512))
    with pytest.raises(FormulaInconsistent):
        is_permutation(f8, family_from_coeffs("00000001"))


# -- subfield lemma: P(m) is inside P(k) for every k | m ----------------------------

@pytest.fixture(scope="module")
def unfiltered_sets():
    """P(m) by the full scan at m=1 and the projective decision alone at
    m=3, 5, 7 and 9, with no subfield test in front."""
    sets = {1: {f.bitstring() for f in all_families() if full_scan(FieldCtx(1), f).is_permutation}}
    for m in (3, 5, 7, 9):
        ctx = FieldCtx(m)
        sets[m] = {f.bitstring() for f in all_families() if _verdict(ctx, f)}
    return sets


def test_gf2_step_matches_full_scan_at_m1(unfiltered_sets):
    hits = {f.bitstring() for f in all_families() if permutes_gf2(f)}
    assert hits == unfiltered_sets[1]
    assert len(hits) == 72


def test_gf2_mask_matches_full_scan_at_m1(unfiltered_sets):
    """GF(2) is decided by the projective decision at m=1 like any other
    field, and its mask is the full scan's on all 256 vectors."""
    mask = permutation_mask(FieldCtx(1))
    assert {f.bitstring() for f in all_families() if mask[f.row]} == unfiltered_sets[1]
    assert int(mask.sum()) == 72


def test_permutation_sets_nest_along_subfields(unfiltered_sets):
    p = unfiltered_sets
    assert {m: len(v) for m, v in p.items()} == {1: 72, 3: 36, 5: 29, 7: 29, 9: 23}
    assert p[9] <= p[3] <= p[1]
    assert p[5] <= p[1] and p[7] <= p[1]


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_subfield_test_keeps_the_projective_decision(unfiltered_sets, m):
    """Witness-free is_permutation, subfields first, against the projective
    decision alone; a failure on a subfield is a failure at m."""
    ctx = FieldCtx(m)
    q = ctx.q
    for fam in all_families():
        report = is_permutation(ctx, fam, witness=False)
        assert report.is_permutation == (fam.bitstring() in unfiltered_sets[m]), fam.bitstring()
        assert report.points_checked == (1 << 3 * m if report.is_permutation else q * q + q + 1)


def test_m9_is_decided_on_gf8_first(projective_degrees):
    """A vector outside P(3) fails at m=9 before the m=9 representatives
    are imaged: only the 36 vectors of P(3) reach that decision, and one
    of each y <-> z pair is decided, 20 at m=9 (38 of GF(2)'s 72 at m=3,
    and 136 of the 256 at m=1, where no subfield comes first)."""
    ctx = FieldCtx(9)
    hits = sum(is_permutation(ctx, f, witness=False).is_permutation for f in all_families())
    assert hits == 23
    assert projective_degrees.count(1) == 136
    assert (projective_degrees.count(3), projective_degrees.count(9)) == (38, 20)


# -- the permutation mask: every vector of a field in one blocked pass --------------

@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_mask_matches_per_family_oracle(m):
    """Row v of the mask is the vector of all_families()[v], decided by the
    per-family chain the mask replaces: GF(2) from the coefficient bits,
    then the projective decision on each proper subfield and at m."""
    ctx = FieldCtx(m)
    chain = [FieldCtx(k) for k in range(2, m) if m % k == 0] + [ctx]
    mask = permutation_mask(ctx)
    assert mask.shape == (256,) and mask.dtype == bool
    for v, fam in enumerate(all_families()):
        assert int(fam.bitstring(), 2) == v
        want = permutes_gf2(fam) and all(_verdict(c, fam) for c in chain)
        assert mask[v] == want, fam.bitstring()
    assert int(mask.sum()) == {3: 36, 5: 29, 7: 29, 9: 23}[m]


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_y_z_pruned_mask_matches_unpruned_block_decision(m):
    """The mask decides one vector of each y <-> z pair after the subfield
    step; the block decision on all 256 vectors, with neither, agrees."""
    ctx = FieldCtx(m)
    assert np.array_equal(permutation_mask(ctx), _decide_rows(ctx, np.arange(256)))


def test_y_z_partner_swaps_the_coefficients():
    """a1<->a2, a3<->a5, a4<->a6 and a7<->a8, an involution."""
    for v, fam in enumerate(all_families()):
        a1, a2, a3, a4, a5, a6, a7, a8 = fam.bitstring()
        assert format(int(_Y_Z_PARTNER[v]), "08b") == a2 + a1 + a5 + a6 + a3 + a4 + a8 + a7
    assert np.array_equal(_Y_Z_PARTNER[_Y_Z_PARTNER], np.arange(256))


@pytest.mark.parametrize("m", [5, 7])
@pytest.mark.parametrize("block", [1, 1 << 22])
def test_mask_independent_of_block(m, block, monkeypatch):
    """One row a block, and every row in one block, give the same mask."""
    import rotaperm.permcheck as pc
    want = permutation_mask(FieldCtx(m))
    monkeypatch.setattr(pc, "IMAGE_BLOCK", block)
    assert np.array_equal(permutation_mask(FieldCtx(m)), want)


@pytest.mark.parametrize("m", [3, 5, 7])
def test_verdicts_are_lookups_once_the_mask_is_built(m, monkeypatch):
    """With the mask built, no witness-free verdict images or decides
    anything, and each report is the mask bit with the point count of the
    decision that made it: all 2^3m points for a permutation, the q^2+q+1
    representatives otherwise."""
    ctx = FieldCtx(m)
    mask = permutation_mask(ctx)

    def refuse(*args):
        raise AssertionError("a verdict reached the decision")

    monkeypatch.setattr(pc, "_decide_rows", refuse)
    monkeypatch.setattr(pc, "_images", refuse)
    for v, fam in enumerate(all_families()):
        report = is_permutation(ctx, fam, witness=False)
        bits, ok = fam.bitstring(), bool(mask[v])
        points = 1 << (3 * m) if ok else ctx.q * ctx.q + ctx.q + 1
        assert type(report) is pc.PermReport
        assert (report.family, report.m, report.is_permutation, report.points_checked,
                report.witness) == (bits, m, ok, points, None)
        assert type(report.is_permutation) is bool
        assert json.dumps(report.to_json()) == json.dumps(
            {"family": bits, "m": m, "permutation": ok, "points": points})


def test_perm_report_is_frozen(f8):
    report = is_permutation(f8, named_family("T3"))
    with pytest.raises(AttributeError):
        report.is_permutation = False
    assert report == is_permutation(f8, named_family("T3"))
    assert report.to_json() == {"family": "00000011", "m": 3, "permutation": True, "points": 512}


def test_custom_modulus_is_not_shared_and_decides_the_same(patch_modulus):
    """A context of another modulus gets tables of its own, and the same
    mask as the shared context of the default modulus: F has 0/1
    coefficients."""
    default = shared_field(5)
    patch_modulus(5, 0b111011)
    ctx = FieldCtx(5)
    assert ctx.modulus == 0b111011 and ctx is not default and ctx != default
    assert np.array_equal(permutation_mask(ctx), permutation_mask(default))
    assert shared_field(5) == ctx and shared_field(5) is not default


def test_mask_is_read_only(f32):
    mask = permutation_mask(f32)
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0] = not mask[0]
    even = permutation_mask(FieldCtx(4))
    assert not even.flags.writeable and not even.any()


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
    monkeypatch.setattr(oracles, "D_POLY", D_POLY + parse("Y*Z"))
    with pytest.raises(FormulaInconsistent):
        count_zeros_D(f8, 1)


@pytest.mark.parametrize("m", [3, 5, 7])
def test_no_zeros_for_any_parameter(m):
    ctx = FieldCtx(m)
    assert all(count_zeros_D(ctx, t) == 0 for t in ctx.elements())
