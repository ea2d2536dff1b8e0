"""Bijectivity decisions over GF(2^m)^3.

Points pack into ints as (x << 2m) | (y << m) | z, so the domain is
enumerated in lexicographic (x, y, z) order and image membership is a
flat table lookup.

For odd m all 256 coefficient vectors are decided at once, in one
blocked array pass per field, into a read-only (256,) bool array
(permutation_mask) that is_permutation reads: once the mask is built, a
witness-free verdict is one read of it returning a PermReport, a
NamedTuple.  The pass starts on the proper subfields.  Every family
has 0/1 coefficients, so F maps GF(2^k)^3 into itself for every k | m,
and a permutation of GF(2^m)^3 permutes GF(2^k)^3 (the subfield lemma:
P(m) is inside P(k)).  Each proper subfield, GF(2) (k = 1, where 72 of
the 256 vectors permute) included, contributes its own mask, decided
the same way on the subfield's context from field.shared_field.  The
verbs take their contexts from there too, so every field's mask is
built once per process.  Of the vectors that permute every proper
subfield, one of each y <-> z pair is imaged at m: tau(x,y,z) = (x,z,y)
conjugates F into the map of f(x,z,y), so both or neither permute.  A
witness-free negative still reports the q^2+q+1 representatives as its
points, whichever test decided it: by the lemma the projective decision
at m fails as well, so the report is a function of the vector and m
alone, and stays the one a decision without the subfield step gives.

The decision at m is projective.  Every family is 3-homogeneous,
F(lam*v) = lam^3 * F(v), and lam -> lam^3 permutes GF(2^m)^* when m is
odd, so F permutes GF(2^m)^3 exactly when F(r) != 0 on the q^2+q+1
representatives r in {(1,y,z)} u {(0,1,z)} u {(0,0,1)} and their images,
each scaled by the inverse of its leading nonzero coordinate, are pairwise
distinct.  Every family is also rotatable, F(sigma v) = sigma F(v) with
sigma(x,y,z) = (y,z,x), and for odd m sigma fixes only the representative
(1,1,1): the others fall into (q^2+q)/3 orbits of three.  With 0/1
coefficients F also commutes with the Frobenius
phi(x,y,z) = (x^2,y^2,z^2), which permutes the representatives, so the
group G = <sigma, phi> of order 3m permutes them too (group_tables):
about (q^2+q)/3m orbits, 13, 73, 789 and 9749 at m = 3, 5, 7 and 9.  F is
imaged at the G-orbit minima alone, and the decision is made on the
G-classes of their keys (_decide_rows, a block of vectors at a time).
The cached decision data is the group structure alone; no image is kept.

Even m is answered without any image: 3 divides q-1, so z -> z^3 is
3-to-1 on GF(2^m)^*, and F(0,0,z), a function of z^3 alone, repeats
among the first q points, where the cube table names the first collision.

One key function, projective_keys, scales any array of points to their
representatives: the decision keys F at the G-minima, group_tables keys
the rotated and squared representatives, and rotaperm.invert keys F at
every representative.  Those images (projective_images) are also all the
lift reads; they need no orbit table, so the orbit format stays inside
this module, and a table inversion needs O(q^2) memory and no q^3 image.

The witness of an odd-m negative, the lexicographically first
collision, comes from full_scan, which images and scans prefixes of 1,
2, 4, ... x-slabs until one repeats.  Every measured negative at m <= 9
repeats within the first three slabs, so a negative images at most 4q^2
points, not q^3.  Every image of F here, the x-slabs, the
representatives and the G-minima, comes from one broadcasting
evaluator, _images, over family.COEFF_EXPONENTS; every array product is
FieldCtx.vmul.  The rotations only permute the nine monomials
(_ROTATED), so each monomial a block of vectors uses is evaluated once
per call.

Cap: is_permutation refuses m > 9.  The witness scan stops at the first
slab prefix that repeats, and no proof bounds that prefix below the
whole cube: a negative whose first repeat came late would image all
2^3m points, 512 MB of images at m = 9.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import DomainTooLarge, EvenDegree, FormulaInconsistent
from .family import COEFF_EXPONENTS, FamilySpec
from .field import FieldCtx, Triple, shared_field

IS_PERMUTATION_MAX_M = 9
IMAGE_BLOCK = 1 << 16  # points per block in family_images and _decide_rows; bounds temporaries


class PermReport(NamedTuple):
    """Outcome of one bijectivity decision, an immutable tuple."""

    family: str
    m: int
    is_permutation: bool
    points_checked: int
    witness: tuple[Triple, Triple] | None = None

    def to_json(self) -> dict:
        out = {
            "family": self.family,
            "m": self.m,
            "permutation": self.is_permutation,
            "points": self.points_checked,
        }
        if self.witness is not None:
            out["witness"] = [[hex(v) for v in p] for p in self.witness]
        return out


def _monomial(ctx: FieldCtx, exponents: tuple[int, int, int], x, y, z) -> np.ndarray:
    """x^a * y^b * z^c for exponents (a, b, c) of degree 3, elementwise over
    broadcasting arrays of field elements; a variable with exponent 0 is
    not read."""
    powers = (None, None, ctx.sqr_table, ctx.cube_table)
    value = None
    for e, v in zip(exponents, (x, y, z)):
        if e:
            p = v if e == 1 else powers[e][v]
            value = p if value is None else ctx.vmul(value, p)
    return value


# x^3, then the monomial under each coefficient bit a1..a8.
_MONOMIAL_EXPONENTS = ((3, 0, 0),) + COEFF_EXPONENTS
# _ROTATED[j][i]: the monomial that is monomial j at the arguments rotated i
# times.  x^a y^b z^c at (y,z,x) is x^c y^a z^b at (x,y,z), so the exponents
# rotate right once per rotation, and the nine are closed under it.
_ROTATED = tuple(tuple(_MONOMIAL_EXPONENTS.index(e[3 - i:] + e[:3 - i]) for i in range(3))
                 for e in _MONOMIAL_EXPONENTS)


def _images(ctx: FieldCtx, bits: np.ndarray | tuple[int, ...], x, y, z) -> np.ndarray:
    """F at the points (x, y, z), as a uint16 array of shape (3, *block, *points).

    bits is a1..a8 of one vector, shape (8,) and block (), or of k
    vectors, shape (k, 8) and block (k,); x, y and z are ints or arrays of
    field elements that broadcast to the points' shape.  Component i, f at
    the arguments rotated i times, is the XOR of monomial _ROTATED[j][i] at
    (x, y, z) over x^3 (j = 0) and the set bits j, so each monomial the
    block uses is evaluated once, over the variables it reads.  The terms
    are summed apart by a variable they omit, and only the three sums are
    broadcast to every point: on the chart grid (1, y, z) a term without
    y or z costs one line.
    """
    bits = np.asarray(bits, dtype=np.uint16)
    block = bits.shape[:-1]
    points = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z))
    # coeffs[j - 1]: bit j - 1 of each vector, the coefficient of monomial j.
    coeffs = bits.T.reshape((8,) + block + (1,) * len(points))
    used = [0, *(np.flatnonzero(coeffs.reshape(8, -1).any(axis=1)) + 1).tolist()]
    values = {k: _monomial(ctx, _MONOMIAL_EXPONENTS[k], x, y, z)
              for k in {_ROTATED[j][i] for j in used for i in range(3)}}
    out = np.empty((3,) + block + points, dtype=np.uint16)
    for i in range(3):
        sums = [0, 0, 0]
        for j in used:
            k = _ROTATED[j][i]
            term = coeffs[j - 1] * values[k] if block and j else values[k]
            g = _MONOMIAL_EXPONENTS[k].index(0)  # 0, 1, 2 for x, y, z
            sums[g] = sums[g] ^ term
        np.bitwise_xor(sums[0], sums[1], out=out[i])
        out[i] ^= sums[2]
    return out


def family_images(ctx: FieldCtx, fam: FamilySpec, slabs: int | None = None) -> np.ndarray:
    """Packed image of every domain point in the first `slabs` x-slabs (all
    q of them when slabs is None), indexed by packed point.

    No monomial reads all of x, y and z, so over GF(2) F(x,y,z) is
    F(x,y,0) + F(x,0,z) + F(x,0,0) + F(0,y,z) + F(0,y,0) + F(0,0,z), which
    keeps each monomial once or three times.  _images gives each term once,
    over at most a q x q grid, and they are summed a block of x-slabs at a
    time, at most IMAGE_BLOCK points (one slab when q^2 is larger).
    """
    q, m, c = ctx.q, ctx.m, fam.coeffs
    slabs = q if slabs is None else slabs
    x, y, z = np.ix_(np.arange(slabs), np.arange(q), np.arange(q))
    xy = _images(ctx, c, x, y, 0) ^ _images(ctx, c, x, 0, 0)
    xz = _images(ctx, c, x, 0, z)
    yz = _images(ctx, c, 0, y, z) ^ _images(ctx, c, 0, y, 0) ^ _images(ctx, c, 0, 0, z)
    packed = np.empty((slabs, q, q), dtype=np.uint32)
    rows = max(1, IMAGE_BLOCK // (q * q))
    for start in range(0, slabs, rows):
        block = slice(start, start + rows)
        images = xy[:, block] ^ yz
        images ^= xz[:, block]
        f1, f2, f3 = images.astype(np.uint32)
        packed[block] = (f1 << (2 * m)) | (f2 << m) | f3
    return packed.reshape(-1)


def _unpack(ctx: FieldCtx, p: int) -> Triple:
    return (p >> (2 * ctx.m)) & ctx.mask, (p >> ctx.m) & ctx.mask, p & ctx.mask


def full_scan(ctx: FieldCtx, fam: FamilySpec) -> PermReport:
    """Scan the 2^3m images in lexicographic order; bijective iff no repeat.

    The reported witness is the first collision in that order: the
    earliest point whose image was already taken, paired with the point
    that took it.  Prefixes of 1, 2, 4, ... x-slabs are imaged and scanned
    until one repeats or the prefix is the whole cube.  This is exact: a
    prefix holds every point before any point it holds, so its first
    repeat, and the earlier point with that image, are the cube's.
    """
    slabs = 1
    while True:
        ok, at, first = _kernels.scan_bijection(family_images(ctx, fam, slabs))
        if not ok or slabs == ctx.q:
            break
        slabs *= 2
    if ok:
        return PermReport(fam.bitstring(), ctx.m, True, 1 << (3 * ctx.m))
    witness = (_unpack(ctx, first), _unpack(ctx, at))
    return PermReport(fam.bitstring(), ctx.m, False, at + 1, witness)


def representatives(ctx: FieldCtx, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, y, z of the representatives at the indices idx, computed from the
    indices in idx's dtype: the array form of representative."""
    qq = ctx.q * ctx.q
    x, y, z = np.ones_like(idx), idx >> ctx.m, idx & ctx.mask
    # Only the q+1 representatives off the chart x = 1 are patched by position.
    off = np.flatnonzero(idx >= qq)
    tail = idx[off] - qq  # z of (0,1,z), or q for (0,0,1)
    line = tail < ctx.q
    x[off] = 0
    y[off] = line
    z[off] = np.where(line, tail, 1)
    return x, y, z


def projective_representatives(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, y, z of (1,y,z) in (y,z) order, then (0,1,z), then (0,0,1)."""
    return representatives(ctx, np.arange(ctx.q * ctx.q + ctx.q + 1))


def _leading(u1: np.ndarray, u2: np.ndarray, u3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading nonzero coordinate of each point (u1, u2, u3), 0 for the zero
    vector, and the positions where u1 is 0."""
    # Only about one point in q has x = 0; those few are patched by index.
    off = np.flatnonzero(u1 == 0)
    lead = u1.copy()
    lead[off] = np.where(u2[off] != 0, u2[off], u3[off])
    return lead, off


def _rotation_classes(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """(O, canon): the classes of the rotation sigma(x,y,z) = (y,z,x) on the
    representatives.

    S[i], the index of sigma(r_i) among the representatives, has order 3
    for odd m and fixes only (1,1,1): sigma(v) = c*v needs c^3 = 1, so
    c = 1.  O holds the orbit minima in increasing order, (q^2+q)/3 + 1 of
    them, and canon[i] is the position in O of the orbit of r_i.  S and
    the coordinates it is keyed from are dropped on return.
    """
    x, y, z = projective_representatives(ctx)
    s = projective_keys(ctx, (y, z, x))[1]
    idx = np.arange(s.size)
    o = np.flatnonzero((idx <= s) & (idx <= s[s]))
    canon = np.empty(s.size, dtype=np.uint32)
    for members in (o, s[o], s[s[o]]):
        canon[members] = np.arange(o.size, dtype=np.uint32)
    return o, canon


class GroupTables(NamedTuple):
    """The G-orbits of the representatives, G = <sigma, phi> (group_tables)."""

    minima: np.ndarray   # the G-orbit minima, increasing, uint32
    classes: np.ndarray  # classes[i]: position in minima of the G-orbit of r_i, uint32


def _build_group_tables(ctx: FieldCtx) -> GroupTables:
    """G = <sigma, phi> on the representatives, phi(x,y,z) = (x^2,y^2,z^2).

    phi fixes the leading 1 of every representative, so it permutes them,
    and it commutes with sigma, so it permutes the rotation classes: class
    c goes to the class of phi(r_O[c]).  The G-class of c is the least
    class on that Frobenius orbit, found by m-1 gathers.  O increases, so
    the least class holds the G-orbit minimum.  The rotation and Frobenius
    index maps are build temporaries, and no image of F is kept.
    """
    o, canon = _rotation_classes(ctx)
    x, y, z = representatives(ctx, o)  # x is 0 or 1, its own square
    sq = ctx.sqr_table
    step = canon[projective_keys(ctx, (x, sq[y], sq[z]))[1]]
    least = np.arange(o.size, dtype=np.uint32)
    moved = least
    for _ in range(ctx.m - 1):
        moved = step[moved]
        np.minimum(least, moved, out=least)
    heads = np.flatnonzero(least == np.arange(o.size))
    rank = np.empty(o.size, dtype=np.uint32)
    rank[heads] = np.arange(heads.size, dtype=np.uint32)
    return GroupTables(o[heads].astype(np.uint32), rank[least][canon])


def group_tables(ctx: FieldCtx) -> GroupTables:
    """The G-orbits of the representatives (_build_group_tables), built on
    first use and cached on ctx as one entry."""
    return ctx._table("group_tables", _build_group_tables)


def representative(ctx: FieldCtx, i: int) -> Triple:
    """Entry i of projective_representatives, without building the arrays."""
    qq = ctx.q * ctx.q
    if i < qq:
        return 1, i >> ctx.m, i & ctx.mask
    if i < qq + ctx.q:
        return 0, 1, i - qq
    return 0, 0, 1


def representative_index(ctx: FieldCtx, v: Triple) -> tuple[int, int]:
    """(s, i) with v = s * representative(ctx, i), s the leading nonzero
    coordinate of v != 0."""
    a, b, c = v
    s = a or b or c
    if s == 0:
        raise ValueError("the zero vector has no projective representative")
    inv_s = ctx.inv(s)
    qq = ctx.q * ctx.q
    if a:
        return s, (ctx.mul(b, inv_s) << ctx.m) | ctx.mul(c, inv_s)
    if b:
        return s, qq + ctx.mul(c, inv_s)
    return s, qq + ctx.q


def projective_images(ctx: FieldCtx, fam: FamilySpec) -> np.ndarray:
    """F at every representative, as a (3, q^2+q+1) uint16 array; column i is F(r_i).

    Two _images calls: the chart (1, y, z) as the q x q grid of (y, z),
    then the q+1 points (0, 1, z), (0, 0, 1).  Nothing is cached.
    """
    q, qq = ctx.q, ctx.q * ctx.q
    line = np.arange(q)
    chart = _images(ctx, fam.coeffs, 1, line[:, None], line).reshape(3, qq)
    rest = _images(ctx, fam.coeffs, *representatives(ctx, np.arange(qq, qq + q + 1)))
    return np.concatenate([chart, rest], axis=1)


def projective_keys(ctx: FieldCtx, images) -> tuple[np.ndarray, np.ndarray | None]:
    """Leading coordinates and keys of the columns of images, a (3, k)
    array or three length-k arrays of field elements.

    lead[i] is the leading nonzero coordinate of column i, 0 for the zero
    vector, and keys[i] the index among the representatives of column i
    scaled by 1/lead[i], as a uint32.  With a zero in lead, keys is None:
    the zero image decides before any key is gathered.
    """
    q = ctx.q
    u1, u2, u3 = images
    lead, off = _leading(u1, u2, u3)
    if not lead.all():
        return lead, None
    inv = ctx.inv_table[lead].astype(np.intp)
    # The scaled point is (1, y, z), (0, 1, z) or (0, 0, 1): its index is
    # y*q + z, q^2 + z or q^2 + q, as in projective_representatives.
    z = ctx.vmul(inv, u3).astype(np.uint32)
    keys = (ctx.vmul(inv, u2).astype(np.uint32) << ctx.m) | z
    keys[off] = np.where(u2[off] != 0, q * q + z[off], q * q + q)
    return lead, keys


# a1..a8 of every coefficient vector, row v for v read as an 8-bit integer
# with a1 as the high bit, which is family.all_families() order.
_VECTOR_BITS = ((np.arange(256)[:, None] >> np.arange(7, -1, -1)) & 1).astype(np.uint16)


def _decide_rows(ctx: FieldCtx, rows: np.ndarray) -> np.ndarray:
    """Whether F permutes GF(2^m)^3 (odd m), for the vectors at the rows
    of _VECTOR_BITS, as a bool array.

    A block of max(1, IMAGE_BLOCK // |M|) rows is imaged at a time, at the
    G-orbit minima r_M[p] (M and G = <sigma, phi> as in group_tables),
    by one _images call; projective_keys then keys every row with no zero
    image at once.  F(sigma v) = sigma F(v), and F has 0/1 coefficients,
    so F(phi v) = phi F(v) as well: the key of g(r_M[p]) is g(keys[p]) for
    every g in G, and F has a zero on a G-orbit only together with its
    minimum.

    By 3-homogeneity F permutes GF(2^m)^3 exactly when it is nonzero on
    the representatives and permutes the projective points, r -> key(r).
    That map commutes with G, so it sends the G-orbit of r_M[p] onto the
    G-orbit of keys[p], which is no larger.  A permutation sends distinct
    orbits to distinct orbits, so F permutes exactly when no lead is zero
    and the G-classes of the keys have no repeat: then orbits go to
    orbits one to one, their sizes sum to q^2+q+1 on both sides and none
    grows, so none shrinks, and each orbit goes onto its image one to one.
    """
    t = group_tables(ctx)
    n = t.minima.size
    verdicts = np.zeros(rows.size, dtype=bool)
    step = max(1, IMAGE_BLOCK // n)
    for s in range(0, rows.size, step):
        images = _images(ctx, _VECTOR_BITS[rows[s:s + step]], *representatives(ctx, t.minima))
        live = np.flatnonzero((images != 0).any(axis=0).all(axis=1))
        _, keys = projective_keys(ctx, images[:, live].reshape(3, -1))
        for i, c in zip(live, t.classes[keys].reshape(live.size, n)):
            verdicts[s + i] = _kernels.scan_bijection(c)[0]
    return verdicts


# Row v's partner under y <-> z: tau(x, y, z) = (x, z, y) conjugates the map
# of f(x, y, z) into that of f(x, z, y), whose bit j is the bit of f at the
# monomial with y and z swapped (a1<->a2, a3<->a5, a4<->a6, a7<->a8).
_Y_Z_SWAP = [COEFF_EXPONENTS.index((ex, ez, ey)) for ex, ey, ez in COEFF_EXPONENTS]
_Y_Z_PARTNER = _VECTOR_BITS[:, _Y_Z_SWAP] @ (1 << np.arange(7, -1, -1))


def _build_permutation_mask(ctx: FieldCtx) -> np.ndarray:
    """The mask of permutation_mask: the subfields' masks ANDed, then the
    projective decision at m of one vector per y <-> z pair."""
    mask = np.ones(256, dtype=bool)
    # shared_field(k) models GF(2^k) apart from its copy inside ctx, and F
    # has 0/1 coefficients, so it commutes with the isomorphism between them.
    for k in range(1, ctx.m):
        if ctx.m % k == 0:
            mask &= permutation_mask(shared_field(k))
    rows = np.flatnonzero(mask & (np.arange(256) <= _Y_Z_PARTNER))
    verdicts = _decide_rows(ctx, rows)
    mask[:] = False
    mask[rows] = verdicts
    mask[_Y_Z_PARTNER[rows]] = verdicts
    return mask


def permutation_mask(ctx: FieldCtx) -> np.ndarray:
    """Whether F permutes GF(2^m)^3 (odd m), for every coefficient vector.

    A read-only (256,) bool array indexed by a1..a8 read as an 8-bit
    integer, a1 the high bit, which is family.all_families() order.  A
    vector is kept only if it permutes every proper subfield (the
    subfield lemma: each GF(2^k) with k | m and k < m, GF(2) included,
    ANDs in its own mask).  Of the rest, one vector per y <-> z pair is
    decided by _decide_rows and its verdict copied to its partner:
    tau F tau with tau(x, y, z) = (x, z, y) is the partner's map, and a
    permutation exactly when F is one.  That is 136 rows at m=1, 38 of
    the 72 GF(2) permutations at prime m, and 20 of P(3)'s 36 at m=9.
    Built on first use and cached on ctx as one entry, with group_tables
    beside it and the subfields' masks on their contexts from
    field.shared_field, so on the contexts the verbs use, every field's
    mask is built once per process.
    """
    if ctx.m % 2 == 0:
        raise EvenDegree(f"the projective decision needs odd m, got m={ctx.m}")
    return ctx._table("permutation_mask", _build_permutation_mask)


def is_permutation(ctx: FieldCtx, fam: FamilySpec, *, witness: bool = True) -> PermReport:
    """Decide whether F permutes GF(2^m)^3.

    Odd m is answered from permutation_mask(ctx), built once per field
    (each proper subfield, GF(2) first, then the projective decision at
    m for one vector of each y <-> z pair).  A positive report counts all
    2^3m points; a negative with `witness` runs full_scan, over x-slab
    prefixes, for the lexicographically first collision, and one without
    reports the q^2+q+1 representatives, whichever test decided it: a
    failure on a subfield is also a failure of the projective decision,
    so the report does not depend on which test ran first.  Even m gets
    the full scan's report, with or without `witness`, from the cube
    table: F(0,0,z) = (a2*z^3, a1*z^3, z^3) first repeats where z^3 does.
    """
    if ctx.m > IS_PERMUTATION_MAX_M:
        raise DomainTooLarge(f"m={ctx.m} > {IS_PERMUTATION_MAX_M} for the image table")
    if ctx.m % 2 == 0:
        _, at, first = _kernels.scan_bijection(ctx.cube_table)
        return PermReport(fam.bitstring(), ctx.m, False, at + 1, ((0, 0, first), (0, 0, at)))
    if permutation_mask(ctx)[fam.row]:
        return PermReport(fam.bitstring(), ctx.m, True, 1 << (3 * ctx.m))
    if not witness:
        return PermReport(fam.bitstring(), ctx.m, False, ctx.q * ctx.q + ctx.q + 1)
    report = full_scan(ctx, fam)
    if report.is_permutation:
        raise FormulaInconsistent(
            f"family {fam.bitstring()} at m={ctx.m}: subfield or projective decision"
            " and full scan disagree")
    return report
