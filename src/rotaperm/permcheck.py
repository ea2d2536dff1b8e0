"""Bijectivity decisions over GF(2^m)^3.

Points pack into ints as (x << 2m) | (y << m) | z, so the domain is
enumerated in lexicographic (x, y, z) order and image membership is a
flat table lookup.

For odd m the decision starts on the proper subfields.  Every family
has 0/1 coefficients, so F maps GF(2^k)^3 into itself for every k | m,
and a permutation of GF(2^m)^3 permutes GF(2^k)^3 (the subfield lemma:
P(m) is inside P(k)).  GF(2) is decided in pure Python from the
coefficient bits (permutes_gf2, which 72 of the 256 vectors pass), then
each GF(2^k) with 1 < k < m by the witness-free decision there
(fails_on_subfield).  Only a vector that permutes every proper subfield
is imaged at m.  A witness-free negative still reports the q^2+q+1
representatives as its points, whichever test decided it: by the lemma
the projective decision at m fails as well, so the report is a function
of the vector and m alone, and stays the one a decision without the
subfield step gives.

The decision at m is projective.  Every family is 3-homogeneous,
F(lam*v) = lam^3 * F(v), and lam -> lam^3 permutes GF(2^m)^* when m is
odd, so F permutes GF(2^m)^3 exactly when F(r) != 0 on the q^2+q+1
representatives r in {(1,y,z)} u {(0,1,z)} u {(0,0,1)} and their images,
each scaled by the inverse of its leading nonzero coordinate, are pairwise
distinct.  Every family is also rotatable, F(sigma v) = sigma F(v) with
sigma(x,y,z) = (y,z,x), and for odd m sigma fixes only the representative
(1,1,1): the others fall into (q^2+q)/3 orbits of three (orbit_tables).
So F is imaged at the orbit minima alone, and the decision is made on
the orbit classes of their keys (projective_obstruction).  F's images
there are XORs of rows of one monomial table: the values of x^3 and of
each a1..a8 monomial at every orbit minimum under the three rotated
arguments, built once per field context on first use and shared by all
256 families.

Even m is answered without any image: 3 divides q-1, so z -> z^3 is
3-to-1 on GF(2^m)^*, and F(0,0,z), a function of z^3 alone, repeats
among the first q points, where the cube table names the first collision.

One key function, projective_keys, scales any array of points to their
representatives: the decision keys F at the orbit minima, orbit_tables
keys the rotated representatives, and rotaperm.invert keys F at every
representative.  Those images are the orbit-minimum images spread over
each orbit by rotation and homogeneity (projective_images), which is
also all the lift reads; so the orbit format stays inside this module,
and a table inversion needs O(q^2) memory and no q^3 image.

The full scan over all q^3 images remains only for the lexicographically
first collision reported as the witness of an odd-m negative.  Its
images are built in blocks of x-slabs from numpy gathers into three
q x q pair tables plus the cube table.  The pair tables and the monomial table both come from
family.COEFF_EXPONENTS through one broadcasting _monomial, and every
array product here is FieldCtx.vmul.

Caps: is_permutation and count_zeros_D refuse m > 9 (the 2^27 image table
and the q x q product table, gathered from the field's exp/log pair, are
the ceiling) and the pairwise difference check refuses m > 3 (2^6m pairs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import DomainTooLarge, FormulaInconsistent, OddDegreeRequired
from .family import COEFF_EXPONENTS, FamilySpec
from .field import MAX_DEGREE, FieldCtx, Triple
from .mpoly import VARS
from .resolvent import D_POLY

IS_PERMUTATION_MAX_M = 9
DIFFERENCE_CHECK_MAX_M = 3
IMAGE_BLOCK = 1 << 14  # points family_images builds per step; keeps each temporary small


@dataclass(frozen=True)
class PermReport:
    """Outcome of one bijectivity decision."""

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

    def dumps(self) -> str:
        return json.dumps(self.to_json())


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


def _pair_tables(ctx: FieldCtx, coeffs: tuple[int, ...]):
    """Tables P_xy, P_xz, P_yz with f(x,y,z) = x^3 ^ P_xy[x,y] ^ P_xz[x,z] ^ P_yz[y,z].

    Each monomial of COEFF_EXPONENTS omits x, y or z; it is imaged over
    the q x q grid of the other two and goes to the table they index.
    """
    rows, cols = np.arange(ctx.q)[:, None], np.arange(ctx.q)[None, :]
    grids = ((None, rows, cols), (rows, None, cols), (rows, cols, None))
    tables = np.zeros((3, ctx.q, ctx.q), dtype=np.uint16)  # P_yz, P_xz, P_xy
    for bit, exponents in zip(coeffs, COEFF_EXPONENTS):
        if bit:
            omitted = exponents.index(0)
            tables[omitted] ^= _monomial(ctx, exponents, *grids[omitted])
    p_yz, p_xz, p_xy = tables
    return ctx.cube_table, p_xy, p_xz, p_yz


def family_images(ctx: FieldCtx, fam: FamilySpec) -> np.ndarray:
    """Packed image of every domain point, indexed by packed point.

    Built a block of x-slabs at a time: each block of the three
    components is a handful of gathers from the pair tables, and a block
    holds at most IMAGE_BLOCK points (one slab when q^2 is larger).
    """
    q, m = ctx.q, ctx.m
    cube, p_xy, p_xz, p_yz = _pair_tables(ctx, fam.coeffs)
    cube = cube.astype(np.uint32)
    packed = np.empty((q, q, q), dtype=np.uint32)
    rows = max(1, IMAGE_BLOCK // (q * q))
    for start in range(0, q, rows):
        xs = slice(start, start + rows)
        # f(x,y,z), f(y,z,x) and f(z,x,y) over x in xs, indexed [x, y, z].
        f1 = cube[xs, None, None] ^ p_xy[xs, :, None] ^ p_xz[xs, None, :] ^ p_yz[None]
        f2 = cube[None, :, None] ^ p_xy[None] ^ p_xz[:, xs].T[:, :, None] ^ p_yz[:, xs].T[:, None, :]
        f3 = cube[None, None, :] ^ p_xy[:, xs].T[:, None, :] ^ p_xz.T[None] ^ p_yz[xs, :, None]
        packed[xs] = (f1 << (2 * m)) | (f2 << m) | f3
    return packed.reshape(-1)


def _unpack(ctx: FieldCtx, p: int) -> Triple:
    return (p >> (2 * ctx.m)) & ctx.mask, (p >> ctx.m) & ctx.mask, p & ctx.mask


def full_scan(ctx: FieldCtx, fam: FamilySpec) -> PermReport:
    """Mark all 2^3m images; bijective iff no repeat.

    The reported witness is the first collision in lexicographic scan
    order: the earliest point whose image was already taken, paired with
    the point that took it.
    """
    ok, at, first = _kernels.scan_bijection(family_images(ctx, fam))
    if ok:
        return PermReport(fam.bitstring(), ctx.m, True, 1 << (3 * ctx.m))
    witness = (_unpack(ctx, first), _unpack(ctx, at))
    return PermReport(fam.bitstring(), ctx.m, False, at + 1, witness)


def projective_representatives(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, y, z of (1,y,z) in (y,z) order, then (0,1,z), then (0,0,1)."""
    q = ctx.q
    yz = np.arange(q * q)
    x = np.repeat([1, 0], [q * q, q + 1])
    y = np.concatenate([yz >> ctx.m, np.ones(q, dtype=yz.dtype), [0]])
    z = np.concatenate([yz & ctx.mask, np.arange(q), [1]])
    return x, y, z


def _leading(u1: np.ndarray, u2: np.ndarray, u3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading nonzero coordinate of each point (u1, u2, u3), 0 for the zero
    vector, and the positions where u1 is 0."""
    # Only about one point in q has x = 0; those few are patched by index.
    off = np.flatnonzero(u1 == 0)
    lead = u1.copy()
    lead[off] = np.where(u2[off] != 0, u2[off], u3[off])
    return lead, off


def orbit_tables(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, O, canon): the rotation sigma(x,y,z) = (y,z,x) on the representatives.

    S[i] is the index of sigma(r_i) among the representatives.  For odd m
    it has order 3 and fixes only (1,1,1): sigma(v) = c*v needs c^3 = 1,
    so c = 1.  O holds the orbit minima in increasing order, (q^2+q)/3 + 1
    of them, and canon[i] is the position in O of the orbit of r_i.  Built
    on first use and cached on ctx as one entry.
    """
    def build():
        x, y, z = projective_representatives(ctx)
        s = projective_keys(ctx, (y, z, x))[1]
        idx = np.arange(s.size)
        o = np.flatnonzero((idx <= s) & (idx <= s[s]))
        canon = np.empty(s.size, dtype=np.uint32)
        for members in (o, s[o], s[s[o]]):
            canon[members] = np.arange(o.size, dtype=np.uint32)
        return s, o, canon

    return ctx._table("orbit_tables", build)


def rotation_steps(s: np.ndarray, k: int, j: int) -> int:
    """The e in 0..2 with S^e[k] = j, for two representatives of one orbit."""
    start = k
    for e in range(3):
        if k == j:
            return e
        k = int(s[k])
    raise FormulaInconsistent(f"representatives {start} and {j} are not in one rotation orbit")


# x^3, then the monomial under each coefficient bit a1..a8.
_MONOMIAL_EXPONENTS = ((3, 0, 0),) + COEFF_EXPONENTS


def _monomial_table(ctx: FieldCtx) -> np.ndarray:
    """Monomial j of _MONOMIAL_EXPONENTS at every orbit minimum r_O[p], as
    row j of a (9, 3, |O|) uint16 array.

    Row [j, i] holds its values at the arguments rotated i times, (x,y,z),
    (y,z,x) and (z,x,y), so F(r) is the XOR of rows 0 (x^3) and of the
    family's set bits.  Built on first use and cached on ctx; two threads
    racing on a cold entry build equal arrays.
    """
    def build():
        o = orbit_tables(ctx)[1]
        r = [a[o] for a in projective_representatives(ctx)]
        return np.array([[_monomial(ctx, exponents, *r[e:], *r[:e]) for e in range(3)]
                         for exponents in _MONOMIAL_EXPONENTS], dtype=np.uint16)

    return ctx._table("orbit_monomials", build)


def decision_tables(ctx: FieldCtx) -> None:
    """Build every table an odd-m decision at ctx reads, its subfields' too.

    These are the orbit tables and the monomial table (and the field
    tables under them).  A caller that shares ctx between threads builds
    them first, so that no two threads build one table twice.
    """
    for c in (*_subfield_ctxs(ctx.m), ctx):
        _monomial_table(c)


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


ZERO_IMAGE = "zero image"
REPEATED_KEY = "repeated key"


def _orbit_images(ctx: FieldCtx, fam: FamilySpec) -> np.ndarray:
    """F at every orbit minimum r_O[p], as a (3, |O|) uint16 array: the XOR
    of the monomial table's rows for x^3 and the family's set bits, taken
    in place on one copy of the x^3 row."""
    table = _monomial_table(ctx)
    images = table[0].copy()
    for j in np.flatnonzero(fam.coeffs):
        images ^= table[j + 1]
    return images


def projective_images(ctx: FieldCtx, fam: FamilySpec) -> np.ndarray:
    """F at every representative, as a (3, q^2+q+1) uint16 array; column i is F(r_i).

    F is imaged at the orbit minima alone (_orbit_images) and spread over
    each orbit by rotation and homogeneity: sigma^e(r_i) = c * r_S^e[i],
    with c the leading coordinate of sigma^e(r_i), so
    F(r_S^e[i]) = c^-3 * sigma^e(F(r_i)).
    """
    s, o, _ = orbit_tables(ctx)
    u = _orbit_images(ctx, fam)
    r = [a[o] for a in projective_representatives(ctx)]
    out = np.empty((3, s.size), dtype=u.dtype)
    members = o
    for e in range(3):
        lead, _ = _leading(*r[e:], *r[:e])
        out[:, members] = ctx.vmul(ctx.vpow(lead, -3), np.roll(u, -e, axis=0))
        members = s[members]
    return out


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


def projective_obstruction(ctx: FieldCtx, fam: FamilySpec) -> tuple[str, tuple[Triple, ...]] | None:
    """Why F fails to permute GF(2^m)^3 (odd m), or None when it permutes.

    lead and keys are projective_keys of F at the orbit minima r_O[p] (see
    orbit_tables).  F(sigma v) = sigma F(v) gives the rest of the
    representatives: the key of r_S^e[O[p]] is S^e[keys[p]], and F has a
    zero on an orbit only together with its minimum.

    F permutes exactly when no lead is zero and canon[keys] has no repeat.
    By 3-homogeneity F permutes GF(2^m)^3 exactly when it is nonzero on
    the representatives and permutes the projective points, r -> key(r).
    That map commutes with S, so it sends the orbit of r_O[p] onto the
    orbit of keys[p].  Without a repeat among the |O| classes, orbits go
    to orbits one to one.  The fixed point (1,1,1) goes to a fixed point,
    so its image takes the class of (1,1,1), and a 3-orbit sent to that
    class would repeat it; a 3-orbit sent to a 3-orbit is sent one to one,
    S^e[O[p]] -> S^e[keys[p]].  A repeat, conversely, is two
    representatives with proportional images.

    The obstruction is (ZERO_IMAGE, (r,)) for the first representative
    with F(r) = 0, which is the first zero on O; or (REPEATED_KEY, (r, s))
    from the first collision (p, p') of the scan over canon[keys]:
    s = r_O[p'] and r = sigma^e(r_O[p]) as a representative, with e the
    rotation for which S^e[keys[p]] == keys[p'].
    """
    if ctx.m % 2 == 0:
        raise OddDegreeRequired(f"the projective decision needs odd m, got m={ctx.m}")
    lead, keys = projective_keys(ctx, _orbit_images(ctx, fam))
    s, o, canon = orbit_tables(ctx)
    if keys is None:
        return ZERO_IMAGE, (representative(ctx, int(o[np.flatnonzero(lead == 0)[0]])),)
    ok, at, first = _kernels.scan_bijection(canon[keys])
    if ok:
        return None
    r = int(o[first])
    for _ in range(rotation_steps(s, int(keys[first]), int(keys[at]))):
        r = int(s[r])
    return REPEATED_KEY, (representative(ctx, r), representative(ctx, int(o[at])))


# Truth tables of x, y and z over GF(2)^3, point (x, y, z) at bit 4x + 2y + z.
_GF2_X, _GF2_Y, _GF2_Z = 0xF0, 0xCC, 0xAA


def _gf2_component(coeffs: tuple[int, ...], x: int, y: int, z: int) -> int:
    """Truth table of f(x, y, z) over GF(2)^3, from the tables of x, y and z.

    On GF(2) every power u^e with e > 0 is u, so x^3 + a1*y^3 + a2*z^3 is
    linear and the mixed monomials pair off: x^2*y and x*y^2 are both x*y.
    """
    a1, a2, a3, a4, a5, a6, a7, a8 = coeffs
    t = x
    if a1: t ^= y
    if a2: t ^= z
    if a3 ^ a4: t ^= x & y
    if a5 ^ a6: t ^= x & z
    if a7 ^ a8: t ^= y & z
    return t


def permutes_gf2(fam: FamilySpec) -> bool:
    """Whether F permutes GF(2)^3, from the coefficient bits alone.

    A map of GF(2)^3 is a bijection exactly when each of the seven nonzero
    XOR combinations of its three component tables is balanced (four of
    the eight points).
    """
    c = fam.coeffs
    f1 = _gf2_component(c, _GF2_X, _GF2_Y, _GF2_Z)
    f2 = _gf2_component(c, _GF2_Y, _GF2_Z, _GF2_X)
    f3 = _gf2_component(c, _GF2_Z, _GF2_X, _GF2_Y)
    return all(t.bit_count() == 4 for t in (f1, f2, f3, f1 ^ f2, f1 ^ f3, f2 ^ f3, f1 ^ f2 ^ f3))


@lru_cache(maxsize=MAX_DEGREE)
def _subfield_ctxs(m: int) -> tuple[FieldCtx, ...]:
    """GF(2^k) for each proper divisor k > 1 of m, in increasing k.

    Built once per m and shared by every context of that degree: any
    modulus of degree k will do, since F has 0/1 coefficients and so
    commutes with the isomorphism between two models of GF(2^k).
    """
    return tuple(FieldCtx(k) for k in range(2, m) if m % k == 0)


def fails_on_subfield(ctx: FieldCtx, fam: FamilySpec) -> bool:
    """True when F fails to permute GF(2^k)^3 for some proper divisor k of m.

    F has 0/1 coefficients, so it maps GF(2^k)^3 into itself for every
    k | m; a permutation of GF(2^m)^3 is injective there, so it permutes
    GF(2^k)^3 too.  GF(2) is decided from the coefficient bits
    (permutes_gf2), each larger proper subfield by the witness-free
    decision there.
    """
    if not permutes_gf2(fam):
        return True
    return any(not is_permutation(sub, fam, witness=False).is_permutation
               for sub in _subfield_ctxs(ctx.m))


def is_permutation(ctx: FieldCtx, fam: FamilySpec, *, witness: bool = True) -> PermReport:
    """Decide whether F permutes GF(2^m)^3.

    Odd m is decided first on the proper subfields (fails_on_subfield:
    GF(2) from the coefficient bits, then GF(2^k) for each proper divisor
    k > 1 of m), and only then on the projective representatives.  A positive report
    counts all 2^3m points; a negative with `witness` re-runs the full
    scan for the lexicographically first collision, and one without
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
    if not fails_on_subfield(ctx, fam) and projective_obstruction(ctx, fam) is None:
        return PermReport(fam.bitstring(), ctx.m, True, 1 << (3 * ctx.m))
    if not witness:
        return PermReport(fam.bitstring(), ctx.m, False, ctx.q * ctx.q + ctx.q + 1)
    report = full_scan(ctx, fam)
    if report.is_permutation:
        raise FormulaInconsistent(
            f"family {fam.bitstring()} at m={ctx.m}: subfield or projective decision"
            " and full scan disagree")
    return report


def difference_check(ctx: FieldCtx, fam: FamilySpec) -> bool:
    """True iff F(v + s) != F(v) for every v and every nonzero shift s."""
    if ctx.m > DIFFERENCE_CHECK_MAX_M:
        raise DomainTooLarge(f"m={ctx.m} > {DIFFERENCE_CHECK_MAX_M} for the pairwise check")
    q, m = ctx.q, ctx.m
    images = family_images(ctx, fam).reshape(q, q, q)
    idx = np.arange(q)
    for shift in range(1, q * q * q):
        sa, sb, sc = _unpack(ctx, shift)
        moved = images[np.ix_(idx ^ sa, idx ^ sb, idx ^ sc)]
        if (moved == images).any():
            return False
    return True


# ---------------------------------------------------------------------------
# zero count of the reduced difference form D(Y, Z)
# ---------------------------------------------------------------------------

_T_IDX = VARS.index("t")
_Y_IDX = VARS.index("Y")
_Z_IDX = VARS.index("Z")


def count_zeros_D(ctx: FieldCtx, t: int) -> int:
    """Number of (Y, Z) pairs with D(Y, Z) = 0, for one parameter t.

    D is taken from its symbolic form and never has a mixed Y*Z term,
    so the grid evaluation splits into a Y-profile and a Z-profile.
    """
    if ctx.m > IS_PERMUTATION_MAX_M:
        raise DomainTooLarge(f"m={ctx.m} > {IS_PERMUTATION_MAX_M} for the q x q grid")
    q = ctx.q
    vec = np.arange(q)
    u = np.zeros(q, dtype=np.uint16)
    v = np.zeros(q, dtype=np.uint16)
    for term in D_POLY.terms:
        e_y, e_z = term[_Y_IDX], term[_Z_IDX]
        if e_y and e_z:
            raise FormulaInconsistent("D(Y,Z) has a mixed Y*Z term; it must be Y/Z-separable")
        scale = ctx.pow(t, term[_T_IDX])
        if e_y:
            u ^= ctx.vmul(scale, ctx.vpow(vec, e_y))
        elif e_z:
            v ^= ctx.vmul(scale, ctx.vpow(vec, e_z))
        else:
            v ^= scale
    return int(np.count_nonzero((u[:, None] ^ v[None, :]) == 0))
