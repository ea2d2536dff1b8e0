"""Bijectivity decisions over GF(2^m)^3.

Points pack into ints as (x << 2m) | (y << m) | z, so the domain is
enumerated in lexicographic (x, y, z) order and image membership is a
flat table lookup.

For odd m the decision is projective.  Every family is 3-homogeneous,
F(lam*v) = lam^3 * F(v), and lam -> lam^3 permutes GF(2^m)^* when m is
odd, so F permutes GF(2^m)^3 exactly when F(r) != 0 on the q^2+q+1
representatives r in {(1,y,z)} u {(0,1,z)} u {(0,0,1)} and their images,
each scaled by the inverse of its leading nonzero coordinate, are pairwise
distinct.  F's images there are XORs of per-degree monomial columns: the
values of x^3 and of each a1..a8 monomial at every representative under
the three rotated arguments, built once per field context on first use
and shared by all 256 families.

The full scan over all q^3 images remains for even m, for the
lexicographically first collision reported as the witness of a negative,
and (through family_images) for the inverse and lift tables.  Its images
are built in blocks of x-slabs, for every m, from numpy gathers into
three q x q pair tables plus the cube table.

Caps: is_permutation and count_zeros_D refuse m > 9 (the 2^27 image table
and the q x q product table are the ceiling) and the pairwise difference
check refuses m > 3 (2^6m pairs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainTooLarge, FormulaInconsistent, OddDegreeRequired
from .family import COEFF_EXPONENTS, FamilySpec
from .field import FieldCtx, Triple
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


def _pair_tables(ctx: FieldCtx, coeffs: tuple[int, ...]):
    """Tables P_xy, P_xz, P_yz with f(x,y,z) = x^3 ^ P_xy[x,y] ^ P_xz[x,z] ^ P_yz[y,z]."""
    mt = ctx.mul_table
    sq = ctx.sqr_table
    cube = ctx.cube_table
    q = ctx.q
    a1, a2, a3, a4, a5, a6, a7, a8 = coeffs
    zero2 = np.zeros((q, q), dtype=mt.dtype)
    idx = np.arange(q)

    p_xy = zero2.copy()
    if a3: p_xy ^= mt[sq[:, None], idx[None, :]]
    if a4: p_xy ^= mt[idx[:, None], sq[None, :]]
    p_xz = zero2.copy()
    if a5: p_xz ^= mt[sq[:, None], idx[None, :]]
    if a6: p_xz ^= mt[idx[:, None], sq[None, :]]
    p_yz = zero2.copy()
    if a1: p_yz ^= cube[:, None]
    if a2: p_yz ^= cube[None, :]
    if a7: p_yz ^= mt[idx[:, None], sq[None, :]]
    if a8: p_yz ^= mt[sq[:, None], idx[None, :]]
    return cube, p_xy, p_xz, p_yz


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


# x^3, then the monomial under each coefficient bit a1..a8.
_MONOMIAL_EXPONENTS = ((3, 0, 0),) + COEFF_EXPONENTS


def _monomial_column(ctx: FieldCtx, j: int) -> np.ndarray:
    """Monomial j of _MONOMIAL_EXPONENTS at every projective representative.

    Row i holds its values at the arguments rotated i times, (x,y,z),
    (y,z,x) and (z,x,y), so F(r) is the XOR of the columns of x^3 and of
    the family's set bits.  Built on first use and cached on ctx; two
    threads racing on a cold entry build equal arrays.
    """
    key = f"proj_col{j}"
    col = ctx._np_cache.get(key)
    if col is None:
        q = ctx.q
        products = ctx.mul_table.reshape(-1)
        powers = (None, np.arange(q), ctx.sqr_table, ctx.cube_table)
        x, y, z = projective_representatives(ctx)

        def mono(*args):
            value = None
            for e, v in zip(_MONOMIAL_EXPONENTS[j], args):
                if e:
                    p = powers[e][v]
                    value = p if value is None else products[value.astype(np.intp) * q + p]
            return value

        col = np.stack([mono(x, y, z), mono(y, z, x), mono(z, x, y)]).astype(np.uint16)
        ctx._np_cache[key] = col
    return col


def _representative(ctx: FieldCtx, i: int) -> Triple:
    """Entry i of projective_representatives, without building the arrays."""
    qq = ctx.q * ctx.q
    if i < qq:
        return 1, i >> ctx.m, i & ctx.mask
    if i < qq + ctx.q:
        return 0, 1, i - qq
    return 0, 0, 1


ZERO_IMAGE = "zero image"
REPEATED_KEY = "repeated key"


def projective_obstruction(ctx: FieldCtx, fam: FamilySpec) -> tuple[str, tuple[Triple, ...]] | None:
    """Why F fails to permute GF(2^m)^3 (odd m), or None when it permutes.

    Decided on the q^2+q+1 projective representatives alone: either
    (ZERO_IMAGE, (r,)) for the first representative with F(r) = 0, or
    (REPEATED_KEY, (r, s)) for the first pair whose images agree once
    each is scaled by the inverse of its leading nonzero coordinate.
    """
    if ctx.m % 2 == 0:
        raise OddDegreeRequired(f"the projective decision needs odd m, got m={ctx.m}")
    m = ctx.m
    u = _monomial_column(ctx, 0).copy()
    for j, bit in enumerate(fam.coeffs, start=1):
        if bit:
            u ^= _monomial_column(ctx, j)
    u1, u2, u3 = u
    lead = np.where(u1 != 0, u1, np.where(u2 != 0, u2, u3))
    zero = np.flatnonzero(lead == 0)
    if zero.size:
        return ZERO_IMAGE, (_representative(ctx, int(zero[0])),)
    products = ctx.mul_table.reshape(-1)
    row = ctx.inv_table[lead].astype(np.intp) * ctx.q
    keys = ((products[row + u1].astype(np.uint32) << (2 * m))
            | (products[row + u2].astype(np.uint32) << m)
            | products[row + u3])
    ok, at, first = _kernels.scan_bijection(keys)
    if ok:
        return None
    return REPEATED_KEY, (_representative(ctx, first), _representative(ctx, at))


def is_permutation(ctx: FieldCtx, fam: FamilySpec, *, witness: bool = True) -> PermReport:
    """Decide whether F permutes GF(2^m)^3.

    Odd m is decided on the projective representatives.  A positive
    report counts all 2^3m points; a negative with `witness` re-runs the
    full scan for the lexicographically first collision, and one without
    reports only the q^2+q+1 representatives.  Even m always takes the
    full scan.
    """
    if ctx.m > IS_PERMUTATION_MAX_M:
        raise DomainTooLarge(f"m={ctx.m} > {IS_PERMUTATION_MAX_M} for the image table")
    if ctx.m % 2 == 0:
        return full_scan(ctx, fam)
    if projective_obstruction(ctx, fam) is None:
        return PermReport(fam.bitstring(), ctx.m, True, 1 << (3 * ctx.m))
    if not witness:
        return PermReport(fam.bitstring(), ctx.m, False, ctx.q * ctx.q + ctx.q + 1)
    report = full_scan(ctx, fam)
    if report.is_permutation:
        raise FormulaInconsistent(
            f"family {fam.bitstring()} at m={ctx.m}: projective decision and full scan disagree")
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
    mt = ctx.mul_table
    vec = np.arange(q)
    u = np.zeros(q, dtype=mt.dtype)
    v = np.zeros(q, dtype=mt.dtype)
    for term in D_POLY.terms:
        e_y, e_z = term[_Y_IDX], term[_Z_IDX]
        if e_y and e_z:
            raise FormulaInconsistent("D(Y,Z) has a mixed Y*Z term; it must be Y/Z-separable")
        scale = ctx.pow(t, term[_T_IDX])
        if e_y:
            u ^= mt[scale, ctx.vpow(vec, e_y)]
        elif e_z:
            v ^= mt[scale, ctx.vpow(vec, e_z)]
        else:
            v ^= np.full(q, scale, dtype=mt.dtype)
    return int(np.count_nonzero((u[:, None] ^ v[None, :]) == 0))
