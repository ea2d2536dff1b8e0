"""Slow or symbolic oracles that only the tests read.

Each is kept beside the fast path it checks, outside the package: the
pairwise difference criterion and the D(Y,Z) zero count behind the
character-sum step, the exhaustive beta-trace check, the symbolic
rotatability test with a literal non-rotatable triple, the symbolic map
(f, f o sigma, f o sigma^2) of a family, the homogeneity
degree of a polynomial, the support of a lifted polynomial, the sheared
resolvent system H, the rotation and the Frobenius as index maps on the
projective representatives, the GF(2) bijectivity test from the
coefficient bits, and the evaluation of a polynomial at one point.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

import numpy as np

from rotaperm.certify import NUMERIC_MAX_M
from rotaperm.errors import DomainTooLarge, FormulaInconsistent, RotapermError
from rotaperm.family import COEFF_EXPONENTS, FamilySpec
from rotaperm.field import FieldCtx
from rotaperm.lift import LiftedPoly
from rotaperm.mpoly import VARS, MPoly, parse, substitute
from rotaperm.permcheck import (
    IS_PERMUTATION_MAX_M,
    _unpack,
    family_images,
    representative,
    representative_index,
)
from rotaperm.resolvent import resolvent_coeffs

# ---------------------------------------------------------------------------
# the value of a polynomial at one point
# ---------------------------------------------------------------------------

class MissingAssignment(RotapermError):
    """evaluate() called without a value for some occurring variable."""


def evaluate(p: MPoly, ctx: FieldCtx, assignment: Mapping[str, int]) -> int:
    """Value of p under a full assignment of its occurring variables."""
    needed = {VARS[i] for term in p.terms for i, e in enumerate(term) if e}
    missing = needed - set(assignment)
    if missing:
        raise MissingAssignment(f"no value for {sorted(missing)}")
    values = [assignment.get(name, 0) for name in VARS]
    power_cache: dict[tuple[int, int], int] = {}
    acc = 0
    for term in p.terms:
        prod = 1
        for i, e in enumerate(term):
            if e:
                key = (i, e)
                v = power_cache.get(key)
                if v is None:
                    v = ctx.pow(values[i], e)
                    power_cache[key] = v
                prod = ctx.mul(prod, v)
        acc ^= prod
    return acc


# ---------------------------------------------------------------------------
# the pairwise difference criterion
# ---------------------------------------------------------------------------

DIFFERENCE_CHECK_MAX_M = 3


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

# Normalized two-variable form of the difference resultant (t = b/a).
_T1 = parse("1 + t + t^2")
D_POLY = (
    parse("Y^4")
    + parse("t^2") * _T1 * parse("Y^2")
    + parse("1 + t") * _T1 ** 2 * parse("Y")
    + parse("t^2") * parse("Z^4")
    + _T1 * parse("Z^2")
    + parse("1 + t") * _T1 ** 2 * parse("Z")
    + _T1 ** 3
)

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


# ---------------------------------------------------------------------------
# the beta trace over every point of GF(2^m)^3
# ---------------------------------------------------------------------------

def _cube_grid(ctx: FieldCtx) -> np.ndarray:
    """Every point (a, b, c) of GF(2^m)^3, as three flat uint16 arrays."""
    if ctx.m > NUMERIC_MAX_M:
        raise DomainTooLarge(f"exhaustive (a, b, c) checks capped at m={NUMERIC_MAX_M}")
    return np.indices((ctx.q,) * 3, dtype=np.uint16).reshape(3, -1)


def beta_trace_fallback(ctx: FieldCtx) -> bool:
    """Numeric stand-in for the beta identity: the discriminant fraction
    (AC+B^2)^3 / (A^2 (AD+BC)^2) has trace 0 wherever it is defined."""
    A, B, C, D = resolvent_coeffs(ctx, *_cube_grid(ctx))
    mul, sqr = ctx.vmul, ctx.sqr_table
    den = sqr[mul(A, mul(A, D) ^ mul(B, C))]  # zero exactly where A or AD+BC is
    frac = mul(ctx.cube_table[mul(A, C) ^ sqr[B]], ctx.inv_table[den])
    trace = np.zeros_like(frac)
    for _ in range(ctx.m):
        trace ^= frac
        frac = sqr[frac]
    return not trace[den != 0].any()


# ---------------------------------------------------------------------------
# symbolic structure
# ---------------------------------------------------------------------------

SIGMA = {"x": "y", "y": "z", "z": "x"}


@lru_cache(maxsize=256)
def _symbolic(coeffs: tuple[int, ...]) -> tuple[MPoly, MPoly, MPoly]:
    pad = (0,) * (len(VARS) - 3)
    f = MPoly([(3, 0, 0) + pad] + [e + pad for bit, e in zip(coeffs, COEFF_EXPONENTS) if bit])
    f2 = substitute(f, SIGMA)
    return f, f2, substitute(f2, SIGMA)


def symbolic_map(fam: FamilySpec) -> tuple[MPoly, MPoly, MPoly]:
    """The components (f, f o sigma, f o sigma^2) of F as polynomials over
    GF(2), f built from family.COEFF_EXPONENTS; memoised per vector."""
    return _symbolic(fam.coeffs)


def is_rotatable(components: tuple[MPoly, MPoly, MPoly]) -> bool:
    """True iff component i+1 is component 1 under the i-th rotation."""
    first = components[0]
    rotated = first
    for comp in components:
        if comp != rotated:
            return False
        rotated = substitute(rotated, SIGMA)
    return True


# Literal component triple of a known APN permutation family, kept only
# for cross-checks (it is not a coefficient-vector family).
LI_NIKOLAY_F1 = (
    parse("x^3 + x^2*z + y*z^2"),
    parse("x^2*z + y^3"),
    parse("x*y^2 + y^2*z + z^3"),
)


def homogeneous_degree(p: MPoly) -> int | None:
    """Common total degree of all terms, or None; zero polynomial -> 0."""
    degrees = {sum(term) for term in p.terms}
    if not degrees:
        return 0
    if len(degrees) == 1:
        return degrees.pop()
    return None


def support(p: LiftedPoly) -> tuple[tuple[int, ...], int]:
    """Sorted exponents with nonzero coefficients, and their count."""
    exps = tuple(e for e, _ in p.terms)
    return exps, len(exps)


# Components of the sheared map H = phi . F for the resolvent family.
H_SYSTEM = (parse("x^3 + y^3"), parse("y^3 + z^3"), parse("x*y^2 + y*z^2 + x^2*z"))


# ---------------------------------------------------------------------------
# sigma and phi on the projective representatives
# ---------------------------------------------------------------------------

def _index_map(ctx: FieldCtx, move) -> np.ndarray:
    """i -> the index of move(r_i) among the representatives, one scalar
    representative_index a point."""
    n = ctx.q * ctx.q + ctx.q + 1
    return np.array([representative_index(ctx, move(*representative(ctx, i)))[1]
                     for i in range(n)])


@lru_cache(maxsize=None)
def rotation_map(ctx: FieldCtx) -> np.ndarray:
    """S[i]: the index of sigma(r_i), sigma(x,y,z) = (y,z,x)."""
    return _index_map(ctx, lambda x, y, z: (y, z, x))


@lru_cache(maxsize=None)
def frobenius_map(ctx: FieldCtx) -> np.ndarray:
    """phi[i]: the index of phi(r_i), phi(x,y,z) = (x^2,y^2,z^2)."""
    return _index_map(ctx, lambda x, y, z: (ctx.sqr(x), ctx.sqr(y), ctx.sqr(z)))


# ---------------------------------------------------------------------------
# bijectivity on GF(2)^3 from the coefficient bits
# ---------------------------------------------------------------------------

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
