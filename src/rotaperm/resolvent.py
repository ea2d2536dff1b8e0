"""The cubic resolvent of the T1 inverter, evaluated numerically.

The three-equation system x^3+y^3 = a, y^3+z^3 = b, xy^2+yz^2+x^2z = c
is reduced by two resultants to a univariate cubic A*Y^3+B*Y^2+C*Y+D in
Y = y^3, whose coefficient blocks A, B, C, D are polynomials in a, b, c.
This module evaluates those blocks at field points, as straight-line
products, for rotaperm.invert (one target at a time) and for
rotaperm.certify (whole arrays of points).  The recorded polynomials,
the system and the blocks the certifier diffs against, live in
rotaperm.certify, so inversion loads no polynomial arithmetic.
"""

from __future__ import annotations

import numpy as np

from .field import FieldCtx


def resolvent_A(ctx: FieldCtx, a, b, c):
    """Evaluate the A block alone, the leading coefficient of the cubic.

    A = a^6 + b^6 + c^6 + a^3 b^3 + ab(a^4 + b^4) + ab(a + b) c^3, in 16
    products where all four blocks take 48; a, b, c are ints or
    equal-shape arrays as in resolvent_coeffs.
    """
    mul = ctx.vmul if isinstance(a, np.ndarray) else ctx.mul
    ab = mul(a, b)
    a2 = mul(a, a); a3 = mul(a2, a)
    b2 = mul(b, b); b3 = mul(b2, b)
    c3 = mul(mul(c, c), c)
    return mul(a3, a3) ^ mul(b3, b3) ^ mul(c3, c3) ^ mul(a3, b3) \
        ^ mul(ab, mul(a2, a2) ^ mul(b2, b2)) ^ mul(mul(ab, a ^ b), c3)


def resolvent_coeffs(ctx: FieldCtx, a, b, c):
    """Evaluate the A, B, C, D blocks at a field point (straight-line form).

    a, b, c are either ints or equal-shape integer arrays of field
    elements.  Ints multiply through ctx.mul and give ints; arrays
    multiply through ctx.vmul and give uint16 arrays of that shape, so
    one call evaluates the blocks at every point of a grid.  A comes from
    resolvent_A, its one formula.
    """
    mul = ctx.vmul if isinstance(a, np.ndarray) else ctx.mul
    a2 = mul(a, a); a3 = mul(a2, a); a4 = mul(a2, a2); a5 = mul(a4, a); a6 = mul(a3, a3)
    b2 = mul(b, b); b3 = mul(b2, b); b4 = mul(b2, b2); b5 = mul(b4, b)
    c3 = mul(mul(c, c), c); c6 = mul(c3, c3); c9 = mul(c6, c3)
    B = mul(a6, b) ^ mul(a4, b3) ^ mul(a4, c3) ^ mul(mul(a3, b), c3) ^ mul(a2, b5) \
        ^ mul(mul(a2, b2), c3) ^ mul(mul(a, b3), c3) ^ mul(a, c6) ^ mul(b4, c3) ^ mul(b, c6)
    C = mul(a6, b2) ^ mul(a5, b3) ^ mul(a4, b4) ^ mul(mul(a3, b2), c3) \
        ^ mul(mul(a2, b3), c3) ^ mul(a2, c6) ^ mul(b2, c6)
    D = mul(a6, b3) ^ mul(mul(a4, b2), c3) ^ mul(mul(a2, b), c6) ^ c9
    return resolvent_A(ctx, a, b, c), B, C, D
