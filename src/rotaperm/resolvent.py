"""Elimination system behind the resolvent-based inverter and the certifier.

The three-equation system x^3+y^3 = a, y^3+z^3 = b, xy^2+yz^2+x^2z = c
is reduced by two resultants to a univariate cubic A*Y^3+B*Y^2+C*Y+D in
Y = y^3.  This module holds that system, the expected expansions of the
two resultants, the A/B/C/D coefficient blocks with their product
factorizations, the discriminant-trace witness beta, and the
difference-system polynomials (Q1, Q2 and their resultant) used by the
character-sum verification.

Everything here is a fixed constant of the ring F2[x,y,z,a,b,c,t,Y,Z];
the certifier recomputes each derived object from its definition and
diffs it against the expansion recorded below.
"""

from __future__ import annotations

import numpy as np

from .field import FieldCtx
from .mpoly import MPoly, parse

# -- the inversion system (after the shearing map phi) ----------------------

P1 = parse("x^3 + y^3 + a")
P2 = parse("y^3 + z^3 + b")
P3 = parse("x*y^2 + y*z^2 + x^2*z + c")

# Expected first elimination: Res_x(P1, P3).
G_EXPANDED = parse(
    "y^9 + y^6*a + y^5*z*c + y^3*z^6 + y^3*z^3*a + y^2*z^4*c"
    " + y^2*z*a*c + y*z^2*c^2 + z^3*a^2 + c^3"
)

# Expected second elimination Res_z(g, P2), block by block: the cubic
# resolvent coefficients in Y = y^3.
A_BLOCK = parse("a^6 + a^5*b + a^3*b^3 + a^2*b*c^3 + a*b^5 + a*b^2*c^3 + b^6 + c^6")
B_BLOCK = parse(
    "a^6*b + a^4*b^3 + a^4*c^3 + a^3*b*c^3 + a^2*b^5 + a^2*b^2*c^3"
    " + a*b^3*c^3 + a*c^6 + b^4*c^3 + b*c^6"
)
C_BLOCK = parse("a^6*b^2 + a^5*b^3 + a^4*b^4 + a^3*b^2*c^3 + a^2*b^3*c^3 + a^2*c^6 + b^2*c^6")
D_BLOCK = parse("a^6*b^3 + a^4*b^2*c^3 + a^2*b*c^6 + c^9")

_Y9 = parse("y^9")
_Y6 = parse("y^6")
_Y3 = parse("y^3")
H_EXPANDED = A_BLOCK * _Y9 + B_BLOCK * _Y6 + C_BLOCK * _Y3 + D_BLOCK

# Product shapes of the three coefficient combinations that drive the
# case analysis of the inverter.
A_FACTORS = (
    parse("a^2 + a*b + b^2 + b*c + c^2"),
    parse("a^2 + a*b + a*c + b^2 + c^2"),
    parse("a^2 + a*b + a*c + b^2 + b*c + c^2"),
)
AD_BC_FACTORS = (
    parse("c^3"),
    parse("a*b^2 + c^3"),
    parse("a^2*b + b^3 + c^3"),
    parse("a^2*b + a*b^2 + c^3"),
    parse("a^3 + a^2*b + c^3"),
)
AC_B2_FACTORS = (
    parse("a"),
    parse("b"),
    parse("c^3"),
    parse("a + b"),
    parse("a^2 + a*b + b^2"),
    parse("a^2*b + a*b^2 + c^3"),
    parse("a^3 + a*b^2 + b^3 + c^3"),
)


def product(factors) -> MPoly:
    acc = None
    for f in factors:
        acc = f if acc is None else acc * f
    return acc


# Root of beta^2 + A(AD+BC)*beta = (AC+B^2)^3, as recorded in product form.
BETA = product(
    (
        parse("a^3"),
        parse("b^3"),
        parse("c^3"),
        parse("a + b") ** 3,
        parse("a^2 + a*b + b^2") ** 3,
        parse("a^2*b + a*b^2 + c^3"),
    )
)

# Recorded expansions of K1 = (AC+B^2)^3 and K2 = A(AD+BC).  These are
# informational reference copies; the certifier always recomputes both
# sides from A, B, C, D and only diffs against these.
K1_EXPANDED = parse(
    "a^27*b^6*c^9 + a^26*b^7*c^9 + a^25*b^5*c^12 + a^24*b^6*c^12 + a^23*b^7*c^12"
    " + a^23*b^4*c^15 + a^22*b^11*c^9"
    " + a^22*b^8*c^12 + a^21*b^3*c^18 + a^20*b^10*c^12 + a^20*b^7*c^15 + a^20*b^4*c^18"
    " + a^19*b^14*c^9 + a^19*b^11*c^12"
    " + a^19*b^5*c^18 + a^18*b^15*c^9 + a^18*b^12*c^12 + a^18*b^9*c^15 + a^18*b^6*c^18"
    " + a^18*b^3*c^21 + a^17*b^16*c^9"
    " + a^17*b^10*c^15 + a^17*b^7*c^18 + a^17*b^4*c^21 + a^16*b^17*c^9 + a^16*b^11*c^15"
    " + a^15*b^18*c^9 + a^15*b^15*c^12"
    " + a^15*b^3*c^24 + a^14*b^16*c^12 + a^14*b^7*c^21 + a^14*b^4*c^24 + a^13*b^20*c^9"
    " + a^13*b^17*c^12 + a^13*b^8*c^21"
    " + a^12*b^12*c^18 + a^12*b^9*c^21 + a^12*b^3*c^27 + a^11*b^22*c^9 + a^11*b^16*c^15"
    " + a^11*b^10*c^21 + a^11*b^7*c^24"
    " + a^10*b^20*c^12 + a^10*b^11*c^21 + a^9*b^21*c^12 + a^9*b^12*c^21 + a^9*b^6*c^27"
    " + a^8*b^25*c^9 + a^8*b^19*c^15"
    " + a^8*b^16*c^18 + a^8*b^13*c^21 + a^8*b^10*c^24 + a^7*b^23*c^12 + a^7*b^17*c^18"
    " + a^7*b^14*c^21 + a^6*b^27*c^9"
    " + a^6*b^21*c^15 + a^6*b^9*c^27 + a^5*b^25*c^12 + a^5*b^22*c^15 + a^5*b^19*c^18"
    " + a^5*b^13*c^24 + a^4*b^23*c^15"
    " + a^4*b^17*c^21 + a^3*b^21*c^18 + a^3*b^18*c^21 + a^3*b^15*c^24 + a^3*b^12*c^27"
)
K2_EXPANDED = parse(
    "a^14*b^4*c^3 + a^13*b^5*c^3 + a^13*b^2*c^6 + a^12*b^3*c^6 + a^11*b^7*c^3"
    " + a^10*b^8*c^3 + a^10*b^5*c^6 + a^10*b^2*c^9"
    " + a^9*b^6*c^6 + a^9*c^12 + a^8*b^10*c^3 + a^8*b^7*c^6 + a^8*b^4*c^9 + a^7*b^11*c^3"
    " + a^7*b^8*c^6 + a^6*b^6*c^9"
    " + a^6*b^3*c^12 + a^6*c^15 + a^5*b^13*c^3 + a^5*b^10*c^6 + a^5*b^4*c^12 + a^4*b^14*c^3"
    " + a^4*b^5*c^12 + a^4*b^2*c^15"
    " + a^3*b^6*c^12 + a^3*c^18 + a^2*b^13*c^6 + a^2*b^10*c^9 + a*b^8*c^12 + a*b^2*c^18"
    " + b^9*c^12 + b^6*c^15 + b^3*c^18"
    " + c^21"
)

# -- difference system of the second resultant-proved family ----------------

Q1 = parse("a*x^2 + b*x^2 + b^2*x + a^2*y + b*z^2 + a^2*z + b^2*z + a^3 + b^3")
Q2 = parse("a*x^2 + b*x^2 + a^2*x + a*y^2 + a^2*y + b^2*y + b^2*z + a^3 + a^2*b + a*b^2")

_S = parse("a^2 + a*b + b^2")
EQ16_EXPANDED = parse("a + b") ** 2 * (
    parse("a^2") * parse("y^4")
    + parse("b^2") * _S * parse("y^2")
    + parse("a + b") * _S ** 2 * parse("y")
    + parse("b^2") * parse("z^4")
    + parse("a^2") * _S * parse("z^2")
    + parse("a + b") * _S ** 2 * parse("z")
    + _S ** 3
)


# -- numeric evaluation of the cubic coefficients ---------------------------

def resolvent_A(ctx: FieldCtx, a, b, c):
    """Evaluate the A block alone, the leading coefficient of the cubic.

    A = a^6 + b^6 + c^6 + a^3 b^3 + ab(a^4 + b^4) + ab(a + b) c^3, the
    eight terms of resolvent_coeffs' A paired up, in 16 products where
    all four blocks take 48; a, b, c are ints or equal-shape arrays as
    there.
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
    one call evaluates the blocks at every point of a grid.
    """
    mul = ctx.vmul if isinstance(a, np.ndarray) else ctx.mul
    a2 = mul(a, a); a3 = mul(a2, a); a4 = mul(a2, a2); a5 = mul(a4, a); a6 = mul(a3, a3)
    b2 = mul(b, b); b3 = mul(b2, b); b4 = mul(b2, b2); b5 = mul(b4, b); b6 = mul(b3, b3)
    c3 = mul(mul(c, c), c); c6 = mul(c3, c3); c9 = mul(c6, c3)
    A = a6 ^ mul(a5, b) ^ mul(a3, b3) ^ mul(mul(a2, b), c3) ^ mul(a, b5) \
        ^ mul(mul(a, b2), c3) ^ b6 ^ c6
    B = mul(a6, b) ^ mul(a4, b3) ^ mul(a4, c3) ^ mul(mul(a3, b), c3) ^ mul(a2, b5) \
        ^ mul(mul(a2, b2), c3) ^ mul(mul(a, b3), c3) ^ mul(a, c6) ^ mul(b4, c3) ^ mul(b, c6)
    C = mul(a6, b2) ^ mul(a5, b3) ^ mul(a4, b4) ^ mul(mul(a3, b2), c3) \
        ^ mul(mul(a2, b3), c3) ^ mul(a2, c6) ^ mul(b2, c6)
    D = mul(a6, b3) ^ mul(mul(a4, b2), c3) ^ mul(mul(a2, b), c6) ^ c9
    return A, B, C, D
