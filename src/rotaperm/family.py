"""Rotatable cubic families on GF(2^m)^3.

A family is fixed by eight bits (a1..a8) giving

    f(x,y,z) = x^3 + a1*y^3 + a2*z^3 + a3*x^2*y + a4*x*y^2
             + a5*x^2*z + a6*x*z^2 + a7*y*z^2 + a8*y^2*z

and the map F = (f(x,y,z), f(y,z,x), f(z,x,y)), i.e. the second and
third components are the first under the coordinate rotations
sigma(x,y,z) = (y,z,x) and sigma^2.  Coefficient vectors serialize as
8-character bitstrings "a1a2a3a4a5a6a7a8".

Five vectors are singled out by name (T1..T5); these are the families
whose bijectivity this package certifies and inverts.

A FamilySpec holds only its coefficient bits.  Numeric work (eval_F,
the bijectivity decision, inversion) reads the bits directly; the
symbolic f and F are built on first use and memoised per vector.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .errors import UnknownName
from .field import FieldCtx, Triple
from .mpoly import VARS, MPoly, parse, substitute

SIGMA = {"x": "y", "y": "z", "z": "x"}

# (x, y, z) exponents of the monomial multiplied by each coefficient bit, in
# a1..a8 order: y^3, z^3, x^2*y, x*y^2, x^2*z, x*z^2, y*z^2, y^2*z.
COEFF_EXPONENTS = ((0, 3, 0), (0, 0, 3), (2, 1, 0), (1, 2, 0),
                   (2, 0, 1), (1, 0, 2), (0, 1, 2), (0, 2, 1))

NAMED_COEFFS: dict[str, tuple[int, ...]] = {
    "T1": (1, 0, 0, 1, 1, 0, 1, 0),  # x^3 + y^3 + x*y^2 + x^2*z + y*z^2
    "T2": (0, 0, 1, 1, 1, 0, 1, 0),  # x^3 + x^2*y + x*y^2 + x^2*z + y*z^2
    "T3": (0, 0, 0, 0, 0, 0, 1, 1),  # x^3 + y*z^2 + y^2*z
    "T4": (1, 0, 1, 0, 1, 0, 1, 0),  # x^3 + y^3 + x^2*y + x^2*z + y*z^2
    "T5": (0, 0, 1, 1, 1, 1, 0, 0),  # x^3 + x^2*y + x*y^2 + x^2*z + x*z^2
}


@lru_cache(maxsize=256)
def _symbolic(coeffs: tuple[int, ...]) -> tuple[MPoly, MPoly, MPoly]:
    """The components (f, f o sigma, f o sigma^2) of one coefficient vector."""
    pad = (0,) * (len(VARS) - 3)
    f = MPoly([(3, 0, 0) + pad] + [e + pad for bit, e in zip(coeffs, COEFF_EXPONENTS) if bit])
    f2 = substitute(f, SIGMA)
    f3 = substitute(f2, SIGMA)
    return f, f2, f3


@dataclass(frozen=True)
class FamilySpec:
    """Coefficient bits; the symbolic map is built on first use."""

    coeffs: tuple[int, ...]
    name: str | None = dc_field(default=None, compare=False)

    @property
    def f(self) -> MPoly:
        return _symbolic(self.coeffs)[0]

    @property
    def F(self) -> tuple[MPoly, MPoly, MPoly]:
        return _symbolic(self.coeffs)

    def bitstring(self) -> str:
        return "".join(str(b) for b in self.coeffs)


def family_from_coeffs(bits, name: str | None = None) -> FamilySpec:
    """The family for an 8-bit coefficient vector (a1..a8); nothing symbolic is built."""
    coeffs = tuple(int(b) for b in bits)
    if len(coeffs) != 8 or any(b not in (0, 1) for b in coeffs):
        raise ValueError(f"need 8 bits in {{0,1}}, got {bits!r}")
    return FamilySpec(coeffs=coeffs, name=name)


def named_family(name: str) -> FamilySpec:
    try:
        coeffs = NAMED_COEFFS[name]
    except KeyError:
        raise UnknownName(f"unknown family {name!r}; known: {sorted(NAMED_COEFFS)}") from None
    return family_from_coeffs(coeffs, name=name)


def all_families():
    """All 256 coefficient vectors, in bitstring order."""
    for v in range(256):
        yield family_from_coeffs(tuple((v >> (7 - i)) & 1 for i in range(8)))


def _eval_f(ctx: FieldCtx, coeffs: tuple[int, ...], x: int, y: int, z: int) -> int:
    mul = ctx.mul
    x2 = mul(x, x); y2 = mul(y, y); z2 = mul(z, z)
    acc = mul(x2, x)
    a1, a2, a3, a4, a5, a6, a7, a8 = coeffs
    if a1: acc ^= mul(y2, y)
    if a2: acc ^= mul(z2, z)
    if a3: acc ^= mul(x2, y)
    if a4: acc ^= mul(x, y2)
    if a5: acc ^= mul(x2, z)
    if a6: acc ^= mul(x, z2)
    if a7: acc ^= mul(y, z2)
    if a8: acc ^= mul(y2, z)
    return acc


def eval_F(ctx: FieldCtx, fam: FamilySpec, point: Triple) -> Triple:
    """Numeric image of a point under F (warns for even m, still evaluates)."""
    if ctx.m % 2 == 0:
        warnings.warn(f"m={ctx.m} is even: F cannot be a permutation there", stacklevel=2)
    x, y, z = point
    return (
        _eval_f(ctx, fam.coeffs, x, y, z),
        _eval_f(ctx, fam.coeffs, y, z, x),
        _eval_f(ctx, fam.coeffs, z, x, y),
    )


def is_rotatable(components: tuple[MPoly, MPoly, MPoly]) -> bool:
    """True iff component i+1 is component 1 under the i-th rotation."""
    first = components[0]
    rotated = first
    for comp in components:
        if comp != rotated:
            return False
        rotated = substitute(rotated, SIGMA)
    return True


# Literal component triples of the two known APN permutation families,
# kept only for cross-checks (they are not coefficient-vector families).
LI_NIKOLAY_F1 = (
    parse("x^3 + x^2*z + y*z^2"),
    parse("x^2*z + y^3"),
    parse("x*y^2 + y^2*z + z^3"),
)
LI_NIKOLAY_F2 = (
    parse("x^3 + x*y^2 + y*z^2"),
    parse("x*y^2 + z^3"),
    parse("x^2*z + y^3 + y^2*z"),
)
