"""Rotatable cubic families on GF(2^m)^3.

A family is fixed by eight bits (a1..a8) giving

    f(x,y,z) = x^3 + a1*y^3 + a2*z^3 + a3*x^2*y + a4*x*y^2
             + a5*x^2*z + a6*x*z^2 + a7*y*z^2 + a8*y^2*z

and the map F = (f(x,y,z), f(y,z,x), f(z,x,y)), i.e. the second and
third components are the first under the coordinate rotations
sigma(x,y,z) = (y,z,x) and sigma^2.  Coefficient vectors serialize as
8-character bitstrings "a1a2a3a4a5a6a7a8".

Five vectors are singled out by name (T1..T5); these are the families
whose bijectivity this package certifies and inverts.  A name only looks
up its vector: a family is its eight bits, so named_family("T3") and
family_from_coeffs("00000011") are one and the same spec.

A FamilySpec holds its coefficient bits; building one computes nothing
else.  Numeric work (eval_F, the bijectivity decision, inversion) reads
the bits directly.  The bitstring and the row (a1..a8 read as an 8-bit
integer, a1 the high bit, which indexes a permutation mask) are computed
on first use and kept on the spec, so a repeated lookup is O(1).  Nothing
here is symbolic, so the numeric modules (permcheck, invert, lift,
search) load no polynomial arithmetic through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import UnknownName
from .field import FieldCtx, Triple

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


@dataclass(frozen=True)
class FamilySpec:
    """Coefficient bits; the bitstring and row are built on first use."""

    coeffs: tuple[int, ...]

    @cached_property
    def _bits(self) -> str:
        return "".join(str(b) for b in self.coeffs)

    @cached_property
    def row(self) -> int:
        """a1..a8 read as an 8-bit integer, a1 the high bit: the index of
        this vector in all_families() and in a permutation mask."""
        return int(self._bits, 2)

    def bitstring(self) -> str:
        return self._bits


def family_from_coeffs(bits) -> FamilySpec:
    """The family for an 8-bit coefficient vector (a1..a8)."""
    coeffs = tuple(int(b) for b in bits)
    if len(coeffs) != 8 or any(b not in (0, 1) for b in coeffs):
        raise ValueError(f"need 8 bits in {{0,1}}, got {bits!r}")
    return FamilySpec(coeffs)


def named_family(name: str) -> FamilySpec:
    try:
        coeffs = NAMED_COEFFS[name]
    except KeyError:
        raise UnknownName(f"unknown family {name!r}; known: {sorted(NAMED_COEFFS)}") from None
    return family_from_coeffs(coeffs)


@lru_cache(maxsize=1)
def all_families() -> tuple[FamilySpec, ...]:
    """All 256 coefficient vectors, in bitstring order: one tuple, built
    on the first call, so that a verb which never lists them skips it."""
    return tuple(family_from_coeffs(tuple((v >> (7 - i)) & 1 for i in range(8)))
                 for v in range(256))


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
    """Numeric image of a point under F, at any m."""
    x, y, z = point
    return (
        _eval_f(ctx, fam.coeffs, x, y, z),
        _eval_f(ctx, fam.coeffs, y, z, x),
        _eval_f(ctx, fam.coeffs, z, x, y),
    )
