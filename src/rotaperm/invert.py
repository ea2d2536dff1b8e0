"""Inverters for the five named families.

T3, T4, T5 have explicit closed forms from their solvability analyses;
T1 goes through the cubic resolvent in Y = y^3 after the shearing map
phi(u,v,w) = (v+w, u+w, u+v+w); T2 has no constructive inverse and is
served from a projective inverse table: 3-homogeneity, F(lam*v) =
lam^3 * F(v), leaves one entry per projective representative, q^2+q+1
in all, and a cube root rescales the entry to the target.  Those
entries are admitted by field.admit's one table budget of 2^24 entries,
so the table serves odd m up to 11 and refuses m = 13; the closed forms
and the resolvent need no such table.

Every preimage, from a closed form, the resolvent or the table, is
re-evaluated through the forward map before being returned: a mismatch
raises FormulaInconsistent instead of handing back a silently wrong point.
Fractional powers like (a+b)^(4/3) mean cube_root composed with integer
powers (exponent arithmetic mod 2^m - 1 throughout).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    FormulaInconsistent,
    MultiplePreimages,
    NoPreimage,
    NotAPermutation,
)
from .family import FamilySpec, eval_F, family_from_coeffs, named_family
from .field import FieldCtx, Triple, admit
from .permcheck import projective_images, projective_keys, representative, representative_index
from .resolvent import resolvent_coeffs


def _checked(ctx: FieldCtx, fam: FamilySpec, target: Triple, preimage: Triple) -> Triple:
    if eval_F(ctx, fam, preimage) != target:
        raise FormulaInconsistent(
            f"{fam.name or fam.bitstring()} preimage {preimage} does not map back to {target}"
        )
    return preimage


def invert_T3(ctx: FieldCtx, target: Triple) -> Triple:
    """Preimage under the T3 family (x^3 + y*z^2 + y^2*z rotation)."""
    a, b, c = target
    cbrt, mul, div = ctx.cube_root, ctx.mul, ctx.div
    d = cbrt(a ^ b ^ c)
    if b == c:
        e = cbrt(a ^ b)
        pre = (d, d ^ e, d ^ e)
    else:
        # W^3 = (a+b)(b+c)^3 / ((a+c)^3 + (b+c)^3); the denominator and
        # a+b vanish together (exactly when a = b), so use the form with
        # the common factor cancelled, which is total for b != c.
        u, v = a ^ c, b ^ c
        quad = mul(u, u) ^ mul(u, v) ^ mul(v, v)
        w = cbrt(div(ctx.pow(v, 3), quad))
        pre = (d ^ w, d ^ mul(div(u, v), w), d ^ mul(div(a ^ b, v), w))
    return _checked(ctx, named_family("T3"), target, pre)


def invert_T4(ctx: FieldCtx, target: Triple) -> Triple:
    """Preimage under the T4 family (x^3 + y^3 + x^2*y + x^2*z + y*z^2 rotation)."""
    a, b, c = target
    cbrt, mul, div = ctx.cube_root, ctx.mul, ctx.div
    if a == b:
        r, s = cbrt(b), cbrt(b ^ c)
        pre = (r ^ s, r, r ^ s)
    elif b == c:
        r = cbrt(a ^ b)
        pre = (r ^ cbrt(c), r ^ cbrt(c), cbrt(c))
    else:
        ab, ac, bc = a ^ b, a ^ c, b ^ c
        den = ctx.pow(ab, 3) ^ ctx.pow(ac, 3)  # nonzero since b != c
        big_x = div(mul(ab, cbrt(bc)), cbrt(den))
        big_y = mul(div(ac, ab), big_x)
        # w^3 = (b(a+c)^3 + (a+b)^2(c^2+ab)) / ((a+b)^3 + (a+c)^3); the
        # same denominator as X, per (z+X+Y)^3 = a+b+c+(X+Y)^3+X^2*Y.
        num = mul(b, ctx.pow(ac, 3)) ^ mul(ctx.sqr(ab), ctx.sqr(c) ^ mul(a, b))
        w = cbrt(div(num, den))
        pre = (w ^ big_y, w ^ big_x, w ^ big_x ^ big_y)
    return _checked(ctx, named_family("T4"), target, pre)


def invert_T5(ctx: FieldCtx, target: Triple) -> Triple:
    """Preimage under the T5 family (x^3 + x^2*y + x*y^2 + x^2*z + x*z^2 rotation)."""
    a, b, c = target
    cbrt, mul, div = ctx.cube_root, ctx.mul, ctx.div
    if a == c:
        r, s = cbrt(b), cbrt(a ^ b)
        pre = (r ^ s, r, r ^ s)
    elif a == b:
        r = cbrt(a ^ c)
        pre = (r ^ cbrt(c), r ^ cbrt(c), cbrt(c))
    else:
        ab, ac, bc = a ^ b, a ^ c, b ^ c
        den = ctx.pow(ac, 3) ^ ctx.pow(bc, 3)  # nonzero since a != b
        den_cbrt = cbrt(den)
        big_a = div(mul(ac, cbrt(ab)), den_cbrt)
        big_b = mul(div(bc, ac), big_a)
        z = cbrt(div(ctx.pow(a, 4) ^ ctx.pow(b, 4), den) ^ c) \
            ^ div(mul(ab, cbrt(ab)), den_cbrt)
        pre = (big_a ^ z, big_b ^ z, z)
    return _checked(ctx, named_family("T5"), target, pre)


def _rot(p: Triple) -> Triple:
    return (p[1], p[2], p[0])


def _rot2(p: Triple) -> Triple:
    return (p[2], p[0], p[1])


def invert_T1_resolvent(ctx: FieldCtx, target: Triple) -> Triple:
    """Preimage under the T1 family via the sheared system and its resolvent.

    The target w is moved to (a,b,c) = phi(w) and the system
    x^3+y^3 = a, y^3+z^3 = b, xy^2+yz^2+x^2z = c is solved.  The
    degenerate targets (vanishing leading resolvent coefficient) are
    exactly b=0,a=c / a=0,b=c / a=b=c; the middle one is reduced to the
    first through the rotation equivariance F(sigma(v)) = sigma(F(v)).
    """
    w1, w2, w3 = target
    a, b, c = w2 ^ w3, w1 ^ w3, w1 ^ w2 ^ w3
    fam = named_family("T1")
    cbrt = ctx.cube_root
    if a == 0 and b == 0 and c == 0:
        return (0, 0, 0)
    if b == 0 and a == c:
        return _checked(ctx, fam, target, (0, cbrt(a), cbrt(a)))
    if a == b and b == c:
        return _checked(ctx, fam, target, (cbrt(a), 0, cbrt(a)))
    if a == 0 and b == c:
        # phi(sigma(w)) lands in the a=b=c case; pull the answer back.
        return _checked(ctx, fam, target, _rot2(invert_T1_resolvent(ctx, _rot(target))))
    # The numeric cubic A*Y^3 + B*Y^2 + C*Y + D at this target.
    big_a, big_b, big_c, big_d = resolvent_coeffs(ctx, a, b, c)
    if big_a == 0:
        raise NoPreimage(f"degenerate resolvent outside the classified cases at {target}")
    inv_a = ctx.inv(big_a)
    roots = ctx.cubic_roots(ctx.mul(big_b, inv_a), ctx.mul(big_c, inv_a), ctx.mul(big_d, inv_a))
    survivors = []
    for big_y in roots:
        x, y, z = cbrt(a ^ big_y), cbrt(big_y), cbrt(b ^ big_y)
        third = ctx.mul(x, ctx.sqr(y)) ^ ctx.mul(y, ctx.sqr(z)) ^ ctx.mul(ctx.sqr(x), z)
        if third == c:
            survivors.append((x, y, z))
    if not survivors:
        raise NoPreimage(f"no resolvent root survived the third equation at {target}")
    if len(survivors) > 1:
        raise MultiplePreimages(f"{len(survivors)} candidate preimages at {target}")
    return _checked(ctx, fam, target, survivors[0])


# ---------------------------------------------------------------------------
# table-based inversion (the route for T2)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _inverse_table(ctx: FieldCtx, coeffs: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(lead, source) of a permutation F, read-only, over the q^2+q+1
    representatives r_i.

    lead and the keys are permcheck.projective_keys of F at every
    representative (permcheck.projective_images), and source[j] the i
    whose key is j.  Decided from the same keys the table is built from,
    so a non-permutation costs no q^3 scan.  Its q^2+q+1 entries are
    admitted (field.admit) before any is built.
    """
    name = "".join(map(str, coeffs))
    if ctx.m % 2 == 0:
        # A cube root of unity lam != 1 exists, and F(lam*v) = F(v).
        raise NotAPermutation(f"family {name} at m={ctx.m}: no 3-homogeneous map permutes "
                              "GF(2^m)^3 for even m")
    admit(ctx.q * ctx.q + ctx.q + 1, f"the inverse table at m={ctx.m}")
    lead, keys = projective_keys(ctx, projective_images(ctx, family_from_coeffs(coeffs)))
    n = lead.size
    source = np.full(n, n, dtype=np.uint32)
    if keys is not None:
        source[keys] = np.arange(n, dtype=np.uint32)
    # n keys fill all n slots exactly when no key repeats: by
    # 3-homogeneity, exactly when F permutes GF(2^m)^3.
    if keys is None or (source == n).any():
        raise NotAPermutation(f"family {name} at m={ctx.m}")
    for table in (lead, source):
        table.setflags(write=False)
    return lead, source


def invert_table(ctx: FieldCtx, fam: FamilySpec, target: Triple) -> Triple:
    """Preimage by lookup in the cached projective inverse table.

    A target s*r_j (s its leading coordinate) is served by i = source[j],
    with F(r_i) = lead[i] * r_j; so F(lam * r_i) = lam^3 * lead[i] * r_j
    is the target for lam^3 = s / lead[i].
    """
    lead, source = _inverse_table(ctx, fam.coeffs)
    if not any(target):
        return _checked(ctx, fam, target, (0, 0, 0))
    s, j = representative_index(ctx, target)
    i = int(source[j])
    lam = ctx.cube_root(ctx.div(s, int(lead[i])))
    return _checked(ctx, fam, target, tuple(ctx.mul(lam, v) for v in representative(ctx, i)))


# The constructive inverter of each named family that has one, with its
# method label; every other family (T2 included) is inverted by table
# lookup.  The lambdas look each inverter up by name at call time, so
# wrappers rebound over the module's names (perfbench/tracing.py) see
# every call.
_INVERTERS = {
    "T1": ("resolvent", lambda ctx, t: invert_T1_resolvent(ctx, t)),
    "T3": ("closed-form", lambda ctx, t: invert_T3(ctx, t)),
    "T4": ("closed-form", lambda ctx, t: invert_T4(ctx, t)),
    "T5": ("closed-form", lambda ctx, t: invert_T5(ctx, t)),
}


def invert_point(ctx: FieldCtx, fam: FamilySpec, target: Triple,
                 method: str = "auto") -> tuple[Triple, str]:
    """Invert one target; returns (preimage, method label).

    "auto" takes the family's constructive inverter, if any, and "table"
    always the lookup; "closed" and "resolvent" serve only the families
    whose constructive inverter is of that kind.
    """
    label, fn = _INVERTERS.get(fam.name, ("table", None))
    if method == "closed" and label != "closed-form":
        raise ValueError(f"no closed form for {fam.name or fam.bitstring()}")
    if method == "resolvent" and label != "resolvent":
        raise ValueError("the resolvent inverter serves the T1 family")
    if method not in ("auto", "closed", "resolvent", "table"):
        raise ValueError(f"unknown method {method!r}")
    if method == "table" or fn is None:
        return invert_table(ctx, fam, target), "table"
    return fn(ctx, target), label
