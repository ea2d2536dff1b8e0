"""Lifting permutations of GF(2^m)^3 to polynomials over GF(2^3m).

The cubic extension is built directly over the base field, so the basis
{1, w, w^2} (w = the residue class of the extension variable) is
available by construction: an extension element x + y*w + z*w^2 packs
into an int as x | y<<m | z<<2m, and the lift of a coordinate map is
literally "unpack, apply, repack".

A lifted family becomes the unique reduced polynomial of degree < 2^3m,
F'(X) = sum_t F'(t) (1 - (X-t)^(2^3m-1)).  The lift is 3-homogeneous
over the base field, F'(l*t) = l^3 F'(t) for l in GF(2^m)*, so the
coefficient of X^k vanishes unless k = 3 (mod q-1) and is otherwise a
sum over the q^2+q+1 coset representatives of GF(2^3m)*/GF(2^m)* alone.
The families are quadratic, so their lifts are Dembowski-Ostrom
polynomials of at most nine terms, and only those nine sums are
computed, from F at the representatives; see lift_permutation.

Quasi-multiplicative equivalence F = a*G(c*X^d) is decided by trying
the d coprime to 2^3m - 1 that send G's first exponent into supp(F),
matching supports, and recovering c from coefficient ratios through the
log table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainTooLarge, FormulaInconsistent, ReducibleModulus
from .family import FamilySpec
from .field import FieldCtx, Triple, find_generator, shared_field
from .permcheck import projective_images, projective_representatives

LIFT_MAX_BASE_M = 5  # the 2^3m-entry exp and log tables are the ceiling


def check_base_degree(m: int) -> None:
    """Refuse a base degree above LIFT_MAX_BASE_M with DomainTooLarge."""
    if m > LIFT_MAX_BASE_M:
        raise DomainTooLarge(f"log tables capped at base m={LIFT_MAX_BASE_M}")


class ExtCtx:
    """GF(2^3m) as a cubic extension of a base GF(2^m) context.

    Without an explicit cubic it takes the first rootless monic cubic of
    a deterministic scan.
    """

    def __init__(self, base: FieldCtx, cubic: tuple[int, int, int] | None = None) -> None:
        self.base = base
        m = base.m
        if cubic is None:
            cubic = self._first_rootless_cubic(base)
        else:
            if self._has_root(base, cubic):
                raise ReducibleModulus(f"cubic with coefficients {cubic} has a base-field root")
        self.cubic = cubic  # (alpha, beta, gamma) of u^3 + alpha*u^2 + beta*u + gamma
        self.m = m
        self.size = 1 << (3 * m)
        self.group = self.size - 1
        self.omega = 1 << m
        alpha, beta, gamma = cubic
        # w^3 = alpha*w^2 + beta*w + gamma; w^4 = w * w^3 re-reduced.
        self._red3 = (gamma, beta, alpha)
        self._red4 = (
            base.mul(alpha, gamma),
            base.mul(alpha, beta) ^ gamma,
            base.mul(alpha, alpha) ^ beta,
        )
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self.generator: int | None = None

    @staticmethod
    def _has_root(base: FieldCtx, cubic: tuple[int, int, int]) -> bool:
        alpha, beta, gamma = cubic
        for u in base.elements():
            acc = base.mul(base.mul(u ^ alpha, u) ^ beta, u) ^ gamma
            if acc == 0:
                return True
        return False

    @classmethod
    def _first_rootless_cubic(cls, base: FieldCtx) -> tuple[int, int, int]:
        for alpha in base.elements():
            for beta in base.elements():
                for gamma in base.elements():
                    if gamma == 0:
                        continue  # root at 0
                    if not cls._has_root(base, (alpha, beta, gamma)):
                        return (alpha, beta, gamma)
        raise FormulaInconsistent("no rootless cubic over the base field")  # unreachable

    def __repr__(self) -> str:
        return f"ExtCtx(base={self.base!r}, cubic={self.cubic})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExtCtx):
            return self.base == other.base and self.cubic == other.cubic
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.base, self.cubic))

    # -- packing -----------------------------------------------------------

    def pack(self, coords: Triple) -> int:
        x, y, z = coords
        return x | (y << self.m) | (z << (2 * self.m))

    def unpack(self, v: int) -> Triple:
        mask = self.base.mask
        return v & mask, (v >> self.m) & mask, (v >> (2 * self.m)) & mask

    # -- arithmetic ---------------------------------------------------------

    def mul(self, u: int, v: int) -> int:
        bm = self.base.mul
        u0, u1, u2 = self.unpack(u)
        v0, v1, v2 = self.unpack(v)
        p0 = bm(u0, v0)
        p1 = bm(u0, v1) ^ bm(u1, v0)
        p2 = bm(u0, v2) ^ bm(u1, v1) ^ bm(u2, v0)
        p3 = bm(u1, v2) ^ bm(u2, v1)
        p4 = bm(u2, v2)
        r0, r1, r2 = p0, p1, p2
        if p3:
            r0 ^= bm(p3, self._red3[0]); r1 ^= bm(p3, self._red3[1]); r2 ^= bm(p3, self._red3[2])
        if p4:
            r0 ^= bm(p4, self._red4[0]); r1 ^= bm(p4, self._red4[1]); r2 ^= bm(p4, self._red4[2])
        return self.pack((r0, r1, r2))

    def vmul(self, u: np.ndarray, v: int) -> np.ndarray:
        """Elementwise product of the packed array u with the packed scalar v,
        as uint32: mul's schoolbook product over the base field's vmul."""
        bm, mask = self.base.vmul, self.base.mask
        u = u.astype(np.intp)
        u0, u1, u2 = u & mask, (u >> self.m) & mask, u >> (2 * self.m)
        v0, v1, v2 = self.unpack(v)
        p = (bm(u0, v0), bm(u0, v1) ^ bm(u1, v0), bm(u0, v2) ^ bm(u1, v1) ^ bm(u2, v0))
        p3 = bm(u1, v2) ^ bm(u2, v1)
        p4 = bm(u2, v2)
        r = [(p[i] ^ bm(p3, self._red3[i]) ^ bm(p4, self._red4[i])).astype(np.uint32)
             for i in range(3)]
        return r[0] | (r[1] << self.m) | (r[2] << (2 * self.m))

    def pow(self, u: int, n: int) -> int:
        if n == 0:
            return 1
        if u == 0:
            return 0
        if self._log is not None:
            return int(self._exp[(int(self._log[u]) * n) % self.group])
        n %= self.group
        if n == 0:
            return 1
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, u)
            u = self.mul(u, u)
            n >>= 1
        return r

    def inv(self, u: int) -> int:
        if u == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^3m)")
        return self.pow(u, self.group - 1)

    # -- discrete-log tables -------------------------------------------------

    def _ensure_tables(self) -> None:
        check_base_degree(self.m)
        if self._exp is None:
            self._exp, self._log, self.generator = _ext_tables(self)

    def log_of(self, u: int) -> int:
        self._ensure_tables()
        return int(self._log[u])


@functools.lru_cache(maxsize=LIFT_MAX_BASE_M)
def shared_ext(m: int) -> ExtCtx:
    """GF(2^3m) over shared_field(m) with the default cubic, built once per
    process, so a repeated lift scans for its cubic once per base degree.

    A direct ExtCtx(base) still scans.  At most LIFT_MAX_BASE_M extensions
    are kept, one per degree the lift accepts.
    """
    return ExtCtx(shared_field(m))


@functools.lru_cache(maxsize=8)
def _ext_tables(ext: ExtCtx) -> tuple[np.ndarray, np.ndarray, int]:
    """Read-only exp and log tables of GF(2^3m)* and its generator.

    Keyed by (base, cubic), so every equal ExtCtx of a process shares one
    pair of 2^3m-entry arrays; at most 8 extensions are kept.
    """
    gen = find_generator(ext.group, ext.pow)
    # Doubling: exp[n + i] = exp[i] * gen^n for the block already built.
    exp = np.empty(ext.group, dtype=np.uint32)
    exp[0] = 1
    n = 1
    while n < ext.group:
        step = min(n, ext.group - n)
        exp[n:n + step] = ext.vmul(exp[:step], ext.mul(int(exp[n - 1]), gen))
        n += step
    log = np.full(ext.size, -1, dtype=np.int32)  # logs < 2^(3m); half the int64 footprint
    log[exp] = np.arange(ext.group)
    exp.flags.writeable = False
    log.flags.writeable = False
    return exp, log, gen


# ---------------------------------------------------------------------------
# reduced univariate polynomials over the extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftedPoly:
    """Sparse reduced polynomial: exponent -> nonzero packed coefficient."""

    ext: ExtCtx
    terms: tuple[tuple[int, int], ...]  # sorted by exponent

    @classmethod
    def make(cls, ext: ExtCtx, mapping: dict[int, int]) -> "LiftedPoly":
        items = tuple(sorted((e, c) for e, c in mapping.items() if c))
        for e, _ in items:
            if not 0 <= e <= ext.group:
                raise ValueError(f"exponent {e} outside 0..{ext.group}")
        return cls(ext, items)

    def coeff_map(self) -> dict[int, int]:
        return dict(self.terms)

    def evaluate(self, t: int) -> int:
        if t == 0:
            return dict(self.terms).get(0, 0)
        acc = 0
        for e, coef in self.terms:
            acc ^= self.ext.mul(coef, self.ext.pow(t, e))
        return acc

    def values(self) -> np.ndarray:
        """Evaluation at every field point, indexed by packed element."""
        ext = self.ext
        ext._ensure_tables()
        out = np.zeros(ext.size, dtype=np.uint32)
        out[0] = dict(self.terms).get(0, 0)
        out[ext._exp] = self._values_at_logs(np.arange(ext.group))
        return out

    def _values_at_logs(self, logs: np.ndarray) -> np.ndarray:
        """Evaluation at the nonzero points with the given discrete logs."""
        ext = self.ext
        exps = np.array([e for e, _ in self.terms], dtype=np.int64)
        logcs = np.array([ext.log_of(c) for _, c in self.terms], dtype=np.int64)
        return _kernels.eval_terms(exps, logcs, ext._exp, ext.group, logs)

    def to_json(self) -> dict:
        alpha, beta, gamma = self.ext.cubic
        return {
            "m": self.ext.m,
            "cubic": [hex(gamma), hex(beta), hex(alpha), hex(1)],
            "terms": [
                {"e": e, "c": [hex(v) for v in self.ext.unpack(coef)]}
                for e, coef in self.terms
            ],
        }


def _json_field(obj, key: str, kind: type, where: str):
    """obj[key] of the given JSON type; ValueError naming the field otherwise."""
    if not isinstance(obj, dict) or type(obj.get(key)) is not kind:
        raise ValueError(f"{where} has no {key!r} field of type {kind.__name__}")
    return obj[key]


def _json_hexes(obj, key: str, where: str) -> list[int]:
    value = _json_field(obj, key, list, where)
    if not all(isinstance(h, str) for h in value):
        raise ValueError(f"field {key!r} of {where} is not a list of hex strings")
    return [int(h, 16) for h in value]


def lifted_from_json(data: dict) -> LiftedPoly:
    """Rebuild a LiftedPoly over the one base field of its degree; a missing
    or ill-typed field raises ValueError naming it.  A base degree above
    LIFT_MAX_BASE_M raises DomainTooLarge before any field is built."""
    m = _json_field(data, "m", int, "the document")
    check_base_degree(m)
    base = shared_field(m)
    cubic_ascending = _json_hexes(data, "cubic", "the document")
    if (len(cubic_ascending) != 4 or cubic_ascending[3] != 1
            or any(not 0 <= v < base.q for v in cubic_ascending)):
        raise ValueError(f"cubic must be monic with four coefficients in GF(2^{base.m})")
    gamma, beta, alpha, _ = cubic_ascending
    ext = ExtCtx(base, (alpha, beta, gamma))
    mapping = {}
    for item in _json_field(data, "terms", list, "the document"):
        coords = tuple(_json_hexes(item, "c", "a term"))
        if len(coords) != 3 or any(not 0 <= v < base.q for v in coords):
            raise ValueError(f"coefficient coordinates {item['c']} outside GF(2^{base.m})")
        e = _json_field(item, "e", int, "a term")
        if e in mapping:
            raise ValueError(f"exponent {e} appears twice")
        mapping[e] = ext.pack(coords)
    return LiftedPoly.make(ext, mapping)


# ---------------------------------------------------------------------------
# interpolation of a lifted coordinate map
# ---------------------------------------------------------------------------

def _do_exponents(ext: ExtCtx) -> np.ndarray:
    """The Dembowski-Ostrom exponents 2^(im) + 2^(jm+1), i, j in {0, 1, 2}, reduced.

    Each is taken to (k-1) % (2^3m-1) + 1; at m = 1 some coincide, so
    the sorted distinct values are returned.
    """
    m = ext.m
    ks = {(2 ** (i * m) + 2 ** (j * m + 1) - 1) % ext.group + 1 for i in range(3) for j in range(3)}
    return np.array(sorted(ks), dtype=np.int64)


def lift_permutation(ext: ExtCtx, fam: FamilySpec) -> LiftedPoly:
    """Unique reduced polynomial agreeing with the lifted family everywhere.

    The family is lifted through eval order x + y*w + z*w^2.  For
    0 < k < 2^3m - 1 the coefficient of X^k is sum_t F'(t) t^-k; writing
    t = l*r with r one of the q^2+q+1 coset representatives (1,y,z),
    (0,1,z), (0,0,1) turns it into sum_r F'(r) r^-k times sum_l l^(3-k),
    which is 1 when q-1 divides 3-k and 0 otherwise.  F is a sum of terms
    x_i^2 x_j, so its lift is a Dembowski-Ostrom polynomial: only the nine
    k = 2^(im) + 2^(jm+1), i, j in {0, 1, 2}, can occur, and only their
    sums are computed, from F at the representatives (projective_images).

    The polynomial must then equal F' at the representatives;
    FormulaInconsistent otherwise.  That check is exact: F' and every DO
    term are 3-homogeneous over GF(q) and vanish at 0, and each nonzero t
    is l*r for exactly one representative r.  Base degree is capped at
    m = 5.
    """
    rep_log = _representative_logs(ext)
    m = ext.m
    f1, f2, f3 = projective_images(ext.base, fam).astype(np.int64)
    values = f1 | (f2 << m) | (f3 << (2 * m))
    ks = _do_exponents(ext)
    coeffs = _kernels.interp_coeffs(rep_log, ext._log[values], ext._exp, ext.group, ks)
    poly = LiftedPoly.make(ext, dict(zip(ks.tolist(), coeffs.tolist())))
    if not np.array_equal(poly._values_at_logs(rep_log), values):
        raise FormulaInconsistent(
            f"the lift of {fam.bitstring()} disagrees with F at a projective representative")
    return poly


def _representative_logs(ext: ExtCtx) -> np.ndarray:
    """Discrete logs of the q^2+q+1 coset representatives of
    GF(2^3m)*/GF(2^m)*, in projective_representatives order."""
    ext._ensure_tables()
    m = ext.m
    x, y, z = projective_representatives(ext.base)
    return ext._log[x | (y << m) | (z << (2 * m))]


def _is_projective(ext: ExtCtx, p: LiftedPoly) -> bool:
    """Whether p(l*t) = l^3 p(t) for l in GF(2^m)* with l -> l^3 bijective:
    odd base m, and every exponent e has 0 < e < 2^3m - 1 and e = 3 (mod q-1)."""
    q1 = ext.base.q - 1
    return ext.m % 2 == 1 and all(0 < e < ext.group and (e - 3) % q1 == 0 for e, _ in p.terms)


def is_pp(ext: ExtCtx, p: LiftedPoly) -> bool:
    """Whether the polynomial map permutes GF(2^3m); ext must be p.ext.

    When p is 3-homogeneous over an odd base (_is_projective; every lift
    is), p maps the coset r*GF(q)* onto p(r)*GF(q)*, since l -> l^3
    permutes GF(q)*, and p(0) = 0.  So p permutes exactly when p(r) != 0
    at each of the q^2+q+1 representatives r and the cosets p(r)*GF(q)*,
    keyed by log p(r) mod q^2+q+1, are pairwise distinct.  Any other
    polynomial is evaluated at every point.
    """
    if ext != p.ext:
        raise ValueError(f"is_pp over {ext!r} of a polynomial over {p.ext!r}")
    if _is_projective(ext, p):
        values = p._values_at_logs(_representative_logs(ext))
        if not values.all():
            return False
        keys = ext._log[values] % values.size
    else:
        keys = p.values()
    # As many keys as possible values: distinct exactly when every value is hit.
    seen = np.zeros(keys.size, dtype=bool)
    seen[keys] = True
    return bool(seen.all())


# ---------------------------------------------------------------------------
# quasi-multiplicative equivalence
# ---------------------------------------------------------------------------

def _reduce_exponent(e: int, d: int, group: int) -> int:
    return 0 if e == 0 else (e * d - 1) % group + 1


def qm_transform(ext: ExtCtx, q: LiftedPoly, a: int, c: int, d: int) -> LiftedPoly:
    """The reduced polynomial a * q(c * X^d)."""
    acc: dict[int, int] = {}
    for e, coef in q.terms:
        e2 = _reduce_exponent(e, d, ext.group)
        v = ext.mul(ext.mul(a, coef), ext.pow(c, e))
        acc[e2] = acc.get(e2, 0) ^ v
    return LiftedPoly.make(ext, acc)


def _candidate_exponents(group: int, p_supp: set[int], q_exps) -> list[int]:
    """Ascending d coprime to group under which q's anchor can land in supp(p).

    The anchor is q's first exponent e0 with 0 < e0 < group; X^e0
    becomes X^(e0*d mod group), so d must solve e0*d = e (mod group) for
    some e in supp(p).  With g = gcd(e0, group) that needs g | e, and
    the solutions are d0 + t*group/g for t < g.  Exponents 0 and group
    cannot be hit, since a d coprime to group sends e0 to neither.
    Without an anchor every d in 1..group is returned.
    """
    anchor = next((e for e in q_exps if 0 < e < group), None)
    if anchor is None:
        return [d for d in range(1, group + 1) if math.gcd(d, group) == 1]
    g = math.gcd(anchor, group)
    step = group // g
    inv = pow(anchor // g, -1, step)  # step >= 2, since g <= anchor < group
    ds = set()
    for e in p_supp:
        if 0 < e < group and e % g == 0:
            d0 = (e // g) * inv % step
            ds.update(d0 + t * step for t in range(g))
    return sorted(d for d in ds if math.gcd(d, group) == 1)


def qm_equivalent(ext: ExtCtx, p: LiftedPoly, q: LiftedPoly) -> tuple[int, int, int] | None:
    """Witness (a, c, d) with p(X) = a*q(c*X^d), or None after every candidate d.

    Filters: term counts must agree; d runs in ascending order over the
    values coprime to 2^3m - 1 that send q's anchor exponent into
    supp(p) (_candidate_exponents), and for each the supports must match
    under e -> e*d; then c comes from coefficient ratios c^delta = rho
    via the discrete-log table, a from one coefficient, and the witness
    is verified in full before being returned.  Every d that a witness
    can use is a candidate, so the first witness is the one the full
    range of d would give.
    """
    if len(p.terms) != len(q.terms):
        return None
    if not p.terms:
        return (1, 1, 1)
    ext._ensure_tables()
    group = ext.group
    p_map = p.coeff_map()
    p_supp = set(p_map)
    q_items = list(q.terms)
    e0, qc0 = q_items[0]
    rest = q_items[1:]
    for d in _candidate_exponents(group, p_supp, [e for e, _ in q_items]):
        mapped = [_reduce_exponent(e, d, group) for e, _ in q_items]
        if set(mapped) != p_supp:
            continue
        # constraints c^delta = rho relative to the first q-term
        anchor_ratio = ext.mul(p_map[mapped[0]], ext.inv(qc0))
        constraints = []
        for (e, qc), me in zip(rest, mapped[1:]):
            delta = (e - e0) % group
            rho = ext.mul(ext.mul(p_map[me], ext.inv(qc)), ext.inv(anchor_ratio))
            constraints.append((delta, rho))
        for c in _solve_power_constraints(ext, constraints):
            a = ext.mul(anchor_ratio, ext.inv(ext.pow(c, e0)))
            if a and qm_transform(ext, q, a, c, d).terms == p.terms:
                return (a, c, d)
    return None


def _solve_power_constraints(ext: ExtCtx, constraints) -> list[int]:
    """All nonzero c with c^delta = rho for every (delta, rho) given."""
    group = ext.group
    if not constraints:
        return [1]
    delta, rho = constraints[0]
    if rho == 0:
        return []
    if delta == 0:
        if rho != 1:
            return []
        candidates = None  # unconstrained by the first relation
    else:
        g = math.gcd(delta, group)
        lr = ext.log_of(rho)
        if lr % g:
            return []
        step = group // g
        l0 = (lr // g) * pow(delta // g, -1, step) % step
        candidates = [int(ext._exp[(l0 + k * step) % group]) for k in range(g)]
    if candidates is None:
        candidates = [int(v) for v in ext._exp]
    out = []
    for c in candidates:
        if all(ext.pow(c, dl) == rh for dl, rh in constraints[1:]):
            out.append(c)
    return out
