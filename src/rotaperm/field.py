"""Exact arithmetic in GF(2^m) plus the small-equation solvers built on it.

Elements are plain ints: bit k of the int is the coefficient of x^k, so
0x5 = x^2 + 1 (little-endian bit-polynomial).  Addition is ^ and needs
no helper.  All interpretation lives in a FieldCtx, which carries the
degree, the reduction modulus, and precomputed tables; shared_field gives
the one context of each degree that the package reads.

Degrees up to 16 are supported, each with one modulus, DEFAULT_MODULI[m],
re-validated by trial division at construction, so a wrong table entry
is caught instead of silently used.  One exp/log pair over a generator
of the multiplicative group defines all arithmetic at every degree:
scalar products, powers and inverses read it, and the numpy tables
(products, squares, cubes, inverses) are gathers from it.  Every array
product in the package goes through FieldCtx.vmul, the only reader of the
q x q product table; rotaperm.permcheck's one evaluator of F multiplies
the monomials of family.COEFF_EXPONENTS through it.  Shift-and-XOR reduction
only builds the pair.  A quadratic's root comes from the half-trace at
odd m and from a scan of the field at even m; a cubic's roots from a scan
of the field, cross-checked by the trace criterion - exactness over
cleverness at this scale.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    DomainTooLarge,
    EvenDegree,
    FormulaInconsistent,
    NoSolution,
    ReducibleModulus,
    UnsupportedDegree,
)

Triple = tuple[int, int, int]

MAX_DEGREE = 16
# Entries of the longest table any build may allocate.  Measured peaks of the
# builds near this size are at most 56 B per entry, so under 1 GiB.
MAX_TABLE_ENTRIES = 1 << 24

# Minimal-weight irreducible polynomials, one per degree.  Every entry is
# re-checked by _is_irreducible() in the constructor.
DEFAULT_MODULI: dict[int, int] = {
    1: 0b11,                 # x + 1
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10000011,           # x^7 + x + 1
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100000000101011,   # x^14 + x^5 + x^3 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011, # x^16 + x^12 + x^3 + x + 1
}


def check_degree(m: int) -> int:
    """m, if GF(2^m) has a modulus here; UnsupportedDegree otherwise."""
    if not 1 <= m <= MAX_DEGREE:
        raise UnsupportedDegree(f"degree {m} outside 1..{MAX_DEGREE}")
    return m


def admit(entries: int, what: str) -> None:
    """Refuse, with DomainTooLarge, a table longer than MAX_TABLE_ENTRIES.

    The one memory policy of the package: every table whose length grows
    with m computes that length from m, in the module that builds it, and
    admits it here before it allocates.  The budget admits the permutation
    mask, the inverse table and the witness prefixes up to m = 11, the
    q x q product table under FieldCtx.vmul up to m = 12, and the lift's
    2^3m-entry log tables up to base m = 8.
    """
    if entries > MAX_TABLE_ENTRIES:
        raise DomainTooLarge(f"{what}: {entries} entries > {MAX_TABLE_ENTRIES}, the table budget")


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(p: int, m: int) -> int:
    """Remainder of the carryless division of p by m."""
    dm = _poly_degree(m)
    while _poly_degree(p) >= dm and p:
        p ^= m << (_poly_degree(p) - dm)
    return p


def _is_irreducible(modulus: int, m: int) -> bool:
    """Trial division by every polynomial of degree 1 .. m//2."""
    if _poly_degree(modulus) != m:
        return False
    if m == 1:
        return True
    for d in range(2, 1 << (m // 2 + 1)):
        if _poly_mod(modulus, d) == 0:
            return False
    return True


def _factorize(n: int) -> list[int]:
    """Prime factors of n (distinct), trial division; n <= 2^16 here."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def find_generator(order: int, power) -> int:
    """The first g in 2..order that generates a cyclic group of that order.

    power(g, n) computes g^n in the group; g generates it exactly when
    g^(order/p) != 1 for every prime p dividing the order.  Returns 1 for
    the trivial group.  GF(2^m)* and the cubic extensions' GF(2^3m)*
    share this search, so their generators, and every table built from
    them, follow one candidate order.
    """
    primes = _factorize(order) if order > 1 else []
    for cand in range(2, order + 1):
        if all(power(cand, order // p) != 1 for p in primes):
            return cand
    return 1


def _log_array(ctx: FieldCtx) -> np.ndarray:
    return np.array(ctx._log, dtype=np.uint16)


def _exp_array(ctx: FieldCtx) -> np.ndarray:
    return np.array(ctx._exp, dtype=np.uint16)


def _products(ctx: FieldCtx) -> np.ndarray:
    admit(ctx.q * ctx.q, f"the product table of GF(2^{ctx.m})")
    log = ctx._logs(np.arange(ctx.q))
    t = ctx._exps()[log[:, None] + log[None, :]]
    t[0, :] = 0
    t[:, 0] = 0
    return t


def _squares(ctx: FieldCtx) -> np.ndarray:
    return ctx.vpow(np.arange(ctx.q), 2)


def _cubes(ctx: FieldCtx) -> np.ndarray:
    return ctx.vpow(np.arange(ctx.q), 3)


def _inverses(ctx: FieldCtx) -> np.ndarray:
    return ctx.vpow(np.arange(ctx.q), -1)


class FieldCtx:
    """GF(2^m) with its modulus DEFAULT_MODULI[m], validated irreducible.

    The degree, modulus and exp/log pair are fixed at construction.  The
    numpy tables, and what other modules cache on the context through
    `_table`, fill on first use with no lock, so build them before two
    threads share a fresh context; once cached, every array is read-only.
    Every context of the package comes from shared_field, one per degree
    per process, so its tables are built once and read by every later
    call; construct a FieldCtx directly for a private set of tables.  All
    operations take and return plain ints < 2^m.
    """

    def __init__(self, m: int) -> None:
        modulus = DEFAULT_MODULI[check_degree(m)]
        if not _is_irreducible(modulus, m):
            raise ReducibleModulus(
                f"modulus {modulus:#x} is not an irreducible degree-{m} polynomial"
            )
        self.m = m
        self.modulus = modulus
        self.q = 1 << m
        self.mask = self.q - 1
        # 3 is invertible mod 2^m - 1 exactly when m is odd.
        self.inv3: int | None = None
        if m % 2 == 1:
            group = max(self.q - 1, 1)
            self.inv3 = pow(3, -1, group) if group > 1 else 1
        self._build_log_tables()
        self._np_cache: dict[str, np.ndarray | tuple[np.ndarray, ...]] = {}

    def __repr__(self) -> str:
        return f"FieldCtx(m={self.m}, modulus={self.modulus:#x})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldCtx):
            return self.m == other.m and self.modulus == other.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.m, self.modulus))

    # ------------------------------------------------------------------
    # scalar arithmetic
    # ------------------------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Shift-and-XOR carryless multiply, reduced by the modulus."""
        p = 0
        while b:
            if b & 1:
                p ^= a
            b >>= 1
            a <<= 1
            if a & self.q:
                a ^= self.modulus
        return p

    def _build_log_tables(self) -> None:
        """exp[i] = g^i for i < 2(q-1) and log[g^i] = i; log[0] = 0 is unused.

        The generator need not be x when the modulus is irreducible but
        imprimitive, so it is searched for.  exp repeats once, so a sum
        of two logs indexes it without reduction.
        """
        order = self.q - 1
        g = find_generator(order, self._pow_raw)
        exp = [0] * (2 * order)
        log = [0] * self.q
        v = 1
        for i in range(order):
            exp[i] = exp[i + order] = v
            log[v] = i
            v = self._mul_raw(v, g)
        self._exp, self._log = exp, log
        self.generator = g

    def _pow_raw(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            n >>= 1
        return r

    def mul(self, a: int, b: int) -> int:
        """Product of two field elements."""
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def pow(self, a: int, n: int) -> int:
        """a**n with n >= 0; exponents of nonzero bases reduce mod 2^m - 1."""
        if n == 0:
            return 1
        if a == 0:
            return 0
        return self._exp[(self._log[a] * n) % (self.q - 1)]

    def inv(self, a: int) -> int:
        """Multiplicative inverse; a must be nonzero."""
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^m)")
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def sqrt(self, a: int) -> int:
        """Square root (unique in characteristic 2): a^(2^(m-1))."""
        return self.pow(a, 1 << (self.m - 1))

    def cube_root(self, a: int) -> int:
        """The unique cube root a^(1/3); defined only for odd m."""
        if self.inv3 is None:
            raise EvenDegree(f"cube roots need odd m, got m={self.m}")
        if a == 0:
            return 0
        return self.pow(a, self.inv3)

    def elements(self) -> range:
        return range(self.q)

    # ------------------------------------------------------------------
    # trace machinery and small-degree solvers
    # ------------------------------------------------------------------

    def trace(self, a: int) -> int:
        """Absolute trace a + a^2 + ... + a^(2^(m-1)), as the element 0 or 1."""
        t = 0
        v = a
        for _ in range(self.m):
            t ^= v
            v = self.sqr(v)
        return t

    def half_trace(self, b: int) -> int:
        """Solve r^2 + r = b for odd m; requires trace(b) = 0."""
        if self.m % 2 == 0:
            raise EvenDegree("half-trace is the odd-degree solver")
        if self.trace(b) != 0:
            raise NoSolution(f"x^2 + x = {b:#x} has no root (trace 1)")
        r = 0
        v = b
        for _ in range((self.m - 1) // 2 + 1):
            r ^= v
            v = self.sqr(self.sqr(v))
        return r

    def solve_quadratic(self, a: int, b: int) -> set[int]:
        """All roots of x^2 + a*x + b.

        Empty iff a != 0 and Tr(b / a^2) = 1; a single (double) root
        sqrt(b) when a = 0; otherwise the two roots a*H(b/a^2) and
        a*H(b/a^2) + a.
        """
        if a == 0:
            return {self.sqrt(b)}
        u = self.div(b, self.sqr(a))
        if self.trace(u) != 0:
            return set()
        if self.m % 2 == 1:
            r = self.half_trace(u)
        else:
            # Even m: fall back to scanning for one root of z^2 + z = u.
            r = next(z for z in self.elements() if self.sqr(z) ^ z == u)
        x0 = self.mul(a, r)
        return {x0, x0 ^ a}

    def cubic_roots(self, p: int, q: int, r: int) -> set[int]:
        """All roots of Y^3 + p*Y^2 + q*Y + r, by exhaustive scan.

        For the depressed case p = 0, r != 0 the scan is cross-checked
        against the trace criterion: exactly one root iff
        Tr(q^3 / r^2 + 1) != 0.
        """
        roots = {
            y for y in self.elements()
            if self.mul(self.sqr(y), y) ^ self.mul(p, self.sqr(y)) ^ self.mul(q, y) ^ r == 0
        }
        if p == 0 and r != 0:
            crit = self.trace(self.div(self.pow(q, 3), self.sqr(r)) ^ 1)
            if (len(roots) == 1) != (crit != 0):
                raise FormulaInconsistent(
                    f"cubic trace criterion violated for q={q:#x}, r={r:#x}")
        return roots

    # ------------------------------------------------------------------
    # vectorized tables: lazy uint16 gathers from the exp/log pair
    # ------------------------------------------------------------------

    def _table(self, key: str, build) -> np.ndarray | tuple[np.ndarray, ...]:
        """The cached table under key, built by build(self) on first use.

        build, a module-level function of the context, returns an array or
        a tuple of arrays; each is made read-only before it is cached, since
        a shared context hands it to every caller.
        """
        t = self._np_cache.get(key)
        if t is None:
            t = build(self)
            for a in t if isinstance(t, tuple) else (t,):
                a.flags.writeable = False
            self._np_cache[key] = t
        return t

    def _logs(self, vec) -> np.ndarray:
        """log of each entry of vec (0 for 0), widened so sums cannot wrap."""
        log = self._table("log", _log_array)
        return log[vec].astype(np.intp)

    def _exps(self) -> np.ndarray:
        return self._table("exp", _exp_array)

    @property
    def mul_table(self) -> np.ndarray:
        """(q, q) product table exp[log a + log b], zero on row and column 0;
        vmul is its only reader.  Its q^2 entries are admitted (admit)
        before it is built, so m >= 13 raises DomainTooLarge."""
        return self._table("mul", _products)

    def vmul(self, x: np.ndarray | int, y: np.ndarray | int) -> np.ndarray:
        """Elementwise product of field elements, broadcast as x * y is.

        Either operand may be an int or an integer array; the product is
        uint16.  This is the only reader of mul_table: one gather from the
        flattened table at x*q + y, which is cheaper than indexing it in
        two dimensions.
        """
        return self.mul_table.reshape(-1)[(np.asarray(x, dtype=np.intp) << self.m) | y]

    @property
    def sqr_table(self) -> np.ndarray:
        return self._table("sqr", _squares)

    @property
    def cube_table(self) -> np.ndarray:
        return self._table("cube", _cubes)

    @property
    def inv_table(self) -> np.ndarray:
        """Elementwise inverse, with 0 mapped to 0."""
        return self._table("inv", _inverses)

    def vpow(self, vec: np.ndarray, n: int) -> np.ndarray:
        """Elementwise vec**n as exp[n log(vec) mod (q-1)], in uint16.

        Exponents reduce mod q-1, so n = -1 gives inverses; 0 maps to 1
        when n = 0 and to 0 otherwise.
        """
        order = self.q - 1
        powers = self._exps()[self._logs(vec) * (n % order) % order]
        return np.where(np.asarray(vec) == 0, np.uint16(n == 0), powers)


@lru_cache(maxsize=MAX_DEGREE)
def shared_field(m: int) -> FieldCtx:
    """GF(2^m), built once per process.

    Every verb and library call of the package takes its contexts from
    here, so the tables cached on them (products, the permutation mask
    and the decision tables under it) are built once per degree and read
    by every later call.  At most MAX_DEGREE contexts are
    kept, one per degree.
    """
    return FieldCtx(m)
