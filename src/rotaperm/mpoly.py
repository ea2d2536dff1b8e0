"""Sparse multivariate polynomials over GF(2).

The ring is F2[x, y, z, a, b, c, t, Y, Z] with that fixed variable
order; a polynomial is a set of monomials (coefficients are all 1, an
absent monomial means coefficient 0), so addition is symmetric
difference and squaring just doubles every exponent (Frobenius).

Each monomial is stored packed in one int: a 7-bit field per variable,
the first variable (x) in the most significant field.  Per-variable
exponents are capped at 63, so two fields sum to at most 126 < 128 and
a product of monomials is one integer addition with no carry between
fields.  A product exponent above the cap sets bit 6 of its field, and
one AND of the OR of a product's monomials with one fixed mask finds
it: overflowing the cap is a hard error, never wraparound.
A product XORs in the sums of one row of monomials at a time, so a sum
formed an even number of times cancels.  `MPoly.terms` is a read-only
view of the same monomials as exponent tuples.

Canonical form orders terms descending-lexicographically by exponent
vector, which reproduces the usual "highest power first" reading of a
polynomial and makes printed comparisons byte-stable.  With x in the top
field this is plain descending order of the packed ints.

A resultant is the determinant of a matrix with polynomial entries,
expanded by memoized minors under one monomial bound: the d x d
multiplication matrix of an operand monic of degree d where there is
one, else the Sylvester matrix (see `resultant`).  Two operands of one
degree and one leading coefficient other than 1 are first reduced by
one remainder step, which lowers the order of that matrix.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable, Mapping

from .errors import (
    DegenerateInput,
    DegreeOverflow,
    DomainTooLarge,
    PolyParseError,
    UnknownVariable,
    VariableMismatch,
)

VARS: tuple[str, ...] = ("x", "y", "z", "a", "b", "c", "t", "Y", "Z")
MAX_EXPONENT = 63
FIELD_BITS = 7  # one field holds a sum of two capped exponents without carry
_FIELD = (1 << FIELD_BITS) - 1
RESULTANT_MAX_MONOMIALS = 1 << 16  # monomials one resultant's memoized minors may hold
# Bit 6 of every field: set in a packed sum exactly where an exponent passed 63.
_OVERFLOW = sum(1 << (FIELD_BITS * i + 6) for i in range(len(VARS)))


def _shift(i: int) -> int:
    """Bit offset of variable i's field; variable 0 is the most significant."""
    return FIELD_BITS * (len(VARS) - 1 - i)


def _pack(term: tuple[int, ...]) -> int:
    key = 0
    for e in term:
        key = (key << FIELD_BITS) | e
    return key


def _unpack(key: int) -> tuple[int, ...]:
    return tuple((key >> _shift(i)) & _FIELD for i in range(len(VARS)))


class MPoly:
    """Immutable sparse polynomial over GF(2) in the fixed ring."""

    __slots__ = ("_mono",)

    def __init__(self, terms: Iterable[tuple[int, ...]] = ()) -> None:
        acc: set[int] = set()
        for term in terms:
            term = tuple(term)
            if len(term) != len(VARS):
                raise VariableMismatch(f"exponent vector {term} has wrong arity")
            if any(e < 0 or e > MAX_EXPONENT for e in term):
                raise DegreeOverflow(f"exponent outside 0..{MAX_EXPONENT}: {term}")
            acc.symmetric_difference_update({_pack(term)})
        self._mono = frozenset(acc)

    @classmethod
    def _packed(cls, mono: frozenset[int]) -> "MPoly":
        """A polynomial from already packed, already capped monomials."""
        p = cls.__new__(cls)
        p._mono = mono
        return p

    @property
    def terms(self) -> frozenset[tuple[int, ...]]:
        """The monomials as exponent vectors, in the order of `VARS`."""
        return frozenset(_unpack(key) for key in self._mono)

    def _capped(self, mono: frozenset[int], what: str) -> "MPoly":
        if reduce(or_, mono, 0) & _OVERFLOW:  # OR has no carries: a field's bit 6 is some monomial's
            key = next(key for key in mono if key & _OVERFLOW)
            raise DegreeOverflow(f"{what} exponent outside 0..{MAX_EXPONENT}: {_unpack(key)}")
        return MPoly._packed(mono)

    # -- ring structure -------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        return MPoly._packed(self._mono ^ other._mono)

    def __mul__(self, other: "MPoly") -> "MPoly":
        small, large = self._mono, other._mono
        if len(small) > len(large):
            small, large = large, small
        acc: set[int] = set()
        for a in small:  # one row's sums are distinct, so XOR in a row at a time
            acc ^= {a + b for b in large}
        return self._capped(frozenset(acc), "product")

    def sqr(self) -> "MPoly":
        """Frobenius: squaring doubles every exponent, so every packed int."""
        return self._capped(frozenset(key << 1 for key in self._mono), "square")

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        result = one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base.sqr()
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MPoly):
            return self._mono == other._mono
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._mono)

    def __bool__(self) -> bool:
        return bool(self._mono)

    def __repr__(self) -> str:
        return f"MPoly({to_text(self)!r})"

    def __str__(self) -> str:
        return to_text(self)

    # -- queries ----------------------------------------------------------

    def degree_in(self, var: str) -> int:
        """Formal degree in one variable (0 for the zero polynomial)."""
        shift = _shift(_index_of(var))
        return max(((key >> shift) & _FIELD for key in self._mono), default=0)

    def coefficient_of(self, var: str, power: int) -> "MPoly":
        """Coefficient of var**power, as a polynomial with var removed."""
        shift = _shift(_index_of(var))
        field = power << shift
        return MPoly._packed(
            frozenset(key - field for key in self._mono if (key >> shift) & _FIELD == power))


def _index_of(var: str) -> int:
    try:
        return VARS.index(var)
    except ValueError:
        raise UnknownVariable(f"variable {var!r} not in the ring {VARS}") from None


def zero() -> MPoly:
    return MPoly()


def one() -> MPoly:
    return MPoly([(0,) * len(VARS)])


def var(name: str) -> MPoly:
    return MPoly._packed(frozenset({1 << _shift(_index_of(name))}))


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

def to_text(p: MPoly) -> str:
    """Canonical text: terms descending-lex, explicit '*' and '^'."""
    if not p:
        return "0"
    chunks = []
    for key in sorted(p._mono, reverse=True):
        factors = []
        for name, e in zip(VARS, _unpack(key)):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        chunks.append("*".join(factors) if factors else "1")
    return " + ".join(chunks)


def parse(text: str) -> MPoly:
    """Parse the grammar  poly := term ('+' term)*  with
    term := factor ('*'? factor)*,  factor := VAR ('^' UINT)? | '0' | '1'.

    Whitespace is ignored; '*' is optional between factors.  Raises
    PolyParseError with the offending offset, or UnknownVariable for a
    letter outside the ring.
    """
    pos = 0
    length = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < length and text[pos].isspace():
            pos += 1

    def parse_factor(term: list[int]) -> bool:
        """Apply one factor to the exponent vector; False marks a zero factor."""
        nonlocal pos
        ch = text[pos]
        if ch == "0":
            pos += 1
            return False
        if ch == "1":
            pos += 1
            return True
        if not ch.isalpha():
            raise PolyParseError(f"expected a variable, got {ch!r}", pos)
        idx = _index_of(ch)
        pos += 1
        exponent = 1
        skip_ws()
        if pos < length and text[pos] == "^":
            pos += 1
            skip_ws()
            start = pos
            while pos < length and text[pos].isdigit():
                pos += 1
            if start == pos:
                raise PolyParseError("expected an exponent after '^'", pos)
            exponent = int(text[start:pos])
        term[idx] += exponent
        if term[idx] > MAX_EXPONENT:
            raise DegreeOverflow(f"exponent of {ch!r} exceeds {MAX_EXPONENT}")
        return True

    def parse_term() -> tuple[int, ...] | None:
        nonlocal pos
        term = [0] * len(VARS)
        nonzero = True
        while True:
            skip_ws()
            if pos >= length:
                raise PolyParseError("expected a factor", pos)
            nonzero &= parse_factor(term)
            skip_ws()
            if pos < length and text[pos] == "*":
                pos += 1
                continue
            if pos < length and (text[pos].isalnum()):
                continue
            break
        return tuple(term) if nonzero else None

    terms: set[tuple[int, ...]] = set()
    skip_ws()
    if pos >= length:
        raise PolyParseError("empty input", pos)
    while True:
        term = parse_term()
        if term is not None:
            terms.symmetric_difference_update({term})
        skip_ws()
        if pos >= length:
            break
        if text[pos] != "+":
            raise PolyParseError(f"expected '+', got {text[pos]!r}", pos)
        pos += 1
    return MPoly(terms)


# ---------------------------------------------------------------------------
# substitution / evaluation / structure
# ---------------------------------------------------------------------------

def substitute(p: MPoly, mapping: Mapping[str, "MPoly | str"]) -> MPoly:
    """Simultaneous substitution variable -> polynomial (or variable name)."""
    for key in mapping:
        _index_of(key)
    repl = [mapping.get(name, name) for name in VARS]
    repl = [var(value) if isinstance(value, str) else value for value in repl]
    out = zero()
    power_cache: dict[tuple[int, int], MPoly] = {}
    for term in p.terms:
        prod = one()
        for i, e in enumerate(term):
            if e:
                key = (i, e)
                piece = power_cache.get(key)
                if piece is None:
                    piece = repl[i] ** e
                    power_cache[key] = piece
                prod = prod * piece
        out = out + prod
    return out


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def resultant(p: MPoly, q: MPoly, eliminate: str) -> MPoly:
    """Res_v(p, q) for v = eliminate, a polynomial in the other variables.

    When p and q have one degree n and one leading coefficient c other
    than 1 in v, one remainder step comes first: with h = p + q, of degree
    e < n in v, Res(p, q) = c^(n-e) * Res(p, h), exact and with no sign in
    characteristic 2 (the product of q(alpha) = h(alpha) over the roots
    alpha of p), and 0 when h = 0.  The pair (p, h) then goes to a matrix
    of order at most n + e instead of 2n; the Q1, Q2 of certify's
    difference system share c = a + b, and their order-4 Sylvester matrix
    becomes an order-3 one.  h can be denser than q (x^12*y^4 + x^8*b^3
    against x^12*y^4 + x^10*y*c + x^5*z^3*b^2 + b*t), so if the matrix of
    (p, h) passes a bound below, the pair (p, q) decides as it did without
    the step.  A product by c past a bound is refused outright: the last
    one is Res(p, q) itself, which the pair's own expansion would hold
    among its minors, and an exponent past the cap in any of them is one
    in Res(p, q).

    When p or q is monic in v (leading coefficient 1), call it f, of
    degree d (the lower degree when both are), and the other g.  Then
    Res(f, g) is the product of g(alpha) over the roots alpha of f, which
    is the determinant of the d x d matrix of multiplication by g on
    R[v]/(f) (`_multiplication_rows`).  Otherwise the matrix is the
    Sylvester matrix of order deg p + deg q.  Both go to one determinant
    routine, `_determinant`.  Reduced entries can have higher degree than
    the Sylvester minors, so when the multiplication matrix passes a
    bound below, the Sylvester matrix decides: the remainder step and the
    monic path only turn refusals into results.

    The bounds: the monomials formed to build a multiplication matrix
    and those of the memoized minors may number at most
    RESULTANT_MAX_MONOMIALS together, and a product of an entry and a
    minor may form at most `width` times that many before cancellation,
    `width` being the size of the widest coefficient of the pair.  A
    Sylvester entry is such a coefficient, so there the minors alone
    decide.  Each product by c in c^(n-e) * Res(p, h) may hold at most
    RESULTANT_MAX_MONOMIALS monomials.
    DomainTooLarge is raised as soon as one would pass, so two short
    inputs cannot run for minutes or fill memory; an exponent past the
    cap raises DegreeOverflow.
    """
    n = p.degree_in(eliminate)
    m = q.degree_in(eliminate)
    if n == 0 and m == 0:
        raise DegenerateInput(f"neither polynomial involves {eliminate!r}")
    too_large = (f"resultant in {eliminate!r} needs more than "
                 f"{RESULTANT_MAX_MONOMIALS} monomials of minors")
    pc = _coefficients(p, eliminate, n)
    qc = _coefficients(q, eliminate, m)
    lead = pc[0]
    if n == m and lead == qc[0] != one():
        h = p + q
        if not h:
            return zero()
        e = h.degree_in(eliminate)
        try:
            r = _matrix_resultant(pc, _coefficients(h, eliminate, e), too_large)
        except (DegreeOverflow, DomainTooLarge):
            return _matrix_resultant(pc, qc, too_large)  # h may be denser than q
        for _ in range(n - e):
            r = lead * r
            if len(r._mono) > RESULTANT_MAX_MONOMIALS:
                raise DomainTooLarge(too_large)
        return r
    return _matrix_resultant(pc, qc, too_large)


def _coefficients(p: MPoly, v: str, degree: int) -> list[MPoly]:
    """p's coefficients in v, highest power first; degree is deg_v(p)."""
    return [p.coefficient_of(v, degree - k) for k in range(degree + 1)]


def _matrix_resultant(pc: list[MPoly], qc: list[MPoly], too_large: str) -> MPoly:
    """The resultant of the polynomials with coefficients pc and qc
    (highest power first) through the multiplication matrix of a monic
    one where there is one, else through the Sylvester matrix."""
    n, m = len(pc) - 1, len(qc) - 1
    width = max(len(c._mono) for c in pc + qc)
    p_monic = pc[0] == one()
    q_monic = qc[0] == one()
    if p_monic or q_monic:
        fc, gc = (pc, qc) if p_monic and (n <= m or not q_monic) else (qc, pc)
        try:
            rows, held = _multiplication_rows(fc, gc, too_large)
            return _determinant(rows, held, width, too_large)
        except (DegreeOverflow, DomainTooLarge):
            pass  # the entries reduced mod f outgrew a bound; Sylvester's may not
    # Each Sylvester row as its (column bit, entry) pairs, zero entries dropped.
    rows = [[(1 << (i + k), c) for k, c in enumerate(pc) if c] for i in range(m)]
    rows += [[(1 << (i + k), c) for k, c in enumerate(qc) if c] for i in range(n)]
    return _determinant(rows, 0, width, too_large)


def _multiplication_rows(fc: list[MPoly], gc: list[MPoly], too_large: str
                         ) -> tuple[list[list[tuple[int, MPoly]]], int]:
    """The matrix of multiplication by g on R[v]/(f), and the monomials
    formed to build it; fc and gc are the coefficients of f and g, highest
    power first, and f is monic of degree d = len(fc) - 1.

    The matrix comes as its columns, the rows of its transpose, which has
    the same determinant: row j holds (bit i, coefficient of v^i in
    v^j * g mod f), zero entries dropped.  Row 0 is g reduced from the top
    by v^d = (f's lower terms), an exact division by the monic f; row
    j + 1 is row j shifted up one power and reduced the same way.  The
    monomials formed are g's and those of every product before
    cancellation, which bound both the work and the entries; they count
    toward the bound before each product is formed.
    """
    d = len(fc) - 1
    lower = [(d - k, c) for k, c in enumerate(fc) if k and c]
    r = gc[::-1]  # the remainder, lowest power first
    formed = sum(len(c._mono) for c in r)
    rows = []
    for _ in range(d):
        for top in range(len(r) - 1, d - 1, -1):
            c = r[top]
            if not c:
                continue
            for k, fk in lower:
                formed += len(c._mono) * len(fk._mono)
                if formed > RESULTANT_MAX_MONOMIALS:
                    raise DomainTooLarge(too_large)
                r[top - d + k] += c * fk
        del r[d:]
        rows.append([(1 << i, c) for i, c in enumerate(r) if c])
        r.insert(0, zero())
    return rows, formed


def _determinant(rows: list[list[tuple[int, MPoly]]], held: int, width: int,
                 too_large: str) -> MPoly:
    """Determinant of a square matrix given by its rows of (column bit,
    entry) pairs, zero entries dropped.

    The rows are reordered sparsest first (a row swap changes no sign in
    characteristic 2), then the determinant is expanded along them by
    minors, memoized on the subset of columns still free: few nonzero
    entries near the top keep the set of reachable subsets small.  The
    memo is the work and the memory.  With the `held` monomials the
    caller already spent, its minors may hold at most
    RESULTANT_MAX_MONOMIALS monomials (a zero minor counts as one), and a
    product of an entry and a minor may form at most `width` times that
    many before cancellation.  DomainTooLarge(too_large) is raised as
    soon as the minor being summed would pass either.
    """
    rows = sorted(rows, key=len)
    order = len(rows)
    z = zero()
    memo: dict[int, MPoly] = {0: one()}
    held += 1

    def det(mask: int) -> MPoly:
        nonlocal held
        cached = memo.get(mask)
        if cached is not None:
            return cached
        acc = z
        for bit, entry in rows[order - mask.bit_count()]:
            if mask & bit:
                minor = det(mask ^ bit)
                if len(entry._mono) * len(minor._mono) > width * RESULTANT_MAX_MONOMIALS:
                    raise DomainTooLarge(too_large)
                acc = acc + entry * minor
                if held + len(acc._mono) > RESULTANT_MAX_MONOMIALS:
                    raise DomainTooLarge(too_large)  # one minor may not outgrow the bound either
        held += len(acc._mono) or 1
        if held > RESULTANT_MAX_MONOMIALS:
            raise DomainTooLarge(too_large)
        memo[mask] = acc
        return acc

    return det((1 << order) - 1)
