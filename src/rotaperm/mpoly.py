"""Sparse multivariate polynomials over GF(2).

The ring is F2[x, y, z, a, b, c, t, Y, Z] with that fixed variable
order; a polynomial is a set of exponent vectors (coefficients are all
1, an absent vector means coefficient 0), so addition is symmetric
difference and squaring just doubles every exponent (Frobenius).

Canonical form orders terms descending-lexicographically by exponent
vector, which reproduces the usual "highest power first" reading of a
polynomial and makes printed comparisons byte-stable.

Per-variable exponents are capped below 64; overflowing the cap is a
hard error, never wraparound.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import (
    DegenerateInput,
    DegreeOverflow,
    MissingAssignment,
    PolyParseError,
    UnknownVariable,
    VariableMismatch,
)
from .field import FieldCtx

VARS: tuple[str, ...] = ("x", "y", "z", "a", "b", "c", "t", "Y", "Z")
MAX_EXPONENT = 63


class MPoly:
    """Immutable sparse polynomial over GF(2) in the fixed ring."""

    __slots__ = ("vars", "terms")

    def __init__(self, terms: Iterable[tuple[int, ...]] = (), vars: tuple[str, ...] = VARS) -> None:
        self.vars = vars
        acc: set[tuple[int, ...]] = set()
        for term in terms:
            term = tuple(term)
            if len(term) != len(vars):
                raise VariableMismatch(f"exponent vector {term} has wrong arity")
            if any(e < 0 or e > MAX_EXPONENT for e in term):
                raise DegreeOverflow(f"exponent outside 0..{MAX_EXPONENT}: {term}")
            acc.symmetric_difference_update({term})
        self.terms = frozenset(acc)

    # -- ring structure -------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        if self.vars != other.vars:
            raise VariableMismatch("polynomials live over different variable tuples")
        p = MPoly.__new__(MPoly)
        p.vars = self.vars
        p.terms = self.terms ^ other.terms
        return p

    def __mul__(self, other: "MPoly") -> "MPoly":
        if self.vars != other.vars:
            raise VariableMismatch("polynomials live over different variable tuples")
        acc: set[tuple[int, ...]] = set()
        for e1 in self.terms:
            for e2 in other.terms:
                s = tuple(u + v for u, v in zip(e1, e2))
                if s in acc:
                    acc.remove(s)
                else:
                    acc.add(s)
        for term in acc:
            if any(e > MAX_EXPONENT for e in term):
                raise DegreeOverflow(f"product exponent outside 0..{MAX_EXPONENT}: {term}")
        p = MPoly.__new__(MPoly)
        p.vars = self.vars
        p.terms = frozenset(acc)
        return p

    def sqr(self) -> "MPoly":
        """Frobenius: squaring doubles every exponent."""
        return MPoly((tuple(2 * e for e in term) for term in self.terms), self.vars)

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        result = one(self.vars)
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
            return self.vars == other.vars and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vars, self.terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"MPoly({to_text(self)!r})"

    def __str__(self) -> str:
        return to_text(self)

    # -- queries ----------------------------------------------------------

    def used_vars(self) -> set[str]:
        return {self.vars[i] for term in self.terms for i, e in enumerate(term) if e}

    def degree_in(self, var: str) -> int:
        """Formal degree in one variable (0 for the zero polynomial)."""
        i = _index_of(var, self.vars)
        return max((term[i] for term in self.terms), default=0)

    def coefficient_of(self, var: str, power: int) -> "MPoly":
        """Coefficient of var**power, as a polynomial with var removed."""
        i = _index_of(var, self.vars)
        picked = []
        for term in self.terms:
            if term[i] == power:
                reduced = list(term)
                reduced[i] = 0
                picked.append(tuple(reduced))
        return MPoly(picked, self.vars)


def _index_of(var: str, vars: tuple[str, ...]) -> int:
    try:
        return vars.index(var)
    except ValueError:
        raise UnknownVariable(f"variable {var!r} not in {vars}") from None


def zero(vars: tuple[str, ...] = VARS) -> MPoly:
    return MPoly((), vars)


def one(vars: tuple[str, ...] = VARS) -> MPoly:
    return MPoly([(0,) * len(vars)], vars)


def var(name: str, vars: tuple[str, ...] = VARS) -> MPoly:
    i = _index_of(name, vars)
    term = [0] * len(vars)
    term[i] = 1
    return MPoly([tuple(term)], vars)


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

def _term_key(term: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-e for e in term)


def to_text(p: MPoly) -> str:
    """Canonical text: terms descending-lex, explicit '*' and '^'."""
    if not p.terms:
        return "0"
    chunks = []
    for term in sorted(p.terms, key=_term_key):
        factors = []
        for name, e in zip(p.vars, term):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        chunks.append("*".join(factors) if factors else "1")
    return " + ".join(chunks)


def parse(text: str, vars: tuple[str, ...] = VARS) -> MPoly:
    """Parse the grammar  poly := term ('+' term)*  with
    term := factor ('*'? factor)*,  factor := VAR ('^' UINT)? | '0' | '1'.

    Whitespace is ignored; '*' is optional between factors.  Raises
    PolyParseError with the offending offset, or UnknownVariable for a
    letter outside the ring.
    """
    n = len(vars)
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
        if ch not in vars:
            raise UnknownVariable(f"variable {ch!r} not in the ring {vars}")
        idx = vars.index(ch)
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
        term = [0] * n
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
    return MPoly(terms, vars)


# ---------------------------------------------------------------------------
# substitution / evaluation / structure
# ---------------------------------------------------------------------------

def substitute(p: MPoly, mapping: Mapping[str, "MPoly | str"]) -> MPoly:
    """Simultaneous substitution variable -> polynomial (or variable name)."""
    repl: list[MPoly] = []
    for i, name in enumerate(p.vars):
        value = mapping.get(name)
        if value is None:
            repl.append(var(name, p.vars))
        elif isinstance(value, str):
            repl.append(var(value, p.vars))
        else:
            if value.vars != p.vars:
                raise VariableMismatch("replacement over a different variable tuple")
            repl.append(value)
    for key in mapping:
        _index_of(key, p.vars)
    out = zero(p.vars)
    power_cache: dict[tuple[int, int], MPoly] = {}
    for term in p.terms:
        prod = one(p.vars)
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


def evaluate(p: MPoly, ctx: FieldCtx, assignment: Mapping[str, int]) -> int:
    """Value of p under a full assignment of its occurring variables."""
    needed = p.used_vars()
    missing = needed - set(assignment)
    if missing:
        raise MissingAssignment(f"no value for {sorted(missing)}")
    values = [assignment.get(name, 0) for name in p.vars]
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


def homogeneous_degree(p: MPoly) -> int | None:
    """Common total degree of all terms, or None; zero polynomial -> 0."""
    degrees = {sum(term) for term in p.terms}
    if not degrees:
        return 0
    if len(degrees) == 1:
        return degrees.pop()
    return None


# ---------------------------------------------------------------------------
# Sylvester resultant
# ---------------------------------------------------------------------------

def resultant(p: MPoly, q: MPoly, eliminate: str) -> MPoly:
    """Determinant of the Sylvester matrix of p and q w.r.t. one variable.

    Entries are polynomials in the remaining variables; the determinant
    is expanded by minors with memoization on column subsets (no signs
    in characteristic 2).
    """
    n = p.degree_in(eliminate)
    m = q.degree_in(eliminate)
    if n == 0 and m == 0:
        raise DegenerateInput(f"neither polynomial involves {eliminate!r}")
    pc = [p.coefficient_of(eliminate, n - k) for k in range(n + 1)]
    qc = [q.coefficient_of(eliminate, m - k) for k in range(m + 1)]
    order = n + m
    z = zero(p.vars)
    rows: list[list[MPoly]] = []
    for i in range(m):
        rows.append([z] * i + pc + [z] * (order - n - 1 - i))
    for i in range(n):
        rows.append([z] * i + qc + [z] * (order - m - 1 - i))

    memo: dict[int, MPoly] = {0: one(p.vars)}

    def det(mask: int) -> MPoly:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        row = order - bin(mask).count("1")
        acc = z
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            entry = rows[row][bit.bit_length() - 1]
            if entry:
                acc = acc + entry * det(mask ^ bit)
        memo[mask] = acc
        return acc

    return det((1 << order) - 1)
