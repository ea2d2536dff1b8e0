"""Symbolic and numeric certification of the identities behind the proofs.

Each certificate recomputes a derived object from defining inputs and
compares it with the recorded expansion (symbolic certs), or checks a
trace/zero-set claim over a small field (numeric certs): the character-sum
support at every parameter t and unknown w, and the zero set of A.
Defining formulas outrank recorded expansions: the two long reference
expansions of K1 and K2 are diffed informationally and never gate the
exit code.

The recorded polynomials live here, their only reader in the package:
the three-equation system x^3+y^3 = a, y^3+z^3 = b, xy^2+yz^2+x^2z = c
behind the T1 inverter (P1, P2, P3), the expected expansions of its two
resultants, the A/B/C/D coefficient blocks of the cubic resolvent in
Y = y^3 with their product factorizations, the discriminant-trace
witness beta, and the difference-system polynomials (Q1, Q2 and their
resultant) of the character-sum verification.  Each is a fixed constant
of the ring F2[x,y,z,a,b,c,t,Y,Z], parsed at import.

The symbolic certificates take no arguments: each reads those module
constants when it is called.  The numeric ones take only a FieldCtx.
Each product of the blocks is formed once per process: AD+BC and
AC+B^2, which the factorization certificate reads, and K1 = (AC+B^2)^3
and K2 = A(AD+BC) built from them, which the beta identity and the
printed-expansion diffs read (an MPoly is immutable).  The zero-set
claim for A evaluates A alone (resolvent.resolvent_A, not the four
blocks) on the projective classes: A is homogeneous of degree 6, so it
is zero on whole lines through 0, and one representative per line
stands for its q-1 points.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .field import FieldCtx, shared_field
from .mpoly import MPoly, parse, resultant, to_text, zero
from .permcheck import projective_representatives
from .resolvent import resolvent_A

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


class CertReport(NamedTuple):
    name: str
    status: str  # "pass" | "fail"
    diff: MPoly | None = None
    notes: str = ""
    mandatory: bool = True

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        out = {"name": self.name, "status": self.status, "mandatory": self.mandatory}
        if self.notes:
            out["notes"] = self.notes
        if self.diff is not None and self.diff:
            text = to_text(self.diff)
            out["diff"] = text if len(text) <= 400 else f"{len(self.diff.terms)} differing monomials"
        return out


NUMERIC_MAX_M = 5  # the largest m cert_A_zero_classification accepts
NUMERIC_DEGREES = (3, 5)  # the degrees run_all runs the numeric checks at


def _sym_report(name: str, diff: MPoly, notes: str = "", mandatory: bool = True) -> CertReport:
    return CertReport(name, "pass" if not diff else "fail", diff, notes, mandatory)


def cert_resultant_g() -> CertReport:
    """Res_x(P1, P3) against its recorded ten-term expansion."""
    g = resultant(P1, P3, "x")
    return _sym_report("resultant_g", g + G_EXPANDED)


def cert_resultant_h() -> CertReport:
    """Res_z(g, P2) against its expansion, block by block in y."""
    h = resultant(G_EXPANDED, P2, "z")
    diff = h + H_EXPANDED
    blocks = []
    for label, block, power in (("A", A_BLOCK, 9), ("B", B_BLOCK, 6),
                                ("C", C_BLOCK, 3), ("D", D_BLOCK, 0)):
        if h.coefficient_of("y", power) != block:
            blocks.append(label)
    notes = f"coefficient blocks differing: {blocks}" if blocks else "y^9/y^6/y^3/1 blocks all match"
    status = "pass" if not diff and not blocks else "fail"
    return CertReport("resultant_h", status, diff, notes)


@functools.cache
def _block_products() -> tuple[MPoly, MPoly]:
    """AD+BC and AC+B^2 of the blocks A..D, formed once per process."""
    A, B, C, D = A_BLOCK, B_BLOCK, C_BLOCK, D_BLOCK
    return A * D + B * C, A * C + B.sqr()


@functools.cache
def _k1_k2() -> tuple[MPoly, MPoly]:
    """K1 = (AC+B^2)^3 and K2 = A(AD+BC), derived once per process."""
    adbc, acb2 = _block_products()
    return acb2 ** 3, A_BLOCK * adbc


def cert_factorizations() -> CertReport:
    """The three recorded product shapes of A, AD+BC, AC+B^2."""
    adbc, acb2 = _block_products()
    checks = (
        ("A", A_BLOCK, product(A_FACTORS)),
        ("AD+BC", adbc, product(AD_BC_FACTORS)),
        ("AC+B^2", acb2, product(AC_B2_FACTORS)),
    )
    total = zero()
    failing = []
    for label, lhs, rhs in checks:
        diff = lhs + rhs
        if diff:
            failing.append(label)
            total = total + diff
    notes = f"failing products: {failing}" if failing else "all three products match"
    return _sym_report("factorizations", total, notes)


def cert_beta_identity() -> CertReport:
    """beta^2 + A(AD+BC)*beta = (AC+B^2)^3 with K1, K2 built from A..D."""
    k1, k2 = _k1_k2()
    residue = BETA.sqr() + k2 * BETA + k1
    return _sym_report("beta_identity", residue)


def beta_printed_expansions() -> list[CertReport]:
    """Informational diff of derived K1, K2 against their reference expansions."""
    k1, k2 = _k1_k2()
    return [
        _sym_report("printed_K1", k1 + K1_EXPANDED, mandatory=False),
        _sym_report("printed_K2", k2 + K2_EXPANDED, mandatory=False),
    ]


def cert_resultant_Q() -> CertReport:
    """Res_x(Q1, Q2) of the difference system against its recorded product form.

    Q1 and Q2 share the leading coefficient a+b in x, so mpoly.resultant
    takes it as (a+b) * Res_x(Q1, Q1+Q2), an order-3 Sylvester matrix.
    """
    r = resultant(Q1, Q2, "x")
    return _sym_report("resultant_Q", r + EQ16_EXPANDED)


def cert_charsum_support(ctx: FieldCtx) -> CertReport:
    """Common zeros of M1, M2 and the trace obstruction, for every t != 1.

    The zero set must be exactly {0, ((1+t)(1+t+t^2))^-2} and
    Tr(1 + 1/(1+t) + (1/(1+t))^2) must be 1, which is what collapses the
    character sum to zero.

    One array pass: M1 and M2 are evaluated on the whole (q-1) x q grid
    of (t, w), t != 1, by table gathers, and the trace is summed over
    the q-1 parameters at once.  Notes come from the failing rows in t
    order, as Python ints.
    """
    if ctx.m % 2 == 0:
        return CertReport(f"charsum_support_m{ctx.m}", "fail", None, "odd m required")
    mul, inv, sqr = ctx.vmul, ctx.inv_table, ctx.sqr_table
    t = np.delete(np.arange(ctx.q), 1)[:, None]  # one row per parameter
    w = np.arange(ctx.q)[None, :]                # one column per unknown
    s = 1 ^ t ^ sqr[t]                           # 1 + t + t^2, never 0 for odd m
    u = 1 ^ t                                    # 1 + t, nonzero for t != 1
    m1c2 = sqr[mul(sqr[t], s)]                   # t^4 (1+t+t^2)^2
    m2c2 = sqr[s]                                # (1+t+t^2)^2
    c4 = mul(sqr[sqr[u]], sqr[sqr[sqr[s]]])      # (1+t)^4 (1+t+t^2)^8
    w2 = sqr[w]
    c4w4 = mul(sqr[w2], c4)
    m1 = w ^ mul(w2, m1c2) ^ c4w4
    m2 = mul(w, sqr[t]) ^ mul(w2, m2c2) ^ c4w4
    zeros = (m1 == 0) & (m2 == 0)
    root = inv[sqr[mul(u, s)]]
    expected = (w == 0) | (w == root)
    shift = 1 ^ inv[u] ^ sqr[inv[u]]
    trace = np.zeros_like(shift)
    for _ in range(ctx.m):
        trace ^= shift
        shift = sqr[shift]
    wrong_zeros = (zeros != expected).any(axis=1)
    no_obstruction = trace[:, 0] != 1
    bad: list[str] = []
    for i in np.flatnonzero(wrong_zeros | no_obstruction).tolist():
        ti = int(t[i, 0])
        if wrong_zeros[i]:
            found = np.flatnonzero(zeros[i]).tolist()
            want = sorted({0, int(root[i, 0])})
            bad.append(f"t={ti:#x}: zero set {found} != {want}")
        if no_obstruction[i]:
            bad.append(f"t={ti:#x}: trace obstruction absent")
    notes = "; ".join(bad[:4]) if bad else f"all {ctx.q - 1} parameters verified"
    return CertReport(f"charsum_support_m{ctx.m}", "pass" if not bad else "fail", None, notes)


def cert_A_zero_classification(ctx: FieldCtx) -> CertReport:
    """A(a,b,c) = 0 iff (b=0, a=c) or (a=0, b=c) or a=b=c, at every point.

    Every monomial of A has total degree 6, so A(l*v) = l^6 A(v) and both
    A = 0 and the three conditions are unions of lines through 0.  They
    are compared at the q^2+q+1 projective representatives and at the
    origin; a misclassified representative stands for the q-1 points of
    its line, so the notes count points as a full q^3 pass would.  Only A
    is read, so only A is evaluated: resolvent_A, 16 array products where
    the four blocks take 48.
    """
    if ctx.m % 2 == 0 or ctx.m > NUMERIC_MAX_M:
        return CertReport(f"A_zero_classification_m{ctx.m}", "fail", None, "odd m <= 5 required")
    a, b, c = (np.append(r, 0) for r in projective_representatives(ctx))  # the origin last
    A = resolvent_A(ctx, a, b, c)
    classified = ((b == 0) & (a == c)) | ((a == 0) & (b == c)) | ((a == b) & (b == c))
    wrong = (A == 0) != classified
    bad = (ctx.q - 1) * int(np.count_nonzero(wrong[:-1])) + int(wrong[-1])
    notes = f"{bad} misclassified points" if bad else f"all {ctx.q ** 3} points classified"
    return CertReport(f"A_zero_classification_m{ctx.m}", "pass" if bad == 0 else "fail", None, notes)


def run_all(only: str | None = None) -> list[CertReport]:
    """Every certificate in fixed registration order (filtered by substring)."""
    reports: list[CertReport] = [
        cert_resultant_g(),
        cert_resultant_h(),
        cert_factorizations(),
        cert_beta_identity(),
        *beta_printed_expansions(),
        cert_resultant_Q(),
    ]
    ctxs = [shared_field(m) for m in NUMERIC_DEGREES]
    reports += [cert_charsum_support(ctx) for ctx in ctxs]
    reports += [cert_A_zero_classification(ctx) for ctx in ctxs]
    if only is not None:
        reports = [r for r in reports if only in r.name]
    return reports
