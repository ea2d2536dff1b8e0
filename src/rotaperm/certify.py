"""Symbolic and numeric certification of the identities behind the proofs.

Each certificate recomputes a derived object from defining inputs and
compares it with the recorded expansion (symbolic certs), or checks a
trace/zero-set claim over a small field (numeric certs): the character-sum
support at every parameter t and unknown w, and the zero set of A.
Defining formulas outrank recorded expansions: the two long reference
expansions of K1 and K2 are diffed informationally and never gate the
exit code.

The symbolic certificates take no arguments: each reads its recorded
inputs (P1, P2, P3, Q1, Q2, the factor lists and beta) from
rotaperm.resolvent when it is called.  The numeric ones take only a
FieldCtx.  Each product of the blocks is formed once per process:
AD+BC and AC+B^2, which the factorization certificate reads, and
K1 = (AC+B^2)^3 and K2 = A(AD+BC) built from them, which the beta
identity and the printed-expansion diffs read (the blocks are module
constants and an MPoly is immutable).  The zero-set claim for A
evaluates A alone (resolvent.resolvent_A, not the four blocks) on the
projective classes: A is homogeneous of degree 6, so it is zero on whole
lines through 0, and one representative per line stands for its q-1
points.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import resolvent as rs
from .field import FieldCtx, shared_field
from .mpoly import MPoly, resultant, to_text, zero
from .permcheck import projective_representatives
from .resolvent import resolvent_A


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
    g = resultant(rs.P1, rs.P3, "x")
    return _sym_report("resultant_g", g + rs.G_EXPANDED)


def cert_resultant_h() -> CertReport:
    """Res_z(g, P2) against its expansion, block by block in y."""
    h = resultant(rs.G_EXPANDED, rs.P2, "z")
    diff = h + rs.H_EXPANDED
    blocks = []
    for label, block, power in (("A", rs.A_BLOCK, 9), ("B", rs.B_BLOCK, 6),
                                ("C", rs.C_BLOCK, 3), ("D", rs.D_BLOCK, 0)):
        if h.coefficient_of("y", power) != block:
            blocks.append(label)
    notes = f"coefficient blocks differing: {blocks}" if blocks else "y^9/y^6/y^3/1 blocks all match"
    status = "pass" if not diff and not blocks else "fail"
    return CertReport("resultant_h", status, diff, notes)


@functools.cache
def _block_products() -> tuple[MPoly, MPoly]:
    """AD+BC and AC+B^2 of the blocks A..D, formed once per process."""
    A, B, C, D = rs.A_BLOCK, rs.B_BLOCK, rs.C_BLOCK, rs.D_BLOCK
    return A * D + B * C, A * C + B.sqr()


@functools.cache
def _k1_k2() -> tuple[MPoly, MPoly]:
    """K1 = (AC+B^2)^3 and K2 = A(AD+BC), derived once per process."""
    adbc, acb2 = _block_products()
    return acb2 ** 3, rs.A_BLOCK * adbc


def cert_factorizations() -> CertReport:
    """The three recorded product shapes of A, AD+BC, AC+B^2."""
    adbc, acb2 = _block_products()
    checks = (
        ("A", rs.A_BLOCK, rs.product(rs.A_FACTORS)),
        ("AD+BC", adbc, rs.product(rs.AD_BC_FACTORS)),
        ("AC+B^2", acb2, rs.product(rs.AC_B2_FACTORS)),
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
    residue = rs.BETA.sqr() + k2 * rs.BETA + k1
    return _sym_report("beta_identity", residue)


def beta_printed_expansions() -> list[CertReport]:
    """Informational diff of derived K1, K2 against their reference expansions."""
    k1, k2 = _k1_k2()
    return [
        _sym_report("printed_K1", k1 + rs.K1_EXPANDED, mandatory=False),
        _sym_report("printed_K2", k2 + rs.K2_EXPANDED, mandatory=False),
    ]


def cert_resultant_Q() -> CertReport:
    """Res_x(Q1, Q2) of the difference system against its recorded product form.

    Q1 and Q2 share the leading coefficient a+b in x, so mpoly.resultant
    takes it as (a+b) * Res_x(Q1, Q1+Q2), an order-3 Sylvester matrix.
    """
    r = resultant(rs.Q1, rs.Q2, "x")
    return _sym_report("resultant_Q", r + rs.EQ16_EXPANDED)


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
