"""Command-line entry point.

Every verb prints one JSON document on stdout and a short human summary
on stderr.  Exit codes: 0 success / mathematically true, 1 mathematical
negative (not a permutation, inequivalent, failed certificate), 2 usage
error, 3 internal inconsistency (a defensive invariant fired).
Identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .certify import run_all
from .errors import (
    EvenDegree,
    FormulaInconsistent,
    MultiplePreimages,
    NoPreimage,
    RotapermError,
)
from .family import NAMED_COEFFS, FamilySpec, family_from_coeffs, named_family
from .field import shared_field
from .invert import invert_point
from .lift import lift_permutation, lifted_from_json, qm_equivalent, shared_ext
from .mpoly import parse as parse_poly, resultant, to_text
from .permcheck import is_permutation
from .search import search_all, search_diff

INTERNAL_ERRORS = (FormulaInconsistent, NoPreimage, MultiplePreimages)


def _emit(payload, summary: str) -> None:
    print(json.dumps(payload))
    print(summary, file=sys.stderr)


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _family_from_args(args) -> FamilySpec:
    if args.family:
        return named_family(args.family)
    return family_from_coeffs(args.coeffs)


def _odd(m: int) -> int:
    if m % 2 == 0:
        raise EvenDegree("m must be odd")
    return m


def _cmd_verify(args) -> int:
    fam = _family_from_args(args)
    ctx = shared_field(_odd(args.m))
    report = is_permutation(ctx, fam)
    _emit(report.to_json(),
          f"family {report.family} at m={report.m}: "
          f"{'permutation' if report.is_permutation else 'NOT a permutation'}")
    return 0 if report.is_permutation else 1


def _cmd_invert(args) -> int:
    fam = named_family(args.family)
    ctx = shared_field(_odd(args.m))
    parts = args.target.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("target needs three comma-separated hex values")
    target = tuple(int(p, 16) for p in parts)
    if any(not 0 <= v < ctx.q for v in target):
        raise argparse.ArgumentTypeError(f"target coordinates must be < {ctx.q:#x}")
    preimage, method = invert_point(ctx, fam, target, args.method)
    _emit(
        {
            "target": [hex(v) for v in target],
            "preimage": [hex(v) for v in preimage],
            "method": method,
        },
        f"{args.family}^-1{tuple(hex(v) for v in target)} = {tuple(hex(v) for v in preimage)}",
    )
    return 0


def _cmd_lift(args) -> int:
    fam = named_family(args.family)
    # shared_ext refuses before any field is built.  Every named family
    # permutes at odd m.
    poly = lift_permutation(shared_ext(_odd(args.m)), fam)
    payload = poly.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh)
    _emit(payload, f"lift of {args.family} at m={args.m}: {len(poly.terms)} terms")
    return 0


def _cmd_qm(args) -> int:
    with open(args.p) as fh:
        p = lifted_from_json(json.load(fh))
    with open(args.q) as fh:
        q = lifted_from_json(json.load(fh))
    if p.ext != q.ext:
        return _fail_usage("the two polynomials live over different extensions")
    witness = qm_equivalent(p.ext, p, q)
    if witness is None:
        _emit({"equivalent": False}, "QM-inequivalent")
        return 1
    a, c, d = witness
    _emit(
        {"equivalent": True, "witness": {"a": hex(a), "c": hex(c), "d": d}},
        f"QM-equivalent via a={hex(a)}, c={hex(c)}, d={d}",
    )
    return 0


def _cmd_certify(args) -> int:
    reports = run_all(only=args.only)
    if not reports:
        return _fail_usage(f"no certificate matches {args.only!r}")
    _emit(
        [r.to_json() for r in reports],
        "\n".join(f"{r.name}: {r.status}" for r in reports),
    )
    return 0 if all(r.passed or not r.mandatory for r in reports) else 1


def _cmd_search(args) -> int:
    degrees = tuple(int(v) for v in args.m.split(","))
    report = search_all(degrees)
    candidates = search_diff(report) if len(degrees) >= 2 else None
    payload = report.to_json(candidates)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh)
    counts = ", ".join(f"m={m}: {len(report.results[m])}" for m in degrees)
    _emit(payload, f"permutation vectors per degree: {counts}")
    return 0


def _cmd_resultant(args) -> int:
    p = parse_poly(args.f)
    q = parse_poly(args.g)
    r = resultant(p, q, args.var)
    text = to_text(r)
    _emit({"var": args.var, "resultant": text}, text)
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls and returns a fresh Namespace each time."""
    parser = argparse.ArgumentParser(
        prog="rotaperm",
        description="Rotatable 3-homogeneous permutations of GF(2^m)^3: "
                    "verify, invert, lift, compare, certify, search.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("verify", help="exhaustively check that a family permutes GF(2^m)^3")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--family", choices=tuple(NAMED_COEFFS))
    grp.add_argument("--coeffs", help="8-character coefficient bitstring a1..a8")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("invert", help="preimage of a target point")
    p.add_argument("--family", required=True, choices=tuple(NAMED_COEFFS))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--target", required=True, help="HEX,HEX,HEX")
    p.add_argument("--method", default="auto", choices=("auto", "closed", "resolvent", "table"))
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("lift", help="permutation polynomial of GF(2^3m) for a family")
    p.add_argument("--family", required=True, choices=tuple(NAMED_COEFFS))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", help="also write the JSON to a file")
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("qm", help="decide quasi-multiplicative equivalence of two lifted polynomials")
    p.add_argument("--p", required=True, help="LiftedPoly JSON file")
    p.add_argument("--q", required=True, help="LiftedPoly JSON file")
    p.set_defaults(fn=_cmd_qm)

    p = sub.add_parser("certify", help="run the symbolic/numeric certificate suite")
    p.add_argument("--only", help="substring filter on certificate names")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("search", help="classify all 256 coefficient vectors")
    p.add_argument("--m", required=True, help="comma-separated odd degrees, e.g. 3,5,7")
    p.add_argument("--out", help="also write the JSON to a file")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("resultant", help="resultant of two polynomials in one variable")
    p.add_argument("-v", dest="var", required=True, help="variable to eliminate")
    p.add_argument("-f", dest="f", required=True, help="first polynomial")
    p.add_argument("-g", dest="g", required=True, help="second polynomial")
    p.set_defaults(fn=_cmd_resultant)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except INTERNAL_ERRORS as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except (RotapermError, argparse.ArgumentTypeError, ValueError, OSError) as exc:
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
