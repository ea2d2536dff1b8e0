"""Exhaustive classification of all 256 coefficient vectors.

For each requested odd degree every family of the eight-bit shape is
run through the projective bijectivity decision without a witness (see
rotaperm.permcheck), so each decision images q^2+q+1 representatives
and never the full cube.  The report records the per-degree permutation
sets (as bitstrings, sorted), their intersection, and whether the five
named families showed up everywhere they must.

Families are dispatched to a thread pool (ROTAPERM_THREADS caps the
width, 0 or unset means one worker per CPU); results merge in bitstring
order, so repeated runs are bit-identical.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .errors import DomainTooLarge, EvenDegree
from .family import NAMED_COEFFS, all_families
from .field import FieldCtx
from .permcheck import is_permutation

SEARCH_MAX_M = 7
SEARCH_LARGE_M = 9
ALL_ZERO = "00000000"


def worker_count() -> int:
    raw = os.environ.get("ROTAPERM_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    return n if n > 0 else (os.cpu_count() or 1)


@dataclass(frozen=True)
class SearchReport:
    degrees: tuple[int, ...]
    results: dict[int, tuple[str, ...]]
    intersection: tuple[str, ...]
    contains_five_families: dict[int, bool]

    def to_json(self, candidates: tuple[str, ...] | None = None) -> dict:
        out = {
            "m": list(self.degrees),
            "results": {str(m): list(v) for m, v in self.results.items()},
            "intersection": list(self.intersection),
        }
        if candidates is not None:
            out["candidates"] = list(candidates)
        return out


def _check_degree(m: int, allow_large: bool) -> None:
    if m % 2 == 0:
        raise EvenDegree(f"m={m}: no 3-homogeneous permutation exists for even m")
    if m <= SEARCH_MAX_M:
        return
    if m == SEARCH_LARGE_M and allow_large:
        warnings.warn(f"m={m} scan of all 256 families will take a while", stacklevel=3)
        return
    raise DomainTooLarge(f"search capped at m={SEARCH_MAX_M} (m=9 behind allow_large)")


def named_bitstrings() -> tuple[str, ...]:
    return tuple("".join(str(b) for b in coeffs) for coeffs in NAMED_COEFFS.values())


def search_all(degrees, allow_large: bool = False) -> SearchReport:
    """Classify every coefficient vector over each requested degree."""
    degrees = tuple(degrees)
    for m in degrees:
        _check_degree(m, allow_large)
    named = set(named_bitstrings())
    families = list(all_families())
    results: dict[int, tuple[str, ...]] = {}
    for m in degrees:
        ctx = FieldCtx(m)
        # Builds the shared field tables and warms the kernel outside the pool.
        is_permutation(ctx, families[0], witness=False)
        def job(fam):
            return fam.bitstring(), is_permutation(ctx, fam, witness=False).is_permutation
        with ThreadPoolExecutor(max_workers=worker_count()) as pool:
            hits = [bits for bits, ok in pool.map(job, families) if ok]
        results[m] = tuple(sorted(hits))
    common = None
    for m in degrees:
        s = set(results[m])
        common = s if common is None else common & s
    intersection = tuple(sorted(common or ()))
    contains = {m: named <= set(results[m]) for m in degrees}
    return SearchReport(degrees, results, intersection, contains)


def search_diff(report: SearchReport) -> tuple[str, ...]:
    """Vectors that permute for every tested degree but are not the five
    named families nor the all-zero monomial vector: candidates for new
    infinite classes."""
    if len(report.degrees) < 2:
        raise ValueError("diff needs results for at least two degrees")
    excluded = set(named_bitstrings()) | {ALL_ZERO}
    return tuple(sorted(set(report.intersection) - excluded))
