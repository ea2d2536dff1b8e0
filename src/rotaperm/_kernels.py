"""Hot inner loops, in numpy.

The first-collision scan over packed images, the lift's nine
Dembowski-Ostrom coefficient sums and the sparse evaluation of a lifted
polynomial.  Each is a plain vectorised numpy kernel; the tests keep a
pointwise loop beside each one as its oracle.
"""

from __future__ import annotations

import numpy as np

# perfbench/run.py reports this and perfbench/test_smoke.py asserts it.
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# first-collision scan over packed images
# ---------------------------------------------------------------------------

SCAN_BLOCK = 1 << 16  # entries per step of the index OR and the neighbour compare


def scan_bijection(packed: np.ndarray):
    """First collision in scan order via one sort (no Python loop).

    Each image goes above its index in a uint64, shifted by the bit width
    of the largest index, so a plain sort puts equal images next to each
    other in index order, as a stable argsort would, at a fraction of its
    cost.  Needs the image bits and the index bits to fit 64 together:
    3m + 24 <= 57 for every witness prefix field.admit admits.  The
    uint64 array is the only full-size temporary: it is shifted in place,
    and the indices are ORed in and neighbours compared SCAN_BLOCK entries
    at a time, so the scan allocates little more than one uint64 per
    entry.

    Returns (bijective, collide_index, first_index): the smallest index
    whose image already occurred, and where it first occurred.
    """
    n = packed.shape[0]
    width = np.uint64(max(n - 1, 0).bit_length())
    low = (np.uint64(1) << width) - np.uint64(1)
    tagged = packed.astype(np.uint64)
    tagged <<= width
    for s in range(0, n, SCAN_BLOCK):
        tagged[s:s + SCAN_BLOCK] |= np.arange(s, min(s + SCAN_BLOCK, n), dtype=np.uint64)
    tagged.sort()
    best = None  # (collide_index, first_index) of the smallest collide_index so far
    for s in range(0, n - 1, SCAN_BLOCK):
        block = tagged[s:s + SCAN_BLOCK + 1]
        high = block >> width
        # Neighbours share an image exactly when their high parts agree.
        dup = np.flatnonzero(high[1:] == high[:-1])
        if dup.size:
            second = block[dup + 1] & low
            k = int(np.argmin(second))
            if best is None or int(second[k]) < best[0]:
                best = (int(second[k]), int(block[dup[k]] & low))
    if best is None:
        return True, -1, -1
    return False, *best


# ---------------------------------------------------------------------------
# coefficient extraction for the lift, over coset representatives
# ---------------------------------------------------------------------------
# Inputs are in discrete-log form over the multiplicative group of size
# group = 2^(3m) - 1: rep_log[i] is the log of coset representative i of
# GF(2^3m)*/GF(2^m)*, rep_logv[i] the log of the map's value there (-1 for
# value 0), and exp_table[i] the element with log i.

INTERP_CHUNK = 1 << 15  # bounds the (k, representative) block per step


def interp_coeffs(rep_log: np.ndarray, rep_logv: np.ndarray, exp_table: np.ndarray,
                  group: int, ks: np.ndarray) -> np.ndarray:
    """c_k = sum_r F'(r) r^-k for each exponent k of ks, each in [1, group-1].

    Blocks of k are taken INTERP_CHUNK // len(reps) at a time, so memory
    stays linear in the number of representatives.  k * log < 2^(6m)
    fits int64 for every base degree the log tables allow.
    """
    ks = np.asarray(ks, dtype=np.int64)
    coeffs = np.zeros(ks.size, dtype=np.uint32)
    keep = rep_logv >= 0
    lr = rep_log[keep].astype(np.int64)
    lv = rep_logv[keep].astype(np.int64)
    if lr.size:
        rows = max(1, INTERP_CHUNK // lr.size)
        for s in range(0, ks.size, rows):
            k = ks[s:s + rows, None]
            coeffs[s:s + rows] = np.bitwise_xor.reduce(exp_table[(lv - k * lr) % group], axis=1)
    return coeffs


# ---------------------------------------------------------------------------
# sparse-polynomial evaluation at nonzero points
# ---------------------------------------------------------------------------
# Terms are (exponent, log coefficient) pairs; output v[i] is the value
# at the point with discrete log logs[i] (the zero point is the caller's).

def eval_terms(term_exp: np.ndarray, term_logc: np.ndarray,
               exp_table: np.ndarray, group: int, logs: np.ndarray) -> np.ndarray:
    j = np.asarray(logs, dtype=np.int64)
    values = np.zeros(j.shape, dtype=np.uint32)
    for e, lc in zip(term_exp.tolist(), term_logc.tolist()):
        values ^= exp_table[(lc + e * j) % group]
    return values
