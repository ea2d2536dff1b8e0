"""Hot inner loops, in numpy.

The first-collision scan over packed images, the lift's coset
interpolation and the sparse evaluation of a lifted polynomial.  Each
is a plain vectorised numpy kernel; the tests keep a pointwise loop
beside each one as its oracle.
"""

from __future__ import annotations

import numpy as np

# perfbench/run.py reports this and perfbench/test_smoke.py asserts it.
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# first-collision scan over packed images
# ---------------------------------------------------------------------------

def scan_bijection(packed: np.ndarray):
    """First collision in scan order via one sort (no Python loop).

    Each image goes above its index in a uint64, so a plain sort puts
    equal images next to each other in index order, as a stable argsort
    would, at a fraction of its cost.  Needs images and indices < 2^32.

    Returns (bijective, collide_index, first_index): the smallest index
    whose image already occurred, and where it first occurred.
    """
    tagged = packed.astype(np.uint64) << np.uint64(32)
    tagged |= np.arange(packed.shape[0], dtype=np.uint64)
    tagged.sort()
    # Neighbours share an image exactly when they differ only in the index bits.
    dup = np.flatnonzero((tagged[1:] ^ tagged[:-1]) >> np.uint64(32) == 0)
    if not dup.size:
        return True, -1, -1
    second = tagged[dup + 1] & np.uint64(0xFFFFFFFF)
    k = int(np.argmin(second))
    return False, int(second[k]), int(tagged[dup[k]] & np.uint64(0xFFFFFFFF))


# ---------------------------------------------------------------------------
# coefficient extraction for the lift, over coset representatives
# ---------------------------------------------------------------------------
# Inputs are in discrete-log form over the multiplicative group of size
# group = 2^(3m) - 1: rep_log[i] is the log of coset representative i of
# GF(2^3m)*/GF(2^m)*, rep_logv[i] the log of the map's value there (-1 for
# value 0), and exp_table[i] the element with log i.

INTERP_CHUNK = 1 << 15  # bounds the (k, representative) block per step


def interp_coeffs(rep_log: np.ndarray, rep_logv: np.ndarray, exp_table: np.ndarray,
                  group: int, d: int, period: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents k = d (mod period) in [1, group-1] and c_k = sum_r F'(r) r^-k.

    Blocks of k are taken INTERP_CHUNK // len(reps) at a time, so memory
    stays linear in the number of representatives.  k * log < 2^(6m)
    fits int64 for every base degree the log tables allow.
    """
    ks = np.arange(d % period or period, group, period, dtype=np.int64)
    coeffs = np.zeros(ks.size, dtype=np.uint32)
    keep = rep_logv >= 0
    lr = rep_log[keep].astype(np.int64)
    lv = rep_logv[keep].astype(np.int64)
    if lr.size:
        rows = max(1, INTERP_CHUNK // lr.size)
        for s in range(0, ks.size, rows):
            k = ks[s:s + rows, None]
            coeffs[s:s + rows] = np.bitwise_xor.reduce(exp_table[(lv - k * lr) % group], axis=1)
    return ks, coeffs


# ---------------------------------------------------------------------------
# sparse-polynomial evaluation at every nonzero point
# ---------------------------------------------------------------------------
# Terms are (exponent, log coefficient) pairs; output v[j] is the value
# at the point with discrete log j (the zero point is the caller's).

def eval_terms(term_exp: np.ndarray, term_logc: np.ndarray,
               exp_table: np.ndarray, group: int) -> np.ndarray:
    values = np.zeros(group, dtype=np.uint32)
    j = np.arange(group, dtype=np.int64)
    for e, lc in zip(term_exp.tolist(), term_logc.tolist()):
        values ^= exp_table[(lc + e * j) % group]
    return values
