"""Kernels against their reference loops."""

import tracemalloc

import numpy as np
import pytest

from rotaperm import _kernels
from rotaperm.family import family_from_coeffs
from rotaperm.field import FieldCtx
from rotaperm.lift import ExtCtx
from rotaperm.permcheck import family_images


def _scan_bijection_py(packed: np.ndarray):
    """Reference loop: the first index whose image was already seen, and where."""
    seen = {}
    for i, v in enumerate(packed.tolist()):
        if v in seen:
            return False, i, seen[v]
        seen[v] = i
    return True, -1, -1


@pytest.mark.parametrize("m", [3, 5])
def test_scan_numpy_matches_reference_loop(m):
    """The sorting scan against the plain first-seen loop."""
    ctx = FieldCtx(m)
    bits = [f"{v:08b}" for v in range(256)] if m == 3 else ["00000001", "11111111", "10101010"]
    for b in bits:
        packed = family_images(ctx, family_from_coeffs(b))
        assert tuple(_kernels.scan_bijection(packed)) == _scan_bijection_py(packed), b


def test_scan_numpy_matches_reference_loop_random():
    rng = np.random.default_rng(23)
    for size, top in ((2000, 1 << 27), (2000, 3000), (1, 5), (0, 5)):
        packed = rng.integers(0, top, size=size, dtype=np.uint32)
        assert tuple(_kernels.scan_bijection(packed)) == _scan_bijection_py(packed)


@pytest.mark.parametrize("n", [2, 3000, 1 << 16])
def test_scan_reads_images_past_32_bits(n):
    """Images up to 2^40, as wide as F's 33 at m = 11 and more, each beside
    a twin that differs only in bit 32: the scan shifts each image by the
    bit width of the index, not by 32, so a twin is no collision, and the
    first repeat is the reference loop's.  The same images with one true
    repeat planted, and with none."""
    rng = np.random.default_rng(n)
    half = rng.integers(0, 1 << 40, size=n // 2, dtype=np.uint64)
    packed = rng.permutation(np.concatenate([half, half ^ np.uint64(1 << 32)]))
    assert _scan_bijection_py(packed)[0]
    assert tuple(_kernels.scan_bijection(packed)) == (True, -1, -1)
    later = int(rng.integers(1, n))
    packed[later] = packed[int(rng.integers(0, later))]
    assert tuple(_kernels.scan_bijection(packed)) == _scan_bijection_py(packed)


@pytest.mark.parametrize("block", [1, 3, 1 << 30])
def test_scan_independent_of_block(monkeypatch, block):
    """The block size of the index OR and neighbour compare bounds memory, not results."""
    monkeypatch.setattr(_kernels, "SCAN_BLOCK", block)
    rng = np.random.default_rng(24)
    for size, top in ((500, 1 << 20), (500, 300), (2, 1), (1, 5), (0, 5)):
        packed = rng.integers(0, top, size=size, dtype=np.uint32)
        assert tuple(_kernels.scan_bijection(packed)) == _scan_bijection_py(packed)


@pytest.mark.parametrize("bits", ["00000001", "10000000"])
def test_scan_peak_memory_bounded(bits):
    """At m=7 the scan allocates at most 1.25x the bytes of its 16 MB uint64
    input: 20 MB, the bound 2.5x gave its 8 MB uint32 input."""
    packed = family_images(FieldCtx(7), family_from_coeffs(bits))
    tracemalloc.start()
    try:
        bijective, _, _ = _kernels.scan_bijection(packed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not bijective
    assert peak <= 1.25 * packed.nbytes


def test_interp_coeffs_independent_of_chunk(monkeypatch):
    """The block size of the coset interpolation bounds memory, not results."""
    ext = ExtCtx(FieldCtx(3))
    ext._ensure_tables()
    rng = np.random.default_rng(21)
    rep_log = rng.permutation(ext.group)[:73]
    rep_logv = rng.integers(-1, ext.group, size=73, dtype=np.int64)
    ks = np.arange(3, ext.group, 7)
    want = _kernels.interp_coeffs(rep_log, rep_logv, ext._exp, ext.group, ks)
    for chunk in (1, 100, 1 << 30):
        monkeypatch.setattr(_kernels, "INTERP_CHUNK", chunk)
        got = _kernels.interp_coeffs(rep_log, rep_logv, ext._exp, ext.group, ks)
        assert np.array_equal(got, want)
    assert want.shape == ks.shape
    for j, k in enumerate(ks.tolist()):
        acc = 0
        for lr, lv in zip(rep_log.tolist(), rep_logv.tolist()):
            if lv >= 0:
                acc ^= int(ext._exp[(lv - k * lr) % ext.group])
        assert int(want[j]) == acc


def test_interp_coeffs_all_zero_values():
    ext = ExtCtx(FieldCtx(3))
    ext._ensure_tables()
    ks = np.arange(7, ext.group, 7)
    coeffs = _kernels.interp_coeffs(np.arange(73), np.full(73, -1), ext._exp, ext.group, ks)
    assert coeffs.shape == ks.shape
    assert not coeffs.any()


@pytest.mark.parametrize("size", [0, 1, 17])
def test_eval_terms_matches_pointwise_sum(size):
    """Value i is sum_k c_k * t^e_k at the point t with log logs[i], by scalar
    arithmetic, for every log and for a seeded subset of logs."""
    ext = ExtCtx(FieldCtx(3))
    ext._ensure_tables()
    rng = np.random.default_rng(22 + size)
    exps = rng.integers(0, ext.group + 1, size=size, dtype=np.int64)
    logcs = rng.integers(0, ext.group, size=size, dtype=np.int64)
    exps[:2] = (0, ext.group)[:size]  # a constant term and the top exponent
    coefs = [int(ext._exp[lc]) for lc in logcs.tolist()]
    subset = rng.choice(ext.group, size=40, replace=False)
    for logs in (np.arange(ext.group), subset):
        got = _kernels.eval_terms(exps, logcs, ext._exp, ext.group, logs)
        assert got.shape == logs.shape
        for i, j in enumerate(logs.tolist()):
            t = int(ext._exp[j])
            want = 0
            for e, c in zip(exps.tolist(), coefs):
                want ^= ext.mul(c, ext.pow(t, e))
            assert int(got[i]) == want, j


def test_worker_count_env(monkeypatch):
    """The search pool has one thread, whatever ROTAPERM_THREADS says."""
    from rotaperm.search import worker_count
    for value in ("3", "0", "nonsense"):
        monkeypatch.setenv("ROTAPERM_THREADS", value)
        assert worker_count() == 1
    monkeypatch.delenv("ROTAPERM_THREADS")
    assert worker_count() == 1
