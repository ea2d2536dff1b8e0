"""Kernels against their reference loops."""

import numpy as np
import pytest

from rotaperm import _kernels
from rotaperm.family import family_from_coeffs
from rotaperm.field import FieldCtx
from rotaperm.lift import ext_new
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


def test_interp_coeffs_independent_of_chunk(monkeypatch):
    """The block size of the coset interpolation bounds memory, not results."""
    ext = ext_new(FieldCtx(3))
    ext._ensure_tables()
    rng = np.random.default_rng(21)
    rep_log = rng.permutation(ext.group)[:73]
    rep_logv = rng.integers(-1, ext.group, size=73, dtype=np.int64)
    want = _kernels.interp_coeffs(rep_log, rep_logv, ext._exp, ext.group, 3, 7)
    for chunk in (1, 100, 1 << 30):
        monkeypatch.setattr(_kernels, "INTERP_CHUNK", chunk)
        got = _kernels.interp_coeffs(rep_log, rep_logv, ext._exp, ext.group, 3, 7)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert want[0].tolist() == list(range(3, ext.group, 7))
    for j, k in enumerate(want[0].tolist()):
        acc = 0
        for lr, lv in zip(rep_log.tolist(), rep_logv.tolist()):
            if lv >= 0:
                acc ^= int(ext._exp[(lv - k * lr) % ext.group])
        assert int(want[1][j]) == acc


def test_interp_coeffs_all_zero_values():
    ext = ext_new(FieldCtx(3))
    ext._ensure_tables()
    ks, coeffs = _kernels.interp_coeffs(np.arange(73), np.full(73, -1), ext._exp, ext.group, 0, 7)
    assert ks.tolist() == list(range(7, ext.group, 7))
    assert not coeffs.any()


@pytest.mark.parametrize("size", [0, 1, 17])
def test_eval_terms_matches_pointwise_sum(size):
    """Value j is sum_i c_i * t^e_i at the point t with log j, by scalar arithmetic."""
    ext = ext_new(FieldCtx(3))
    ext._ensure_tables()
    rng = np.random.default_rng(22 + size)
    exps = rng.integers(0, ext.group + 1, size=size, dtype=np.int64)
    logcs = rng.integers(0, ext.group, size=size, dtype=np.int64)
    exps[:2] = (0, ext.group)[:size]  # a constant term and the top exponent
    got = _kernels.eval_terms(exps, logcs, ext._exp, ext.group)
    assert got.shape == (ext.group,)
    coefs = [int(ext._exp[lc]) for lc in logcs.tolist()]
    for j in range(ext.group):
        t = int(ext._exp[j])
        want = 0
        for e, c in zip(exps.tolist(), coefs):
            want ^= ext.mul(c, ext.pow(t, e))
        assert int(got[j]) == want, j


def test_worker_count_env(monkeypatch):
    from rotaperm.search import worker_count
    monkeypatch.setenv("ROTAPERM_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("ROTAPERM_THREADS", "0")
    assert worker_count() >= 1
    monkeypatch.setenv("ROTAPERM_THREADS", "nonsense")
    assert worker_count() >= 1
    monkeypatch.delenv("ROTAPERM_THREADS")
    assert worker_count() >= 1
