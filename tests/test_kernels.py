"""Kernels against their reference loops, and both backends against each other."""

import numpy as np
import pytest

from rotaperm import _kernels
from rotaperm.family import family_from_coeffs, named_family
from rotaperm.field import FieldCtx
from rotaperm.lift import ext_new
from rotaperm.permcheck import family_images

needs_numba = pytest.mark.skipif(
    _kernels.BACKEND != "numba", reason="numba backend unavailable"
)


@needs_numba
def test_scan_parity_on_permutation():
    ctx = FieldCtx(5)
    packed = family_images(ctx, named_family("T4"))
    space = 1 << 15
    assert tuple(_kernels.scan_bijection_numba(packed, space)) == \
        tuple(_kernels.scan_bijection_numpy(packed, space)) == (True, -1, -1)


@needs_numba
def test_scan_parity_on_collision():
    ctx = FieldCtx(3)
    packed = family_images(ctx, family_from_coeffs("00000001"))
    got_nb = tuple(_kernels.scan_bijection_numba(packed, 512))
    got_np = tuple(_kernels.scan_bijection_numpy(packed, 512))
    assert got_nb == got_np
    ok, at, first = got_nb
    assert not ok
    assert packed[at] == packed[first] and first < at


@pytest.mark.parametrize("m", [3, 5])
def test_scan_numpy_matches_reference_loop(m):
    """The sorting scan against the plain first-seen loop it replaces."""
    ctx = FieldCtx(m)
    space = 1 << (3 * m)
    bits = [f"{v:08b}" for v in range(256)] if m == 3 else ["00000001", "11111111", "10101010"]
    for b in bits:
        packed = family_images(ctx, family_from_coeffs(b))
        want = tuple(int(v) for v in _kernels._scan_bijection_py(packed, space))
        assert tuple(_kernels.scan_bijection_numpy(packed, space)) == want, b


def test_scan_numpy_matches_reference_loop_random():
    rng = np.random.default_rng(23)
    for size, top in ((2000, 1 << 27), (2000, 3000), (1, 5), (0, 5)):
        packed = rng.integers(0, top, size=size, dtype=np.uint32)
        want = tuple(int(v) for v in _kernels._scan_bijection_py(packed, top))
        assert tuple(_kernels.scan_bijection_numpy(packed, top)) == want


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


@needs_numba
def test_eval_terms_parity_random_terms():
    ext = ext_new(FieldCtx(3))
    ext._ensure_tables()
    rng = np.random.default_rng(22)
    exps = rng.integers(0, ext.group + 1, size=17, dtype=np.int64)
    logcs = rng.integers(0, ext.group, size=17, dtype=np.int64)
    a = _kernels.eval_terms_numba(exps, logcs, ext._exp, ext.group)
    b = _kernels.eval_terms_numpy(exps, logcs, ext._exp, ext.group)
    assert np.array_equal(a, b)


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
