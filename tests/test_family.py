"""Family construction, rotation structure, and numeric/symbolic agreement."""

import random
import sys

import numpy as np
import pytest

import oracles
import rotaperm.mpoly
from rotaperm.errors import UnknownName
from rotaperm.family import NAMED_COEFFS, all_families, eval_F, family_from_coeffs, named_family
from rotaperm.field import FieldCtx
from rotaperm.invert import invert_point
from rotaperm.mpoly import parse, substitute
from rotaperm.permcheck import family_images, is_permutation

from oracles import LI_NIKOLAY_F1, evaluate, homogeneous_degree, is_rotatable, symbolic_map


def test_coefficient_layout():
    t3 = family_from_coeffs((0, 0, 0, 0, 0, 0, 1, 1))
    assert symbolic_map(t3)[0] == parse("x^3 + y*z^2 + y^2*z")
    assert symbolic_map(family_from_coeffs((0,) * 8))[0] == parse("x^3")
    assert symbolic_map(family_from_coeffs((1, 0, 0, 1, 1, 0, 1, 0)))[0] == parse(
        "x^3 + y^3 + x^2*z + x*y^2 + y*z^2"
    )


def test_named_families():
    assert named_family("T3").coeffs == (0, 0, 0, 0, 0, 0, 1, 1)
    assert named_family("T5").coeffs == (0, 0, 1, 1, 1, 1, 0, 0)
    assert symbolic_map(named_family("T1"))[0] == parse("x^3 + y^3 + x^2*z + x*y^2 + y*z^2")
    assert symbolic_map(named_family("T2"))[0] == parse("x^3 + x^2*y + x*y^2 + x^2*z + y*z^2")
    assert symbolic_map(named_family("T4"))[0] == parse("x^3 + y^3 + x^2*y + x^2*z + y*z^2")
    with pytest.raises(UnknownName):
        named_family("T9")


def test_every_family_is_3_homogeneous_and_rotatable():
    for fam in all_families():
        assert homogeneous_degree(symbolic_map(fam)[0]) == 3
        assert is_rotatable(symbolic_map(fam))


def test_components_are_rotations():
    f1, f2, f3 = symbolic_map(named_family("T3"))
    sigma = {"x": "y", "y": "z", "z": "x"}
    assert f2 == substitute(f1, sigma)
    assert f3 == substitute(f2, sigma)


_EAGER_MONOMIALS = ("y^3", "z^3", "x^2*y", "x*y^2", "x^2*z", "x*z^2", "y*z^2", "y^2*z")


def test_lazy_symbolic_map_equals_eager_construction():
    sigma = {"x": "y", "y": "z", "z": "x"}
    for fam in all_families():
        f = parse("x^3")
        for bit, mono in zip(fam.coeffs, _EAGER_MONOMIALS):
            if bit:
                f = f + parse(mono)
        f2 = substitute(f, sigma)
        assert symbolic_map(fam) == (f, f2, substitute(f2, sigma))
        assert is_rotatable(symbolic_map(fam))


def test_numeric_paths_never_build_the_symbolic_map(f8, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("symbolic construction on a numeric path")

    originals = (rotaperm.mpoly.parse, rotaperm.mpoly.substitute)
    for module in [m for name, m in sys.modules.items()
                   if name.startswith("rotaperm") or name == "oracles"]:
        for attr in ("parse", "substitute"):
            if getattr(module, attr, None) in originals:
                monkeypatch.setattr(module, attr, refuse)
    oracles._symbolic.cache_clear()  # a memoised map must not hide a build
    for name, coeffs in NAMED_COEFFS.items():
        fam = named_family(name)
        assert family_from_coeffs(coeffs) == fam
        assert is_permutation(f8, fam).is_permutation
        for point in [(1, 2, 3), (6, 0, 5), (7, 7, 4)]:
            target = eval_F(f8, fam, point)
            assert invert_point(f8, fam, target)[0] == point
    with pytest.raises(RuntimeError):
        symbolic_map(named_family("T1"))


def test_bitstring_serialization():
    assert named_family("T3").bitstring() == "00000011"
    assert family_from_coeffs("10011010").bitstring() == "10011010"
    assert family_from_coeffs("10011010").coeffs == named_family("T1").coeffs


def test_row_and_bitstring_are_kept_on_the_spec():
    """The cached row and bitstring of a spec, however it was built, equal
    the ones computed from its bits."""
    for v, fam in enumerate(all_families()):
        bits = "".join(map(str, fam.coeffs))
        built = (fam, family_from_coeffs(bits), family_from_coeffs(fam.coeffs))
        for spec in built:
            assert spec.row == int(bits, 2) == v
            assert spec.bitstring() == bits and spec.bitstring() is spec.bitstring()
        assert built[1] == built[2] == fam and hash(built[1]) == hash(built[2]) == hash(fam)
    for name, coeffs in NAMED_COEFFS.items():
        fam = named_family(name)
        assert fam.row == int("".join(map(str, coeffs)), 2)
        assert fam.bitstring() == "".join(map(str, coeffs))
        assert fam == named_family(name) == family_from_coeffs(coeffs)
        assert hash(fam) == hash(family_from_coeffs(coeffs))


def test_is_rotatable_counterexamples():
    x3, y3 = parse("x^3"), parse("y^3")
    assert not is_rotatable((x3, y3, x3))
    # The literal APN triple is not rotatable under the strict
    # component-rotation reading.
    assert not is_rotatable(LI_NIKOLAY_F1)


# -- numeric evaluation ---------------------------------------------------------

def test_eval_examples(f8):
    t3 = named_family("T3")
    assert eval_F(f8, t3, (1, 1, 1)) == (1, 1, 1)
    rng = random.Random(2)
    for _ in range(20):
        fam = family_from_coeffs(tuple(rng.randrange(2) for _ in range(8)))
        assert eval_F(f8, fam, (0, 0, 0)) == (0, 0, 0)


def test_eval_against_per_monomial_oracle(f8):
    """Sum each monomial of f independently at (1, g, g^2)."""
    t3 = named_family("T3")
    x, y, z = 1, 0x2, 0x4
    fx = f8.pow(x, 3) ^ f8.mul(y, f8.sqr(z)) ^ f8.mul(f8.sqr(y), z)
    fy = f8.pow(y, 3) ^ f8.mul(z, f8.sqr(x)) ^ f8.mul(f8.sqr(z), x)
    fz = f8.pow(z, 3) ^ f8.mul(x, f8.sqr(y)) ^ f8.mul(f8.sqr(x), y)
    assert eval_F(f8, t3, (x, y, z)) == (fx, fy, fz)


def test_even_m_evaluation_warns():
    ctx = FieldCtx(2)
    with pytest.warns(UserWarning):
        eval_F(ctx, named_family("T3"), (1, 1, 0))


def test_symbolic_numeric_agreement_exhaustive_m3(f8):
    rng = random.Random(17)
    fams = [named_family(n) for n in NAMED_COEFFS]
    fams += [family_from_coeffs(tuple(rng.randrange(2) for _ in range(8))) for _ in range(8)]
    for fam in fams:
        for x in f8.elements():
            for y in f8.elements():
                for z in f8.elements():
                    point = {"x": x, "y": y, "z": z}
                    expected = tuple(evaluate(comp, f8, point) for comp in symbolic_map(fam))
                    assert eval_F(f8, fam, (x, y, z)) == expected


# -- equivariance and homogeneity (vectorized over all 256 families) ------------

def _packed_rotate(img: np.ndarray, m: int) -> np.ndarray:
    mask = (1 << m) - 1
    f1, f2, f3 = img >> (2 * m), (img >> m) & mask, img & mask
    return (f2 << (2 * m)) | (f3 << m) | f1


def test_equivariance_all_families_m3(f8):
    q, m = f8.q, f8.m
    for fam in all_families():
        img = family_images(f8, fam).reshape(q, q, q)
        lhs = img.transpose(2, 0, 1).reshape(-1)   # F(sigma(v)) = F(y, z, x)
        rhs = _packed_rotate(family_images(f8, fam), m)
        assert np.array_equal(lhs, rhs)


def test_homogeneity_all_families_m3(f8):
    q, m = f8.q, f8.m
    mt = f8.mul_table.astype(np.uint32)
    for fam in all_families():
        img = family_images(f8, fam).reshape(q, q, q)
        for lam in range(1, q):
            row = mt[lam]
            scaled_points = img[np.ix_(row, row, row)].reshape(-1)
            cube = int(f8.pow(lam, 3))
            crow = mt[cube]
            v = family_images(f8, fam)
            mask = (1 << m) - 1
            scaled_values = ((crow[v >> (2 * m)] << (2 * m))
                             | (crow[(v >> m) & mask] << m) | crow[v & mask])
            assert np.array_equal(scaled_points, scaled_values)


def test_homogeneity_sampled_m5(f32):
    rng = random.Random(77)
    for name in NAMED_COEFFS:
        fam = named_family(name)
        for _ in range(200):
            lam = rng.randrange(1, 32)
            v = tuple(rng.randrange(32) for _ in range(3))
            lv = tuple(f32.mul(lam, w) for w in v)
            cube = f32.pow(lam, 3)
            assert eval_F(f32, fam, lv) == tuple(f32.mul(cube, w) for w in eval_F(f32, fam, v))
