"""Exact toolkit for rotatable 3-homogeneous permutations of GF(2^m)^3.

Layers, bottom up: field (GF(2^m) arithmetic and small-equation
solvers), mpoly (sparse polynomials over GF(2) with resultants from
the multiplication matrix of a monic operand or the Sylvester matrix),
family (the eight-bit coefficient families and the five named ones),
permcheck (the projective bijectivity decision, and the first
collision of a negative), invert (closed-form /
resolvent / table inverters), lift (GF(2^3m) permutation polynomials
and QM-equivalence), certify (symbolic and numeric identity
certificates), search (classification of all 256 vectors), cli.
"""

from .field import FieldCtx
from .family import FamilySpec, family_from_coeffs, named_family

__all__ = ["FieldCtx", "FamilySpec", "family_from_coeffs", "named_family"]
__version__ = "0.1.0"
