"""Exception hierarchy shared across the package.

Every error that a caller can act on has its own type; all of them
derive from RotapermError so CLI code can map them to exit codes in
one place.
"""


class RotapermError(Exception):
    """Base class for all package-specific errors."""


# --- field construction / solving ---

class ReducibleModulus(RotapermError):
    """A modulus is reducible: a DEFAULT_MODULI entry failed trial division,
    or an extension cubic has a base-field root."""


class UnsupportedDegree(RotapermError):
    """No modulus shipped for this extension degree."""


class NoSolution(RotapermError):
    """Half-trace requested for an element with trace 1."""


# --- symbolic layer ---

class PolyParseError(RotapermError):
    """Polynomial text does not match the grammar; carries the offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(RotapermError):
    """Variable outside the fixed ring universe."""


class VariableMismatch(RotapermError):
    """Exponent vector whose length is not the number of ring variables."""


class DegenerateInput(RotapermError):
    """Resultant requested in a variable absent from both polynomials."""


class DegreeOverflow(RotapermError):
    """Per-variable exponent would exceed the supported bound (< 64)."""


# --- families / verification / inversion ---

class UnknownName(RotapermError):
    """Family name outside the shipped table."""


class DomainTooLarge(RotapermError):
    """Exhaustive scan rejected: domain above the documented cap."""


class EvenDegree(RotapermError):
    """An operation that needs odd m, where 3 is invertible mod 2^m - 1, was
    asked for an even degree: search, the CLI's verify, invert or lift, a
    cube root, the half-trace, or the permutation mask."""


class NotAPermutation(RotapermError):
    """Inverse table requested for a non-bijective family."""


class FormulaInconsistent(RotapermError):
    """A defensive re-check failed: a preimage or a lift against the forward
    map, or an invariant such as the cubic trace criterion or the
    projective decision against the witness scan."""


class NoPreimage(RotapermError):
    """Defensive: no resolvent root survived filtering (impossible for a permutation)."""


class MultiplePreimages(RotapermError):
    """Defensive: several resolvent roots survived filtering (impossible for a permutation)."""
