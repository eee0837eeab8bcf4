"""Exact arithmetic for truncated p-adic points.

A point is never an infinite series: every quantity in this package is
locally constant, so a point is a cell address, the ball

    basin + x_1 p + x_2 p^2 + ... + x_{N-1} p^{N-1} + p^N Z_p

at an explicit depth N. The digit at p^0 is the basin label; the
within-basin coordinate is the digit string with that label removed.
All integer arithmetic is exact (Python integers), so no overflow
handling is needed at any depth.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError, ValidationError

_SMALL_PRIMES = {
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
    47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
}


def validate_prime(p: int) -> int:
    """Check that p is a prime in the supported desk-scale range (<= 97)."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValidationError(f"prime must be an integer, got {p!r}")
    if p not in _SMALL_PRIMES:
        raise ValidationError(f"p = {p} is not a prime <= 97")
    return p


@dataclass(frozen=True)
class CellAddress:
    """A depth-N ball: basin digit plus within-basin digits (x_1 .. x_{N-1}).

    Two addresses are equal iff basin, depth, and digits all agree.
    """

    basin: int
    digits: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.digits) + 1

    def validate(self, p: int) -> "CellAddress":
        if not 0 <= self.basin < p:
            raise ValidationError(f"basin digit {self.basin} out of range for p={p}")
        for d in self.digits:
            if not 0 <= d < p:
                raise ValidationError(f"digit {d} out of range for p={p}")
        return self

    def label(self) -> str:
        """Stable text form: basin digit, '.', within digits (base-36 chars)."""
        body = "".join(_DIGIT_CHARS[d] for d in self.digits)
        return f"{self.basin}.{body}" if body else f"{self.basin}"


_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def parse_cell_label(text: str, p: int) -> CellAddress:
    """Inverse of CellAddress.label for digits expressible in base 36."""
    if p > len(_DIGIT_CHARS):
        raise ValidationError(f"cell labels support p <= 36, got p={p}")
    head, _, body = text.partition(".")
    try:
        basin = int(head)
        digits = tuple(_DIGIT_CHARS.index(c) for c in body)
    except (ValueError, IndexError):
        raise ValidationError(f"malformed cell label {text!r}") from None
    return CellAddress(basin, digits).validate(p)


def enumerate_cells(p: int, depth: int) -> list[tuple[int, ...]]:
    """All within-basin digit strings of length depth-1, lexicographic."""
    if depth < 1:
        raise UsageError(f"depth must be >= 1, got {depth}")
    return list(itertools.product(range(p), repeat=depth - 1))


def cell_index(digits: tuple[int, ...], p: int) -> int:
    """Position of a digit string in enumerate_cells(p, len(digits)+1)."""
    idx = 0
    for d in digits:
        idx = idx * p + d
    return idx


def cell_int(digits: tuple[int, ...], p: int) -> int:
    """The within-basin integer x = sum x_i p^i (basin digit removed)."""
    x = 0
    for i, d in enumerate(digits, start=1):
        x += d * p**i
    return x


def padic_distance(c1: CellAddress, c2: CellAddress, p: int) -> Fraction:
    """Ultrametric distance |x - y|_p between two cells of equal depth.

    Well defined because distinct cells at depth N differ in a digit of
    index < N. Identical addresses return Fraction(0), standing for
    "at most p^{-N}".
    """
    if c1.depth != c2.depth:
        raise UsageError(
            f"cells have different depths {c1.depth} and {c2.depth}"
        )
    if c1.basin != c2.basin:
        return Fraction(1)  # p^0: the basin digits differ
    for i, (d1, d2) in enumerate(zip(c1.digits, c2.digits), start=1):
        if d1 != d2:
            return Fraction(1, p**i)
    return Fraction(0)


@dataclass(frozen=True)
class UnitFraction:
    """numerator / p^exponent in [0, 1), kept exact and unreduced."""

    numerator: int
    p: int
    exponent: int

    def __post_init__(self):
        if self.exponent < 0 or not 0 <= self.numerator < self.p**self.exponent:
            raise ValidationError(
                f"unit fraction {self.numerator}/{self.p}^{self.exponent} not in [0,1)"
            )

    def value(self) -> Fraction:
        return Fraction(self.numerator, self.p**self.exponent)

    def add_mod1(self, other: "UnitFraction") -> "UnitFraction":
        if other.p != self.p:
            raise UsageError("cannot add unit fractions over different primes")
        k = max(self.exponent, other.exponent)
        num = (
            self.numerator * self.p ** (k - self.exponent)
            + other.numerator * self.p ** (k - other.exponent)
        ) % self.p**k
        return UnitFraction(num, self.p, k)


def character_exponent(r: int, j: int, cell: CellAddress, p: int) -> UnitFraction:
    """Fractional part {p^{r-1} j x}_p for the within-basin point x of a cell.

    Exact: with q = p^{1-r}, the result is ((j * (x mod q)) mod q) / q.
    The cell must be deep enough (depth >= 1 - r) that the value is the
    same for every point of the cell.
    """
    if r > -1:
        raise UsageError(f"scale index must be <= -1, got r={r}")
    if not 1 <= j <= p - 1:
        raise UsageError(f"phase multiplier j={j} out of range 1..{p - 1}")
    if cell.depth < 1 - r:
        raise UsageError(
            f"cell depth {cell.depth} too small for scale r={r} (need >= {1 - r})"
        )
    q = p ** (1 - r)
    x = cell_int(cell.digits, p)
    y = (j * (x % q)) % q
    return UnitFraction(y, p, 1 - r)


def character_value(u: UnitFraction) -> complex:
    """The additive character value exp(2 pi i u)."""
    return cmath.exp(2j * cmath.pi * u.numerator / u.p**u.exponent)
