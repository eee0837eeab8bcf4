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

import itertools
from dataclasses import dataclass

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

    def label(self, p: int) -> str:
        """Stable text form: the basin digit, then '.' and the within
        digits. For p <= 36 each digit is one base-36 character ("1.0a");
        for a larger p each is a decimal number after its own '.'
        ("1.0.10")."""
        if not self.digits:
            return f"{self.basin}"
        if p > len(_DIGIT_CHARS):
            return ".".join(map(str, (self.basin, *self.digits)))
        return f"{self.basin}." + "".join(_DIGIT_CHARS[d] for d in self.digits)


_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def parse_cell_label(text: str, p: int) -> CellAddress:
    """Inverse of CellAddress.label."""
    head, _, body = text.partition(".")
    try:
        basin = int(head)
        if p > len(_DIGIT_CHARS):
            digits = tuple(map(_decimal, body.split("."))) if body else ()
        else:
            digits = tuple(_DIGIT_CHARS.index(c) for c in body)
    except (ValueError, IndexError):
        raise ValidationError(f"malformed cell label {text!r}") from None
    return CellAddress(basin, digits).validate(p)


def _decimal(text: str) -> int:
    """A digit of a label for p > 36: ASCII decimal digits only."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


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
