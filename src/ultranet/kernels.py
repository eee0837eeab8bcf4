"""Radial jump kernels on a basin subtree and their spectral data.

A kernel is the radial profile w of a jump intensity w(|x - y|_p): a
finite list of level values w_j = w(p^{-j}), zero beyond J_max. Finite
depth keeps every downstream discretization exact instead of truncated.

Two derived numbers drive everything else, both exact Fractions (a
float level converts exactly):

  gamma    = (1 - 1/p) sum_j p^{-j} w_j                    (total mass)
  symbol_r = (1 - 1/p) sum_{j > -r} p^{-j} w_j - p^{r-1} w_{-r}

symbol_r is the symbol at radius p^{1-r}: gamma plus the eigenvalue
lam_r of the within-basin jump operator on any scale-r wavelet. The
levels j <= -r cancel between gamma and lam_r, so symbol_r is summed
without them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError, ValidationError
from .padic import validate_prime


@dataclass(frozen=True)
class RadialKernel:
    p: int
    levels: tuple[float, ...]

    def __post_init__(self):
        validate_prime(self.p)
        if len(self.levels) < 1:
            raise ValidationError("a kernel needs at least one level value")
        for w in self.levels:
            if not (math.isfinite(w) and w >= 0):
                raise ValidationError(f"kernel level {w!r} must be finite and >= 0")

    @property
    def j_max(self) -> int:
        return len(self.levels)

    def level(self, j: int) -> float:
        """w(p^{-j}) for j >= 1, zero beyond the stored depth."""
        if j < 1:
            raise UsageError(f"level index must be >= 1, got {j}")
        return self.levels[j - 1] if j <= self.j_max else 0.0


def kernel_mass(k: RadialKernel) -> Fraction:
    """Total mass gamma: each level-j sphere has volume (1 - 1/p) p^{-j}."""
    p = k.p
    return Fraction(p - 1, p) * sum(
        (Fraction(w) / p**j for j, w in enumerate(k.levels, start=1)), Fraction(0)
    )


def symbol_value(k: RadialKernel, r: int) -> Fraction:
    """Symbol at radius p^{1-r}, exactly: levels finer than -r plus the
    boundary term of level -r."""
    if r > -1:
        raise UsageError(f"scale index must be <= -1, got r={r}")
    p = k.p
    tail = sum(
        (Fraction(w) / p**j for j, w in enumerate(k.levels, start=1) if j > -r),
        Fraction(0),
    )
    return Fraction(p - 1, p) * tail - Fraction(k.level(-r)) / p ** (1 - r)


def eigenvalue(k: RadialKernel, r: int) -> Fraction:
    """Eigenvalue of the jump operator on scale-r wavelets: symbol minus mass."""
    return symbol_value(k, r) - kernel_mass(k)


def arrhenius_kernel(p: int, barriers, kT: float) -> RadialKernel:
    """Kernel levels exp(-U_j / kT) from a ladder of barrier heights."""
    if not kT > 0:
        raise UsageError(f"temperature factor must be > 0, got kT={kT}")
    return RadialKernel(p, tuple(math.exp(-u / kT) for u in barriers))
