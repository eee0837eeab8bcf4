"""Closed forms of the symmetric 2x2 coarse generator [[-beta, alpha],
[alpha, -gamma]]: reference code that the binary-model tests and the
acceptance gate compare with spectral.matrix_exponential, the
uniformized exponential that the basin means are formed with."""

import math
from dataclasses import dataclass

import numpy as np

from ultranet.errors import UsageError


@dataclass(frozen=True)
class TwoBasinRates:
    """Rates of the 2x2 coarse generator, in the regime where both
    eigenvalues are guaranteed nonpositive (diagonal dominance)."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not getattr(self, name) > 0:
                raise UsageError(f"{name} must be positive")
        if self.beta < self.alpha or self.gamma < self.alpha:
            raise UsageError("beta and gamma must both be >= alpha")

    @property
    def A(self) -> float:
        return math.sqrt(4 * self.alpha**2 + (self.beta - self.gamma) ** 2)


def two_basin_matrix(g: TwoBasinRates) -> np.ndarray:
    return np.array([[-g.beta, g.alpha], [g.alpha, -g.gamma]])


def two_basin_eigenvalues(g: TwoBasinRates):
    """Both eigenvalues, ascending; the larger one is (A - beta - gamma)/2."""
    return (-(g.beta + g.gamma + g.A) / 2, (g.A - g.gamma - g.beta) / 2)


def _mode_matrices(alpha, beta, gamma, A):
    """Split e^{tM} = prefactor * (slow + e^{-tA} * fast); the prefactor
    is e^{t(A - beta - gamma)/2}."""
    slow = np.array(
        [
            [(-beta + gamma + A) / (2 * A), alpha / A],
            [alpha / A, (beta - gamma + A) / (2 * A)],
        ]
    )
    fast = np.array(
        [
            [(beta - gamma + A) / (2 * A), -alpha / A],
            [-alpha / A, -(beta - gamma - A) / (2 * A)],
        ]
    )
    return slow, fast


def two_basin_expm(g: TwoBasinRates, t: float):
    """Closed-form e^{tM} for the 2x2 coarse generator."""
    if t < 0:
        raise UsageError("t must be >= 0")
    slow, fast = _mode_matrices(g.alpha, g.beta, g.gamma, g.A)
    prefactor = math.exp(t * (g.A - g.beta - g.gamma) / 2)
    return prefactor * (slow + math.exp(-t * g.A) * fast)
