"""Two-basin folding toy model with a closed-form 2x2 semigroup.

The coarse dynamics of a two-basin network (unfolded U, native N) reduce
to a symmetric 2x2 rate matrix [[-beta, alpha], [alpha, -gamma]].  This
module carries its closed-form exponential, the special initial datum
whose constant part sits exactly on the slow eigenvector, and the
threshold-crossing time in both closed form and as a numeric search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import UsageError, ValidationError
from .kernels import symbol_value
from .network import NetworkSpec, aggregate_rates
from .padic import CellAddress, enumerate_cells
from .wavelets import CellFunction, WaveletIndex, eval_wavelet


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


@dataclass(frozen=True)
class FoldingScenario:
    """A two-basin network plus the bump datum and crossing threshold.

    The first basin plays the unfolded role, the second the native one.
    The coupling must be symmetric so the coarse dynamics close into the
    2x2 form; unlike TwoBasinRates there is no dominance requirement, and
    the interesting demos live exactly where dominance fails.
    """

    spec: NetworkSpec
    r: int
    amplitude: float
    threshold: float = 0.99

    def __post_init__(self):
        if len(self.spec.basins) != 2:
            raise ValidationError("the folding model needs exactly two basins")
        if not (isinstance(self.r, int) and self.r <= -2):
            raise ValidationError("the bump index r must be an integer <= -2")
        if not self.amplitude > 0:
            raise ValidationError("the bump amplitude must be positive")
        if not self.threshold > 0:
            raise ValidationError("the threshold must be positive")
        u, n = self.spec.basins
        lam_nu = self.spec.cross_lambda.get((n, u), 0.0)
        lam_un = self.spec.cross_lambda.get((u, n), 0.0)
        if lam_nu != lam_un:
            raise ValidationError(
                "the two cross gain rates must be equal for the 2x2 reduction"
            )
        if self.A == 0:
            raise ValidationError(
                "A = 0 (no cross gain and equal basin losses): the bump datum "
                "is built from alpha/A and is undefined"
            )
        if self.amplitude + self.coupling / self.A > 1:
            raise ValidationError(
                "amplitude + coupling/A exceeds 1: the initial datum would exceed 1"
            )
        p = self.spec.p
        worst = min(math.cos(2 * math.pi * d / p) for d in range(p))
        if self.coupling / self.A + self.amplitude * worst < -1e-15:
            raise ValidationError(
                "the bump trough would push the initial datum below 0"
            )

    @property
    def basin_u(self) -> int:
        return self.spec.basins[0]

    @property
    def basin_n(self) -> int:
        return self.spec.basins[1]

    @property
    def coupling(self) -> float:
        u, n = self.spec.basins
        return self.spec.cross_lambda.get((n, u), 0.0)

    @property
    def loss_u(self) -> float:
        agg = aggregate_rates(self.spec)
        return (agg.loss_total[0] - agg.gain_diag[0]) / self.spec.p

    @property
    def loss_n(self) -> float:
        agg = aggregate_rates(self.spec)
        return (agg.loss_total[1] - agg.gain_diag[1]) / self.spec.p

    @property
    def A(self) -> float:
        return math.sqrt(
            4 * self.coupling**2 + (self.loss_u - self.loss_n) ** 2
        )


def bump_wavelet(scenario: FoldingScenario) -> WaveletIndex:
    """The single oscillating mode carrying the native-basin bump."""
    return WaveletIndex(r=scenario.r, m_digits=(0,) * (-scenario.r - 1), j=1)


def ivp2_datum(scenario: FoldingScenario, depth: int | None = None) -> CellFunction:
    """Assemble the initial state: flat on the unfolded basin, flat plus
    one localized oscillation on the native basin.

    The oscillation is the real part of a single wavelet with real
    amplitude, normalized so its peak equals the requested amplitude.
    """
    min_depth = 1 - scenario.r
    depth = min_depth if depth is None else depth
    if depth < min_depth:
        raise UsageError(f"depth must be >= {min_depth} to resolve the bump")
    spec = scenario.spec
    p = spec.p
    alpha, beta, gamma, A = (
        scenario.coupling,
        scenario.loss_u,
        scenario.loss_n,
        scenario.A,
    )
    flat_u = (A - beta + gamma) / (2 * A)
    flat_n = alpha / A
    idx = bump_wavelet(scenario)
    coeff = scenario.amplitude * p ** (scenario.r / 2)
    values = np.full((2, p ** (depth - 1)), [[flat_u], [flat_n]])
    for k, digits in enumerate(enumerate_cells(p, depth)):
        cell = CellAddress(scenario.basin_n, digits)
        values[1, k] += coeff * eval_wavelet(idx, cell, p).real
    return CellFunction(p, depth, spec.basins, values)


@dataclass(frozen=True)
class FoldingReport:
    alpha: float
    beta: float
    gamma: float
    A: float
    r: int
    amplitude: float
    threshold: float
    convention: str
    tau_formula: float
    tau_numeric: float
    time_constant_chain: float
    time_constant_mode: float
    fast_mode: WaveletIndex
    crossing: spectral.AbsorbingResult


def folding_tau(scenario: FoldingScenario) -> FoldingReport:
    """Crossing time of the native-basin density over the threshold,
    under the convention of the scenario's network.

    tau_formula is the closed-form bound time ln(amplitude + alpha/A)
    divided by the slower of the chain rate (beta + gamma - A)/2 and the
    bump decay rate; tau_numeric is the true crossing of the expansion,
    found by grid scan plus bisection.  No ordering between the two is
    asserted: the closed form tracks an upper envelope, so its crossing
    is necessary but not sufficient for the true one.
    """
    spec = scenario.spec
    alpha, beta, gamma, A = (
        scenario.coupling,
        scenario.loss_u,
        scenario.loss_n,
        scenario.A,
    )
    agg = aggregate_rates(spec)
    fast_rate = agg.loss_total[1] / spec.p - symbol_value(
        spec.w_kernels[scenario.basin_n], scenario.r
    )
    chain_rate = (beta + gamma - A) / 2
    numerator = math.log(scenario.amplitude + alpha / A)
    denominator = min(chain_rate, fast_rate)
    if numerator == 0.0:
        tau_formula = 0.0
    elif denominator == 0.0:
        tau_formula = math.inf
    else:
        tau_formula = numerator / denominator

    crossing = spectral.absorbing_time(
        spec, ivp2_datum(scenario), threshold=scenario.threshold
    )
    return FoldingReport(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        A=A,
        r=scenario.r,
        amplitude=scenario.amplitude,
        threshold=scenario.threshold,
        convention=spec.convention,
        tau_formula=tau_formula,
        tau_numeric=crossing.tau,
        time_constant_chain=1.0 / chain_rate if chain_rate != 0 else math.inf,
        time_constant_mode=1.0 / fast_rate if fast_rate != 0 else math.inf,
        fast_mode=bump_wavelet(scenario),
        crossing=crossing,
    )

