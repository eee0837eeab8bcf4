"""Two-basin folding toy model.

The coarse dynamics of a two-basin network (unfolded U, native N) reduce
to a symmetric 2x2 rate matrix [[-beta, alpha], [alpha, -gamma]].  This
module builds the scenario from a network, the special initial datum
whose constant part sits exactly on that matrix's slow eigenvector, and
the threshold-crossing time in both closed form and as a numeric search.
Every rate it reports comes from the network's exact totals and from
spectral.scale_rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .errors import UsageError, ValidationError
from .network import DEFAULT_THRESHOLD, NetworkSpec
from .wavelets import CellFunction, cell_table


@dataclass(frozen=True)
class FoldingScenario:
    """A two-basin network plus the bump datum and crossing threshold.

    The first basin plays the unfolded role, the second the native one.
    The coupling must be symmetric so the coarse dynamics close into the
    2x2 form; there is no dominance requirement, and the interesting
    demos live exactly where dominance fails.
    """

    spec: NetworkSpec
    r: int
    amplitude: float
    threshold: float = DEFAULT_THRESHOLD
    # the 2x2 rates, as floats from the spec's exact basin rows: alpha,
    # beta, gamma rounded once, A = hypot(2 alpha, beta - gamma) with the
    # difference formed exactly
    coupling: float = field(init=False)
    loss_u: float = field(init=False)
    loss_n: float = field(init=False)
    A: float = field(init=False)

    def __post_init__(self):
        spec = self.spec
        if len(spec.basins) != 2:
            raise ValidationError("the folding model needs exactly two basins")
        if not (isinstance(self.r, int) and self.r <= -2):
            raise ValidationError("the bump index r must be an integer <= -2")
        if not self.amplitude > 0:
            raise ValidationError("the bump amplitude must be positive")
        if not self.threshold > 0:
            raise ValidationError("the threshold must be positive")
        u, n = spec.basins
        coupling = spec.cross_lambda[(n, u)]
        if coupling != spec.cross_lambda[(u, n)]:
            raise ValidationError(
                "the two cross gain rates must be equal for the 2x2 reduction"
            )
        loss_u, loss_n = (-spec.basin_rows[i][i] for i in range(2))
        object.__setattr__(self, "coupling", float(coupling))
        object.__setattr__(self, "loss_u", float(loss_u))
        object.__setattr__(self, "loss_n", float(loss_n))
        object.__setattr__(self, "A", math.hypot(2 * self.coupling, float(loss_u - loss_n)))
        if self.A == 0:
            raise ValidationError(
                "A = 0 (no cross gain and equal basin losses): the bump datum "
                "is built from alpha/A and is undefined"
            )
        if self.amplitude + self.coupling / self.A > 1:
            raise ValidationError(
                "amplitude + coupling/A exceeds 1: the initial datum would exceed 1"
            )
        worst = min(math.cos(2 * math.pi * d / spec.p) for d in range(spec.p))
        if self.coupling / self.A + self.amplitude * worst < -1e-15:
            raise ValidationError(
                "the bump trough would push the initial datum below 0"
            )


def ivp2_datum(scenario: FoldingScenario, depth: int | None = None) -> CellFunction:
    """Assemble the initial state: flat on the unfolded basin, flat plus
    one localized oscillation on the native basin.

    The oscillation is the real part of a single wavelet with real
    amplitude, normalized so its peak equals the requested amplitude.
    The wavelet lives on the cells whose first -r - 1 digits are 0 and
    takes one value on each run of cells sharing the next digit; each
    value is p^{-r/2} e^{2 pi i osc / p} (phase j = 1), computed as one
    scalar.
    """
    min_depth = 1 - scenario.r
    depth = min_depth if depth is None else depth
    if depth < min_depth:
        raise UsageError(f"depth must be >= {min_depth} to resolve the bump")
    spec = scenario.spec
    p = spec.p
    alpha, beta, gamma, A = scenario.coupling, scenario.loss_u, scenario.loss_n, scenario.A
    flat_u = (A - beta + gamma) / (2 * A)
    flat_n = alpha / A
    r = scenario.r
    coeff = scenario.amplitude * p ** (r / 2)
    values = cell_table(2, p, depth, [[flat_u], [flat_n]])
    span = p ** (depth - 1 + r)  # cells per oscillation digit
    for osc in range(p):
        wave = p ** (-r / 2) * np.exp(2j * np.pi * osc / p)
        values[1, osc * span : (osc + 1) * span] += coeff * wave.real
    return CellFunction(p, depth, spec.basins, values)


@dataclass(frozen=True)
class FoldingReport:
    """folding_tau's figures: both crossing times and both time constants;
    crossing is the absorbing_time result behind tau_numeric. The
    couplings, bump, threshold and convention are the scenario's."""

    tau_formula: float
    tau_numeric: float
    time_constant_chain: float
    time_constant_mode: float
    crossing: spectral.AbsorbingResult


def folding_tau(scenario: FoldingScenario) -> FoldingReport:
    """Crossing time of the native-basin density over the threshold,
    under the convention of the scenario's network.

    tau_formula is the closed-form bound time ln(amplitude + alpha/A)
    divided by the slower of the chain rate (beta + gamma - A)/2 and the
    bump decay rate; tau_numeric is the true crossing of the expansion,
    the first t >= 0 at which the peak reaches the threshold, to relative
    1e-9 (spectral.absorbing_time).  No ordering between the two is
    asserted: the closed form tracks an upper envelope, so its crossing
    is necessary but not sufficient for the true one.
    """
    spec = scenario.spec
    alpha, beta, gamma, A = scenario.coupling, scenario.loss_u, scenario.loss_n, scenario.A
    fast_rate = -spectral.scale_rate(spec, 1, scenario.r)
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
        tau_formula=tau_formula,
        tau_numeric=crossing.tau,
        time_constant_chain=1.0 / chain_rate if chain_rate != 0 else math.inf,
        time_constant_mode=1.0 / fast_rate if fast_rate != 0 else math.inf,
        crossing=crossing,
    )

