"""Independent ground truth: the master equation on depth-N cells.

Discretizing at depth N strictly below the kernel resolution (N > J_max)
is exact, not approximate: every kernel is constant across distinct
cells and carries no mass within a cell, so the finite rate matrix
represents the integral operator with no truncation error. The solver
here is deliberately generic, the exponential of the full chain matrix
applied to the datum, with no wavelet or ultrametric structure, so it
can serve as the oracle for the spectral solver.

It is one algebra throughout, uniformization: the action sums its
series against the datum, and at long times the dense e^{tQ} comes from
uniformization.exponential, which also forms the spectral solver's basin
means. Nothing is subtracted, so no entry can cancel, overflow or turn
into NaN. The chain matrix (discretize), the action and the Monte Carlo
sampler stay independent of the spectral solver. Only numpy is used.

The generator acts on functions (the backward reading): a state jumps
with the gain family (w kernels within a basin, lambda across basins)
and is killed at the basin sink rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, UsageError, ValidationError
from .network import NetworkSpec, aggregate_rates
from .uniformization import _TERMS, _poisson_weights, _squarings, exponential
from .wavelets import CellFunction

# The chain matrix Q is held dense: dim^2 float64 entries, 4096 states
# at this limit.
MAX_CHAIN_BYTES = 128 * 2**20


@dataclass(frozen=True)
class DiscreteGenerator:
    p: int
    N: int
    basins: tuple
    Q: np.ndarray
    kill: np.ndarray

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    def cell_vector(self, u0: CellFunction) -> np.ndarray:
        """u0 as one vector in state order: its rows end to end. States
        run basin-major in enumerate_cells order, the layout of
        u0.values, so a datum of the same p, depth and basins lines up."""
        if u0.depth != self.N:
            raise UsageError(f"datum depth {u0.depth} must equal the level {self.N}")
        u0.require_basins(self.basins)
        if u0.p != self.p:
            raise ValidationError(f"datum has {u0.values.size} cells, the chain has {self.dim}")
        return u0.values.ravel()


def discretize(spec: NetworkSpec, N: int) -> DiscreteGenerator:
    """Assemble the depth-N rate matrix with per-cell killing."""
    p = spec.p
    if N <= spec.j_max:
        raise UsageError(
            f"depth N={N} leaves within-cell kernel mass (J_max={spec.j_max}); "
            "the discretization would not be exact"
        )
    per_basin = p ** (N - 1)
    dim = len(spec.basins) * per_basin
    need = dim * dim * 8
    if need > MAX_CHAIN_BYTES:
        raise UsageError(
            f"the chain matrix of {dim} states needs {need / 2**20:.4g} MiB, "
            f"over the {MAX_CHAIN_BYTES // 2**20} MiB limit of the dense chain solver"
        )

    Q = np.zeros((dim, dim))
    weight = float(p) ** (-N)
    for i, a in enumerate(spec.basins):
        rows = slice(i * per_basin, (i + 1) * per_basin)
        for k, b in enumerate(spec.basins):
            cols = slice(k * per_basin, (k + 1) * per_basin)
            if a == b:
                Q[rows, cols] = _pairwise_levels(spec.w_kernels[a], p, N) * weight
            else:
                Q[rows, cols] = float(spec.cross_lambda[(a, b)]) * weight
    kill = np.repeat(aggregate_rates(spec), per_basin)
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -(Q.sum(axis=1) + kill))
    return DiscreteGenerator(p=p, N=N, basins=spec.basins, Q=Q, kill=kill)


def _pairwise_levels(kernel, p: int, N: int) -> np.ndarray:
    """Pairwise w(|I-J|) over one basin's cells, zero on the diagonal."""
    n = p ** (N - 1)
    M = np.zeros((n, n))
    for j in range(1, N):
        w_j = kernel.level(j)
        if w_j == 0:
            continue
        sub = p ** (N - 1 - j)
        pattern = np.kron((1.0 - np.eye(p)) * w_j, np.ones((sub, sub)))
        run = p * sub
        for start in range(0, n, run):
            M[start : start + run, start : start + run] += pattern
    return M


# The action is a uniformized sum (Jensen, Skand. Aktuarietidskr. 36, 1953;
# Moler & Van Loan, SIAM Rev. 45, 2003, method 4). With L the largest exit
# rate, P = I + Q/L has no negative entry, its rows sum to 1 - kill/L, and
#     e^{tQ} u = sum_k e^{-Lt} (Lt)^k / k! P^k u.
# L t is split into equal steps of Poisson mean y <= 700: e^-700 = 9.9e-305
# is still a normal float (the least is 2.2e-308), so the first weight keeps
# its precision. Each step is summed to the first K whose Poisson tail lies
# below 2^-53; every P^k u is bounded by max|u|, so a step errs by at most
# 2^-53 max|u| plus rounding.
_STEP_MEAN = 700.0

# Route choice by an operation count, in units of one product of a
# dim x dim array with a vector (a matvec).
# - The action takes exactly steps x K matvecs: K = 17 at y = 1, 87 at
#   y = 31, 193 at y = 100 and 928 at y = 700, about 1.33 per unit of L t
#   for long times.
# - The dense route (uniformization.exponential) takes _TERMS - 1 = 14
#   matrix products, and one per doubling.
#   A product is dim matvecs of work but runs faster per flop, since it
#   reuses each cached block while a matvec streams the whole array: one
#   product took as long as dim/2.4, dim/4.3 and dim/8.8 matvecs at 128,
#   512 and 1024 states (one BLAS thread). It is counted as dim/8, the
#   ratio at the large end, where a wrong route costs the most.
# So the switch falls at L t = 1240 at 512 states and 2580 at 1024.
# An action of at most _ACTION_ALWAYS_MATVECS matvecs is taken whatever the
# count says, which on chains below 512 states means up to L t = 700. One
# matvec of the action's loop costs 5 us up to 64 states (interpreter
# overhead), 8 us at 128 and 16 us at 256, so such an action costs at most
# 5-16 ms.
_BLAS3_SPEEDUP = 8  # per flop, of a matrix product over a matvec
_ACTION_ALWAYS_MATVECS = 1024


def _schedule(rate_t: float) -> tuple:
    """Equal steps of Poisson mean at most _STEP_MEAN that sum to rate_t,
    and the weights of one step."""
    steps = max(1, math.ceil(rate_t / _STEP_MEAN))
    return steps, _poisson_weights(rate_t / steps)


def _action_is_cheaper(rate_t: float, dim: int) -> bool:
    """Whether e^{tQ} u takes fewer matvecs as the uniformized action than
    through the dense e^{tQ}, for L t = rate_t on dim states. A rate_t that
    is negative or not finite takes the dense route."""
    if not 0 <= rate_t < math.inf:
        return False
    steps, weights = _schedule(rate_t)
    matvecs = steps * (len(weights) - 1)
    products = _TERMS - 1 + _squarings(rate_t)
    dense = products * dim / _BLAS3_SPEEDUP
    return matvecs <= max(dense, _ACTION_ALWAYS_MATVECS)


def _uniformized(Q: np.ndarray, rate: float, t: float, u: np.ndarray) -> np.ndarray:
    """e^{tQ} u as the uniformized sum, for rate the largest exit rate of Q
    and u a vector. P is built here, one array the size of Q, and dropped
    on return. A datum u >= 0 gives a result >= 0 exactly: every weight
    and every entry of P is >= 0."""
    steps, weights = _schedule(rate * t)
    if len(weights) == 1:  # no jump within t, or none at all
        return weights[0] * u
    P = Q / rate
    # rate >= -q_ii, so rate + q_ii rounds to no negative number
    np.fill_diagonal(P, (rate + Q.diagonal()) / rate)
    for _ in range(steps):
        v = u
        u = weights[0] * v
        for w in weights[1:]:
            v = P @ v
            u += w * v
    return u


def solve(gen: DiscreteGenerator, u0: CellFunction, t: float) -> CellFunction:
    """Propagate the cell vector, u(t) = e^{tQ} u(0); the result has the
    basins and the layout of u0.

    The exponential's action on the datum is summed by uniformization, so
    no dim x dim exponential is formed, while L t (L the largest exit rate)
    is small against the number of states, or the sum is short. Past that,
    the action's cost grows with t, and the dense e^{tQ} is formed
    instead, at a cost that grows only with log t."""
    u = gen.cell_vector(u0)
    t = float(t)
    rate = float(-gen.Q.diagonal().min())
    if _action_is_cheaper(rate * t, gen.dim):
        out = _uniformized(gen.Q, rate, t, u)
    else:
        out = exponential(gen.Q, gen.kill, t) @ u
    return CellFunction(u0.p, gen.N, u0.basins, out.reshape(u0.values.shape))


def compare(spec: NetworkSpec, datum: CellFunction, times) -> list:
    """Sup-norm gap, per time, between the spectral solution (derived
    convention) and this oracle at the datum's depth. A gap that is not
    finite (one side overflowed) raises NumericError naming its time."""
    from . import spectral

    gen = discretize(spec, datum.depth)
    state0 = spectral.init(replace(spec, convention="derived"), datum)
    gaps = []
    for t, (_, _, approx) in zip(times, spectral.evaluate(state0, times)):
        exact = solve(gen, datum, t)
        gap = float(np.abs(approx - exact.values).max())
        if not math.isfinite(gap):
            raise NumericError(f"oracle gap is not finite at t = {float(t):g}")
        gaps.append(gap)
    return gaps

