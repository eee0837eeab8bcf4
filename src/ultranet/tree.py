"""Independent ground truth: the master equation on depth-N cells.

Discretizing at depth N strictly below the kernel resolution (N > J_max)
is exact, not approximate: every kernel is constant across distinct
cells and carries no mass within a cell, so the finite rate matrix
represents the integral operator with no truncation error. The solver
here is deliberately generic, the exponential of the full chain matrix
applied to the datum, with no wavelet or ultrametric structure, so it
can serve as the oracle for the spectral solver.

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
from .padic import CellAddress, enumerate_cells
from .wavelets import CellFunction

# The chain matrix Q is held dense: dim^2 float64 entries, 4096 states
# at this limit.
MAX_CHAIN_BYTES = 128 * 2**20


@dataclass(frozen=True)
class DiscreteGenerator:
    N: int
    states: tuple
    Q: np.ndarray
    kill: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.states)

    def cell_vector(self, u0: CellFunction) -> np.ndarray:
        """u0 as one vector in state order: its rows end to end. States
        run basin-major in enumerate_cells order, the layout of
        u0.values, so a datum of the same depth and basins lines up."""
        if u0.depth != self.N:
            raise UsageError(f"datum depth {u0.depth} must equal the level {self.N}")
        u0.require_basins(dict.fromkeys(s.basin for s in self.states))
        if u0.values.size != self.dim:  # same basins and depth, another p
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

    cells = enumerate_cells(p, N)
    states = tuple(
        CellAddress(b, digits) for b in spec.basins for digits in cells
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
    return DiscreteGenerator(N=N, states=states, Q=Q, kill=kill)


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


# Route choice by an operation count, in units of one product of Q with
# a vector (a matvec).
# - The action (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011) takes
#   about 2 matvecs per unit of ||Qt||_1: counted 1.7-2.3 in scipy's
#   expm_multiply on chains of 256-1024 states, which shifts Q by its mean
#   diagonal and ends each Taylor sum early.
# - The dense exponential takes 22/3 matrix products for its [13/13] Pade
#   approximant (6 products and one solve) plus one squaring per doubling
#   of ||Qt||_1 past theta_13 = 5.37 (Higham, SIMAX 26, 2005). A product is
#   dim matvecs of work but runs faster per flop, since it reuses each
#   cached block while a matvec streams all of Q: one product took as long
#   as dim/3.4, dim/5.6 and dim/8.9 matvecs at 256, 512 and 1024 states (one
#   BLAS thread). It is counted as dim/8, the ratio at the large end, where a
#   wrong route costs the most.
# So the switch falls at ||Qt||_1 = 213, 458 and 981 at 256, 512 and 1024
# states. Timed on two seeded non-symmetric chains each (2-vCPU VM, one BLAS
# thread), the routes cross at 215-256, 500 and 610-720.
# Below 64 states no count applies: the whole dense route (0.015-0.15 ms at
# 4-64 states) costs less than the action's fixed overhead per call
# (0.12-0.2 ms), and it spares the process the scipy.sparse import.
_ACTION_MATVECS_PER_NORM = 2.0
_PADE13_PRODUCTS = 22 / 3
_THETA13 = 5.37
_BLAS3_SPEEDUP = 8  # per flop, of a matrix product over a matvec
_ACTION_MIN_STATES = 64


def _action_is_cheaper(norm: float, dim: int) -> bool:
    """Whether e^A u takes fewer matvecs as an action than through the
    dense e^A, for ||A||_1 = norm on dim states. A norm that is not
    finite takes the dense route."""
    if dim < _ACTION_MIN_STATES:
        return False
    squarings = max(0, math.frexp(norm / _THETA13)[1])
    dense = (_PADE13_PRODUCTS + squarings) * dim / _BLAS3_SPEEDUP
    return _ACTION_MATVECS_PER_NORM * norm <= dense


def solve(gen: DiscreteGenerator, u0: CellFunction, t: float) -> CellFunction:
    """Propagate the cell vector, u(t) = e^{tQ} u(0); the result has the
    basins and the layout of u0.

    The exponential's action on the datum is computed (expm_multiply),
    so no dim x dim exponential is formed, while ||Qt||_1 is small
    against the number of states. Past that, the action's cost grows
    with t and the dense matrix exponential, whose cost grows only with
    log t, is formed and applied instead; so it is on chains of fewer
    than 64 states, where it costs less than the action's overhead."""
    u = gen.cell_vector(u0)
    Qt = gen.Q * float(t)
    # scipy is imported here: only the oracle needs it, and only the
    # action needs scipy.sparse; this spares every other command the import
    if _action_is_cheaper(np.linalg.norm(Qt, 1), gen.dim):
        import scipy.sparse.linalg

        out = scipy.sparse.linalg.expm_multiply(Qt, u)
    else:
        import scipy.linalg

        out = scipy.linalg.expm(Qt) @ u
    return CellFunction(u0.p, gen.N, u0.basins, out.reshape(u0.values.shape))


def compare(spec: NetworkSpec, datum: CellFunction, N: int, times) -> list:
    """Sup-norm gap, per time, between the spectral solution (derived
    convention) and this oracle. A gap that is not finite (one side
    overflowed) raises NumericError naming its time."""
    from . import spectral

    gen = discretize(spec, N)
    state0 = spectral.init(replace(spec, convention="derived"), datum)
    gaps = []
    for t in times:
        evolved = spectral.evolve(state0, t)
        approx = spectral.eval_density(evolved)
        exact = solve(gen, datum, t)
        gap = float(np.abs(approx.values - exact.values).max())
        if not math.isfinite(gap):
            raise NumericError(f"oracle gap is not finite at t = {float(t):g}")
        gaps.append(gap)
    return gaps

