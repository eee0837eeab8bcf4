"""Independent ground truth: the master equation on depth-N cells.

Discretizing at depth N strictly below the kernel resolution (N > J_max)
is exact, not approximate: every kernel is constant across distinct
cells and carries no mass within a cell, so the finite rate matrix
represents the integral operator with no truncation error. The solver
here is deliberately plain (dense matrix exponential) so it can serve
as the oracle for the spectral solver.

The generator acts on functions (the backward reading): a state jumps
with the gain family (w kernels within a basin, lambda across basins)
and is killed at the basin sink rate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import UsageError, ValidationError
from .network import NetworkSpec, aggregate_rates
from .padic import CellAddress, enumerate_cells
from .wavelets import CellFunction

MAX_STATES = 4096


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
    j_max = max(
        k.j_max
        for kernels in (spec.w_kernels, spec.v_kernels)
        for b, k in kernels.items()
        if b in spec.basins
    )
    if N <= j_max:
        raise UsageError(
            f"depth N={N} leaves within-cell kernel mass (J_max={j_max}); "
            "the discretization would not be exact"
        )
    per_basin = p ** (N - 1)
    dim = len(spec.basins) * per_basin
    if dim > MAX_STATES:
        raise UsageError(f"{dim} states exceed the dense-solver cap {MAX_STATES}")

    agg = aggregate_rates(spec)
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
    kill = np.repeat(agg.sink, per_basin)
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


def solve(gen: DiscreteGenerator, u0: CellFunction, t: float) -> CellFunction:
    """Propagate the cell vector, u(t) = e^{tQ} u(0); the result has the
    basins and the layout of u0."""
    import scipy.linalg  # only the oracle needs it; spares every other command the import

    out = scipy.linalg.expm(gen.Q * float(t)) @ gen.cell_vector(u0)
    return CellFunction(u0.p, gen.N, u0.basins, out.reshape(u0.values.shape))


def compare(spec: NetworkSpec, datum: CellFunction, N: int, times) -> list:
    """Sup-norm gap, per time, between the spectral solution (derived
    convention) and this oracle."""
    from . import spectral

    gen = discretize(spec, N)
    state0 = spectral.init(replace(spec, convention="derived"), datum)
    gaps = []
    for t in times:
        evolved = spectral.evolve(state0, t)
        approx = spectral.eval_density(evolved)
        exact = solve(gen, datum, t)
        gaps.append(float(np.abs(approx.values - exact.values).max()))
    return gaps

