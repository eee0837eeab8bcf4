"""Independent ground truth: the master equation on depth-N cells.

Discretizing at depth N strictly below the kernel resolution (N > J_max)
is exact, not approximate: every kernel is constant across distinct
cells and carries no mass within a cell, so the finite rate matrix
represents the integral operator with no truncation error. Within a
basin the rate between two cells depends only on their ultrametric
level, and across two basins it is one constant, so the chain is held as
those level rates, O(basins * N) numbers (a hierarchically block-constant
matrix: Ogielski & Stein, PRL 55, 1985), and no dense Q is stored. The
oracle uses that structure only to apply Q; it takes no wavelet,
eigenvalue or basin matrix, so it can serve as the oracle for the
spectral solver.

It is one algebra throughout, uniformization: the action sums its
series against the datum, each product with P = I + Q/L taken by block
sums (or, on small chains, with P formed densely), and at long times
the dense e^{tQ} comes from uniformization.exponential, which also forms
the spectral solver's basin means. Nothing is subtracted but block sums
from their parents, so no entry can cancel, overflow or turn into NaN.
A dense array of states^2 floats is formed only by that dense route and
by the Monte Carlo sampler's table, and is refused past
MAX_CHAIN_BYTES. The chain (discretize), the action and the sampler stay
independent of the spectral solver. Only numpy is used.

The generator acts on functions (the backward reading): a state jumps
with the gain family (w kernels within a basin, lambda across basins)
and is killed at the basin sink rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import NumericError, UsageError, ValidationError
from .network import NetworkSpec, aggregate_rates
from .uniformization import _TERMS, _poisson_weights, _squarings, exponential
from .wavelets import CellFunction

# A dense array of states^2 floats is formed only where a dense route needs
# one: the chain matrix for the oracle's dense e^{tQ}, and the Monte
# Carlo sampler's table of cumulative rates. Either is refused past this
# limit, 4096 states; the level rates themselves take O(basins * N).
MAX_CHAIN_BYTES = 128 * 2**20


def require_dense(dim: int, what: str) -> None:
    """Refuse a dense dim x dim array of floats past MAX_CHAIN_BYTES,
    naming the bytes it needs."""
    need = dim * dim * 8
    if need > MAX_CHAIN_BYTES:
        raise UsageError(
            f"{what}: {dim} states need {need / 2**20:.4g} MiB, "
            f"over the {MAX_CHAIN_BYTES / 2**20:.4g} MiB limit of a dense chain array"
        )


@dataclass(frozen=True)
class DiscreteGenerator:
    """The depth-N chain held as level rates (Ogielski & Stein, PRL 55,
    1985): the rate between two cells depends only on their ultrametric
    level. States run basin-major, each basin's p^(N-1) cells in
    enumerate_cells order. A cell of basin a jumps at rate within[a, j-1]
    to each of the (p - 1) p^(N-1-j) cells of its basin that share its
    first j - 1 digits but not its j-th (level j = 1 .. N-1), at rate
    cross[a, b] to each cell of basin b (cross[a, a] = 0), and is killed
    at rate kill[a]."""

    p: int
    N: int
    basins: tuple
    within: np.ndarray  # (basins, N - 1)
    cross: np.ndarray  # (basins, basins)
    kill: np.ndarray  # (basins,)

    @property
    def per_basin(self) -> int:
        return self.p ** (self.N - 1)

    @property
    def dim(self) -> int:
        return len(self.basins) * self.per_basin

    @cached_property
    def exits(self) -> np.ndarray:
        """-q_ii for a cell of each basin: its jump rates and its kill,
        summed exactly and rounded once."""
        p, n = self.p, self.per_basin
        counts = [(p - 1) * p ** (self.N - 1 - j) for j in range(1, self.N)]
        return np.array([
            float(
                sum(c * Fraction(x) for c, x in zip(counts, w))
                + n * sum(map(Fraction, cross)) + Fraction(kill)
            )
            for w, cross, kill in zip(self.within.tolist(), self.cross.tolist(), self.kill.tolist())
        ])

    @property
    def rate(self) -> float:
        """L, the largest exit rate: P = I + Q/L has no negative entry."""
        return float(self.exits.max())

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

    def fill_jumps(self, out: np.ndarray) -> None:
        """Write the jump rates into out, a dim x dim array or view: entry
        (i, k) the rate from state i to state k, zero on the diagonal.
        The cross rates fill each pair of basins; then, coarse to fine,
        each level's rate fills the diagonal blocks of p^(N-j) cells that
        share the first j - 1 digits, so every pair ends at its level.
        Splitting an axis of a view into two never copies, so each
        reshape below writes through to out."""
        B, n, p = len(self.basins), self.per_basin, self.p
        blocks = out.reshape(B, n, B, n)
        assert np.may_share_memory(blocks, out)
        blocks[...] = self.cross[:, None, :, None]
        basin = np.arange(B)[:, None]
        for j in range(1, self.N):
            size = p ** (self.N - j)
            block = np.arange(n // size)[None, :]
            tiles = out.reshape(B, n // size, size, B, n // size, size)
            assert np.may_share_memory(tiles, out)
            tiles[basin, block, :, basin, block, :] = self.within[:, j - 1, None, None, None]
        np.fill_diagonal(out, 0.0)

    def matrix(self, what: str = "the chain matrix") -> np.ndarray:
        """Q as one dense array, formed from the levels; refused past
        MAX_CHAIN_BYTES."""
        require_dense(self.dim, what)
        Q = np.empty((self.dim, self.dim))
        self.fill_jumps(Q)
        np.fill_diagonal(Q, -np.repeat(self.exits, self.per_basin))
        return Q


def discretize(spec: NetworkSpec, N: int) -> DiscreteGenerator:
    """The depth-N chain's level rates with per-cell killing: w_j p^-N
    within a basin at level j, lambda p^-N across basins."""
    p = spec.p
    if N <= spec.j_max:
        raise UsageError(
            f"depth N={N} leaves within-cell kernel mass (J_max={spec.j_max}); "
            "the discretization would not be exact"
        )
    weight = float(p) ** (-N)
    within = np.array(
        [[float(spec.w_kernels[a].level(j)) * weight for j in range(1, N)] for a in spec.basins]
    )
    cross = np.array([
        [0.0 if a == b else float(spec.cross_lambda[(a, b)]) * weight for b in spec.basins]
        for a in spec.basins
    ])
    return DiscreteGenerator(
        p=p, N=N, basins=spec.basins, within=within, cross=cross, kill=aggregate_rates(spec)
    )


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

# Route choice by measured cost, in microseconds on one core (one BLAS
# thread; medians, p = 2 chains unless noted).
# - The action takes exactly steps x K products with P: K = 17 at y = 1,
#   87 at y = 31, 193 at y = 100 and 928 at y = 700, about 1.33 per unit
#   of L t for long times. A product, with its share of the loop, costs
#   about 1.5 + 1.3e-4 dim^2 with a dense P: 1.5 us up to 32 states, 6.2
#   at 256, 35 at 512, 258 at 1024. With block sums it costs about
#   30 + 0.022 dim: 34 us at 256 states, 42 at 512, 58 at 1024, 122 at
#   4096 (less on small chains and larger p, which have fewer levels per
#   state: 15 us at 16 states, 17 at 375 on p = 5, 31 at 1875 on p = 5).
#   Forming P densely from the levels costs about 15 + 1.2e-3 dim^2: 18 us
#   at 16 states, 103 at 256, 350 at 512, 1230 at 1024. So P is formed
#   densely when the action's products save more than that over block
#   sums: on every action up to 64 states, from 2 products at 128 states,
#   from 4 at 256 and from 58 at 512 (so the short actions of a 512-state
#   oracle, L t <= 4, take block sums, and one of L t = 700 takes 30 ms
#   with a dense P against 40 ms with block sums); never from about 600
#   states on, where a dense product costs more than one by block sums.
# - The dense route (uniformization.exponential) takes _TERMS - 1 = 14
#   matrix products and one per doubling, about 1.9e-5 dim^3 each: 2.7 ms
#   at 512 states, 20 ms at 1024, 152 ms at 2048.
# So the switch falls at about L t = 1400 at 512 states, 8200 at 1024,
# 51 000 at 2048 and 279 000 at 4096. An action of at most
# _ACTION_ALWAYS_PRODUCTS products is taken whatever the costs say, which
# on small chains means up to L t = 700: such an action costs at most
# about 6 ms up to 256 states.
_ACTION_ALWAYS_PRODUCTS = 1024


def _costs_us(dim: int) -> tuple:
    """The measured costs above on dim states: forming P densely, one
    product with a dense P, one product by block sums."""
    return 15.0 + 1.2e-3 * dim * dim, 1.5 + 1.3e-4 * dim * dim, 30.0 + 0.022 * dim


def _dense_p_pays(products: int, dim: int) -> bool:
    """Whether an action of this many products on dim states costs less
    with P formed densely than with block sums."""
    form, dense, level = _costs_us(dim)
    return form + products * dense < products * level


def _action_us(products: int, dim: int) -> float:
    """The cost of an action of this many products on dim states, with P
    in the cheaper of its two forms."""
    form, dense, level = _costs_us(dim)
    return min(form + products * dense, products * level)


def _schedule(rate_t: float) -> tuple:
    """Equal steps of Poisson mean at most _STEP_MEAN that sum to rate_t,
    and the weights of one step."""
    steps = max(1, math.ceil(rate_t / _STEP_MEAN))
    return steps, _poisson_weights(rate_t / steps)


def _action_is_cheaper(rate_t: float, dim: int) -> bool:
    """Whether e^{tQ} u costs less as the uniformized action than through
    the dense e^{tQ}, for L t = rate_t on dim states. A rate_t that is
    negative or not finite takes the dense route."""
    if not 0 <= rate_t < math.inf:
        return False
    steps, weights = _schedule(rate_t)
    products = steps * (len(weights) - 1)  # with P
    if products <= _ACTION_ALWAYS_PRODUCTS:
        return True
    matrix_products = _TERMS - 1 + _squarings(rate_t)
    return _action_us(products, dim) <= matrix_products * 1.9e-5 * float(dim) ** 3


def _jump_product(gen: DiscreteGenerator, rate: float, dense: bool):
    """v -> P v for P = I + Q/rate, rate >= every exit rate. If dense, P is
    one dense array, formed from the levels and dropped with the closure.
    Otherwise it is never formed: each basin's cells are summed in blocks
    of p, p^2, .., p^(N-1) cells, S_0 = v up to S_(N-1), the basin total.
    The cells a cell reaches at level j are those of its block of p^(N-j)
    cells outside its block of p^(N-j-1), so (P v)_i is
        (rate - exit_a) / rate v_i
        + sum_j within[a, j-1] / rate (S_(N-j) - S_(N-j-1))
        + sum_b cross[a, b] / rate S_(N-1)(b),
    formed top down, one level at a time: O(states) work. Every term is
    >= 0 for v >= 0: rate >= exit_a, and a block sum is >= each of its
    parts, since float rounding is monotone. So a datum >= 0 gives a
    result >= 0 exactly, on either form."""
    stay = (rate - gen.exits) / rate
    if dense:
        P = gen.matrix()
        P /= rate
        np.fill_diagonal(P, np.repeat(stay, gen.per_basin))
        return P.__matmul__
    B, p = len(gen.basins), gen.p
    stay = stay[:, None]
    cross = gen.cross / rate
    within = [w[:, None, None] for w in (gen.within / rate).T]

    def product(v):
        v = v.reshape(B, -1)
        sums = [v]
        for _ in within:
            sums.append(sums[-1].reshape(B, -1, p).sum(axis=2))
        parent = sums.pop()
        out = cross @ parent
        for w in within:  # level 1 (the whole basin) to N - 1 (siblings)
            child = sums.pop()
            step = parent[:, :, None] - child.reshape(B, -1, p)
            step *= w
            step += out[:, :, None]
            out = step.reshape(B, -1)
            parent = child
        out += stay * v
        return out.ravel()

    return product


def _uniformized(gen: DiscreteGenerator, t: float, u: np.ndarray) -> np.ndarray:
    """e^{tQ} u as the uniformized sum, for u a vector. A datum u >= 0
    gives a result >= 0 exactly: every weight is >= 0, and so is every
    term of a product with P."""
    rate = gen.rate
    steps, weights = _schedule(rate * t)
    if len(weights) == 1:  # no jump within t, or none at all
        return weights[0] * u
    products = steps * (len(weights) - 1)
    product = _jump_product(gen, rate, _dense_p_pays(products, gen.dim))
    for _ in range(steps):
        v = u
        u = weights[0] * v
        for w in weights[1:]:
            v = product(v)
            u += w * v
    return u


def solve(gen: DiscreteGenerator, u0: CellFunction, t: float) -> CellFunction:
    """Propagate the cell vector, u(t) = e^{tQ} u(0); the result has the
    basins and the layout of u0.

    The exponential's action on the datum is summed by uniformization, so
    no dim x dim exponential is formed, while that costs less than the
    dense route, whose matrix products grow as dim^3; the action forms a
    dense P only where that costs less than block sums, on small chains.
    The action's cost grows with L t (L the largest exit rate); past the
    switch the dense e^{tQ} is formed instead, at a cost that grows only
    with log t, and a chain whose matrix would pass MAX_CHAIN_BYTES is
    refused there."""
    u = gen.cell_vector(u0)
    t = float(t)
    if _action_is_cheaper(gen.rate * t, gen.dim):
        out = _uniformized(gen, t, u)
    else:
        Q = gen.matrix(f"the chain matrix for the dense route at t = {t:g}")
        out = exponential(Q, np.repeat(gen.kill, gen.per_basin), t, overwrite=True) @ u
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

