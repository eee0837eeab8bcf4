"""Independent ground truth: the master equation on depth-N cells.

Discretizing at depth N strictly below the kernel resolution (N > J_max)
is exact, not approximate: every kernel is constant across distinct
cells and carries no mass within a cell, so the finite rate matrix
represents the integral operator with no truncation error. Within a
basin the rate between two cells depends only on their ultrametric
level, and across two basins it is one constant, so the chain is held as
those level rates, O(basins * N) numbers (a hierarchically block-constant
matrix: Ogielski & Stein, PRL 55, 1985), and no dense Q is stored. Such
matrices form an algebra, so e^{tQ} is one of them too. The oracle forms
it there by uniformization (_level_exponential: the series at a short
time, then squarings; Jensen, 1953, and Grassmann, 1977) and applies it
to the datum once by block sums (_apply). Nothing is subtracted but
block sums from their parents, so no entry can cancel (one can still
overflow, and compare reports it), and the oracle holds no array of
more than O(states) floats at any time. It takes no wavelet, eigenvalue
or basin matrix, so it can serve as the oracle for the spectral solver.
Only numpy is used.

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
from .padic import require_basins
from .uniformization import _TERMS, _reaches_a_kill, _squarings, _weights
from .wavelets import CellFunction


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

    @cached_property
    def series(self) -> tuple:
        """(rate, shift, powers) of _level_exponential, which depend on no
        time, so every time of a run shares them: the uniformization rate,
        L plus the largest growth; that growth, by which Q is shifted; and
        P, P^2, .., P^(_TERMS - 1) of P = I + (Q - shift I) / rate as
        elements of the level algebra, none where the rate is 0."""
        product, _ = _level_algebra(self)
        L = max(0.0, self.rate)
        rate = L + max(0.0, -float(self.kill.min()))
        powers = []
        if rate > 0:
            # L >= every exit rate, so L - exit rounds to no negative number
            powers.append((
                self.cross / rate,
                np.column_stack([self.within / rate, (L - self.exits) / rate]),
            ))
            for _ in range(2, _TERMS):
                powers.append(product(powers[0], powers[-1]))
        return rate, rate - L, powers  # the shift is exact where it is <= L (Sterbenz)

    def cell_vector(self, u0: CellFunction) -> np.ndarray:
        """u0 as one vector in state order: its rows end to end. States
        run basin-major in enumerate_cells order, the layout of
        u0.values, so a datum of the same p, depth and basins lines up."""
        if u0.depth != self.N:
            raise UsageError(f"datum depth {u0.depth} must equal the level {self.N}")
        require_basins(u0.basins, self.basins)
        if u0.p != self.p:
            raise ValidationError(f"datum has {u0.values.size} cells, the chain has {self.dim}")
        return u0.values.ravel()


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


def _level_algebra(gen: DiscreteGenerator):
    """The product and the row sums of the level algebra on gen's shape.
    An element (beta, c) is a states x states matrix that is constant on
    the level blocks: beta[a, b] is its entry from a cell of basin a to one
    of basin b != a (beta[a, a] = 0), and c[a, k] its entry between two
    cells of basin a that share k leading digits, k = N - 1 the diagonal.
    A cell sees count[k] cells at level k: (p - 1) p^(N-2-k), and at N - 1
    itself. Take x and z of basin a at level m, and y of basin a at level
    i from x. For i < m, y is at level i from z; for i > m at level m;
    for i = m, y is at level m from z but for the p^(N-2-m) cells that
    share z's next digit, which see z at each level j > m in count[j].
    So with r = c count, the basins' within row sums, and n the cells per
    basin,
        c''_m = sum_{i<m} c_i c'_i count_i + c'_m sum_{i>m} c_i count_i
                + c_m (same_m c'_m + sum_{j>m} c'_j count_j) + n (beta beta')_aa,
        beta'' = n beta beta' + diag(r) beta' + beta diag(r')  (off the diagonal),
    same_m = (p - 2) p^(N-2-m), and 1 at m = N - 1. Every term multiplies
    entries >= 0 and counts, so nothing is subtracted."""
    p, N, n = gen.p, gen.N, float(gen.per_basin)
    count = np.array([(p - 1) * float(p) ** (N - 2 - k) for k in range(N - 1)] + [1.0])
    same = np.array([(p - 2) * float(p) ** (N - 2 - k) for k in range(N - 1)] + [1.0])

    def below(x):
        """sum_{i<m} x_i for each m."""
        out = np.zeros_like(x)
        np.cumsum(x[:, :-1], axis=1, out=out[:, 1:])
        return out

    def above(x):
        """sum_{i>m} x_i for each m."""
        out = np.zeros_like(x)
        out[:, :-1] = np.cumsum(x[:, :0:-1], axis=1)[:, ::-1]
        return out

    def product(E, F):
        (b1, c1), (b2, c2) = E, F
        beta = n * (b1 @ b2)
        c = below(c1 * c2 * count) + c2 * above(c1 * count)
        c += c1 * (same * c2 + above(c2 * count))
        c += beta.diagonal()[:, None]
        beta += (c1 @ count)[:, None] * b2
        beta += b1 * (c2 @ count)
        np.fill_diagonal(beta, 0.0)
        return beta, c

    def sums(E):
        beta, c = E
        return c @ count + n * beta.sum(axis=1)

    return product, sums


def _level_exponential(gen: DiscreteGenerator, t: float) -> tuple:
    """e^{tQ} as an element (beta, c) of the level algebra, by the steps
    of uniformization.exponential: the series of P = I + (Q - shift I)/rate
    at tau = t / 2^s, rate tau < 1/2, shift the largest growth; then s
    squarings. The rows of basins that reach no killing (or growing) basin
    along the cross rates are rescaled to sum 1 after the series and after
    each squaring, and the squarings stop once one returns its argument
    bit for bit. The powers of P come from gen.series, formed once per
    chain. O(basins^3 + basins N) work per product, none per state."""
    product, sums = _level_algebra(gen)
    rate, shift, powers = gen.series
    s = int(_squarings(rate, t)) if rate > 0 else 0
    tau = math.ldexp(t, -s)
    weights = _weights(np.array([rate * tau]))[0]
    beta, c = np.zeros_like(gen.cross), np.zeros((len(gen.basins), gen.N))
    c[:, -1] = weights[0]
    for weight, power in zip(weights[1:], powers):
        beta += weight * power[0]
        c += weight * power[1]
    if shift:
        beta *= math.exp(shift * tau)
        c *= math.exp(shift * tau)
    closed = ~_reaches_a_kill(gen.cross, gen.kill)

    def rescale(E):
        scale = np.where(closed, sums(E), 1.0)[:, None]
        return E[0] / scale, E[1] / scale

    E = rescale((beta, c))
    for _ in range(s):
        square = rescale(product(E, E))
        if all(np.array_equal(x, y) for x, y in zip(square, E)):
            break
        E = square
    return E


def _apply(gen: DiscreteGenerator, E: tuple, v: np.ndarray) -> np.ndarray:
    """E v for an element E = (beta, c) of the level algebra, E never
    formed densely: each basin's cells are summed in blocks of p, p^2, ..,
    p^(N-1) cells, S_0 = v up to S_(N-1), the basin total. The cells a cell
    sees at level k are those of its block of p^(N-1-k) cells outside its
    block of p^(N-2-k), so (E v)_i, for i in basin a, is
        c[a, N-1] v_i + sum_k c[a, k] (S_(N-1-k) - S_(N-2-k))
        + sum_b beta[a, b] S_(N-1)(b),
    formed top down, one level at a time: O(states) work. Every term is
    >= 0 for v >= 0: E has no negative entry, and a block sum is >= each
    of its parts, since float rounding is monotone. So a datum >= 0 gives
    a result >= 0 exactly."""
    beta, c = E
    B, p = len(gen.basins), gen.p
    v = v.reshape(B, -1)
    sums = [v]
    for _ in range(gen.N - 1):
        sums.append(sums[-1].reshape(B, -1, p).sum(axis=2))
    parent = sums.pop()
    out = beta @ parent
    for w in c[:, :-1].T:  # level 0 (the whole basin) to N - 2 (siblings)
        child = sums.pop()
        step = parent[:, :, None] - child.reshape(B, -1, p)
        step *= w[:, None, None]
        step += out[:, :, None]
        out = step.reshape(B, -1)
        parent = child
    out += c[:, -1:] * v
    return out.ravel()


def solve(gen: DiscreteGenerator, u0: CellFunction, t: float) -> CellFunction:
    """Propagate the cell vector, u(t) = e^{tQ} u(0); the result has the
    basins and the layout of u0. e^{tQ} is formed in the level algebra,
    at a cost that grows with basins^3 + basins N per squaring and with
    log t, and applied to the datum once by block sums: no array of more
    than O(states) floats is formed; an overflow is left to compare's check."""
    u = gen.cell_vector(u0)
    t = float(t)
    if not 0 <= t < math.inf:
        raise UsageError(f"the oracle needs a finite time >= 0, got {t:g}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _apply(gen, _level_exponential(gen, t), u)
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

