"""Closed-form evolution of a network density by block means.

Every rate kernel is radial, so every wavelet of scale r in basin a is
an eigenvector of the full generator with the same exact rate

    s_{a,r} = symbol_value(w_a, r) - loss_total_a / p

(Kozyrev, "Wavelet theory as p-adic spectral analysis", Izv. Math. 66,
2002). Both terms are exact Fractions, so s_{a,r} is rounded to a float
once. It is never positive: w <= v levelwise gives symbol <= mass(w) <=
mass(v) <= loss_total / p, and rounding keeps the sign. The projection
of a density onto all scale -k wavelets of a basin is therefore the
difference M_k - M_{k-1} of its block means over cells with k and k - 1
leading within-basin digits, and

    u(t) = m_a(t) + sum_{k=1..R} e^{s_{a,-k} t} (M_k - M_{k-1})

where the basin means m (sqrt(p) times the constant coefficients c0)
are coupled through the basin matrix Lambda and evolve by e^{t Lambda}.
Lambda depends only on the network and its convention, so the state
builds it once, next to the scale rates, and carries one real
(basins, R, cells) array of the scale parts; evolution scales its
rows, synthesis sums them, both O(cells * R). e^{t Lambda} is formed in
one place, _propagate, for a whole chunk of times at once: evaluate
walks the output grids of solve, folding-demo and the oracle in chunks,
and the crossing search calls it per chunk of its own grid. Absorbing
times and decay tables are bookkeeping on the same arrays. No wavelet
coefficient is formed: the mode that dominates a crossing cell is named
from the p child-block values of each level, in real arithmetic.

The crossing search walks its time grid in chunks. Since every s_{a,r}
is exactly <= 0, each scale term is monotone in t, so on a chunk
[t0, t1] no cell exceeds its basin's largest mean on the chunk's grid
points plus sum_k max(d_k e^{s_k t0}, d_k e^{s_k t1}). A chunk whose
bound, raised by a margin that covers the rounding of both the bound
and the evaluated peaks, stays below the threshold is skipped without
evaluating a cell; a skipped chunk still checks its means. The margin
keeps the hit index, and so every reported number, exactly as a full
scan would find it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, UsageError, ValidationError
from .kernels import symbol_value
from .network import NetworkSpec, build_basin_matrix
from .padic import CellAddress
from .wavelets import CellFunction, WaveletIndex

# the crossing threshold of `tau` and the folding model when none is given
DEFAULT_THRESHOLD = 0.99
_TAYLOR_TERMS = 24
MAX_GRID_STEPS = 2_000_000  # the crossing search's grid cap; dt stretches to fit
_SCAN_BYTES = 8 * 2**20  # working set of one chunk of the crossing scan or of evaluate


def matrix_exponential(M: np.ndarray, t=1.0) -> np.ndarray:
    """e^{tM} by scaling and squaring of a truncated power series; for a
    1-D array of times, the (n, B, B) stack of e^{t_i M}.

    Plain and self-contained on purpose: this is the only matrix
    exponential the solver path uses, so it has to be checkable against
    the power series directly (small norm) and against itself through
    the squaring identity (large norm). A stack runs the scalar steps on
    every slice: each time gets its own norm and squaring count, the
    Taylor terms are stacked products, and a squaring touches only the
    times that still need it, so slice i is bit for bit the exponential
    at t_i alone. A time where ||tM|| is beyond what 2^squarings can
    scale back (about 4e307) gives a slice of NaN.
    """
    M = np.asarray(M, dtype=float)
    ts = np.asarray(t, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise UsageError(f"matrix must be square, got shape {M.shape}")
    if ts.ndim > 1:
        raise UsageError(f"times must be a scalar or a 1-D array, got shape {ts.shape}")
    if not np.all(np.isfinite(M)) or not np.all(np.isfinite(ts)):
        raise UsageError("matrix exponential needs finite entries")
    A = M * ts.reshape(-1, 1, 1)
    norms = np.abs(A).sum(axis=2).max(axis=1)
    lost = ~(norms <= 2.0**1022)  # 2^squarings would leave the float range
    norms[lost] = A[lost] = 0.0
    squarings = np.array(
        [math.ceil(math.log2(norm / 0.5)) if norm > 0.5 else 0 for norm in norms.tolist()],
        dtype=int,
    )
    A = A / np.ldexp(1.0, squarings)[:, None, None]
    out = np.repeat(np.eye(M.shape[0])[None], len(A), axis=0)
    term = out.copy()
    for k in range(1, _TAYLOR_TERMS + 1):
        term = term @ A / k
        out = out + term
    first = squarings.min() if len(A) else 0
    for _ in range(first):  # the squarings every time takes
        out = out @ out
    for j in range(first, squarings.max(initial=0)):
        need = squarings > j
        part = out[need]
        out[need] = part @ part
    out[lost] = np.nan
    return out if ts.ndim else out[0]


@dataclass(frozen=True)
class DecayRate:
    basin: int
    r: int
    s: float
    sigma4: float  # second-order-response reading: 4 / (-s)
    sigma1: float  # bare reciprocal: 1 / (-s)


def scale_rate(spec: NetworkSpec, i: int, r: int) -> float:
    """s_{a,r} of the basin spec.basins[i] at scale r, correctly rounded."""
    w = spec.w_kernels[spec.basins[i]]
    return float(symbol_value(w, r) - spec.loss_total[i] / spec.p)


def decay_rates(spec: NetworkSpec, R: int) -> list:
    """The per-(basin, scale) coefficient rates, with both time-constant
    readings (factor 4 and factor 1) labeled side by side."""
    out = []
    for i, a in enumerate(spec.basins):
        for r in range(-1, -R - 1, -1):
            s = scale_rate(spec, i, r)
            out.append(
                DecayRate(
                    basin=a,
                    r=r,
                    s=s,
                    sigma4=math.inf if s == 0 else 4.0 / -s,
                    sigma1=math.inf if s == 0 else 1.0 / -s,
                )
            )
    return out


@dataclass(frozen=True)
class SpectralState:
    spec: NetworkSpec
    R: int
    t: float
    mean: np.ndarray  # basin means of the density, basin order
    details: np.ndarray  # (basins, R, cells); row k - 1 is the scale -k part
    rates: np.ndarray  # (basins, R); s_{a,-k} of row k - 1
    lam: np.ndarray  # the basin matrix under the spec's convention


def init(spec: NetworkSpec, datum: CellFunction) -> SpectralState:
    """Split an initial datum into basin means and scale parts at
    R = depth - 1, and build the basin matrix under the spec's convention."""
    if datum.p != spec.p:
        raise ValidationError(f"datum has p={datum.p}, network has p={spec.p}")
    datum.require_basins(spec.basins)
    R = datum.depth - 1
    if R < 1:
        raise UsageError("the expansion needs R >= 1 (datum depth >= 2)")
    p = spec.p
    table = datum.values
    n_basins, n_cells = table.shape
    mean = table.mean(axis=1)
    coarse = mean[:, None]
    details = np.empty((n_basins, R, n_cells))
    for k in range(1, R + 1):
        block = p ** (R - k)
        fine = table.reshape(n_basins, -1, block).mean(axis=2)
        details[:, k - 1] = np.repeat(fine, block, axis=1) - np.repeat(coarse, block * p, axis=1)
        coarse = fine
    return SpectralState(
        spec=spec,
        R=R,
        t=0.0,
        mean=mean,
        details=details,
        rates=np.array([d.s for d in decay_rates(spec, R)]).reshape(n_basins, R),
        lam=build_basin_matrix(spec),
    )


def _overflow(t: float) -> NumericError:
    return NumericError(
        f"basin means are not finite at t = {t:g}: "
        "the basin-matrix exponential overflows"
    )


def _propagate(state: SpectralState, t, x: np.ndarray | None = None) -> np.ndarray:
    """e^{t Lambda} x for the state's basin matrix, or e^{t Lambda} when
    x is None; for a 1-D array of times, one row (or matrix) per time,
    all formed in one stacked exponential. The one place the basin-mean
    propagator is formed, and refused with NumericError, naming the
    first time in list order, where it or the product overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = matrix_exponential(state.lam, t)
        if x is not None:
            out = out @ x
    finite = np.isfinite(out).reshape(np.size(t), -1).all(axis=1)
    if not finite.all():
        raise _overflow(state.t + float(np.ravel(t)[np.argmin(finite)]))
    return out


def evaluate(state: SpectralState, times):
    """Yield (t, mean, values) for each of a sequence of times, in order:
    the basin means at state.t + t and the density there on depth-(R + 1)
    cells, one row per basin.

    The times are taken in chunks. A chunk forms its means with one
    batched _propagate and its factors e^{s t} with one exp; each row is
    then made from its own slices alone, the means plus the scale parts
    times those factors summed over the scales, so it has the same bits
    whichever chunk holds its time. A chunk's working set, the stacked
    exponential and its factors, stays within _SCAN_BYTES, and its rows
    are made one at a time, so memory does not grow with the number of
    times. A chunk also holds at most _TAYLOR_TERMS times: it costs
    about _TAYLOR_TERMS stacked products whatever its length, so from
    there on the exponential costs at most one numpy call per time, and
    a longer chunk only holds more memory. A time where the means are
    not finite ends the evaluation: the rows before it are yielded, then
    NumericError names it.
    """
    n_basins, R, _ = state.details.shape
    time_bytes = 8 * n_basins * (5 * n_basins + R + 1)
    size = max(1, min(_TAYLOR_TERMS, _SCAN_BYTES // time_bytes))
    for k0 in range(0, len(times), size):
        ts = np.array(times[k0 : k0 + size], dtype=float)
        if (ts < 0).any():
            raise UsageError(f"time increment must be >= 0, got {ts[ts < 0][0]}")
        try:
            means = _propagate(state, ts, state.mean)
        except NumericError:
            if len(ts) > 1:  # one time at a time, up to the one that fails
                for i in range(len(ts)):
                    yield from evaluate(state, ts[i : i + 1])
            raise
        decay = np.exp(state.rates * ts[:, None, None])[..., None]
        for t, mean, column, factors in zip(ts.tolist(), means, means[:, :, None], decay):
            yield t, mean, column + (state.details * factors).sum(axis=1)


def evolve(state: SpectralState, t: float) -> SpectralState:
    """Advance by t: basin means through the basin-matrix exponential,
    each scale part by its own exponential."""
    if t < 0:
        raise UsageError(f"time increment must be >= 0, got {t}")
    return replace(
        state,
        t=state.t + t,
        mean=_propagate(state, t, state.mean),
        details=state.details * np.exp(state.rates * t)[:, :, None],
    )


def eval_density(state: SpectralState, t: float = 0.0) -> CellFunction:
    """Synthesize the density at state.t + t on depth-(R + 1) cells: the
    one-time case of evaluate."""
    _, _, values = next(evaluate(state, [t]))
    return CellFunction(state.spec.p, state.R + 1, state.spec.basins, values)


@dataclass(frozen=True)
class AbsorbingResult:
    tau: float  # math.inf when no sustained crossing occurs
    threshold: float
    crossing_cell: CellAddress | None
    mode_basin: int | None
    mode_index: object  # WaveletIndex, or None when the constant term dominates
    dt: float
    t_max: float
    dt_uncapped: float | None = None  # the dt MAX_GRID_STEPS stretched, if it did


class _Peak:
    """The largest cell value of the density, at one time or along a grid.

    The basin means come from _propagate alone, so every basin matrix
    works, defective ones included.
    """

    def __init__(self, state: SpectralState):
        self.state = state

    def _peaks(self, ts: np.ndarray, means: np.ndarray) -> np.ndarray:
        """Max over cells at times ts, given the basin means there (rows)."""
        best = np.full(len(ts), -np.inf)
        for i in range(len(self.state.spec.basins)):
            vals = np.exp(np.outer(ts, self.state.rates[i])) @ self.state.details[i]
            vals += means[:, i : i + 1]
            np.maximum(best, vals.max(axis=1), out=best)
        return best

    def at(self, t: float) -> float:
        mean = _propagate(self.state, t, self.state.mean)
        return float(self._peaks(np.array([t]), mean[None])[0])

    def _ceiling(self, ts: np.ndarray, means: np.ndarray) -> float:
        """An upper bound, rounding included, on every peak that
        _peaks(ts, means) returns, for ascending ts (the chunk [t0, t1]).

        Each scale term d e^{s t} has an exact rate s <= 0, so it is
        monotone in t and peaks at an end of the chunk: the cell value at
        any grid point is at most the basin's largest mean there plus
        sum_k max(d_k e^{s_k t0}, d_k e^{s_k t1}). Both that bound and the
        peaks _peaks computes are off their exact values by at most
        (R + 4) 2^-53 (max|mean| + max_cells sum_k |d_k|): R for the sum
        over scales, two for each exponential and its rounded argument,
        one for adding the mean. The margin added is twice that.
        """
        details, R = self.state.details, self.state.R
        rates = self.state.rates[:, :, None]
        by_basin = np.ascontiguousarray(means.T)
        top, low = by_basin.max(axis=1), by_basin.min(axis=1)
        parts = np.maximum(details * np.exp(rates * ts[0]), details * np.exp(rates * ts[-1]))
        bound = (top + parts.sum(axis=1).max(axis=1)).max()
        size = max(top.max(), -low.min()) + np.abs(details).sum(axis=1).max()
        return float(bound + (R + 4) * 2.0**-52 * size)

    def scan(self, dt: float, steps: int, threshold: float = -math.inf):
        """Yield (k0, values at grid points k0, k0 + 1, ..) up to point
        steps: the peaks there, or on a chunk whose _ceiling stays below
        threshold, that ceiling at every point. Such a chunk holds no
        point whose peak reaches the threshold, so _peaks is not called
        for it; with no threshold every chunk is evaluated.

        A chunk holds a power of two of points, sized so its working set
        stays near _SCAN_BYTES whatever the cell count. Inside a chunk the
        means follow the semigroup: rows already known are pushed forward
        by e^{2^j dt Lambda}, doubling the block each time. A skipped chunk
        still checks its means: a row that is not finite ends the scan,
        the rows before it are yielded, and NumericError is raised only if
        the caller asks for more.
        """
        _, R, n_cells = self.state.details.shape
        row_bytes = 8 * (n_cells + R + len(self.state.mean) + 4)
        size = 1 << (max(1, min(_SCAN_BYTES // row_bytes, steps + 1)).bit_length() - 1)
        powers = []
        step = _propagate(self.state, dt)
        with np.errstate(over="ignore", invalid="ignore"):
            while 1 << len(powers) < size:
                powers.append(step.T)
                step = step @ step
        for k0 in range(0, steps + 1, size):
            means = _propagate(self.state, k0 * dt, self.state.mean)[None]
            with np.errstate(over="ignore", invalid="ignore"):
                for power in powers:
                    means = np.concatenate([means, means @ power])
            ts = np.arange(k0, min(k0 + size, steps + 1)) * dt
            means = means[: len(ts)]
            n = len(ts)
            if not np.isfinite(means).all():
                n = int(np.argmin(np.isfinite(means).all(axis=1)))
            if n and (ceiling := self._ceiling(ts[:n], means[:n])) < threshold:
                yield k0, np.full(n, ceiling)
            else:
                yield k0, self._peaks(ts[:n], means[:n])
            if n < len(ts):
                raise _overflow(self.state.t + ts[n])

    def report(self, t: float):
        """Peak cell at time t and the term that dominates it there: the
        basin mean, or one mode of a scale part (see _mode_terms), named
        by its wavelet index."""
        state = evolve(self.state, t)
        p, R = state.spec.p, state.R
        values = state.mean[:, None] + state.details.sum(axis=1)
        i, j = np.unravel_index(int(values.argmax()), values.shape)
        basin = state.spec.basins[i]
        cell = CellAddress(basin, tuple(int(d) for d in np.unravel_index(j, (p,) * R)))
        terms = np.concatenate([[state.mean[i]], _mode_terms(state.details[i], j, p).ravel()])
        # terms equal up to rounding (a delta datum splits evenly between
        # mean and details; phases q and p - q are conjugate) go to the first
        sizes = np.abs(terms)
        n = int(np.argmax(sizes >= sizes.max() * (1 - 1e-12)))
        if n == 0:
            return cell, basin, None
        k, q = divmod(n - 1, p - 1)
        return cell, basin, WaveletIndex(-k - 1, cell.digits[:k], q + 1)


def _mode_terms(details: np.ndarray, j: int, p: int) -> np.ndarray:
    """(R, p - 1) values on cell j of the modes of one basin's scale parts
    (row k - 1 of details is scale -k). With v the p values of the scale
    -k part on the children of the cell's depth-k block and x the cell's
    k-th digit, the phase q mode, the real part of wavelet
    (-k, digits[:k - 1], q) times its coefficient, is

        (1/p) sum_osc v_osc cos(2 pi q (x - osc) / p)."""
    R = len(details)
    blocks = p ** np.arange(R - 1, -1, -1)  # cells sharing k digits
    first = j // (blocks * p) * blocks * p  # first cell sharing k - 1 digits with j
    osc = np.arange(p)
    v = details[np.arange(R)[:, None], first[:, None] + osc * blocks[:, None]]
    x = j // blocks % p  # the cell's k-th digit
    q = np.arange(1, p)
    angle = 2 * np.pi * q[None, :, None] * (x[:, None, None] - osc) / p
    return (v[:, None, :] * np.cos(angle)).sum(axis=2) / p


def _rate_pool(state: SpectralState) -> np.ndarray:
    pool = np.abs(np.concatenate([state.lam.ravel(), state.rates.ravel()]))
    return pool[pool > 0]


def _no_crossing(threshold, dt, t_max, dt_uncapped=None) -> AbsorbingResult:
    return AbsorbingResult(
        tau=math.inf, threshold=threshold, crossing_cell=None,
        mode_basin=None, mode_index=None, dt=dt, t_max=t_max, dt_uncapped=dt_uncapped,
    )


def _first_sustained_crossing(chunks, threshold: float):
    """First grid index k >= 1 with below at k-1 and at-or-above at both
    k and k+1. Returns None when no such sustained upward crossing
    exists on the grid (the final point alone cannot qualify)."""
    tail = np.zeros(0, dtype=bool)  # above-flags of the last two points so far
    for k0, peaks in chunks:
        above = np.concatenate([tail, peaks >= threshold])
        hits = np.flatnonzero(~above[:-2] & above[1:-1] & above[2:])
        if hits.size:
            return k0 - len(tail) + int(hits[0]) + 1
        tail = above[-2:]
    return None


def absorbing_time(
    spec: NetworkSpec,
    datum: CellFunction,
    threshold: float = 1.0,
    t_max: float | None = None,
    dt: float | None = None,
) -> AbsorbingResult:
    """First t > 0 where the density's maximum reaches the threshold.

    The crossing is upward (a strictly-below point must precede it) and
    must hold for one grid step to count, so dt bounds the detectable
    crossing width. The grid hit is then sharpened by bisection to
    relative 1e-9. No sustained crossing before t_max yields an
    inf-valued result; a datum already at the threshold that stays
    there reports tau = 0.
    """
    if threshold <= 0:
        raise UsageError(f"threshold must be > 0, got {threshold}")
    state = init(spec, datum)
    for b, row in zip(datum.basins, datum.values):
        lo, hi = row.min(), row.max()
        if lo < -1e-12 or hi > 1 + 1e-12:
            raise ValidationError(
                f"datum values in basin {b} span [{lo}, {hi}], outside [0, 1]"
            )
    rates = _rate_pool(state)
    if rates.size == 0:
        # nothing moves; the initial maximum is the maximum forever
        return _no_crossing(threshold, 0.0, 0.0)
    if dt is None:
        dt = 1e-3 / rates.max()
    if t_max is None:
        t_max = 100.0 / rates.min()
    if dt <= 0 or t_max <= 0:
        raise UsageError("dt and t_max must be > 0")
    steps = int(math.ceil(t_max / dt))
    dt_uncapped = None
    if steps > MAX_GRID_STEPS:
        dt_uncapped, dt = dt, t_max / MAX_GRID_STEPS
        steps = MAX_GRID_STEPS

    peak = _Peak(state)
    if all(peak.at(t) >= threshold for t in (0.0, dt, 2 * dt)):
        tau = 0.0  # already at the threshold, and it sustains
    else:
        hit = _first_sustained_crossing(peak.scan(dt, steps, threshold), threshold)
        if hit is None:
            return _no_crossing(threshold, dt, t_max, dt_uncapped)
        lo, tau = (hit - 1) * dt, hit * dt
        while tau - lo > 1e-9 * max(tau, dt):
            mid = 0.5 * (lo + tau)
            if peak.at(mid) >= threshold:
                tau = mid
            else:
                lo = mid
    cell, mode_basin, mode_index = peak.report(tau)
    return AbsorbingResult(
        tau=tau, threshold=threshold, crossing_cell=cell,
        mode_basin=mode_basin, mode_index=mode_index, dt=dt, t_max=t_max,
        dt_uncapped=dt_uncapped,
    )
