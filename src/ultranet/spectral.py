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
builds it once, next to the scale rates. It holds scale -k on its p^k
blocks of k digits, cells * p / (p - 1) values a basin in all; evolution
scales each level, and synthesis is the inverse pyramid pass (Mallat,
IEEE PAMI 11, 1989), both O(cells). e^{t Lambda} is formed in one
place, _propagate, for a whole chunk of times at once: evaluate walks
the output grids of solve, folding-demo and the oracle in chunks, and
the crossing search the left ends of its pending intervals. It is
uniformization.exponential, the uniformization driver on dense
matrices. The chain oracle runs the same driver in its own level
algebra, so it checks the basin matrix and the algebra but not the
driver's steps; nothing of the Monte Carlo sampler is shared. Decay
tables are bookkeeping on the same arrays. No wavelet coefficient is
formed: the mode that dominates a crossing cell is named from the p
child-block values of each level, in real arithmetic.

The absorbing time tau is the first t >= 0 at which the peak reaches
the threshold, to relative 1e-9. Where t = 0 decides it
(network.decide_tau), no search runs. Elsewhere some row of the basin
matrix grows, and tau is found by certified interval bisection with no
time grid: every s_{a,r} is exactly <= 0, so each scale term is
monotone in t, and a log-norm bounds how far the basin means move on an
interval (_Peak._ceiling).
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import NumericError, UsageError, ValidationError
from .kernels import symbol_value
from .network import NetworkSpec, build_basin_matrix, datum_in_range, decide_tau
from .padic import CellAddress, cell_index, require_basins
from .uniformization import exponential
from .wavelets import CellFunction, WaveletIndex
_SCAN_BYTES = 8 * 2**20  # working set of one chunk of stacked times, or of one batch of rows
# A chunk shares the at most 14 products of its stacked exponential among
# its times, and a batch of rows the numpy calls that form them. Memory
# grows by about 0.3 KB a time and 2.5 KB a row of 64 cells: at 48 times
# and 8 rows, solve at 2000 times peaks at 1.24 times its peak at 20; at
# 64 times at 1.34, at 128 at 1.71, and at 16 rows at 1.55.
_CHUNK_TIMES = 48
_BATCH_ROWS = 8


def matrix_exponential(M: np.ndarray, kill: np.ndarray, t=1.0) -> np.ndarray:
    """uniformization.exponential under a function object of its own, so
    that a count of its calls counts the basin means' exponentials."""
    return exponential(M, kill, t)


def scale_rate(spec: NetworkSpec, i: int, r: int) -> float:
    """s_{a,r} of the basin spec.basins[i] at scale r, correctly rounded."""
    w = spec.w_kernels[spec.basins[i]]
    return float(symbol_value(w, r) - spec.loss_total[i] / spec.p)


def decay_rates(spec: NetworkSpec, R: int) -> np.ndarray:
    """(basins, R): entry [i, k - 1] is s_{a,-k} of the basin
    spec.basins[i], each exact rate rounded once by scale_rate."""
    return np.array([[scale_rate(spec, i, -k) for k in range(1, R + 1)] for i in range(len(spec.basins))])


@dataclass(frozen=True)
class SpectralState:
    spec: NetworkSpec
    t: float
    mean: np.ndarray  # basin means of the density, basin order
    details: tuple  # R levels; entry k - 1, (basins, p^k), is scale -k: M_k - M_{k-1}
    rates: np.ndarray  # (basins, R); s_{a,-k} of details entry k - 1
    lam: np.ndarray  # the basin matrix under the spec's convention
    kill: np.ndarray  # minus the exact row sums of lam, rounded once; < 0 where a row grows


def init(spec: NetworkSpec, datum: CellFunction) -> SpectralState:
    """Split an initial datum into basin means and scale parts at
    R = depth - 1, and build the basin matrix under the spec's convention
    with its row sums from the exact rows."""
    if datum.p != spec.p:
        raise ValidationError(f"datum has p={datum.p}, network has p={spec.p}")
    require_basins(datum.basins, spec.basins)
    R = datum.depth - 1
    if R < 1:
        raise UsageError("the expansion needs R >= 1 (datum depth >= 2)")
    p = spec.p
    table = datum.values
    n_basins, n_cells = table.shape
    # numpy reserves an array without touching its pages, so one that the
    # memory cannot hold ends in a kill, not a MemoryError; evaluate and
    # the search hold at most three rows of cells besides the levels
    need = 8 * n_basins * ((n_cells - 1) * p // (p - 1) + 3 * n_cells)
    if need > _memory_bytes():
        raise MemoryError(
            f"the scale parts of {n_basins} basins x {R} scales x {n_cells} cells "
            f"need {need / 2**30:.3g} GiB, more than the {_memory_bytes() / 2**30:.3g} GiB "
            "of memory"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        # the block means at 0, 1, .., R leading digits, each over the datum
        means = [table.reshape(n_basins, p**k, -1).mean(axis=2) for k in range(R + 1)]
        details = tuple(fine - coarse.repeat(p, axis=1) for coarse, fine in zip(means, means[1:]))
    mean = means[0][:, 0]
    if not (np.isfinite(mean).all() and all(np.isfinite(level).all() for level in details)):
        raise NumericError(
            "the block means of the datum are not finite: its values lie too near the float range"
        )
    return SpectralState(
        spec=spec,
        t=0.0,
        mean=mean,
        details=details,
        rates=decay_rates(spec, R),
        lam=build_basin_matrix(spec),
        kill=np.array([float(-sum(row)) for row in spec.basin_rows]),
    )


def _memory_bytes() -> int:
    """The physical memory of the machine, or sys.maxsize where the
    system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize


def _propagate(state: SpectralState, t) -> np.ndarray:
    """The basin means e^{t Lambda} state.mean for the state's basin
    matrix; for a 1-D array of times, one row per time, all formed in one
    stacked exponential, up to the first time in list order where it or
    the product overflowed. The one place the basin-mean propagator is
    formed; a time that overflows first, or alone, is refused with
    _not_finite. With minus the exact row sums as the killing rates, the
    rows of a closed class that loses nothing keep their limit at any
    time."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = matrix_exponential(state.lam, state.kill, t) @ state.mean
    finite = np.isfinite(out).reshape(np.size(t), -1).all(axis=1)
    if not finite[0]:
        raise _not_finite(state, np.ravel(t)[0])
    return out if finite.all() else out[: np.argmin(finite)]


def _not_finite(state: SpectralState, t) -> NumericError:
    """The refusal of basin means that overflow at state.t + t."""
    t = state.t + float(t)
    return NumericError(f"basin means are not finite at t = {t:g}: the basin-matrix exponential overflows")


def _chunk_size(state: SpectralState) -> int:
    """Times per stacked _propagate (see evaluate): a working set within
    _SCAN_BYTES, and at most _CHUNK_TIMES times."""
    n_basins, R = state.rates.shape
    time_bytes = 8 * n_basins * (5 * n_basins + R + 1)
    return max(1, min(_CHUNK_TIMES, _SCAN_BYTES // time_bytes))


def _synthesize(parts, p: int) -> np.ndarray:
    """Sum an iterator of scale parts, coarsest first, part k - 1 of shape
    (..., p^k), on the finest cells top-down: v <- v on each of its p
    children + the next part. Each cell adds them as a sum over scales does."""
    v = next(parts)
    for part in parts:
        v = v.repeat(p, axis=-1)
        v += part
    return v


def _factors(state: SpectralState, times) -> np.ndarray:
    """e^{s t} at each time, (R, times, basins, 1): entry k - 1 scales details entry k - 1."""
    with np.errstate(over="ignore"):  # s t may round to -inf: e^{s t} = 0
        return np.exp(state.rates.T[:, None, :, None] * np.asarray(times)[:, None, None])


def evaluate(state: SpectralState, times):
    """Yield (t, mean, values) for each of a sequence of times, in order:
    the basin means at state.t + t and the density there on depth-(R + 1)
    cells, one row per basin.

    The times are taken in chunks of at most _CHUNK_TIMES. A chunk forms
    its means with one batched _propagate and its factors e^{s t} with
    one exp, and its rows _BATCH_ROWS at a time by _synthesize, plus the
    means. So each row has the bits it has when its time is evaluated
    alone, whichever chunk or batch holds it. The stacked exponential
    stays within _SCAN_BYTES, and so do a batch's rows and the one
    product it holds besides; memory is bounded by these, not by the
    number of times. A time where the means are not finite ends the
    evaluation: the chunk's _propagate holds the rows before it, these
    are yielded, then NumericError names it.
    """
    size = _chunk_size(state)
    p, details = state.spec.p, state.details
    # a batch holds its rows and the finest scale part times its factors
    batch = max(1, min(_BATCH_ROWS, _SCAN_BYTES // (2 * details[-1].nbytes)))
    for k0 in range(0, len(times), size):
        ts = np.array(times[k0 : k0 + size], dtype=float)
        if (ts < 0).any():
            raise UsageError(f"time increment must be >= 0, got {ts[ts < 0][0]}")
        means = _propagate(state, ts)
        n = len(means)
        decay = _factors(state, ts[:n])
        for b0 in range(0, n, batch):
            cut = slice(b0, b0 + batch)
            rows = _synthesize(map(np.multiply, details, decay[:, cut]), p)
            rows += means[cut, :, None]
            yield from zip(ts[cut].tolist(), means[cut], rows)
        if n < len(ts):
            raise _not_finite(state, ts[n])


def evolve(state: SpectralState, t: float) -> SpectralState:
    """Advance by t: basin means through the basin-matrix exponential,
    each scale part by its own exponential."""
    if t < 0:
        raise UsageError(f"time increment must be >= 0, got {t}")
    details = tuple(map(np.multiply, state.details, _factors(state, [t])[:, 0]))
    return replace(state, t=state.t + t, mean=_propagate(state, t), details=details)


def eval_density(state: SpectralState, t: float = 0.0) -> CellFunction:
    """Synthesize the density at state.t + t on depth-(R + 1) cells: the
    one-time case of evaluate."""
    _, _, values = next(evaluate(state, [t]))
    return CellFunction(state.spec.p, len(state.details) + 1, state.spec.basins, values)


@dataclass(frozen=True)
class AbsorbingResult:
    """What absorbing_time found for the threshold its caller passed; the
    dominant mode lives in the crossing cell's basin."""

    tau: float  # math.inf when the peak never reaches the threshold, or not up to t_max
    crossing_cell: CellAddress | None
    mode_index: object  # WaveletIndex, or None when the constant term dominates
    dt: float  # width of the bracket [tau - dt, tau] of the crossing; 0 at tau 0 or inf
    t_max: float  # the end of the search; inf where t = 0 decided tau


class _Peak:
    """The largest cell value of the density: at one time, or bounded
    over an interval of times. The basin means come from _propagate
    alone, so every basin matrix works, defective ones included."""

    def __init__(self, state: SpectralState):
        self.state = state
        lam = state.lam
        self.abs_lam = np.abs(lam)
        rows = state.spec.basin_rows
        # (d, mu): e^{t Lambda} grows by at most e^{t mu} in the norm
        # max_a |x_a| / d_a, mu the log-norm max_a (Lambda d)_a / d_a of
        # this Metzler matrix (Soederlind, BIT 46, 2006) from the exact
        # rows: for d = 1, 0 on conservative rows whose floats may not sum
        # to 0. If that is positive though nothing grows, d solving
        # (c - Lambda) d = 1, c = 1 / the default horizon, gives mu < c.
        n = len(lam)
        self.norms = [(np.ones(n), self._log_norm(rows, np.ones(n)))]
        if self.norms[0][1] > 0 and np.linalg.eigvals(lam).real.max() <= 0:
            d = np.linalg.solve(_rate_pool(state).min() / 100 * np.eye(n) - lam, np.ones(n))
            if (d > 0).all():
                self.norms.append((d, self._log_norm(rows, d)))
        # Lambda m(0) from the exact rows and the datum's means, rounded
        # once, so that a datum at an exact fixed point does not move
        mean = [Fraction(m) for m in state.mean.tolist()]
        self.flow0 = np.array([float(sum(x * m for x, m in zip(row, mean))) for row in rows])
        # max_cells sum_k |d_k|, the scale parts' share of the margin
        self.spread = _synthesize(map(np.abs, state.details), state.spec.p).max()

    @staticmethod
    def _log_norm(rows: list, d: np.ndarray) -> float:
        """max(0, max_a (Lambda d)_a / d_a) over the exact rows, rounded up."""
        d = [Fraction(x) for x in d.tolist()]
        mu = float(max(sum(x * y for x, y in zip(row, d)) / y for row, y in zip(rows, d)))
        return math.nextafter(mu, math.inf) if mu > 0 else 0.0

    def at(self, t: float, mean: np.ndarray) -> float:
        """Peak at time t, given the basin means there; the cells are
        summed as evaluate sums them."""
        parts = map(np.multiply, self.state.details, _factors(self.state, [t])[:, 0])
        return float((mean[:, None] + _synthesize(parts, self.state.spec.p)).max())

    def _ceiling(self, t0: float, t1: float, mean: np.ndarray) -> tuple:
        """(bound, margin): every peak on [t0, t1] is at most bound +
        margin, given the basin means at t0; an infinite bound has margin 0.

        Each scale term d e^{s t} has an exact rate s <= 0, so it is at
        most max(d e^{s t0}, d e^{s t1}). With w = t1 - t0 and each norm
        (d, mu) of __init__, mean a moves by at most reach_a =
        d_a w e^{w mu} ||Lambda m(t0)||_d, and by at most
        w ((Lambda m(t0))_a^+ + sum_b |Lambda_ab| reach_b), as
        m' = Lambda m, with Lambda m(t0) raised by its own rounding. The
        drift is formed on the means times 2^-e, max|mean| < 2^e, so that
        Lambda m stays finite up to the float range, and scaled back
        exactly; where that scaling rounds a mean or a product into the
        subnormals, each is off by at most 2^-1075, which the slack adds.
        The bound and the peaks at are off by at most (R + 4) 2^-53
        (max|mean| + drift + max_cells sum_k |d_k|): R for the sum over
        scales, two for each exponential and its argument, one each for
        adding the mean and the drift. The margin is twice that.
        """
        state = self.state
        n, w = len(mean), t1 - t0
        e = math.frexp(np.abs(mean).max())[1]
        m = np.ldexp(mean, -e)
        with np.errstate(over="ignore", invalid="ignore"):
            if t0 == 0:
                flow = np.ldexp(self.flow0, -e)
                slack = 2.0**-52 * np.abs(flow)
            else:
                flow = state.lam @ m
                slack = (n + 2) * 2.0**-52 * (self.abs_lam @ np.abs(m))
            if e > 0:
                slack += 2.0**-1074 * (n + self.abs_lam @ (np.ldexp(m, e) != mean))
            g = np.abs(flow) + slack
            reach = np.zeros(n)
            if g.any():
                reach = reduce(np.minimum, [d * (w * (g / d).max() * np.exp(w * mu)) for d, mu in self.norms])
            drift = np.ldexp(np.fmin(reach, w * (np.maximum(flow + slack, 0.0) + self.abs_lam @ reach)), e)
        ends = map(np.multiply, state.details, _factors(state, [t0, t1]))
        parts = _synthesize((np.maximum(*both) for both in ends), state.spec.p)
        bound = (mean + drift + parts.max(axis=1)).max()
        size = np.abs(mean).max() + drift.max() + self.spread
        if not size < math.inf:
            return math.inf, 0.0
        return float(bound), float((len(state.details) + 4) * 2.0**-52 * size)

    def first_crossing(self, threshold: float, t_max: float) -> tuple:
        """(tau, dt): the first t in [0, t_max) at which the peak reaches
        the threshold, to relative 1e-9, and the width of the bracket
        [tau - dt, tau] that holds it; (inf, 0.0) when there is none.

        Intervals are taken in time order from [0, t_max]. One whose bound
        plus margin stays below the threshold is set aside; otherwise, if
        the peak at its left end reaches the threshold, that end is tau.
        An interval of width 1e-9 of its right end is set aside, and so is
        one whose bound exceeds the peak at its left end by no more than
        the margin while its right end stays below: there the peak rises
        only by rounding. Any other is split, halved at t = 0 and at its
        geometric middle t0 sqrt(t1 / t0) further out, which scales
        exactly with the unit of time. The pending left ends that lack
        their basin means get them in one stacked _propagate, up to the
        first that overflows; that one raises once it is the next to pop.
        """
        state = self.state
        size = _chunk_size(state)
        pending = [(0.0, t_max, state.mean)]  # the earliest interval last
        lo = 0.0  # left end of the last interval set aside
        while pending:
            if pending[-1][2] is None:
                n = 1
                while n < min(size, len(pending)) and pending[-1 - n][2] is None:
                    n += 1
                ts = [pending[-1 - i][0] for i in range(n)]
                for i, mean in enumerate(_propagate(state, np.array(ts))):
                    pending[-1 - i] = (ts[i], pending[-1 - i][1], mean)
            t0, t1, mean = pending.pop()
            bound, margin = self._ceiling(t0, t1, mean)
            if bound + margin < threshold:
                lo = t0
                continue
            peak = self.at(t0, mean)
            if peak >= threshold:
                return t0, t0 - lo
            if t1 - t0 <= 1e-9 * t1 or (
                bound - peak <= margin
                and self.at(t1, _propagate(state, t1)) < threshold
            ):
                lo = t0
                continue
            mid = 0.5 * t1 if t0 == 0 else t0 * math.sqrt(t1 / t0)
            pending += [(mid, t1, None), (t0, mid, mean)]
        return math.inf, 0.0


def _report(state: SpectralState, t: float):
    """Peak cell at time t and the term that dominates it there: the
    basin mean, or one mode of a scale part (see _mode_terms), named by
    its wavelet index."""
    state = evolve(state, t)
    p, R = state.spec.p, len(state.details)
    values = state.mean[:, None] + _synthesize(iter(state.details), p)
    i, j = np.unravel_index(int(values.argmax()), values.shape)
    cell = CellAddress(state.spec.basins[i], tuple(int(d) for d in np.unravel_index(j, (p,) * R)))
    terms = np.concatenate([[state.mean[i]], _mode_terms(state.details, i, cell.digits, p).ravel()])
    # terms equal up to rounding (a delta datum splits evenly between
    # mean and details; phases q and p - q are conjugate) go to the first
    sizes = np.abs(terms)
    n = int(np.argmax(sizes >= sizes.max() * (1 - 1e-12)))
    if n == 0:
        return cell, None
    k, q = divmod(n - 1, p - 1)
    return cell, WaveletIndex(-k - 1, cell.digits[:k], q + 1)


def _mode_terms(details: tuple, i: int, digits: tuple, p: int) -> np.ndarray:
    """(R, p - 1) values of the modes of basin row i of the scale parts on
    its cell with these digits. With v the p values of the scale -k part
    on the children of the cell's depth-k block and x the cell's k-th
    digit, the phase q mode, the real part of wavelet (-k, digits[:k - 1],
    q) times its coefficient, is

        (1/p) sum_osc v_osc cos(2 pi q (x - osc) / p)."""
    v = np.array([level[i].reshape(-1, p)[cell_index(digits[:k], p)] for k, level in enumerate(details)])
    osc = np.arange(p)
    x = np.array(digits)
    q = np.arange(1, p)
    angle = 2 * np.pi * q[None, :, None] * (x[:, None, None] - osc) / p
    return (v[:, None, :] * np.cos(angle)).sum(axis=2) / p


def _rate_pool(state: SpectralState) -> np.ndarray:
    pool = np.abs(np.concatenate([state.lam.ravel(), state.rates.ravel()]))
    return pool[pool > 0]


def _search(state: SpectralState, threshold: float) -> tuple:
    """(tau, dt, t_max): _Peak.first_crossing on [0, t_max], t_max 100 over
    the slowest rate of the basin matrix and the scale parts, or 0 if none."""
    rates = _rate_pool(state)
    t_max = min(100.0 / float(rates.min()), sys.float_info.max) if rates.size else 0.0
    return (*_Peak(state).first_crossing(threshold, t_max), t_max)


def absorbing_time(spec: NetworkSpec, datum: CellFunction, threshold: float) -> AbsorbingResult:
    """First t >= 0 at which the density's maximum reaches the threshold,
    to relative 1e-9, or inf if none does.

    t = 0 decides it where it can (network.decide_tau): tau is 0 when the
    datum's maximum reaches the threshold, and inf for all time when no
    exact row of the basin matrix sums above 0, as the density then never
    rises above its start. Either comes with dt = 0 and t_max = inf, and
    no search runs. Elsewhere some row grows, and _search looks for the
    crossing up to 100 over the slowest rate; inf then means no crossing
    before that horizon, t_max.

    The datum is refused as init refuses it, and where its values leave
    [0, 1] by more than 1e-12, in that order.
    """
    values = datum.values
    spans = zip(datum.basins, values.min(axis=1).tolist(), values.max(axis=1).tolist())
    tau = decide_tau(spec, float(values.max()), threshold)
    state = init(spec, datum)
    for b, lo, hi in spans:
        if not datum_in_range(lo, hi):
            raise ValidationError(
                f"datum values in basin {b} span [{lo}, {hi}], outside [0, 1]"
            )
    if tau is None:
        tau, dt, t_max = _search(state, threshold)
    else:
        dt, t_max = 0.0, math.inf
    cell, mode_index = _report(state, tau) if tau < math.inf else (None, None)
    return AbsorbingResult(tau=tau, crossing_cell=cell, mode_index=mode_index, dt=dt, t_max=t_max)
