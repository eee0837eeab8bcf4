"""Jump-process simulation with killing on a discretized state tree.

The estimator is the backward one: paths start at a fixed cell I and the
estimate of u(I, t) is the average of u0 at the path position over paths
still alive at t.  Killing sends a path to a terminal trap from which it
never contributes again.

Randomness is counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC11), so results are bit-identical however the paths
are split into blocks and across threads. One splitmix generator,
_streams, gives every number: value c of the stream of the master seed
seeds start cell c, value i of that stream seeds the cell's path i, and
value k of the path's stream is its draw k. Each path counts its own
draws.

The paths of a block of start cells follow Gillespie's direct method
(J. Phys. Chem. 81, 1977) one record time at a time: the paths whose
next jump falls at or before a record time jump and draw their next
hold until none is left, and then every path's state is recorded.
Nothing is drawn past the last record time, and a state of zero total
rate holds forever. A block holds whole start cells, at least one, and
otherwise at most _RECORD_BUDGET recorded (path, time) entries. A rate
depends only on the ultrametric level of two cells or on their basins,
so each state's row is held as basins + 2 N - 1 runs of equal rates
(_jump_runs): a target is found by a binary search over the runs'
cumulative masses and one division in the run, with no states^2 array.
The estimate and its standard error need the sums of u0 and of u0^2
over a start cell's paths; these are counted per state and summed
exactly over the states reached: the correctly rounded path sums.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, ValidationError
from .network import datum_in_range
from .padic import cell_labels
from .tree import DiscreteGenerator
from .wavelets import CellFunction

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
# The sampler holds one uint64 seed per path in one numpy array, which
# holds at most intp.max bytes. np.arange refuses sizes just under that
# bound (and returns an empty array at 2**63 - 1) instead of failing to
# allocate, so the cap keeps a factor of two in hand.
_MAX_PATHS = np.iinfo(np.intp).max // 16

# Recorded (path, time) entries of one block. A block's record
# array, int64, is its largest: 3 * 2^15 entries (768 KiB) is 32 768 paths
# at three record times, and fewer paths at more times. A block holds
# whole start cells, so one cell's paths at every time is the floor.
_RECORD_BUDGET = 3 << 15

def _mix_vec(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MIX_A)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def _streams(seeds, k) -> np.ndarray:
    """Value k of the splitmix stream of each seed (Steele, Lea & Flood,
    OOPSLA 2014), seeds and k broadcast: mix(seed + (k + 1) golden) mod
    2^64."""
    step = (np.array(k, dtype=np.uint64, ndmin=1) + np.uint64(1)) * np.uint64(_GOLDEN)
    return _mix_vec(np.asarray(seeds, dtype=np.uint64) + step)


def _uniforms(seeds: np.ndarray, counter) -> np.ndarray:
    """Draw number `counter` of every stream, one count for all streams
    or one per stream, mapped to [0, 1): the top 53 bits."""
    return (_streams(seeds, counter) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    seed: int
    record_times: tuple
    threads: int = 1

    def __post_init__(self):
        if not _is_int(self.n_paths) or not 1 <= self.n_paths <= _MAX_PATHS:
            raise UsageError(
                f"n_paths must be an integer from 1 to {_MAX_PATHS}, got {self.n_paths!r}"
            )
        try:
            seed = operator.index(self.seed)
        except TypeError:
            raise UsageError(f"seed must be an integer, got {self.seed!r}") from None
        try:
            times = tuple(self.record_times)
        except TypeError:
            times = None
        if times is None or not all(_is_real(t) for t in times):
            raise UsageError(f"record_times must be a sequence of numbers, got {self.record_times!r}")
        times = tuple(map(float, times))
        if not times:
            raise UsageError("record_times must not be empty")
        if not all(map(math.isfinite, times)):
            raise UsageError(f"record_times must be finite, got {times!r}")
        if any(t < 0 for t in times) or any(
            a > b for a, b in zip(times, times[1:])
        ):
            raise UsageError("record_times must be sorted and non-negative")
        if not _is_int(self.threads) or self.threads < 1:
            raise UsageError(f"threads must be an integer >= 1, got {self.threads!r}")
        object.__setattr__(self, "record_times", times)
        object.__setattr__(self, "seed", seed & _MASK)


@dataclass(frozen=True)
class SimResult:
    labels: tuple  # the cell label of each state, in state order
    record_times: tuple
    estimates: np.ndarray  # (n_times, n_states)
    stderrs: np.ndarray  # (n_times, n_states)
    n_alive: np.ndarray  # (n_times, n_states) ints


def _jump_runs(gen: DiscreteGenerator):
    """Each state's row of jump rates as runs of equal rates in state
    order: (start, rate, length, cum), each (dim + 1, basins + 2 N), cum
    the masses rate * length summed left to right. Each row opens with
    an empty run, so cum opens with 0. Then a state of basin a has a run
    per basin b < a; in its own basin, for levels 1 .. N - 1, the cells
    of the level's block before its own sub-block, itself at rate 0, and
    for levels N - 1 .. 1 the cells after it; a run per basin b > a; and
    the kill, at the trap. The trap's row is zero."""
    B, n, p, N, dim = len(gen.basins), gen.per_basin, gen.p, gen.N, gen.dim
    width = B + 2 * N
    start, length = np.zeros((2, dim + 1, width), dtype=np.int64)
    rate = np.zeros((dim + 1, width))
    # a cell's runs in its basin start at its block of each level j,
    # coarse to fine, at itself, and then past its sub-block of each level
    # (the block of level j + 1, of sub cells), fine to coarse; they tile
    # the basin, so each ends where the next starts
    cell = np.arange(n)[:, None]
    block = p ** np.arange(N - 1, 0, -1)
    sub = block // p
    own_start = np.hstack([cell // block * block, cell, (cell // sub * sub + sub)[:, ::-1]])
    own_length = np.diff(own_start, append=n)
    for a in range(B):
        rows = slice(a * n, (a + 1) * n)
        own = slice(a + 1, a + 2 * N)
        start[rows, own] = a * n + own_start
        length[rows, own] = own_length
        rate[rows, own] = np.concatenate([gen.within[a], [0.0], gen.within[a, ::-1]])
        others, cross = np.r_[0:a, a + 1:B], np.r_[1:a + 1, a + 2 * N:width - 1]
        start[rows, cross], length[rows, cross] = others * n, n
        rate[rows, cross] = gen.cross[a, others]
    start[:dim, -1], length[:dim, -1], rate[:dim, -1] = dim, 1, np.repeat(gen.kill, n)
    return start, rate, length, np.cumsum(rate * length, axis=1)


def _count_at_most(table, state, x):
    """Entries <= x in row `state` of table, one per path. The rows are
    non-decreasing, so a branch-free binary search counts them with one
    gather per halving of the row width; the halving steps are the same
    for every path."""
    flat = table.ravel()
    width = table.shape[1]
    row = state * width
    probe = row.copy()
    n = width
    while n > 1:
        half = n // 2
        ahead = probe + half
        probe = np.where(flat[ahead] <= x, ahead, probe)
        n -= half
    probe += flat[probe] <= x
    return probe - row


def _hold(t, rate, u):
    """t + Exp(rate) by inversion of u; inf where the rate is zero."""
    moving = rate > 0.0
    return np.where(moving, t + -np.log1p(-u) / np.where(moving, rate, 1.0), np.inf)


def _simulate_chunk(seeds, start, runs, totals, times):
    """Gillespie over one block of paths, one record time at a time;
    `start` holds each path's start cell.

    Returns the state index of each path at each requested time (the trap
    is index dim).  Each path counts its own draws: 0 is its first hold,
    and its jump k = 0, 1, ... draws its target with 2k + 1 and the next
    hold with 2k + 2, so the outcome depends only on its seed and start
    cell.  A target x = u * rate falls in the first run (_jump_runs)
    whose cumulative mass passes x, on its cell floor((x - the mass
    before the run) / its rate), clamped to the run.
    """
    first, rate, length, cum = (a.ravel() for a in runs)
    width = runs[0].shape[1]
    n = len(seeds)
    rec = np.empty((n, len(times)), dtype=np.int64)
    state = start.astype(np.int64)
    counter = np.zeros(n, dtype=np.uint64)  # each path's last draw
    t_next = _hold(0.0, totals[state], _uniforms(seeds, counter))
    for j, tau in enumerate(times):
        live = np.flatnonzero(t_next <= tau)
        while len(live):
            live_seeds = seeds[live]
            src = state[live]
            total = totals[src]
            draw = counter[live] + np.uint64(1)
            # u * total < total unless it rounds up to it (a subnormal
            # total); the clamp sends such a draw to the last run that rises
            u = _uniforms(live_seeds, draw)
            x = np.minimum(u * total, np.nextafter(total, -np.inf))
            # cum opens with 0 <= x, so the count is at least 1
            at = src * width + _count_at_most(runs[3], src, x)
            step = np.floor((x - cum[at - 1]) / rate[at])
            dst = first[at] + np.minimum(step, length[at] - 1).astype(np.int64)
            draw += np.uint64(1)
            t = _hold(t_next[live], totals[dst], _uniforms(live_seeds, draw))
            state[live], t_next[live], counter[live] = dst, t, draw
            live = live[t <= tau]
        rec[:, j] = state
    return rec


def _exact_terms(values: np.ndarray):
    """values as floats and as integers over one power-of-two
    denominator, the form _exact_sum reads."""
    ratios = [v.as_integer_ratio() for v in values.tolist()]
    den = max(d for _, d in ratios)
    return values.tolist(), [num * (den // d) for num, d in ratios], den


def _exact_sum(states, counts, terms) -> float:
    """sum_k counts[k] * values[states[k]] over the states reached,
    correctly rounded as math.fsum over the multiset rounds it: an exact
    integer sum and one int / int division, which Python rounds correctly."""
    values, nums, den = terms
    total = sum(map(operator.mul, counts, map(nums.__getitem__, states)))
    if total:
        return total / den
    # every term is a signed zero; fsum gives the sum its sign
    return math.fsum(map(values.__getitem__, states))


def simulate(gen: DiscreteGenerator, u0: CellFunction, cfg: SimConfig) -> SimResult:
    """Estimate u(I, t) = E_I[u0(X_t); alive] for every start cell I.

    u0 must cover exactly the network's basins at the generator's depth
    (the datum check of spectral.init), within [0, 1] as tau takes it
    (network.datum_in_range); its rows end to end, labelled by
    padic.cell_labels, are its values on the chain's states.
    """
    dim = gen.dim
    u0_vec = gen.cell_vector(u0)
    if not datum_in_range(u0_vec.min(), u0_vec.max()):
        raise ValidationError("u0 must take values in [0, 1]")

    runs = _jump_runs(gen)
    totals = runs[3][:, -1].copy()  # the trap's total is 0: it never moves

    times = cfg.record_times
    n_times = len(times)
    n = cfg.n_paths
    # the value of each state and of the trap, and its square, as the
    # estimator sums them over the paths
    values = np.append(u0_vec, 0.0)
    terms = [_exact_terms(v) for v in (values, values * values)]
    slots = np.arange(n_times) * (dim + 1)

    # one chunk of each block's paths per worker; the draws depend only on
    # the path, so neither the blocks nor the split change an output bit
    workers = min(cfg.threads, n, os.cpu_count() or 1)
    cells_per_block = max(1, _RECORD_BUDGET // (n * n_times))
    path_index = np.arange(n)
    estimates = np.zeros((n_times, dim))
    stderrs = np.zeros((n_times, dim))
    n_alive = np.zeros((n_times, dim), dtype=np.int64)

    if workers > 1:
        # concurrent.futures imports logging: only a threaded run pays for it
        from concurrent.futures import ThreadPoolExecutor

        executor = ThreadPoolExecutor(max_workers=workers)
    else:
        executor = nullcontext()
    with executor as pool:
        pool_map = pool.map if pool else map
        for first in range(0, dim, cells_per_block):
            cells = np.arange(first, min(first + cells_per_block, dim))
            cell_seeds = _streams(cfg.seed, cells)
            seeds = _streams(cell_seeds[:, None], path_index).ravel()
            starts = np.repeat(cells, n)
            cuts = np.linspace(0, len(seeds), workers + 1).astype(int)[1:-1]
            parts = pool_map(
                lambda part: _simulate_chunk(*part, runs, totals, times),
                zip(np.split(seeds, cuts), np.split(starts, cuts)),
            )
            parts = list(parts)
            rec = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)

            for cell, cell_rec in zip(cells.tolist(), rec.reshape(len(cells), n, -1)):
                cell_rec += slots  # state s at time slot j counts in bin j * (dim + 1) + s
                counts = np.bincount(
                    cell_rec.ravel(), minlength=n_times * (dim + 1)
                ).reshape(n_times, dim + 1)
                for j in range(n_times):
                    reached = np.flatnonzero(counts[j])
                    tally = reached.tolist(), counts[j, reached].tolist()
                    total, total_sq = (_exact_sum(*tally, t) for t in terms)
                    mean = total / n
                    estimates[j, cell] = mean
                    n_alive[j, cell] = n - counts[j, dim]
                    if n > 1:
                        var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
                        stderrs[j, cell] = math.sqrt(var / n)

    return SimResult(
        labels=tuple(cell_labels(u0.p, u0.depth, u0.basins)),
        record_times=times,
        estimates=estimates,
        stderrs=stderrs,
        n_alive=n_alive,
    )


def write_csv(result: SimResult, fileobj) -> None:
    fileobj.write("t,state,estimate,stderr,n_alive\n")
    for j, t_rec in enumerate(result.record_times):
        for i, label in enumerate(result.labels):
            fileobj.write(
                f"{t_rec:.17g},{label},"
                f"{result.estimates[j, i]:.17g},"
                f"{result.stderrs[j, i]:.17g},"
                f"{result.n_alive[j, i]}\n"
            )
