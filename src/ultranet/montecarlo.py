"""Jump-process simulation with killing on a discretized state tree.

The estimator is the backward one: paths start at a fixed cell I and the
estimate of u(I, t) is the average of u0 at the path position over paths
still alive at t.  Killing sends a path to a terminal trap from which it
never contributes again.

Randomness is counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC11), so results are bit-identical however the paths
are split into blocks and across threads: draw k of path i is a pure
integer function of (master seed, start cell, i, k), and each path
counts its own draws.

The paths of a block of start cells follow Gillespie's direct method
(J. Phys. Chem. 81, 1977) one record time at a time: the paths whose
next jump falls at or before a record time jump and draw their next
hold until none is left, and then every path's state is recorded.
Nothing is drawn past the last record time, and a state of zero total
rate holds forever. A block holds whole start cells, at least one, and
otherwise at most _RECORD_BUDGET recorded (path, time) entries. The
jump target is found by a binary search in the state's row of one
dense table of cumulative rates, formed from the chain's level rates,
O(log states) per jump: the one dense array of the chain, states^2
floats, refused past MAX_CHAIN_BYTES. The estimate and its standard
error need the sums of u0 and of u0^2 over a start cell's paths; these
are counted per state and summed exactly, so they are the correctly
rounded sums over the paths.
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

# The jump table is refused where the chain's dim^2 entries pass this
# limit, 4096 states; the level rates themselves take O(basins * N).
MAX_CHAIN_BYTES = 128 * 2**20


def _mix_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def path_seed(master_seed: int, path_index: int) -> int:
    """Derive the 64-bit stream seed for one path (splitmix-style).

    Pure integer arithmetic, so the value is identical on every platform
    and independent of how paths are batched.
    """
    if path_index < 0:
        raise UsageError("path_index must be >= 0")
    return _mix_int(master_seed + (path_index + 1) * _GOLDEN)


def _mix_vec(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MIX_A)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def _uniforms(seeds: np.ndarray, counter) -> np.ndarray:
    """Draw number `counter` of every stream, mapped to [0, 1). `counter`
    is one count for all streams or an array of one per stream; either
    way the offset is ((counter + 1) * golden) mod 2^64."""
    offset = (np.array(counter, dtype=np.uint64, ndmin=1) + np.uint64(1)) * np.uint64(_GOLDEN)
    bits = _mix_vec(seeds + offset)
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


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


def require_dense(dim: int) -> None:
    """Refuse dim x dim floats past MAX_CHAIN_BYTES, naming the bytes."""
    need = dim * dim * 8
    if need > MAX_CHAIN_BYTES:
        raise UsageError(
            f"the sampler's jump table: {dim} states need {need / 2**20:.4g} MiB, "
            f"over the {MAX_CHAIN_BYTES / 2**20:.4g} MiB limit of a dense chain array"
        )


def fill_jumps(gen: DiscreteGenerator, out: np.ndarray) -> None:
    """Write gen's jump rates into out, a dim x dim array or view, zero on
    the diagonal: the cross rates, then, coarse to fine, each level's rate
    in the diagonal blocks of p^(N-j) cells sharing j - 1 digits. Splitting
    an axis of a view never copies, so each reshape writes through to out."""
    B, n, p, N = len(gen.basins), gen.per_basin, gen.p, gen.N
    blocks = out.reshape(B, n, B, n)
    assert np.may_share_memory(blocks, out)
    blocks[...] = gen.cross[:, None, :, None]
    basin = np.arange(B)[:, None]
    for j in range(1, N):
        size = p ** (N - j)
        block = np.arange(n // size)[None, :]
        tiles = out.reshape(B, n // size, size, B, n // size, size)
        assert np.may_share_memory(tiles, out)
        tiles[basin, block, :, basin, block, :] = gen.within[:, j - 1, None, None, None]
    np.fill_diagonal(out, 0.0)


def _jump_table(gen: DiscreteGenerator) -> np.ndarray:
    """Cumulative jump rates, (dim + 1, dim + 1): row i runs over the
    rates from state i to the states 0 .. dim-1 and, in column dim, to
    the trap (the kill rate), so its last entry is the total rate out of
    i. The trap's row is zero. Built in place from the level rates, the
    one dense array simulate holds."""
    dim = gen.dim
    require_dense(dim)
    table = np.zeros((dim + 1, dim + 1))
    fill_jumps(gen, table[:dim, :dim])
    table[:dim, dim] = np.repeat(gen.kill, gen.per_basin)
    np.cumsum(table, axis=1, out=table)
    return table


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


def _simulate_chunk(seeds, start, cum_rates, totals, times):
    """Gillespie over one block of paths, one record time at a time;
    `start` is the start cell of every path, or one per path.

    Returns the state index of each path at each requested time (the trap
    is index dim).  Each path counts its own draws: 0 is its first hold,
    and its jump k = 0, 1, ... draws its target with 2k + 1 and the next
    hold with 2k + 2, so the outcome depends only on its seed and start
    cell.  A target is the first column of its row in cum_rates above
    u * rate.
    """
    n = len(seeds)
    rec = np.empty((n, len(times)), dtype=np.int64)
    state = np.array(np.broadcast_to(start, (n,)), dtype=np.int64)
    counter = np.zeros(n, dtype=np.uint64)  # each path's last draw
    t_next = _hold(0.0, totals[state], _uniforms(seeds, counter))
    for j, tau in enumerate(times):
        live = np.flatnonzero(t_next <= tau)
        while len(live):
            live_seeds = seeds[live]
            src = state[live]
            rate = totals[src]
            draw = counter[live] + np.uint64(1)
            # u * rate < rate unless it rounds up to it (a subnormal rate);
            # the clamp sends such a draw to the last column where the row rises
            u = _uniforms(live_seeds, draw)
            threshold = np.minimum(u * rate, np.nextafter(rate, -np.inf))
            dst = _count_at_most(cum_rates, src, threshold)
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


def _exact_sum(counts, terms) -> float:
    """sum_s counts[s] * values[s], correctly rounded as math.fsum over
    the multiset rounds it: an exact integer sum and one int / int
    division, which Python rounds correctly."""
    values, nums, den = terms
    c = counts.tolist()
    total = sum(map(operator.mul, c, nums))
    if total:
        return total / den
    # every term is a signed zero; fsum gives the sum its sign
    return math.fsum(v for k, v in zip(c, values) if k)


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

    table = _jump_table(gen)
    totals = table[:, dim].copy()  # the trap's total is 0: it never moves

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
    path_steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
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
            cell_seeds = np.array(
                [path_seed(cfg.seed, c) for c in cells.tolist()], dtype=np.uint64
            )
            seeds = _mix_vec(cell_seeds[:, None] + path_steps).ravel()
            starts = np.repeat(cells, n)
            cuts = np.linspace(0, len(seeds), workers + 1).astype(int)[1:-1]
            parts = pool_map(
                lambda part: _simulate_chunk(*part, table, totals, times),
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
                    total, total_sq = (_exact_sum(counts[j], t) for t in terms)
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
