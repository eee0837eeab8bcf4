"""Jump-process simulation with killing on a discretized state tree.

The estimator is the backward one: paths start at a fixed cell I and the
estimate of u(I, t) is the average of u0 at the path position over paths
still alive at t.  Killing sends a path to a terminal trap from which it
never contributes again.

Randomness is counter-based so results are bit-identical however the
paths are split across threads: draw k of path i is a pure integer
function of (master seed, start cell, i, k).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, ValidationError
from .tree import DiscreteGenerator
from .wavelets import CellFunction

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


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


def _uniforms(seeds: np.ndarray, counter: int) -> np.ndarray:
    """Draw number `counter` from every stream at once, mapped to [0, 1)."""
    offset = np.uint64(((counter + 1) * _GOLDEN) & _MASK)
    bits = _mix_vec(seeds + offset)
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    t_max: float
    seed: int
    record_times: tuple
    threads: int = 1

    def __post_init__(self):
        if not isinstance(self.n_paths, int) or self.n_paths < 1:
            raise UsageError("n_paths must be a positive integer")
        if not self.t_max > 0:
            raise UsageError("t_max must be positive")
        times = tuple(float(t) for t in self.record_times)
        if not times:
            raise UsageError("record_times must not be empty")
        if any(t < 0 for t in times) or any(
            a > b for a, b in zip(times, times[1:])
        ):
            raise UsageError("record_times must be sorted and non-negative")
        if times[-1] > self.t_max:
            raise UsageError("record_times must not exceed t_max")
        if self.threads < 1:
            raise UsageError("threads must be >= 1")
        object.__setattr__(self, "record_times", times)
        object.__setattr__(self, "seed", self.seed & _MASK)


@dataclass(frozen=True)
class SimResult:
    states: tuple
    record_times: tuple
    estimates: np.ndarray  # (n_times, n_states)
    stderrs: np.ndarray  # (n_times, n_states)
    n_alive: np.ndarray  # (n_times, n_states) ints
    kill_fraction: np.ndarray  # (n_states,) killed by t_max
    config: SimConfig


def _simulate_chunk(seeds, start, cum_rates, totals, times, horizon):
    """Lockstep Gillespie over one contiguous block of paths.

    Returns the state index of each path at each requested time (the trap
    is index dim).  Every path consumes draws 2k and 2k+1 at step k, so
    the outcome depends only on the per-path seed.
    """
    n = len(seeds)
    dim = len(totals) - 1  # totals has a zero entry appended for the trap
    t_now = np.zeros(n)
    state = np.full(n, start, dtype=np.int64)
    rec = np.full((n, len(times)), -1, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    step = 0
    while True:
        rate = totals[state]
        moving = (rate > 0.0) & ~done
        u_hold = _uniforms(seeds, 2 * step)
        dt = np.where(moving, -np.log1p(-u_hold) / np.where(moving, rate, 1.0), np.inf)
        t_next = t_now + dt
        for j, t_rec in enumerate(times):
            hit = (t_now <= t_rec) & (t_rec < t_next) & ~done
            rec[hit, j] = state[hit]
        cont = moving & (t_next <= horizon)
        # a path that outlives the horizon (or cannot move) is finished for
        # good; without this it would redraw the same holding interval
        done = ~cont
        if not cont.any():
            break
        u_target = _uniforms(seeds, 2 * step + 1)
        threshold = u_target * rate
        rows = cum_rates[state]
        target = (rows <= threshold[:, None]).sum(axis=1)
        state = np.where(cont, np.minimum(target, dim), state)
        t_now = np.where(cont, t_next, t_now)
        step += 1
    return rec


def simulate(gen: DiscreteGenerator, u0: CellFunction, cfg: SimConfig) -> SimResult:
    """Estimate u(I, t) = E_I[u0(X_t); alive] for every start cell I.

    u0 must cover exactly the network's basins at the generator's depth
    (the datum check of spectral.init); its rows end to end are its
    values on gen.states.
    """
    dim = gen.dim
    u0_vec = gen.cell_vector(u0)
    if u0_vec.min() < 0.0 or u0_vec.max() > 1.0:
        raise ValidationError("u0 must take values in [0, 1]")

    rates = np.asarray(gen.Q, dtype=float).copy()
    np.fill_diagonal(rates, 0.0)
    per_state = np.concatenate(
        [rates, np.asarray(gen.kill, dtype=float)[:, None]], axis=1
    )
    cum_rates = np.cumsum(per_state, axis=1)
    totals = np.append(cum_rates[:, -1], 0.0)  # trap state never moves
    cum_rates = np.vstack([cum_rates, np.zeros(dim + 1)])

    # t_max is tracked as one extra recording slot for the kill fraction
    times = cfg.record_times + (float(cfg.t_max),)
    n_times = len(cfg.record_times)

    # one chunk of paths per worker; the draws depend only on the path,
    # so the split changes no output bit
    workers = min(cfg.threads, cfg.n_paths, os.cpu_count() or 1)
    chunk_bounds = np.linspace(0, cfg.n_paths, workers + 1).astype(int)
    estimates = np.zeros((n_times, dim))
    stderrs = np.zeros((n_times, dim))
    n_alive = np.zeros((n_times, dim), dtype=np.int64)
    kill_fraction = np.zeros(dim)

    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        pool_map = pool.map if pool else map
        for start in range(dim):
            start_seed = path_seed(cfg.seed, start)
            all_seeds = _mix_vec(
                np.uint64(start_seed)
                + (np.arange(1, cfg.n_paths + 1, dtype=np.uint64)) * np.uint64(_GOLDEN)
            )
            parts = pool_map(
                lambda seeds: _simulate_chunk(
                    seeds, start, cum_rates, totals, times, cfg.t_max
                ),
                np.split(all_seeds, chunk_bounds[1:-1]),
            )
            rec = np.concatenate(list(parts), axis=0)

            killed_at_end = rec[:, -1] == dim
            kill_fraction[start] = math.fsum(killed_at_end) / cfg.n_paths
            for j in range(n_times):
                at_j = rec[:, j]
                alive = at_j != dim
                vals = np.where(alive, u0_vec[np.minimum(at_j, dim - 1)], 0.0)
                total = math.fsum(vals)
                total_sq = math.fsum(vals * vals)
                n = cfg.n_paths
                mean = total / n
                estimates[j, start] = mean
                n_alive[j, start] = int(alive.sum())
                if n > 1:
                    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
                    stderrs[j, start] = math.sqrt(var / n)

    return SimResult(
        states=gen.states,
        record_times=cfg.record_times,
        estimates=estimates,
        stderrs=stderrs,
        n_alive=n_alive,
        kill_fraction=kill_fraction,
        config=cfg,
    )


def write_csv(result: SimResult, fileobj) -> None:
    fileobj.write("t,state,estimate,stderr,n_alive\n")
    for j, t_rec in enumerate(result.record_times):
        for i, cell in enumerate(result.states):
            fileobj.write(
                f"{t_rec:.17g},{cell.label()},"
                f"{result.estimates[j, i]:.17g},"
                f"{result.stderrs[j, i]:.17g},"
                f"{result.n_alive[j, i]}\n"
            )
