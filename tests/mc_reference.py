"""Reference code for montecarlo.simulate: Gillespie's direct method one
path at a time, in scalar Python, on the same counter-based draws. Path i
of start cell c has the stream path_seed(path_seed(seed, c), i); its jump
k (from 0) is drawn with 2k (the hold before it) and 2k + 1 (its
target), and it stops at the first hold that passes the last record
time."""

import bisect
import itertools
import math

import numpy as np

from ultranet.montecarlo import path_seed


def uniform(seed, k):
    """Draw k of the stream `seed`, mapped to [0, 1): the top 53 bits of
    the splitmix value at counter k."""
    return (path_seed(seed, k) >> 11) * 2.0**-53


def cumulative_rows(Q, kill):
    """Row i: cumulative rates from state i to the states 0 .. dim-1 and
    then to the trap (the kill rate), summed left to right; the trap,
    state dim, has a zero row."""
    dim = len(Q)
    rows = []
    for i in range(dim):
        rates = [0.0 if j == i else float(Q[i][j]) for j in range(dim)]
        rows.append(list(itertools.accumulate(rates + [float(kill[i])])))
    return rows + [[0.0] * (dim + 1)]


def path_jumps(seed, start, rows, t_end, draw=uniform):
    """Jump times and the state entered at each, the start at time 0
    first, up to t_end."""
    times, states = [0.0], [start]
    t, state, k = 0.0, start, 0
    while rows[state][-1] > 0.0:
        rate = rows[state][-1]
        t = t + -float(np.log1p(-draw(seed, 2 * k))) / rate
        if not t <= t_end:
            break
        # a draw that rounds up to the total takes the last rising column
        x = min(draw(seed, 2 * k + 1) * rate, math.nextafter(rate, -math.inf))
        state = bisect.bisect_right(rows[state], x)
        times.append(t)
        states.append(state)
        k += 1
    return times, states


def path_states(seed, start, rows, record_times, draw=uniform):
    """The state of one path at each record time: the state entered at
    its last jump at or before that time."""
    times, states = path_jumps(seed, start, rows, record_times[-1], draw)
    return [states[bisect.bisect_right(times, tau) - 1] for tau in record_times]


def simulate(gen, u0_vec, cfg, draw=uniform):
    """(estimates, stderrs, n_alive) as montecarlo.simulate defines them,
    from the paths of each start cell one at a time and math.fsum sums."""
    rows = cumulative_rows(gen.Q, gen.kill)
    dim, n, times = gen.dim, cfg.n_paths, cfg.record_times
    values = [float(v) for v in u0_vec] + [0.0]
    estimates = np.zeros((len(times), dim))
    stderrs = np.zeros((len(times), dim))
    n_alive = np.zeros((len(times), dim), dtype=np.int64)
    for cell in range(dim):
        cell_seed = path_seed(cfg.seed, cell)
        paths = [path_states(path_seed(cell_seed, i), cell, rows, times, draw) for i in range(n)]
        for j in range(len(times)):
            at = [states[j] for states in paths]
            total = math.fsum(values[s] for s in at)
            total_sq = math.fsum(values[s] * values[s] for s in at)
            mean = total / n
            estimates[j, cell] = mean
            n_alive[j, cell] = sum(s != dim for s in at)
            if n > 1:
                var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
                stderrs[j, cell] = math.sqrt(var / n)
    return estimates, stderrs, n_alive
