"""Reference code for montecarlo.simulate: Gillespie's direct method one
path at a time, in scalar Python, on the same counter-based draws, which
it derives itself with path_seed, a splitmix in Python integers. Path i
of start cell c has the stream path_seed(path_seed(seed, c), i); its
jump k (from 0) is drawn with 2k (the hold before it) and 2k + 1 (its
target), and it stops at the first hold that passes the last record
time. A row of the chain is a list of runs of equal rates, as the
sampler holds it: a target draw picks the first run whose cumulative
mass passes it, by bisection, and then a cell within the run by
floor."""

import bisect
import itertools
import math

import numpy as np
from chain_reference import dense_chain, levels

MASK = (1 << 64) - 1


def path_seed(seed, k):
    """Value k of the splitmix stream `seed` (Steele, Lea & Flood, OOPSLA
    2014), in Python integers: mix(seed + (k + 1) golden) mod 2^64."""
    z = (seed + (k + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def uniform(seed, k):
    """Draw k of the stream `seed`, mapped to [0, 1): the top 53 bits of
    the splitmix value at counter k."""
    return (path_seed(seed, k) >> 11) * 2.0**-53


def _with_masses(runs):
    """Each run (start, rate, length) with its cumulative mass: the
    products rate * length summed left to right through it."""
    masses = itertools.accumulate(rate * length for _, rate, length in runs)
    return [(*run, mass) for run, mass in zip(runs, masses)]


def level_rows(gen):
    """Each state's row of the level chain as runs: the columns of its
    dense row (chain_reference.dense_chain) grouped where the target's
    basin and level stay the same, its own cell at rate 0, and then the
    kill, one run at the trap; the trap, state dim, has an empty row."""
    Q, kill = dense_chain(gen)
    n, level = gen.per_basin, levels(gen.p, gen.N)
    rows = []
    for i in range(gen.dim):
        def key(k):
            return k // n, level[i % n, k % n] if k // n == i // n else -1

        runs = []
        for _, group in itertools.groupby(range(gen.dim), key):
            cols = list(group)
            runs.append((cols[0], 0.0 if cols[0] == i else float(Q[i][cols[0]]), len(cols)))
        rows.append(_with_masses(runs + [(gen.dim, float(kill[i]), 1)]))
    return rows + [[]]


def dense_rows(Q, kill):
    """The rows of any chain as runs of one column each: the rate from
    state i to each state, 0 to itself, and then the kill."""
    dim = len(Q)
    return [
        _with_masses([(k, 0.0 if k == i else float(Q[i][k]), 1) for k in range(dim)]
                     + [(dim, float(kill[i]), 1)])
        for i in range(dim)
    ] + [[]]


def total(row):
    """The total rate out of a state: the last cumulative mass, 0 for the
    trap."""
    return row[-1][3] if row else 0.0


def path_jumps(seed, start, rows, t_end, draw=uniform):
    """Jump times and the state entered at each, the start at time 0
    first, up to t_end."""
    times, states = [0.0], [start]
    t, state, k = 0.0, start, 0
    while (rate := total(rows[state])) > 0.0:
        row = rows[state]
        t = t + -float(np.log1p(-draw(seed, 2 * k))) / rate
        if not t <= t_end:
            break
        # a draw that rounds up to the total takes the last rising run
        x = min(draw(seed, 2 * k + 1) * rate, math.nextafter(rate, -math.inf))
        r = bisect.bisect_right([mass for *_, mass in row], x)
        first, run_rate, length, _ = row[r]
        before = row[r - 1][3] if r else 0.0
        state = first + min(math.floor((x - before) / run_rate), length - 1)
        times.append(t)
        states.append(state)
        k += 1
    return times, states


def path_states(seed, start, rows, record_times, draw=uniform):
    """The state of one path at each record time: the state entered at
    its last jump at or before that time."""
    times, states = path_jumps(seed, start, rows, record_times[-1], draw)
    return [states[bisect.bisect_right(times, tau) - 1] for tau in record_times]


def simulate(rows, u0_vec, cfg, draw=uniform):
    """(estimates, stderrs, n_alive) as montecarlo.simulate defines them,
    on the chain of run rows `rows` (level_rows or dense_rows), from the
    paths of each start cell one at a time and math.fsum sums."""
    dim, n, times = len(rows) - 1, cfg.n_paths, cfg.record_times
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
