import concurrent.futures
import io
import math
import tracemalloc
from unittest import mock

import mc_reference
from chain_reference import dense_chain
from mc_reference import path_seed
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultranet import montecarlo
from ultranet.errors import UsageError, ValidationError
from ultranet.kernels import RadialKernel
from ultranet.montecarlo import (
    SimConfig,
    _count_at_most,
    _exact_sum,
    _exact_terms,
    _simulate_chunk,
    _streams,
    simulate,
    write_csv,
)
from ultranet.network import NetworkSpec
from ultranet.tree import DiscreteGenerator, discretize, solve
from ultranet.wavelets import CellFunction


def level_gen(p, within, cross, kill, N=2):
    # level rates as given, one row per basin; at depth 2 a basin holds p
    # states, each jumping at rate within[a][0] to the others
    return DiscreteGenerator(
        p=p, N=N, basins=tuple(range(len(kill))), within=np.array(within, dtype=float),
        cross=np.array(cross, dtype=float), kill=np.array(kill, dtype=float),
    )


def one_basin(p, rate, kill):
    return level_gen(p, [[rate]], [[0.0]], [kill])


def killed_two_basin():
    k = RadialKernel(2, (1.0,))
    spec = NetworkSpec(
        p=2, basins=(0, 1),
        cross_lambda={(0, 1): 0.5, (1, 0): 0.25},
        cross_mu={(0, 1): 1.0, (1, 0): 1.5},
        w_kernels={0: k, 1: k}, v_kernels={0: k, 1: k},
    )
    return discretize(spec, 2)


# ---------------------------------------------------------------- seeds


GOLDEN_VALUES = {
    (0, 0): 0xE220A8397B1DCDAF,
    (0, 1): 0x6E789E6AA1B965F4,
    (0, 2): 0x06C45D188009454F,
    (12345, 0): 0x22118258A9D111A0,
}


def test_path_seed_golden_values():
    for (seed, k), value in GOLDEN_VALUES.items():
        assert path_seed(seed, k) == value


def test_path_seeds_distinct():
    seeds = {path_seed(999, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_streams_is_the_scalar_splitmix():
    k = np.arange(1001)
    for seed in (0, 12345, 2**64 - 1):
        want = [path_seed(seed, i) for i in range(1001)]
        assert _streams(seed, k).tolist() == want
        # one seed per stream, and one count for all of them
        assert _streams(np.full(3, seed, dtype=np.uint64), 1000).tolist() == [want[-1]] * 3
    for (seed, k), value in GOLDEN_VALUES.items():
        assert _streams(seed, k).tolist() == [value]


# ---------------------------------------------------------------- exact


def test_frozen_process_is_exact():
    gen = one_basin(2, 0.0, 0.0)
    u0 = CellFunction(2, 2, (0,), [[0.75, 0.25]])
    cfg = SimConfig(n_paths=500, seed=7, record_times=(0.0, 1.0, 3.0))
    res = simulate(gen, u0, cfg)
    assert np.array_equal(res.estimates, [[0.75, 0.25]] * 3)
    assert np.array_equal(res.stderrs, np.zeros((3, 2)))
    assert np.array_equal(res.n_alive, np.full((3, 2), 500))


def test_record_at_time_zero_is_the_start_value():
    gen = killed_two_basin()
    u0 = CellFunction(2, 2, (0, 1), [[1.0, 0.0], [0.5, 0.5]])
    cfg = SimConfig(n_paths=200, seed=3, record_times=(0.0, 1.0))
    res = simulate(gen, u0, cfg)
    assert np.array_equal(res.estimates[0], [1.0, 0.0, 0.5, 0.5])
    assert np.array_equal(res.stderrs[0], np.zeros(4))


# ---------------------------------------------------------------- stats


def test_uniform_kill_matches_survival_law():
    kappa = 0.3
    gen = one_basin(2, 0.0, kappa)
    u0 = CellFunction(2, 2, (0,), [[1.0, 1.0]])
    cfg = SimConfig(n_paths=20000, seed=11, record_times=(0.5, 1.0, 2.0))
    res = simulate(gen, u0, cfg)
    for j, t in enumerate(cfg.record_times):
        target = math.exp(-kappa * t)
        for i in range(2):
            gap = abs(res.estimates[j, i] - target)
            assert gap <= 3 * res.stderrs[j, i]
            # with u0 = 1 the estimate and the alive fraction coincide
            assert res.estimates[j, i] == res.n_alive[j, i] / cfg.n_paths
    # killed by the last record time, t = 2.0: 1 - e^{-0.6} = 0.451
    assert 0.4 < 1 - res.n_alive[-1, 0] / cfg.n_paths < 0.5


def test_single_basin_against_relaxation_value():
    spec = NetworkSpec(
        p=2, basins=(0,), cross_lambda={}, cross_mu={},
        w_kernels={0: RadialKernel(2, (1.0,))},
        v_kernels={0: RadialKernel(2, (1.0,))},
    )
    gen = discretize(spec, 2)
    u0 = CellFunction(2, 2, (0,), [[1.0, 0.0]])
    cfg = SimConfig(n_paths=20000, seed=1, record_times=(2.0,))
    res = simulate(gen, u0, cfg)
    target = 0.5 * (1 + math.exp(-1.0))
    assert abs(res.estimates[0, 0] - target) <= 3 * res.stderrs[0, 0]


def test_estimates_track_the_tree_oracle():
    gen = killed_two_basin()
    u0 = CellFunction(2, 2, (0, 1), [[1.0, 0.25], [0.0, 0.75]])
    cfg = SimConfig(n_paths=20000, seed=42, record_times=(0.5, 1.5))
    res = simulate(gen, u0, cfg)
    for j, t in enumerate(cfg.record_times):
        exact = solve(gen, u0, t)
        flat = exact.values.ravel()
        for i in range(gen.dim):
            gap = abs(res.estimates[j, i] - flat[i])
            assert gap <= 3 * res.stderrs[j, i] + 1e-12


def test_alive_fraction_tracks_subprobability_mass():
    gen = killed_two_basin()
    ones = CellFunction(2, 2, (0, 1), [[1.0, 1.0], [1.0, 1.0]])
    cfg = SimConfig(n_paths=20000, seed=5, record_times=(1.0,))
    res = simulate(gen, ones, cfg)
    exact = solve(gen, ones, 1.0)
    flat = exact.values.ravel()
    for i in range(gen.dim):
        frac = res.n_alive[0, i] / cfg.n_paths
        se = math.sqrt(max(flat[i] * (1 - flat[i]), 1e-12) / cfg.n_paths)
        assert abs(frac - flat[i]) <= 3 * se


# ---------------------------------------------------------------- seeds/threads


def test_reruns_are_bit_identical():
    gen = killed_two_basin()
    u0 = CellFunction(2, 2, (0, 1), [[1.0, 0.0], [0.5, 0.25]])
    cfg = SimConfig(n_paths=3000, seed=77, record_times=(0.3, 1.0))
    a = simulate(gen, u0, cfg)
    b = simulate(gen, u0, cfg)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.stderrs, b.stderrs)
    assert np.array_equal(a.n_alive, b.n_alive)


def test_thread_count_does_not_change_results():
    gen = killed_two_basin()
    u0 = CellFunction(2, 2, (0, 1), [[1.0, 0.0], [0.5, 0.25]])
    base = SimConfig(n_paths=3000, seed=77, record_times=(0.3, 1.0))
    ref = simulate(gen, u0, base)
    for threads in (2, 3, 7):
        cfg = SimConfig(
            n_paths=3000, seed=77, record_times=(0.3, 1.0), threads=threads
        )
        out = simulate(gen, u0, cfg)
        assert np.array_equal(ref.estimates, out.estimates)
        assert np.array_equal(ref.stderrs, out.stderrs)
        assert np.array_equal(ref.n_alive, out.n_alive)


def test_doubling_paths_keeps_the_first_half():
    gen = killed_two_basin()
    runs = montecarlo._jump_runs(gen)
    totals = runs[3][:, -1].copy()

    def chunk(n):
        # n paths of start cell 0, seeded from stream 123
        seeds, starts = _streams(123, np.arange(n)), np.zeros(n, dtype=np.int64)
        return _simulate_chunk(seeds, starts, runs, totals, (0.5, 1.0))

    short, long = chunk(50), chunk(100)
    assert np.array_equal(short, long[:50])


# ---------------------------------------------------------------- io


def test_csv_layout():
    gen = killed_two_basin()
    u0 = CellFunction(2, 2, (0, 1), [[1.0, 0.0], [0.0, 0.0]])
    cfg = SimConfig(n_paths=100, seed=2, record_times=(0.5, 1.0))
    res = simulate(gen, u0, cfg)
    buf = io.StringIO()
    write_csv(res, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,state,estimate,stderr,n_alive"
    assert len(lines) == 1 + 2 * 4
    first = lines[1].split(",")
    assert first[0] == "0.5"
    assert first[1] == "0.0"


def test_config_validation():
    with pytest.raises(UsageError):
        SimConfig(n_paths=0, seed=0, record_times=(0.5,))
    with pytest.raises(UsageError):
        SimConfig(n_paths=10, seed=0, record_times=())
    with pytest.raises(UsageError):
        SimConfig(n_paths=10, seed=0, record_times=(0.5, 0.2))
    with pytest.raises(UsageError):
        SimConfig(n_paths=10, seed=0, record_times=(-0.5,))
    with pytest.raises(UsageError):
        SimConfig(n_paths=10, seed=0, record_times=(0.5,), threads=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"threads": 1.5}, "threads must be an integer"),
        ({"threads": 2.0}, "threads must be an integer"),
        ({"threads": True}, "threads must be an integer"),
        ({"n_paths": True}, "n_paths must be an integer"),
        ({"record_times": ("a",)}, "record_times must be a sequence of numbers"),
        ({"record_times": (0.5, None)}, "record_times must be a sequence of numbers"),
        ({"record_times": (True,)}, "record_times must be a sequence of numbers"),
        ({"record_times": 0.5}, "record_times must be a sequence of numbers"),
    ],
)
def test_ill_typed_settings_are_refused_by_name(kwargs, message):
    # each reached the sampler before, and failed there with a raw
    # TypeError or ValueError
    settings = {"n_paths": 10, "seed": 0, "record_times": (0.5,), **kwargs}
    with pytest.raises(UsageError, match=message):
        SimConfig(**settings)


def test_numeric_record_times_of_any_kind_are_taken_as_floats():
    cfg = SimConfig(n_paths=10, seed=0, record_times=np.array([1, 2]))
    assert cfg.record_times == (1.0, 2.0) and all(type(t) is float for t in cfg.record_times)


@pytest.mark.parametrize(
    "times", [(math.nan,), (1.0, math.nan), (math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0)]
)
def test_non_finite_record_times_are_refused(times):
    # nan compares false with every time, and on a conservative chain
    # no path ever passes an inf record time
    with pytest.raises(UsageError, match="record_times must be finite"):
        SimConfig(n_paths=10, seed=0, record_times=times)


@pytest.mark.parametrize("seed", [1.5, 2.0, "7", None])
def test_non_integer_seed_is_refused(seed):
    with pytest.raises(UsageError, match="seed must be an integer"):
        SimConfig(n_paths=10, seed=seed, record_times=(0.5,))


def test_integer_seeds_are_taken_mod_two_to_the_64():
    for seed in (-1, np.int64(-1), 2**65 - 1, True):
        cfg = SimConfig(n_paths=10, seed=seed, record_times=(0.5,))
        assert cfg.seed == int(seed) % 2**64


@pytest.mark.parametrize("n_paths", [0, -3, 10**20, 2**63 - 1, montecarlo._MAX_PATHS + 1])
def test_n_paths_out_of_range_is_refused_by_name(n_paths):
    with pytest.raises(UsageError, match=f"got {n_paths}$"):
        SimConfig(n_paths=n_paths, seed=0, record_times=(0.5,))


def test_the_largest_n_paths_fails_to_allocate():
    """At the cap the sampler gets as far as numpy's allocation, which
    fails as MemoryError (an exit-3 failure), not as a size error."""
    cfg = SimConfig(n_paths=montecarlo._MAX_PATHS, seed=0, record_times=(0.5,))
    u0 = CellFunction.constant(2, 2, (0, 1), 0.5)
    with pytest.raises(MemoryError):
        simulate(killed_two_basin(), u0, cfg)


def test_u0_range_validation():
    """u0 may leave [0, 1] by 1e-12, as under tau (network.datum_in_range);
    past that, and at NaN, it is refused."""
    gen = killed_two_basin()
    cfg = SimConfig(n_paths=10, seed=0, record_times=(0.5,))
    simulate(gen, CellFunction(2, 2, (0, 1), [[1 + 1e-13, 0.5], [0.2, -1e-13]]), cfg)
    for bad in (1.5, 1 + 1e-11, -1e-11, math.nan):
        u0 = CellFunction(2, 2, (0, 1), [[bad, 0.5], [0.2, 0.3]])
        with pytest.raises(ValidationError, match=r"^u0 must take values in \[0, 1\]$"):
            simulate(gen, u0, cfg)


def test_one_capped_pool_per_call(monkeypatch):
    # a recording stand-in: it starts no thread and maps in order
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # simulate imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 7)
    gen = killed_two_basin()
    u0 = CellFunction(2, 2, (0, 1), [[1.0, 0.0], [0.5, 0.25]])

    def config(n_paths, threads):
        return SimConfig(
            n_paths=n_paths, seed=77, record_times=(0.3, 1.0), threads=threads
        )

    for n_paths, workers in ((3000, 7), (5, 5)):
        ref = simulate(gen, u0, config(n_paths, 1))
        assert pools == []
        out = simulate(gen, u0, config(n_paths, 64))
        # one pool for all start cells, never more workers than cpus or paths
        assert pools == [workers]
        pools.clear()
        assert np.array_equal(ref.estimates, out.estimates)
        assert np.array_equal(ref.stderrs, out.stderrs)
        assert np.array_equal(ref.n_alive, out.n_alive)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
    simulate(gen, u0, config(100, 64))
    assert pools == []


# ---------------------------------------------------------------- lockstep


def pinned_p2():
    # two basins with kill and distinct rates per level; 16 states
    spec = NetworkSpec(
        p=2, basins=(0, 1),
        cross_lambda={(0, 1): 0.5, (1, 0): 0.25},
        cross_mu={(0, 1): 1.0, (1, 0): 1.5},
        w_kernels={0: RadialKernel(2, (1.0, 0.5, 0.25)), 1: RadialKernel(2, (0.75, 0.3, 0.1))},
        v_kernels={0: RadialKernel(2, (1.5, 0.5, 0.5)), 1: RadialKernel(2, (1.0, 0.6, 0.2))},
    )
    u0 = CellFunction(2, 4, (0, 1), np.sqrt(np.arange(1, 17) / 17).reshape(2, 8))
    cfg = SimConfig(n_paths=400, seed=2024, record_times=(0.5, 2.0))
    return discretize(spec, 4), u0, cfg


def pinned_p3():
    # basin 0 has no kill, basin 1 has; 18 states
    spec = NetworkSpec(
        p=3, basins=(0, 1),
        cross_lambda={(0, 1): 0.3, (1, 0): 0.6},
        cross_mu={(1, 0): 0.3, (0, 1): 0.9},
        w_kernels={0: RadialKernel(3, (1.0, 0.4)), 1: RadialKernel(3, (0.5, 0.5))},
        v_kernels={0: RadialKernel(3, (1.0, 0.4)), 1: RadialKernel(3, (0.8, 0.5))},
    )
    u0 = CellFunction(3, 3, (0, 1), (np.arange(18) / 17.0).reshape(2, 9) ** 1.5)
    cfg = SimConfig(n_paths=300, seed=99, record_times=(0.25, 1.5))
    return discretize(spec, 3), u0, cfg


RESULT_FIELDS = ("estimates", "stderrs", "n_alive")


def same_result(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in RESULT_FIELDS)


@pytest.mark.parametrize("chain", ["p2", "p3"])
def test_draws_are_pinned(chain):
    # the arrays of the one-start-at-a-time sampler with a dense row scan
    # and math.fsum sums, from before the lockstep rewrite
    gen, u0, cfg = {"p2": pinned_p2, "p3": pinned_p3}[chain]()
    res = simulate(gen, u0, cfg)
    for field in RESULT_FIELDS:
        assert np.array_equal(getattr(res, field), PINNED[chain][field]), field
    # the pinned kill fraction was taken at t_max, the last record time
    killed = (cfg.n_paths - res.n_alive[-1]) / cfg.n_paths
    assert np.array_equal(killed, PINNED[chain]["kill_fraction"])


def test_block_budget_does_not_change_results(monkeypatch):
    gen, u0, cfg = pinned_p2()
    ref = simulate(gen, u0, cfg)
    cell = cfg.n_paths * len(cfg.record_times)  # one start cell's records
    # one start cell per block, three (the last block short), all sixteen
    for budget in (1, 3 * cell, gen.dim * cell):
        monkeypatch.setattr(montecarlo, "_RECORD_BUDGET", budget)
        assert same_result(ref, simulate(gen, u0, cfg))


def test_block_memory_scales_with_record_times():
    # 1000 record times: a block holds one start cell's records, not the
    # records of as many cells as the entry budget would hold at few times
    gen, u0, _ = pinned_p2()
    times = tuple(np.linspace(0.002, 2.0, 1000))
    cfg = SimConfig(n_paths=100, seed=5, record_times=times)
    cell_records = cfg.n_paths * len(times) * 8
    tracemalloc.start()
    try:
        simulate(gen, u0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * cell_records


def test_paths_stop_at_the_last_record_time(monkeypatch):
    # every hold is 1 (to rounding) on a two-state chain of rate 1, so the
    # jumps fall at t = 1, 2, 3; the one at 3 passes the last record time,
    # 2.5, and every path leaves there with no target draw
    counters = {}  # each path's draws in order, keyed by its seed

    def uniforms(seeds, counter):
        counter = np.broadcast_to(counter, seeds.shape)
        for seed, k in zip(seeds.tolist(), counter.tolist()):
            counters.setdefault(seed, []).append(k)
        return np.where(counter % 2 == 1, 0.5, -math.expm1(-1.0))

    monkeypatch.setattr(montecarlo, "_uniforms", uniforms)
    gen = one_basin(2, 1.0, 0.0)
    u0 = CellFunction(2, 2, (0,), [[1.0, 0.0]])
    res = simulate(gen, u0, SimConfig(n_paths=3, seed=0, record_times=(0.5, 2.5)))
    # two start cells of three paths
    assert len(counters) == 6
    assert all(draws == [0, 1, 2, 3, 4] for draws in counters.values())
    # two jumps by t = 2.5 bring every path back to its start cell
    assert np.array_equal(res.estimates, [[1.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(res.n_alive, np.full((2, 2), 3))


def coarse(u):
    # a draw rounded down to a multiple of 1/8: zero holds and zero target
    # draws happen, and jumps of different paths fall at the same times
    return np.floor(u * 8) / 8


# (p, basins, N) of every chain of 2 to 10 states
SMALL_SHAPES = [(2, 1, 2), (2, 2, 2), (2, 1, 3), (2, 2, 3), (3, 1, 2), (3, 2, 2), (3, 3, 2),
                (3, 1, 3), (5, 1, 2), (5, 2, 2), (7, 1, 2)]


@st.composite
def small_level_chains(draw):
    # level chains with zero rates, kills, and basins of zero total
    # rate, whose states hold forever
    p, B, N = draw(st.sampled_from(SMALL_SHAPES))
    rate = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
    within = np.array(draw(st.lists(st.lists(rate, min_size=N - 1, max_size=N - 1),
                                    min_size=B, max_size=B)))
    cross = np.array(draw(st.lists(st.lists(rate, min_size=B, max_size=B),
                                   min_size=B, max_size=B)))
    np.fill_diagonal(cross, 0.0)
    kill = np.array(draw(st.lists(rate, min_size=B, max_size=B)))
    frozen = np.array(draw(st.lists(st.booleans(), min_size=B, max_size=B)))
    within[frozen] = cross[frozen] = kill[frozen] = 0.0
    return level_gen(p, within, cross, kill, N)


@st.composite
def small_dense_chains(draw):
    # any chain of p = 2 to 7 states, outside the level form: its own
    # rate to each target and kill per state, zero rates, and single
    # states of zero total rate among live ones. The generator only
    # shapes the run (one basin at depth 2); the rows are the chain.
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rate = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
    Q = np.array(draw(st.lists(st.lists(rate, min_size=p, max_size=p), min_size=p, max_size=p)))
    kill = np.array(draw(st.lists(rate, min_size=p, max_size=p)))
    frozen = np.array(draw(st.lists(st.booleans(), min_size=p, max_size=p)))
    Q[frozen] = 0.0
    kill[frozen] = 0.0
    return one_basin(p, 0.0, 0.0), mc_reference.dense_rows(Q, kill)


def run_table(rows):
    # the sampler's run arrays (montecarlo._jump_runs) from reference
    # rows of equal length: each opens with an empty run, and the trap's
    # empty row is zeros
    table = np.zeros((4, len(rows), 1 + len(rows[0])))
    for i, row in enumerate(rows):
        if row:
            table[:, i, 1:] = np.array(row).T
    start, rate, length, cum = table
    return start.astype(np.int64), rate, length.astype(np.int64), cum


def small_chains():
    # (gen, rows): a level chain and no rows, or a dense chain and its
    # rows as runs of one column, which the sampler is given in place of
    # its own
    return st.one_of(
        small_level_chains().map(lambda gen: (gen, None)),
        small_dense_chains(),
    )


@given(gen=small_level_chains())
@settings(max_examples=100, deadline=None)
def test_jump_runs_expand_to_the_dense_chain(gen):
    """Each state's runs cover every column once, in state order, at the
    rate of the dense reference chain off its diagonal and 0 on it, and
    the last run is the kill at the trap. Without its empty runs, the row
    and its cumulative masses are those of the reference rows, bit for
    bit; the trap's row is zero."""
    Q, kill = dense_chain(gen)
    start, rate, length, cum = montecarlo._jump_runs(gen)
    dim = gen.dim
    want = mc_reference.level_rows(gen)
    for i in range(dim):
        cols = np.concatenate([np.arange(s, s + n) for s, n in zip(start[i], length[i])])
        assert np.array_equal(cols, np.arange(dim + 1))
        off = np.where(np.arange(dim) == i, 0.0, Q[i])
        assert np.repeat(rate[i], length[i]).tobytes() == np.append(off, kill[i]).tobytes()
        assert (start[i, -1], rate[i, -1], length[i, -1]) == (dim, kill[i], 1)
        full = length[i] > 0
        got = list(zip(start[i, full].tolist(), rate[i, full].tolist(),
                       length[i, full].tolist(), cum[i, full].tolist()))
        assert got == want[i] and cum[i, 0] == 0.0
    assert not (start[dim].any() or rate[dim].any() or length[dim].any() or cum[dim].any())


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_simulate_matches_the_one_path_reference(data):
    gen, rows = data.draw(small_chains())
    runs = montecarlo._jump_runs if rows is None else (lambda _: run_table(rows))
    if rows is None:
        rows = mc_reference.level_rows(gen)
    p, n = gen.p, gen.per_basin
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))
    u0 = CellFunction(p, gen.N, gen.basins, [
        data.draw(st.lists(value, min_size=n, max_size=n)) for _ in gen.basins
    ])
    seed = data.draw(st.integers(0, 2**64 - 1))
    real = montecarlo._uniforms
    if data.draw(st.booleans()):
        fake, ref_draw = real, mc_reference.uniform
    else:
        def fake(seeds, counter):
            return coarse(real(seeds, counter))

        def ref_draw(seed, k):
            return coarse(mc_reference.uniform(seed, k))

    # record times with 0 and repeats, and a jump time of the first path
    # of the first start cell, so that a record falls exactly on a jump
    time = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 2.0))
    times = sorted(data.draw(st.lists(time, min_size=1, max_size=4)))
    first = path_seed(path_seed(seed, 0), 0)
    jumps, _ = mc_reference.path_jumps(first, 0, rows, times[-1], ref_draw)
    times = sorted(times + data.draw(st.lists(st.sampled_from(jumps), max_size=2)))
    cfg = SimConfig(
        n_paths=data.draw(st.integers(1, 12)), seed=seed, record_times=tuple(times),
        threads=data.draw(st.integers(1, 3)),
    )
    budget = data.draw(st.sampled_from([montecarlo._RECORD_BUDGET, 1]))
    want = mc_reference.simulate(rows, u0.values.ravel(), cfg, ref_draw)
    with mock.patch.object(montecarlo, "_uniforms", fake), \
            mock.patch.object(montecarlo, "_RECORD_BUDGET", budget), \
            mock.patch.object(montecarlo, "_jump_runs", runs):
        res = simulate(gen, u0, cfg)
    for field, expected in zip(RESULT_FIELDS, want):
        got = getattr(res, field)
        # bit for bit, signed zeros included
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), field


def test_count_at_most_is_searchsorted():
    rng = np.random.default_rng(8)
    for width in (1, 2, 3, 5, 8, 17, 129):
        # non-decreasing rows with runs of equal entries, as a row of
        # cumulative rates has where a rate is zero
        steps = rng.random((6, width)) * (rng.random((6, width)) < 0.5)
        table = np.cumsum(steps, axis=1)
        state = rng.integers(0, 6, size=400)
        # arbitrary thresholds, then thresholds equal to an entry
        x = np.concatenate([
            rng.random(200) * table[:, -1].max(),
            table[state[200:], rng.integers(0, width, 200)],
        ])
        got = _count_at_most(table, state, x)
        want = [np.searchsorted(table[s], v, side="right") for s, v in zip(state, x)]
        assert np.array_equal(got, want)


def test_exact_sum_is_fsum():
    def tally(counts):
        # the states reached and their counts, as simulate passes them
        reached = np.flatnonzero(counts)
        return reached.tolist(), np.asarray(counts)[reached].tolist()

    rng = np.random.default_rng(3)
    values = np.concatenate([rng.random(20) ** 7, [0.0, 1.0, 5e-324, 2.0**-1000]])
    counts = rng.integers(0, 50, size=len(values))
    want = math.fsum(np.repeat(values, counts))
    assert _exact_sum(*tally(counts), _exact_terms(values)) == want
    squares = values * values
    want_sq = math.fsum(np.repeat(values, counts) ** 2)
    assert _exact_sum(*tally(counts), _exact_terms(squares)) == want_sq
    # all terms signed zeros: the sign is fsum's
    zeros = np.array([-0.0, 0.0])
    for c in ([3, 0], [3, 1], [0, 2]):
        got = _exact_sum(*tally(c), _exact_terms(zeros))
        want = math.fsum(np.repeat(zeros, c))
        assert got == want and math.copysign(1, got) == math.copysign(1, want)


def test_simulate_memory_is_linear_in_states():
    # 1024 states at depth 11: the run table is four arrays of (dim + 1)
    # rows of 23 runs, 0.75 MB, where a dense table of cumulative rates
    # would be (dim + 1)^2 floats, 8.4 MB
    spec = NetworkSpec(
        p=2, basins=(0,), cross_lambda={}, cross_mu={},
        w_kernels={0: RadialKernel(2, (1.0, 0.5))},
        v_kernels={0: RadialKernel(2, (1.5, 0.5))},
    )
    gen = discretize(spec, 11)
    assert gen.dim == 1024
    u0 = CellFunction(2, 11, (0,), np.linspace(0, 1, 1024)[None, :])
    cfg = SimConfig(n_paths=4, seed=1, record_times=(0.25, 0.5))
    table = sum(a.nbytes for a in montecarlo._jump_runs(gen))
    assert table == 4 * (gen.dim + 1) * 23 * 8
    tracemalloc.start()
    try:
        simulate(gen, u0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * table


def top_draw(monkeypatch, hold):
    # every target draw is the largest uniform, 1 - 2^-53
    def uniforms(seeds, counter):
        counter = np.broadcast_to(counter, seeds.shape)
        return np.where(counter % 2 == 1, 1 - 2.0**-53, hold)

    monkeypatch.setattr(montecarlo, "_uniforms", uniforms)


def test_top_draw_stays_on_a_conservative_chain(monkeypatch):
    # totals are powers of two and there is no kill: the largest draw
    # goes to the last state with a positive rate, never to the trap. The
    # rows of basin 1 rise only in basin 0's columns, then stay flat over
    # basin 1 (no jump within it) and the trap.
    top_draw(monkeypatch, 0.5)
    gen = level_gen(2, [[1.0], [0.0]], [[0.0, 0.5], [1.0, 0.0]], [0.0, 0.0])
    u0 = CellFunction(2, 2, (0, 1), [[0.25, 0.5], [1.0, 0.75]])
    cfg = SimConfig(n_paths=8, seed=0, record_times=(5.0, 10.0))
    res = simulate(gen, u0, cfg)
    assert np.array_equal(res.n_alive, np.full((2, 4), 8))


def test_top_draw_stays_on_a_conservative_dense_chain(monkeypatch):
    # the same on a chain outside the level form, whose rows the sampler
    # is given in place of its own: the last row rises in column 0 only
    top_draw(monkeypatch, 0.5)
    Q = [[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5], [4.0, 0.0, -4.0]]
    runs = run_table(mc_reference.dense_rows(Q, [0.0] * 3))
    monkeypatch.setattr(montecarlo, "_jump_runs", lambda _: runs)
    u0 = CellFunction(3, 2, (0,), [[0.25, 0.5, 1.0]])
    cfg = SimConfig(n_paths=8, seed=0, record_times=(5.0, 10.0))
    res = simulate(one_basin(3, 0.0, 0.0), u0, cfg)
    assert np.array_equal(res.n_alive, np.full((2, 3), 8))


def test_top_draw_that_rounds_up_to_the_total_is_not_killed(monkeypatch):
    # with a subnormal total rate r, (1 - 2^-53) * r rounds up to r, so the
    # draw passes the whole row; it must land on a state, not the trap
    r = 3 * 5e-324
    assert (1 - 2.0**-53) * r == r
    top_draw(monkeypatch, 2.0**-53)  # holding time about 7.5e306
    gen = one_basin(2, r, 0.0)
    u0 = CellFunction(2, 2, (0,), [[1.0, 0.5]])
    cfg = SimConfig(n_paths=2, seed=0, record_times=(1.0e308,))
    res = simulate(gen, u0, cfg)
    assert np.array_equal(res.n_alive, [[2, 2]])


PINNED = {
    "p2": {
        "estimates": [
            [
                0.26619217402247836, 0.31484417601910736, 0.3613208797432785,
                0.4012997762727901, 0.3789743349068175, 0.4433699542337913,
                0.4792607175290576, 0.4953851569656436, 0.5823758846067584,
                0.6010552483948859, 0.6204621055323593, 0.6452906670553463,
                0.6775322702184277, 0.6835601291022736, 0.716413713002067,
                0.7072962832834093,
            ],
            [
                0.1630962199618658, 0.15948845574404133, 0.21834480985415436,
                0.17380994482383083, 0.1898770630253577, 0.1953290748512712,
                0.2370018704539155, 0.17317131047588238, 0.2809254160662637,
                0.2673839685533393, 0.26758809018598806, 0.3195829255320311,
                0.29617332245359496, 0.3030423478146711, 0.3219643147716833,
                0.2887239946400163,
            ],
        ],
        "stderrs": [
            [
                0.011945557802742415, 0.012366601846466128, 0.012326357078289605,
                0.013695657481336112, 0.01379561488312051, 0.014163450680955295,
                0.014559003666429659, 0.01652864991704459, 0.015414808918519249,
                0.01648561845562425, 0.017065644024806696, 0.01752696048881099,
                0.017621131032237048, 0.01871862443743694, 0.01884851840787253,
                0.02036430496529662,
            ],
            [
                0.014660105978293272, 0.0142122158131135, 0.016712457727086127,
                0.014964362562154146, 0.015979927682579876, 0.01576769751574124,
                0.01719326676946348, 0.01595964084988651, 0.01814554277071226,
                0.018739973788474404, 0.01911248559664389, 0.020367169299954933,
                0.019844906434313067, 0.02034028190591679, 0.02108393488467746,
                0.020553141563586272,
            ],
        ],
        "n_alive": [
            [
                299, 289, 299, 293, 276, 296, 305, 285, 318, 311, 312, 313, 318, 312, 320,
                306,
            ],
            [
                114, 110, 133, 110, 115, 121, 139, 99, 156, 142, 135, 158, 149, 147, 153,
                140,
            ],
        ],
        "kill_fraction": [
            0.715, 0.725, 0.6675, 0.725, 0.7125, 0.6975, 0.6525, 0.7525, 0.61, 0.645,
            0.6625, 0.605, 0.6275, 0.6325, 0.6175, 0.65,
        ],
    },
    "p3": {
        "estimates": [
            [
                0.02513481873081382, 0.04555524353831072, 0.05973795454673252,
                0.09080811511203636, 0.12573544956180246, 0.1741544957038585,
                0.22069299121407876, 0.26349148710873393, 0.3151723756916044,
                0.37251604652635734, 0.4311154586790291, 0.4740774974434264,
                0.5317991545431839, 0.6096835722680131, 0.677401789753666,
                0.739245478018938, 0.8266160238654531, 0.9152495292276832,
            ],
            [
                0.11058818311547322, 0.1530346286173065, 0.1415445448614252,
                0.14246774898912473, 0.17683089199862168, 0.19927128222478258,
                0.23929856002098954, 0.25932790415994056, 0.27591150448277507,
                0.31799999524203515, 0.35082892749874106, 0.3470171096651608,
                0.4014197346847722, 0.40496064053253517, 0.42865224899027654,
                0.48256777227086844, 0.5553371902613112, 0.5642169881366599,
            ],
        ],
        "stderrs": [
            [
                0.00691696625263523, 0.007057004547180096, 0.005700794134154964,
                0.005454219587409471, 0.005346753594742116, 0.0056304483088195235,
                0.005891818711743644, 0.004457523720220746, 0.004374213967963482,
                0.006821615069817402, 0.007379985137365632, 0.00944405363952539,
                0.01012338655491369, 0.010523950384697785, 0.011551557004620393,
                0.013912443713213131, 0.014356928740124082, 0.01521026097350259,
            ],
            [
                0.011694635060659528, 0.01444319944711389, 0.011618818118033891,
                0.009934725574354866, 0.011406319337410896, 0.009868458643703093,
                0.011039911431109203, 0.00965048023613438, 0.009457310986257997,
                0.013523719100001374, 0.014240136274833746, 0.01548128187028742,
                0.01643188694470389, 0.01813088222360084, 0.019512439511511166,
                0.02151559839286445, 0.023133535607651058, 0.026073769601366266,
            ],
        ],
        "n_alive": [
            [
                300, 300, 300, 300, 300, 300, 300, 300, 300, 287, 290, 284, 283, 288, 291,
                286, 289, 289,
            ],
            [
                295, 296, 297, 296, 297, 295, 297, 299, 298, 251, 247, 238, 242, 236, 235,
                245, 250, 236,
            ],
        ],
        "kill_fraction": [
            0.016666666666666666, 0.013333333333333334, 0.01, 0.013333333333333334, 0.01,
            0.016666666666666666, 0.01, 0.0033333333333333335, 0.006666666666666667,
            0.16333333333333333, 0.17666666666666667, 0.20666666666666667,
            0.19333333333333333, 0.21333333333333335, 0.21666666666666667,
            0.18333333333333332, 0.16666666666666666, 0.21333333333333335,
        ],
    },
}
