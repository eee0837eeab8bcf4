import concurrent.futures
import io
import math
import tracemalloc
from unittest import mock

import mc_reference
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
    _mix_vec,
    _simulate_chunk,
    path_seed,
    simulate,
    write_csv,
)
from ultranet.network import NetworkSpec
from ultranet.tree import DiscreteGenerator, discretize, solve
from ultranet.wavelets import CellFunction


def synthetic_gen(Q, kill):
    # one basin at depth 2, so the prime is the number of states
    Q = np.asarray(Q, dtype=float)
    return DiscreteGenerator(
        p=len(Q), N=2, basins=(0,), Q=Q, kill=np.asarray(kill, dtype=float)
    )


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


def test_path_seed_golden_values():
    assert path_seed(0, 0) == 0xE220A8397B1DCDAF
    assert path_seed(0, 1) == 0x6E789E6AA1B965F4
    assert path_seed(0, 2) == 0x06C45D188009454F
    assert path_seed(12345, 0) == 0x22118258A9D111A0


def test_path_seeds_distinct():
    seeds = {path_seed(999, i) for i in range(1000)}
    assert len(seeds) == 1000
    with pytest.raises(UsageError):
        path_seed(0, -1)


# ---------------------------------------------------------------- exact


def test_frozen_process_is_exact():
    gen = synthetic_gen(np.zeros((2, 2)), [0.0, 0.0])
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
    gen = synthetic_gen(np.zeros((2, 2)), [kappa, kappa])
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
    rates = np.asarray(gen.Q, dtype=float).copy()
    np.fill_diagonal(rates, 0.0)
    per_state = np.concatenate([rates, np.asarray(gen.kill)[:, None]], axis=1)
    cum = np.cumsum(per_state, axis=1)
    totals = np.append(cum[:, -1], 0.0)
    cum = np.vstack([cum, np.zeros(gen.dim + 1)])
    golden = np.uint64(0x9E3779B97F4A7C15)

    def seeds(n):
        return _mix_vec(np.uint64(123) + np.arange(1, n + 1, dtype=np.uint64) * golden)

    short = _simulate_chunk(seeds(50), 0, cum, totals, (0.5, 1.0))
    long = _simulate_chunk(seeds(100), 0, cum, totals, (0.5, 1.0))
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
    gen = killed_two_basin()
    bad = CellFunction(2, 2, (0, 1), [[1.5, 0.0], [0.0, 0.0]])
    cfg = SimConfig(n_paths=10, seed=0, record_times=(0.5,))
    with pytest.raises(ValidationError):
        simulate(gen, bad, cfg)


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
    gen = synthetic_gen([[-1.0, 1.0], [1.0, -1.0]], [0.0, 0.0])
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


@st.composite
def small_chains(draw):
    # one basin at depth 2 with p states; zero rates, kills and rows of
    # zero total rate, which hold forever
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rate = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
    Q = np.array(draw(st.lists(st.lists(rate, min_size=p, max_size=p), min_size=p, max_size=p)))
    kill = np.array(draw(st.lists(rate, min_size=p, max_size=p)))
    frozen = np.array(draw(st.lists(st.booleans(), min_size=p, max_size=p)))
    Q[frozen] = 0.0
    kill[frozen] = 0.0
    return synthetic_gen(Q, kill)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_simulate_matches_the_one_path_reference(data):
    gen = data.draw(small_chains())
    p = gen.p
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))
    u0 = CellFunction(p, 2, (0,), [data.draw(st.lists(value, min_size=p, max_size=p))])
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
    rows = mc_reference.cumulative_rows(gen.Q, gen.kill)
    first = path_seed(path_seed(seed, 0), 0)
    jumps, _ = mc_reference.path_jumps(first, 0, rows, times[-1], ref_draw)
    times = sorted(times + data.draw(st.lists(st.sampled_from(jumps), max_size=2)))
    cfg = SimConfig(
        n_paths=data.draw(st.integers(1, 12)), seed=seed, record_times=tuple(times),
        threads=data.draw(st.integers(1, 3)),
    )
    budget = data.draw(st.sampled_from([montecarlo._RECORD_BUDGET, 1]))
    want = mc_reference.simulate(gen, u0.values.ravel(), cfg, ref_draw)
    with mock.patch.object(montecarlo, "_uniforms", fake), \
            mock.patch.object(montecarlo, "_RECORD_BUDGET", budget):
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
    rng = np.random.default_rng(3)
    values = np.concatenate([rng.random(20) ** 7, [0.0, 1.0, 5e-324, 2.0**-1000]])
    counts = rng.integers(0, 50, size=len(values))
    want = math.fsum(np.repeat(values, counts))
    assert _exact_sum(counts, _exact_terms(values)) == want
    squares = values * values
    want_sq = math.fsum(np.repeat(values, counts) ** 2)
    assert _exact_sum(counts, _exact_terms(squares)) == want_sq
    # all terms signed zeros: the sign is fsum's
    zeros = np.array([-0.0, 0.0])
    for c in ([3, 0], [3, 1], [0, 2]):
        got = _exact_sum(np.array(c), _exact_terms(zeros))
        want = math.fsum(np.repeat(zeros, c))
        assert got == want and math.copysign(1, got) == math.copysign(1, want)


def test_simulate_holds_one_dense_table():
    # 1024 states: the cumulative table is (dim + 1)^2 floats, built in place
    spec = NetworkSpec(
        p=2, basins=(0,), cross_lambda={}, cross_mu={},
        w_kernels={0: RadialKernel(2, (1.0, 0.5))},
        v_kernels={0: RadialKernel(2, (1.5, 0.5))},
    )
    gen = discretize(spec, 11)
    assert gen.dim == 1024
    u0 = CellFunction(2, 11, (0,), np.linspace(0, 1, 1024)[None, :])
    cfg = SimConfig(n_paths=4, seed=1, record_times=(0.25, 0.5))
    tracemalloc.start()
    try:
        simulate(gen, u0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * gen.Q.nbytes


def top_draw(monkeypatch, hold):
    # every target draw is the largest uniform, 1 - 2^-53
    def uniforms(seeds, counter):
        counter = np.broadcast_to(counter, seeds.shape)
        return np.where(counter % 2 == 1, 1 - 2.0**-53, hold)

    monkeypatch.setattr(montecarlo, "_uniforms", uniforms)


def test_top_draw_stays_on_a_conservative_chain(monkeypatch):
    # totals are powers of two and there is no kill: the largest draw
    # goes to the last state with a positive rate, never to the trap
    top_draw(monkeypatch, 0.5)
    gen = synthetic_gen([[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5], [4.0, 0.0, -4.0]], [0.0] * 3)
    u0 = CellFunction(3, 2, (0,), [[0.25, 0.5, 1.0]])
    cfg = SimConfig(n_paths=8, seed=0, record_times=(5.0, 10.0))
    res = simulate(gen, u0, cfg)
    assert np.array_equal(res.n_alive, np.full((2, 3), 8))


def test_top_draw_that_rounds_up_to_the_total_is_not_killed(monkeypatch):
    # with a subnormal total rate r, (1 - 2^-53) * r rounds up to r, so the
    # draw passes the whole row; it must land on a state, not the trap
    r = 3 * 5e-324
    assert (1 - 2.0**-53) * r == r
    top_draw(monkeypatch, 2.0**-53)  # holding time about 7.5e306
    gen = synthetic_gen([[-r, r], [r, -r]], [0.0, 0.0])
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
