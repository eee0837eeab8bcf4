import io
import math

import numpy as np
import pytest

from ultranet import montecarlo
from ultranet.errors import UsageError, ValidationError
from ultranet.kernels import RadialKernel
from ultranet.montecarlo import (
    SimConfig,
    _mix_vec,
    _simulate_chunk,
    path_seed,
    simulate,
    write_csv,
)
from ultranet.network import NetworkSpec
from ultranet.padic import CellAddress
from ultranet.tree import DiscreteGenerator, discretize, solve
from ultranet.wavelets import CellFunction


def synthetic_gen(Q, kill):
    Q = np.asarray(Q, dtype=float)
    states = tuple(CellAddress(0, (d,)) for d in range(Q.shape[0]))
    return DiscreteGenerator(N=2, states=states, Q=Q, kill=np.asarray(kill, dtype=float))


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
    cfg = SimConfig(n_paths=500, t_max=3.0, seed=7, record_times=(0.0, 1.0, 3.0))
    res = simulate(gen, u0, cfg)
    assert np.array_equal(res.estimates, [[0.75, 0.25]] * 3)
    assert np.array_equal(res.stderrs, np.zeros((3, 2)))
    assert np.array_equal(res.n_alive, np.full((3, 2), 500))
    assert np.array_equal(res.kill_fraction, [0.0, 0.0])


def test_record_at_time_zero_is_the_start_value():
    gen = killed_two_basin()
    u0 = CellFunction(2, 2, (0, 1), [[1.0, 0.0], [0.5, 0.5]])
    cfg = SimConfig(n_paths=200, t_max=1.0, seed=3, record_times=(0.0, 1.0))
    res = simulate(gen, u0, cfg)
    assert np.array_equal(res.estimates[0], [1.0, 0.0, 0.5, 0.5])
    assert np.array_equal(res.stderrs[0], np.zeros(4))


# ---------------------------------------------------------------- stats


def test_uniform_kill_matches_survival_law():
    kappa = 0.3
    gen = synthetic_gen(np.zeros((2, 2)), [kappa, kappa])
    u0 = CellFunction(2, 2, (0,), [[1.0, 1.0]])
    cfg = SimConfig(n_paths=20000, t_max=2.0, seed=11, record_times=(0.5, 1.0, 2.0))
    res = simulate(gen, u0, cfg)
    for j, t in enumerate(cfg.record_times):
        target = math.exp(-kappa * t)
        for i in range(2):
            gap = abs(res.estimates[j, i] - target)
            assert gap <= 3 * res.stderrs[j, i]
            # with u0 = 1 the estimate and the alive fraction coincide
            assert res.estimates[j, i] == res.n_alive[j, i] / cfg.n_paths
    assert 0.4 < res.kill_fraction[0] < 0.5  # 1 - e^{-0.6} = 0.451


def test_single_basin_against_relaxation_value():
    spec = NetworkSpec(
        p=2, basins=(0,), cross_lambda={}, cross_mu={},
        w_kernels={0: RadialKernel(2, (1.0,))},
        v_kernels={0: RadialKernel(2, (1.0,))},
    )
    gen = discretize(spec, 2)
    u0 = CellFunction(2, 2, (0,), [[1.0, 0.0]])
    cfg = SimConfig(n_paths=20000, t_max=2.0, seed=1, record_times=(2.0,))
    res = simulate(gen, u0, cfg)
    target = 0.5 * (1 + math.exp(-1.0))
    assert abs(res.estimates[0, 0] - target) <= 3 * res.stderrs[0, 0]


def test_estimates_track_the_tree_oracle():
    gen = killed_two_basin()
    u0 = CellFunction(2, 2, (0, 1), [[1.0, 0.25], [0.0, 0.75]])
    cfg = SimConfig(n_paths=20000, t_max=1.5, seed=42, record_times=(0.5, 1.5))
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
    cfg = SimConfig(n_paths=20000, t_max=1.0, seed=5, record_times=(1.0,))
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
    cfg = SimConfig(n_paths=3000, t_max=1.0, seed=77, record_times=(0.3, 1.0))
    a = simulate(gen, u0, cfg)
    b = simulate(gen, u0, cfg)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.stderrs, b.stderrs)
    assert np.array_equal(a.n_alive, b.n_alive)


def test_thread_count_does_not_change_results():
    gen = killed_two_basin()
    u0 = CellFunction(2, 2, (0, 1), [[1.0, 0.0], [0.5, 0.25]])
    base = SimConfig(n_paths=3000, t_max=1.0, seed=77, record_times=(0.3, 1.0))
    ref = simulate(gen, u0, base)
    for threads in (2, 3, 7):
        cfg = SimConfig(
            n_paths=3000, t_max=1.0, seed=77, record_times=(0.3, 1.0), threads=threads
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

    short = _simulate_chunk(seeds(50), 0, cum, totals, (0.5, 1.0), 1.0)
    long = _simulate_chunk(seeds(100), 0, cum, totals, (0.5, 1.0), 1.0)
    assert np.array_equal(short, long[:50])


# ---------------------------------------------------------------- io


def test_csv_layout():
    gen = killed_two_basin()
    u0 = CellFunction(2, 2, (0, 1), [[1.0, 0.0], [0.0, 0.0]])
    cfg = SimConfig(n_paths=100, t_max=1.0, seed=2, record_times=(0.5, 1.0))
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
        SimConfig(n_paths=0, t_max=1.0, seed=0, record_times=(0.5,))
    with pytest.raises(UsageError):
        SimConfig(n_paths=10, t_max=1.0, seed=0, record_times=())
    with pytest.raises(UsageError):
        SimConfig(n_paths=10, t_max=1.0, seed=0, record_times=(0.5, 0.2))
    with pytest.raises(UsageError):
        SimConfig(n_paths=10, t_max=1.0, seed=0, record_times=(-0.5,))
    with pytest.raises(UsageError):
        SimConfig(n_paths=10, t_max=1.0, seed=0, record_times=(2.0,))
    with pytest.raises(UsageError):
        SimConfig(n_paths=10, t_max=1.0, seed=0, record_times=(0.5,), threads=0)


def test_u0_range_validation():
    gen = killed_two_basin()
    bad = CellFunction(2, 2, (0, 1), [[1.5, 0.0], [0.0, 0.0]])
    cfg = SimConfig(n_paths=10, t_max=1.0, seed=0, record_times=(0.5,))
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

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 7)
    gen = killed_two_basin()
    u0 = CellFunction(2, 2, (0, 1), [[1.0, 0.0], [0.5, 0.25]])

    def config(n_paths, threads):
        return SimConfig(
            n_paths=n_paths, t_max=1.0, seed=77, record_times=(0.3, 1.0), threads=threads
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
        assert np.array_equal(ref.kill_fraction, out.kill_fraction)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
    simulate(gen, u0, config(100, 64))
    assert pools == []
