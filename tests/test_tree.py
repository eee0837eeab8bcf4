import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from ultranet.errors import UsageError, ValidationError
from ultranet.kernels import RadialKernel
from ultranet.montecarlo import SimConfig, simulate
from ultranet.network import NetworkSpec
from ultranet.padic import CellAddress, enumerate_cells
from ultranet.tree import _action_is_cheaper, discretize, solve
from ultranet.wavelets import CellFunction, WaveletIndex, enumerate_wavelets

from wavelet_reference import eigenvalue, eval_wavelet


def single_basin(w_levels=(1.0,), v_levels=None, p=2):
    v_levels = w_levels if v_levels is None else v_levels
    return NetworkSpec(
        p=p, basins=(0,), cross_lambda={}, cross_mu={},
        w_kernels={0: RadialKernel(p, w_levels)},
        v_kernels={0: RadialKernel(p, v_levels)},
    )


def balanced_two_basin(cross=1.0, levels=(1.0,)):
    """Symmetric rates, equal kernels: zero sink everywhere."""
    k = RadialKernel(2, levels)
    return NetworkSpec(
        p=2, basins=(0, 1),
        cross_lambda={(0, 1): cross, (1, 0): cross},
        cross_mu={(0, 1): cross, (1, 0): cross},
        w_kernels={0: k, 1: k}, v_kernels={0: k, 1: k},
    )


def test_discretize_frozen_single_basin():
    gen = discretize(single_basin(), 2)
    assert gen.dim == 2
    assert np.allclose(gen.Q, [[-0.25, 0.25], [0.25, -0.25]], atol=1e-15)
    assert np.allclose(gen.kill, [0.0, 0.0])
    assert gen.states == (CellAddress(0, (0,)), CellAddress(0, (1,)))


def test_discretize_pure_killing():
    spec = single_basin(w_levels=(0.0,), v_levels=(1.0,))
    gen = discretize(spec, 2)
    assert np.allclose(gen.Q, [[-0.25, 0.0], [0.0, -0.25]])
    assert np.allclose(gen.kill, [0.25, 0.25])


def test_discretize_balanced_two_basin_rows_sum_to_zero():
    gen = discretize(balanced_two_basin(), 2)
    assert gen.dim == 4
    assert np.allclose(gen.Q.sum(axis=1), 0.0, atol=1e-12)
    assert np.allclose(np.diag(gen.Q), -0.75)
    # cross rates are constant across basin pairs
    assert np.allclose(gen.Q[0, 2:], 0.25)


def test_row_sums_equal_minus_kill():
    spec = NetworkSpec(
        p=3, basins=(0, 2),
        cross_lambda={(0, 2): 0.5, (2, 0): 0.25},
        cross_mu={(0, 2): 1.0, (2, 0): 0.75},
        w_kernels={0: RadialKernel(3, (1.0,)), 2: RadialKernel(3, (0.5, 0.25))},
        v_kernels={0: RadialKernel(3, (2.0,)), 2: RadialKernel(3, (0.5, 0.5))},
    )
    gen = discretize(spec, 3)
    assert gen.dim == 18
    assert np.abs(gen.Q.sum(axis=1) + gen.kill).max() < 1e-12
    off = gen.Q - np.diag(np.diag(gen.Q))
    assert off.min() >= 0


def test_discretize_depth_guard_and_cap():
    with pytest.raises(UsageError, match="not be exact"):
        discretize(single_basin(w_levels=(1.0, 0.5)), 2)
    with pytest.raises(
        UsageError,
        match="the chain matrix of 8192 states needs 512 MiB, "
        "over the 128 MiB limit of the dense chain solver",
    ):
        discretize(single_basin(), 14)


def test_solve_identity_at_time_zero():
    gen = discretize(single_basin(), 2)
    u0 = CellFunction(2, 2, (0,), [[1.0, 0.0]])
    out = solve(gen, u0, 0.0)
    assert np.allclose(out.values, [[1.0, 0.0]])


def test_solve_frozen_two_state_relaxation():
    gen = discretize(single_basin(), 2)
    u0 = CellFunction(2, 2, (0,), [[1.0, 0.0]])
    for t in (0.3, 1.0, 4.0):
        out = solve(gen, u0, t)
        expected = 0.5 * np.array([1 + math.exp(-t / 2), 1 - math.exp(-t / 2)])
        assert np.abs(out.values[0] - expected).max() < 1e-12


def test_solve_uniform_killing_decays_exponentially():
    spec = single_basin(w_levels=(0.0,), v_levels=(1.0,))
    gen = discretize(spec, 2)
    u0 = CellFunction.constant(2, 2, [0], 1.0)
    for t in (0.5, 2.0):
        out = solve(gen, u0, t)
        assert np.abs(out.values - math.exp(-0.25 * t)).max() < 1e-12


def test_solve_depth_mismatch():
    gen = discretize(single_basin(), 2)
    with pytest.raises(UsageError):
        solve(gen, CellFunction.constant(2, 3, [0], 1.0), 1.0)


def test_datum_of_another_prime_is_refused():
    # same basin and depth, but three cells per basin against the chain's two
    gen = discretize(single_basin(), 2)
    u0 = CellFunction(3, 2, (0,), [[1.0, 0.0, 0.5]])
    with pytest.raises(ValidationError, match="3 cells, the chain has 2"):
        solve(gen, u0, 1.0)
    cfg = SimConfig(n_paths=10, t_max=1.0, seed=1, record_times=(0.0,))
    with pytest.raises(ValidationError, match="3 cells, the chain has 2"):
        simulate(gen, u0, cfg)


def test_conservation_without_sink():
    spec = balanced_two_basin(cross=0.75, levels=(0.5,))
    N = 3
    gen = discretize(spec, N)
    rng = np.random.default_rng(7)
    u0 = CellFunction(2, N, (0, 1), [rng.uniform(0, 1, 2 ** (N - 1)) for b in (0, 1)])
    mass0 = u0.integral()
    for t in (0.1, 1.0, 10.0):
        out = solve(gen, u0, t)
        assert abs(out.integral() - mass0) < 1e-9


def test_positivity_preserved():
    spec = NetworkSpec(
        p=2, basins=(0, 1),
        cross_lambda={(0, 1): 0.5, (1, 0): 0.25},
        cross_mu={(0, 1): 1.0, (1, 0): 1.5},
        w_kernels={0: RadialKernel(2, (1.0,)), 1: RadialKernel(2, (0.25,))},
        v_kernels={0: RadialKernel(2, (1.0,)), 1: RadialKernel(2, (0.5,))},
    )
    gen = discretize(spec, 3)
    rng = np.random.default_rng(11)
    u0 = CellFunction(2, 3, (0, 1), [rng.uniform(0, 1, 4) for b in (0, 1)])
    for t in (0.2, 1.0, 5.0):
        out = solve(gen, u0, t)
        assert out.values.min() >= -1e-12


@pytest.mark.parametrize("levels", [(1.0,), (1.0, 0.5)])
def test_eigenvector_recovery(levels):
    """Sampled wavelets are eigenvectors of the kill-free generator with
    the kernel eigenvalue at their scale."""
    p = 2
    spec = single_basin(w_levels=levels, p=p)
    N = len(levels) + 1
    gen = discretize(spec, N)
    kernel = RadialKernel(p, levels)
    for idx in enumerate_wavelets(p, N - 1):
        vec = np.array(
            [eval_wavelet(idx, s, p) for s in gen.states], dtype=complex
        )
        lam = float(eigenvalue(kernel, idx.r))
        assert np.abs(gen.Q @ vec - lam * vec).max() < 1e-10


def random_chain(p, basins, N, conservative, seed):
    """A seeded network whose chain matrix is not symmetric: the cross
    rates differ by direction and every basin has its own kernel.
    Conservative means gains equal losses (v = w, mu[b->a] = lambda[a->b]),
    so every row of Q sums to 0; otherwise every basin has a sink."""
    rng = np.random.default_rng(seed)
    w = {b: RadialKernel(p, tuple(rng.uniform(0.5, 1.5, N - 1))) for b in basins}
    v = w if conservative else {
        b: RadialKernel(p, tuple(x * rng.uniform(1.1, 1.5) for x in w[b].levels))
        for b in basins
    }
    lam = {(a, b): rng.uniform(0.2, 1.0) for a in basins for b in basins if a != b}
    mu = {
        (b, a): x * (1.0 if conservative else rng.uniform(1.1, 1.5))
        for (a, b), x in lam.items()
    }
    spec = NetworkSpec(p=p, basins=tuple(basins), cross_lambda=lam, cross_mu=mu,
                       w_kernels=w, v_kernels=v)
    gen = discretize(spec, N)
    assert (np.abs(gen.kill).max() < 1e-12) == conservative
    assert not np.allclose(gen.Q, gen.Q.T)
    return gen


@pytest.mark.parametrize("conservative", [True, False])
@pytest.mark.parametrize("p, basins, N", [(2, (0, 1), 7), (3, (0, 1, 2), 4)])
def test_solve_matches_the_dense_exponential_on_both_routes(p, basins, N, conservative):
    gen = random_chain(p, basins, N, conservative, seed=p + 10 * conservative)
    rng = np.random.default_rng(3)
    u0 = CellFunction(p, N, basins, rng.uniform(-1.0, 1.0, (len(basins), p ** (N - 1))))
    u = u0.values.ravel()
    times = [1e-3, 0.1, 1.0, 4.0, 10.0, 30.0, 100.0, 1e3, 1e6]
    norm = np.linalg.norm(gen.Q, 1)
    routes = {_action_is_cheaper(norm * t, gen.dim) for t in times}
    assert routes == {True, False}
    for t in times:
        exact = scipy.linalg.expm(gen.Q * t) @ u
        out = solve(gen, u0, t)
        assert out.basins == u0.basins and out.values.shape == u0.values.shape
        assert np.abs(out.values.ravel() - exact).max() <= 1e-12 * np.abs(u).max()


def test_conservative_chain_at_late_time_takes_the_dense_route(monkeypatch):
    calls = []

    def recording(name, real):
        def stand_in(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return stand_in

    monkeypatch.setattr(scipy.linalg, "expm", recording("expm", scipy.linalg.expm))
    monkeypatch.setattr(
        scipy.sparse.linalg, "expm_multiply",
        recording("expm_multiply", scipy.sparse.linalg.expm_multiply),
    )
    spec = balanced_two_basin(cross=0.75, levels=(0.5,))
    N = 7
    gen = discretize(spec, N)
    rng = np.random.default_rng(5)
    u0 = CellFunction(2, N, (0, 1), rng.uniform(0, 1, (2, 2 ** (N - 1))))
    out = solve(gen, u0, 1e6)
    assert calls == ["expm"]
    assert abs(out.integral() - u0.integral()) < 1e-9
    calls.clear()
    solve(gen, u0, 1.0)
    assert calls == ["expm_multiply"]
    calls.clear()
    small = discretize(spec, 4)  # 16 states: dense costs less than the action's overhead
    solve(small, CellFunction.constant(2, 4, [0, 1], 1.0), 1.0)
    assert calls == ["expm"]


def test_solve_never_forms_the_matrix_exponential():
    """The action keeps one solve on a 1024-state chain within a few
    copies of Q; a dense expm holds about eight."""
    spec = balanced_two_basin(cross=0.5, levels=(1.0, 0.5))
    N = 10
    gen = discretize(spec, N)
    assert gen.dim == 1024
    u0 = CellFunction.constant(2, N, [0, 1], 1.0)
    solve(gen, u0, 4.0)  # the first call imports scipy.sparse.linalg
    tracemalloc.start()
    try:
        solve(gen, u0, 4.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * gen.Q.nbytes
