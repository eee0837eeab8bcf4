import decimal
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ultranet import tree
from ultranet.errors import NumericError, UsageError, ValidationError
from ultranet.kernels import RadialKernel
from ultranet.montecarlo import SimConfig, simulate
from ultranet.network import NetworkSpec
from ultranet.padic import CellAddress, enumerate_cells
from ultranet.tree import _action_is_cheaper, discretize, solve
from ultranet.wavelets import CellFunction, WaveletIndex, enumerate_wavelets

from expm_reference import extended_expm
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
    assert (gen.p, gen.N, gen.basins) == (2, 2, (0,))


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
    cfg = SimConfig(n_paths=10, seed=1, record_times=(0.0,))
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
            [eval_wavelet(idx, CellAddress(0, d), p) for d in enumerate_cells(p, N)],
            dtype=complex,
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


def stationary(gen):
    """The stationary law pi of a conservative chain: pi Q = 0, sum 1."""
    A = gen.Q.T.copy()
    A[-1] = 1.0  # one balance equation replaced by the normalization
    return np.linalg.solve(A, np.eye(gen.dim)[-1])


@pytest.mark.parametrize("conservative", [True, False])
@pytest.mark.parametrize("p, basins, N", [(2, (0, 1), 7), (3, (0, 1, 2), 4)])
def test_solve_matches_the_dense_exponential_on_both_routes(p, basins, N, conservative):
    """The reference is the extended-precision exponential, except for a
    conservative chain at t = 1e6: there its squarings carry the roundoff
    into the stationary mean (3.8e-12 max|u| off on the p = 2 chain, and
    scipy's float64 expm 4.9e-11), so the reference is the limit pi . u."""
    gen = random_chain(p, basins, N, conservative, seed=p + 10 * conservative)
    rng = np.random.default_rng(3)
    u0 = CellFunction(p, N, basins, rng.uniform(-1.0, 1.0, (len(basins), p ** (N - 1))))
    u = u0.values.ravel()
    times = [1e-3, 0.1, 1.0, 4.0, 10.0, 30.0, 100.0, 1e3, 1e6]
    rate = -gen.Q.diagonal().min()
    routes = {_action_is_cheaper(rate * t, gen.dim) for t in times}
    assert routes == {True, False}
    for t in times:
        if conservative and t == 1e6:
            exact = stationary(gen) @ u
        else:
            exact = (extended_expm(gen.Q, t) @ u).astype(float)
        out = solve(gen, u0, t)
        assert out.basins == u0.basins and out.values.shape == u0.values.shape
        assert np.abs(out.values.ravel() - exact).max() <= 1e-12 * np.abs(u).max()


@pytest.mark.parametrize("p, basins, N", [(2, (0, 1), 7), (3, (0, 1, 2), 4)])
def test_solve_reaches_the_stationary_limit_of_a_conservative_chain(p, basins, N):
    """At t = 1e6 the conservative chains have long mixed: e^{tQ} u is
    (pi . u) in every state, for pi the stationary law (pi Q = 0, sum 1).
    The dense route is the one taken there."""
    gen = random_chain(p, basins, N, True, seed=p + 10)
    A = gen.Q.T.copy()
    A[-1] = 1.0  # one balance equation replaced by the normalization
    pi = np.linalg.solve(A, np.eye(gen.dim)[-1])
    rng = np.random.default_rng(3)
    u0 = CellFunction(p, N, basins, rng.uniform(-1.0, 1.0, (len(basins), p ** (N - 1))))
    u = u0.values.ravel()
    assert not _action_is_cheaper(-gen.Q.diagonal().min() * 1e6, gen.dim)
    out = solve(gen, u0, 1e6).values.ravel()
    assert np.abs(out - pi @ u).max() <= 1e-9 * np.abs(u).max()


@pytest.mark.parametrize("t", [1e12, 1e100, 1e300])
@pytest.mark.parametrize("p, basins, N", [(2, (0, 1), 7), (3, (0, 1, 2), 4)])
def test_conservative_chain_stays_at_its_stationary_limit(p, basins, N, t):
    """The rows of a conservative chain are rescaled to sum 1 after each
    squaring, so up to 1000 squarings leave pi . u within the bound of
    the short times."""
    gen = random_chain(p, basins, N, True, seed=p + 10)
    rng = np.random.default_rng(3)
    u0 = CellFunction(p, N, basins, rng.uniform(-1.0, 1.0, (len(basins), p ** (N - 1))))
    u = u0.values.ravel()
    out = solve(gen, u0, t).values.ravel()
    assert np.abs(out - stationary(gen) @ u).max() <= 1e-12 * np.abs(u).max()


def test_dying_chain_decays_to_exact_zeros():
    """Every state of this chain is killed, so e^{tQ} u underflows to 0 at
    long times: no entry of the squared series cancels or turns NaN."""
    spec = single_basin(w_levels=(1.0, 0.5), v_levels=(1.5, 1.0))
    gen = discretize(spec, 3)
    assert gen.dim == 4 and (gen.kill > 0).all()
    u0 = CellFunction(2, 3, (0,), [[1.0, 0.0, 0.0, 0.0]])
    for t in (1e20, 1e50, 1e300):
        assert not _action_is_cheaper(-gen.Q.diagonal().min() * t, gen.dim)
        assert (solve(gen, u0, t).values == 0).all()


def test_dense_route_squares_past_the_float_range_of_L_t():
    """L t past the float range still takes finitely many squarings."""
    spec = single_basin(w_levels=(1e300, 1e300), v_levels=(1e300, 1e300))
    gen = discretize(spec, 3)
    assert float(-gen.Q.diagonal().min()) * 1e300 == math.inf
    out = solve(gen, CellFunction(2, 3, (0,), [[1.0, 0.0, 0.5, 0.5]]), 1e300)
    assert np.abs(out.values - 0.5).max() <= 1e-15


def test_compare_refuses_a_gap_that_is_not_finite(monkeypatch):
    """Should either side give a value that is not finite, the oracle names
    the time rather than report the gap."""
    spec = single_basin()
    datum = CellFunction(2, 2, (0,), [[1.0, 0.0]])
    broken = CellFunction(2, 2, (0,), [[math.inf, 0.0]])
    monkeypatch.setattr(tree, "solve", lambda gen, u0, t: broken)
    with pytest.raises(NumericError, match="oracle gap is not finite at t = 3"):
        tree.compare(spec, datum, [3.0])


def test_conservative_chain_at_late_time_takes_the_dense_route(monkeypatch):
    calls = []

    def recording(name, real):
        def stand_in(*args):
            calls.append(name)
            return real(*args)
        return stand_in

    # the dense route forms e^{tQ} with the exponential the spectral
    # solver shares; the action sums the series against the vector
    monkeypatch.setattr(tree, "exponential", recording("dense", tree.exponential))
    monkeypatch.setattr(tree, "_uniformized", recording("action", tree._uniformized))
    spec = balanced_two_basin(cross=0.75, levels=(0.5,))
    N = 7
    gen = discretize(spec, N)
    rng = np.random.default_rng(5)
    u0 = CellFunction(2, N, (0, 1), rng.uniform(0, 1, (2, 2 ** (N - 1))))
    out = solve(gen, u0, 1e6)
    assert calls == ["dense"]
    assert abs(out.integral() - u0.integral()) < 1e-9
    calls.clear()
    solve(gen, u0, 1.0)
    assert calls == ["action"]
    calls.clear()
    small = discretize(spec, 4)  # 16 states
    ones = CellFunction.constant(2, 4, [0, 1], 1.0)
    solve(small, ones, 1.0)
    assert calls == ["action"]
    calls.clear()
    out = solve(small, ones, 1e6)  # the action would take 1.3e6 matvecs
    assert calls == ["dense"]
    assert abs(out.integral() - ones.integral()) < 1e-9


def test_solve_never_forms_the_matrix_exponential():
    """The action holds one array the size of Q on a 1024-state chain,
    its jump matrix P; a dense expm holds about eight."""
    spec = balanced_two_basin(cross=0.5, levels=(1.0, 0.5))
    N = 10
    gen = discretize(spec, N)
    assert gen.dim == 1024
    u0 = CellFunction.constant(2, N, [0, 1], 1.0)
    tracemalloc.start()
    try:
        solve(gen, u0, 4.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * gen.Q.nbytes


def test_dense_route_holds_no_more_arrays_than_scipy_expm():
    """At its peak the dense route holds about four arrays the size of Q,
    scipy.linalg.expm about nine."""
    spec = balanced_two_basin(cross=0.5, levels=(1.0, 0.5))
    N = 8
    gen = discretize(spec, N)
    u0 = CellFunction.constant(2, N, [0, 1], 1.0)
    t = 1e6
    assert not _action_is_cheaper(-gen.Q.diagonal().min() * t, gen.dim)
    peaks = []
    for run in (lambda: solve(gen, u0, t), lambda: scipy.linalg.expm(gen.Q * t) @ u0.values.ravel()):
        run()  # first calls may allocate caches
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[0] <= 4.5 * gen.Q.nbytes
    assert peaks[0] <= peaks[1]


def poisson_tail(y, K):
    """sum_{k > K} e^{-y} y^k / k!, term by term in log space, to where the
    terms no longer count."""
    terms = []
    k = K + 1
    while True:
        term = math.exp(-y + k * math.log(y) - math.lgamma(k + 1))
        terms.append(term)
        if k > y and term < 1e-30 * terms[0]:
            return math.fsum(terms)
        k += 1


@pytest.mark.parametrize("y", np.geomspace(1e-8, tree._STEP_MEAN, 41))
def test_poisson_weights_stop_below_the_unit_roundoff(y):
    weights = tree._poisson_weights(y)
    K = len(weights) - 1
    assert poisson_tail(y, K) < 2.0**-53
    # the weights themselves, to 50 digits; lgamma would err by 1e-12 at y = 700
    with decimal.localcontext(prec=50):
        exact = [(-decimal.Decimal(y)).exp()]
        for k in range(1, K + 1):
            exact.append(exact[-1] * decimal.Decimal(y) / k)
        assert max(abs(decimal.Decimal(w) / x - 1) for w, x in zip(weights, exact)) < 1e-13


def random_generator(p, rates, N, kill, seed):
    """A chain whose basins run at their own rate decade: within basin b
    every kernel level and every cross rate out of b is scaled by rates[b].
    Without kill, gains equal losses and every row of Q sums to 0."""
    rng = np.random.default_rng(seed)
    basins = tuple(range(len(rates)))
    w = {b: RadialKernel(p, tuple(rng.uniform(0.5, 1.5, N - 1) * rates[b])) for b in basins}
    grow = (lambda: rng.uniform(1.1, 1.5)) if kill else (lambda: 1.0)
    v = {b: RadialKernel(p, tuple(x * grow() for x in w[b].levels)) for b in basins}
    lam = {(a, b): rng.uniform(0.2, 1.0) * rates[b] for a in basins for b in basins if a != b}
    mu = {(b, a): x * grow() for (a, b), x in lam.items()}
    spec = NetworkSpec(p=p, basins=basins, cross_lambda=lam, cross_mu=mu,
                       w_kernels=w, v_kernels=v)
    return discretize(spec, N)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3]), kill=st.booleans(), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_action_matches_the_dense_exponential(p, kill, seed, data):
    """With basin rates up to six decades apart, the action matches the
    dense exponential at every L t it is taken for, up to 700 below 512
    states, and keeps a datum >= 0 non-negative exactly. Basin digits lie
    below p, so p = 2 has at most two basins."""
    decades = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=p), label="decades")
    N = data.draw(st.integers(2, 5 if p == 2 else 4), label="N")
    gen = random_generator(p, [10.0**d for d in decades], N, kill, seed)
    rate = -gen.Q.diagonal().min()
    rng = np.random.default_rng(seed)
    u0 = CellFunction(p, N, tuple(range(len(decades))),
                      rng.uniform(-1.0, 1.0, (len(decades), p ** (N - 1))))
    u = u0.values.ravel()
    positive = CellFunction(p, N, u0.basins, np.abs(u0.values))
    drawn = data.draw(st.floats(0.0, tree._STEP_MEAN), label="rate_t")
    for rate_t in (0.0, 1e-6, 0.01, 1.0, 30.0, 300.0, tree._STEP_MEAN, drawn):
        assert tree._action_is_cheaper(rate_t, gen.dim)
        t = rate_t / rate
        exact = extended_expm(gen.Q, t) @ u
        out = solve(gen, u0, t).values.ravel()
        assert np.abs(out - exact).max() <= 1e-12 * np.abs(u).max()
        assert solve(gen, positive, t).values.min() >= 0
    # past one step of Poisson mean the sum is split; chains of 512 states
    # and more take such actions
    t = 3.5 * tree._STEP_MEAN / rate
    exact = extended_expm(gen.Q, t) @ u
    assert np.abs(tree._uniformized(gen.Q, rate, t, u) - exact).max() <= 1e-12 * np.abs(u).max()
