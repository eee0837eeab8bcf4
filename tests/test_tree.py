import decimal
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ultranet import tree
from ultranet.errors import NumericError, UsageError, ValidationError
from ultranet.kernels import RadialKernel
from ultranet.montecarlo import SimConfig, simulate
from ultranet.network import NetworkSpec, aggregate_rates
from ultranet.padic import CellAddress, enumerate_cells
from ultranet.tree import discretize, solve
from ultranet.uniformization import _TERMS, _reaches_a_kill, _squarings, _weights, exponential
from ultranet.wavelets import CellFunction, WaveletIndex, enumerate_wavelets

from chain_reference import dense_chain, dense_chain_builders, dense_element
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
    assert np.allclose(dense_chain(gen)[0], [[-0.25, 0.25], [0.25, -0.25]], atol=1e-15)
    assert np.allclose(gen.kill, [0.0])
    assert (gen.p, gen.N, gen.basins) == (2, 2, (0,))


def test_discretize_pure_killing():
    spec = single_basin(w_levels=(0.0,), v_levels=(1.0,))
    gen = discretize(spec, 2)
    assert np.allclose(dense_chain(gen)[0], [[-0.25, 0.0], [0.0, -0.25]])
    assert np.allclose(gen.kill, [0.25])


def test_discretize_balanced_two_basin_rows_sum_to_zero():
    gen = discretize(balanced_two_basin(), 2)
    assert gen.dim == 4
    Q = dense_chain(gen)[0]
    assert np.allclose(Q.sum(axis=1), 0.0, atol=1e-12)
    assert np.allclose(np.diag(Q), -0.75)
    # cross rates are constant across basin pairs
    assert np.allclose(Q[0, 2:], 0.25)


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
    Q = dense_chain(gen)[0]
    assert np.abs(Q.sum(axis=1) + np.repeat(gen.kill, gen.per_basin)).max() < 1e-12
    off = Q - np.diag(np.diag(Q))
    assert off.min() >= 0


def test_discretize_depth_guard_and_cap():
    """discretize refuses a depth that is not exact, and no size: the
    level rates take O(basins * N), and no module forms a dense array."""
    with pytest.raises(UsageError, match="not be exact"):
        discretize(single_basin(w_levels=(1.0, 0.5)), 2)
    gen = discretize(single_basin(), 14)
    assert gen.dim == 8192 and gen.within.shape == (1, 13)
    assert dense_chain_builders() == []


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
    Q = dense_chain(discretize(spec, N))[0]
    kernel = RadialKernel(p, levels)
    for idx in enumerate_wavelets(p, N - 1):
        vec = np.array(
            [eval_wavelet(idx, CellAddress(0, d), p) for d in enumerate_cells(p, N)],
            dtype=complex,
        )
        lam = float(eigenvalue(kernel, idx.r))
        assert np.abs(Q @ vec - lam * vec).max() < 1e-10


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
    Q = dense_chain(gen)[0]
    assert not np.allclose(Q, Q.T)
    return gen


def stationary(gen):
    """The stationary law pi of a conservative chain: pi Q = 0, sum 1."""
    A = dense_chain(gen)[0].T.copy()
    A[-1] = 1.0  # one balance equation replaced by the normalization
    return np.linalg.solve(A, np.eye(gen.dim)[-1])


@pytest.mark.parametrize("conservative", [True, False])
@pytest.mark.parametrize("p, basins, N", [(2, (0, 1), 7), (3, (0, 1, 2), 4)])
def test_solve_matches_the_dense_exponential_on_both_routes(p, basins, N, conservative):
    """Both of the package's exponentials, on the chain: the level one
    behind solve, and uniformization.exponential of the dense Q, which
    forms the spectral solver's basin means. The reference is the
    extended-precision exponential, except for a conservative chain at
    t = 1e6: there its squarings carry the roundoff into the stationary
    mean (3.8e-12 max|u| off on the p = 2 chain, and scipy's float64 expm
    4.9e-11), so the reference is the limit pi . u."""
    gen = random_chain(p, basins, N, conservative, seed=p + 10 * conservative)
    rng = np.random.default_rng(3)
    u0 = CellFunction(p, N, basins, rng.uniform(-1.0, 1.0, (len(basins), p ** (N - 1))))
    u = u0.values.ravel()
    times = [1e-3, 0.1, 1.0, 4.0, 10.0, 30.0, 100.0, 1e3, 1e6]
    Q, kill = dense_chain(gen)
    dense = exponential(Q, kill, np.array(times)) @ u
    for t, by_dense in zip(times, dense):
        if conservative and t == 1e6:
            exact = stationary(gen) @ u
        else:
            exact = (extended_expm(Q, t) @ u).astype(float)
        out = solve(gen, u0, t)
        assert out.basins == u0.basins and out.values.shape == u0.values.shape
        assert np.abs(out.values.ravel() - exact).max() <= 1e-12 * np.abs(u).max()
        assert np.abs(by_dense - exact).max() <= 1e-12 * np.abs(u).max()


@pytest.mark.parametrize("p, basins, N", [(2, (0, 1), 7), (3, (0, 1, 2), 4)])
def test_solve_matches_the_dense_exponential_where_a_basin_grows(p, basins, N):
    """A negative kill makes basin 0 grow, so the series is that of Q less
    the growth times I, scaled back by e^{growth t / 2^s} (the shift of
    uniformization.drive), which no derived chain reaches."""
    gen = random_chain(p, basins, N, False, seed=p)
    gen = replace(gen, kill=np.concatenate([[-0.3], gen.kill[1:]]))
    assert gen.series[1] > 0
    rng = np.random.default_rng(3)
    u0 = CellFunction(p, N, basins, rng.uniform(-1.0, 1.0, (len(basins), p ** (N - 1))))
    Q = dense_chain(gen)[0]
    for t in [1e-3, 0.1, 1.0, 10.0, 100.0]:
        exact = (extended_expm(Q, t) @ u0.values.ravel()).astype(float)
        out = solve(gen, u0, t).values.ravel()
        assert np.abs(out - exact).max() <= 1e-12 * np.abs(exact).max()


@pytest.mark.parametrize("p, basins, N", [(2, (0, 1), 7), (3, (0, 1, 2), 4)])
def test_solve_reaches_the_stationary_limit_of_a_conservative_chain(p, basins, N):
    """At t = 1e6 the conservative chains have long mixed: e^{tQ} u is
    (pi . u) in every state, for pi the stationary law (pi Q = 0, sum 1)."""
    gen = random_chain(p, basins, N, True, seed=p + 10)
    A = dense_chain(gen)[0].T.copy()
    A[-1] = 1.0  # one balance equation replaced by the normalization
    pi = np.linalg.solve(A, np.eye(gen.dim)[-1])
    rng = np.random.default_rng(3)
    u0 = CellFunction(p, N, basins, rng.uniform(-1.0, 1.0, (len(basins), p ** (N - 1))))
    u = u0.values.ravel()
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
        assert (solve(gen, u0, t).values == 0).all()


def test_solve_squares_past_the_float_range_of_L_t():
    """L t past the float range still takes finitely many squarings."""
    spec = single_basin(w_levels=(1e300, 1e300), v_levels=(1e300, 1e300))
    gen = discretize(spec, 3)
    assert gen.rate * 1e300 == math.inf
    out = solve(gen, CellFunction(2, 3, (0,), [[1.0, 0.0, 0.5, 0.5]]), 1e300)
    assert np.abs(out.values - 0.5).max() <= 1e-15


@pytest.mark.parametrize("conservative", [True, False])
def test_squarings_stop_at_an_exact_fixed_point(conservative):
    """Once a squaring returns its argument bit for bit, every later one
    would too. At t = 1e300 both exponentials, the dense one and the
    level one, reach such a point long before their last squaring, and
    give bit for bit what squaring all the way through gives: the series
    at t / 2^s, then s squarings, each rescaling the closed rows."""
    gen = random_chain(2, (0, 1), 4, conservative, seed=2 + 10 * conservative)
    t = 1e300
    s = int(_squarings(gen.rate, t))
    tau = math.ldexp(t, -s)
    Q, kill = dense_chain(gen)
    closed = ~_reaches_a_kill(Q, kill)
    product, sums = tree._level_algebra(gen)
    closed_basins = ~_reaches_a_kill(gen.cross, gen.kill)

    def dense_square(E):
        E = E @ E
        E /= np.where(closed, E.sum(axis=2), 1.0)[:, :, None]
        return E

    def level_square(E):
        E = product(E, E)
        scale = np.where(closed_basins, sums(E), 1.0)[:, None]
        return E[0] / scale, E[1] / scale

    for through, square, late in [
        (exponential(Q, kill, np.array([tau])), dense_square, exponential(Q, kill, np.array([t]))),
        (tree._level_exponential(gen, tau), level_square, tree._level_exponential(gen, t)),
    ]:
        fixed = None
        for j in range(s):
            after = square(through)
            if fixed is None and all(np.array_equal(x, y) for x, y in zip(after, through)):
                fixed = j
            through = after
        assert fixed < s // 2
        assert all(x.tobytes() == y.tobytes() for x, y in zip(late, through))


def test_compare_refuses_a_gap_that_is_not_finite(monkeypatch):
    """Should either side give a value that is not finite, the oracle names
    the time rather than report the gap."""
    spec = single_basin()
    datum = CellFunction(2, 2, (0,), [[1.0, 0.0]])
    broken = CellFunction(2, 2, (0,), [[math.inf, 0.0]])
    monkeypatch.setattr(tree, "solve", lambda gen, u0, t: broken)
    with pytest.raises(NumericError, match="oracle gap is not finite at t = 3"):
        tree.compare(spec, datum, [3.0])


def test_compare_forms_the_series_powers_once(monkeypatch):
    """The powers of P depend on the chain alone: a compare over k times
    takes the _TERMS - 2 products of the series once, and then only each
    time's squarings, with the gaps each time gives alone."""
    products = []
    algebra = tree._level_algebra

    def counting(gen):
        product, sums = algebra(gen)
        return (lambda E, F: products.append(1) or product(E, F)), sums

    monkeypatch.setattr(tree, "_level_algebra", counting)
    spec = balanced_two_basin(cross=0.75, levels=(0.5,))
    datum = CellFunction(2, 4, (0, 1), np.random.default_rng(3).uniform(0, 1, (2, 8)))
    times = [0.1, 1.0, 10.0, 1e3]
    alone, squarings = [], []
    for t in times:
        products.clear()
        alone += tree.compare(spec, datum, [t])
        squarings.append(len(products) - (_TERMS - 2))
    products.clear()
    assert tree.compare(spec, datum, times) == alone
    assert len(products) == _TERMS - 2 + sum(squarings)
    assert squarings[-1] > 0


def test_conservative_chain_at_late_time_keeps_its_mass():
    """One route at every time: on 128 and 16 states, at t = 1 and at
    t = 1e6 (where a uniformized action would take 1.3e6 products with P),
    solve forms e^{tQ} in the level algebra, and a conservative chain
    keeps its mass."""
    spec = balanced_two_basin(cross=0.75, levels=(0.5,))
    rng = np.random.default_rng(5)
    for N in (7, 4):
        gen = discretize(spec, N)
        for u0 in (CellFunction(2, N, (0, 1), rng.uniform(0, 1, (2, 2 ** (N - 1)))),
                   CellFunction.constant(2, N, [0, 1], 1.0)):
            for t in (1.0, 1e6):
                out = solve(gen, u0, t)
                assert abs(out.integral() - u0.integral()) < 1e-9


def test_solve_never_forms_the_matrix_exponential():
    """solve on a 1024-state chain forms no dense array, at short or late
    times: e^{tQ} is formed in the level algebra, O(basins^2 + basins N)
    floats, and applied by block sums, which hold a few vectors of the
    chain's size (about three). A dense P alone would be 1024 of them, and
    a dense expm about eight times that."""
    spec = balanced_two_basin(cross=0.5, levels=(1.0, 0.5))
    N = 10
    gen = discretize(spec, N)
    assert gen.dim == 1024
    u0 = CellFunction.constant(2, N, [0, 1], 1.0)
    for t in (4.0, 1e6, 1e300):
        tracemalloc.start()
        try:
            solve(gen, u0, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * gen.dim * 8


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


def test_terms_hold_the_poisson_tail_below_the_unit_roundoff():
    """The series is summed at y = L t / 2^s < 1/2, and the Poisson tail
    grows with y: at y = 1/2 the tail past the _TERMS weights lies below
    2^-53, and past one weight fewer it would not."""
    assert poisson_tail(0.5, _TERMS - 1) < 2.0**-53 < poisson_tail(0.5, _TERMS - 2)


@pytest.mark.parametrize("y", np.geomspace(1e-8, 700.0, 41))
def test_poisson_weights_stop_below_the_unit_roundoff(y):
    """For L t = y, the series is summed at y / 2^s < 1/2, where the tail
    past its _TERMS weights lies below 2^-53, and each weight is right to
    1e-13 of itself."""
    scaled = math.ldexp(y, -int(_squarings(1.0, y)))
    assert scaled < 0.5
    assert poisson_tail(scaled, _TERMS - 1) < 2.0**-53
    weights = _weights(np.array([scaled]))[0]
    # the weights themselves, to 50 digits
    with decimal.localcontext(prec=50):
        exact = [(-decimal.Decimal(scaled)).exp()]
        for k in range(1, _TERMS):
            exact.append(exact[-1] * decimal.Decimal(scaled) / k)
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
    """With basin rates up to six decades apart, e^{tQ} u from solve
    matches the extended-precision exponential for L t from 1e-3 to 1e3
    (L the largest exit rate), and keeps a datum >= 0 non-negative
    exactly. A conservative chain (no kill) also holds its stationary
    limit pi . u at L t from 1e12, where the slowest of these chains has
    long mixed, up to 1e300. Past L t = 1e3 the reference itself drifts:
    its squarings carry its roundoff into the stationary mean. Basin
    digits lie below p, so p = 2 has at most two basins."""
    decades = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=p), label="decades")
    N = data.draw(st.integers(2, 5 if p == 2 else 4), label="N")
    gen = random_generator(p, [10.0**d for d in decades], N, kill, seed)
    Q = dense_chain(gen)[0]
    rng = np.random.default_rng(seed)
    u0 = CellFunction(p, N, tuple(range(len(decades))),
                      rng.uniform(-1.0, 1.0, (len(decades), p ** (N - 1))))
    u = u0.values.ravel()
    positive = CellFunction(p, N, u0.basins, np.abs(u0.values))
    t = 10.0 ** data.draw(st.floats(-3.0, 3.0), label="log10_Lt") / gen.rate
    exact = extended_expm(Q, t) @ u
    out = solve(gen, u0, t).values.ravel()
    assert np.abs(out - exact).max() <= 1e-12 * np.abs(u).max()
    assert solve(gen, positive, t).values.min() >= 0
    if not kill:
        late = 10.0 ** data.draw(st.floats(12.0, 300.0), label="log10_late_Lt") / gen.rate
        out = solve(gen, u0, late).values.ravel()
        assert np.abs(out - stationary(gen) @ u).max() <= 1e-12 * np.abs(u).max()


def test_discretize_holds_the_level_rates():
    """The level rates are the floats the dense assembly held: w_j p^-N
    within a basin, lambda p^-N across, and the sink per basin. The
    uniformization rate is the reference chain's largest exit rate bit for
    bit: both round the exact row sum once."""
    spec = NetworkSpec(
        p=3, basins=(0, 2),
        cross_lambda={(0, 2): 0.5, (2, 0): 0.25},
        cross_mu={(0, 2): 1.0, (2, 0): 0.75},
        w_kernels={0: RadialKernel(3, (1.0,)), 2: RadialKernel(3, (0.5, 0.1))},
        v_kernels={0: RadialKernel(3, (2.0,)), 2: RadialKernel(3, (0.5, 0.5))},
    )
    gen = discretize(spec, 4)
    weight = 3.0**-4
    assert gen.within.tolist() == [[1.0 * weight, 0.0, 0.0], [0.5 * weight, 0.1 * weight, 0.0]]
    assert gen.cross.tolist() == [[0.0, 0.5 * weight], [0.25 * weight, 0.0]]
    assert gen.kill.tolist() == aggregate_rates(spec).tolist()
    Q = dense_chain(gen)[0]
    assert gen.rate == -Q.diagonal().min()


# (p, basins, N) of level chains up to 729 states
LEVEL_SHAPES = [(2, b, N) for b in (1, 2) for N in range(2, 10)] + [
    (3, b, N) for b in (1, 2, 3) for N in range(2, 7)] + [
    (5, b, N) for b in (1, 2, 3) for N in range(2, 5)]


def level_rates(p, B, N, rng):
    """A chain of that shape, with level rates over six decades, zero
    levels, cross rates and kills."""
    scale = 10.0 ** rng.uniform(-3.0, 3.0, B)
    within = rng.uniform(0.0, 1.5, (B, N - 1)) * scale[:, None] * (rng.random((B, N - 1)) < 0.8)
    cross = rng.uniform(0.0, 1.0, (B, B)) * scale[None, :] * (rng.random((B, B)) < 0.8)
    np.fill_diagonal(cross, 0.0)
    kill = rng.uniform(0.0, 1.0, B) * (rng.random(B) < 0.5)
    return tree.DiscreteGenerator(p=p, N=N, basins=tuple(range(B)), within=within,
                                  cross=cross, kill=kill)


@st.composite
def level_chains(draw):
    """Two chains of one shape, both with some rate."""
    p, B, N = draw(st.sampled_from(LEVEL_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first, second = level_rates(p, B, N, rng), level_rates(p, B, N, rng)
    assume(first.rate > 0 and second.rate > 0)
    return first, second, rng


def jump_matrix(gen):
    """P = I + Q/L as an element (beta, c) of the level algebra, and as
    one dense array from the reference chain."""
    rate = gen.rate
    Q = dense_chain(gen)[0]
    P = Q / rate
    np.fill_diagonal(P, (rate + Q.diagonal()) / rate)
    return (gen.cross / rate, np.column_stack([gen.within / rate, (rate - gen.exits) / rate])), P


@settings(max_examples=60, deadline=None)
@given(chain=level_chains())
def test_level_product_matches_the_dense_product(chain):
    """The level algebra's product of two jump matrices matches their
    dense product P1 @ P2. Neither has a negative entry, so each entry of
    the dense product errs by at most dim half-ulps of itself, and the
    algebra's, which sums over levels and basins, by about N + basins
    more (Higham's gamma_n). P v by block sums matches the dense P v, and
    a v >= 0 gives E v >= 0 exactly. Each of the N - 1 levels rounds a
    block sum, a difference and the running total, so the error is a few
    ulps of max|v| per level (up to N = 10, at most 8 half-ulps were
    seen); the bound is 2 N ulps."""
    first, second, rng = chain
    (E1, P1), (E2, P2) = jump_matrix(first), jump_matrix(second)
    product, _ = tree._level_algebra(first)
    E = product(E1, E2)
    reference = P1 @ P2
    bound = (first.dim + first.N + len(first.basins) + 10) * 2.0**-53
    assert (np.abs(dense_element(first, *E) - reference) <= bound * reference).all()
    vectors = [
        rng.uniform(-1.0, 1.0, first.dim),
        rng.uniform(0.0, 1.0, first.dim) * 10.0 ** rng.uniform(-10.0, 10.0, first.dim),
        (rng.random(first.dim) < 0.1) * rng.uniform(0.0, 1.0, first.dim),
    ]
    for v in vectors:
        out = tree._apply(first, E1, v)
        assert np.abs(out - P1 @ v).max() <= 2 * first.N * 2.0**-52 * np.abs(v).max()
        if v.min() >= 0:
            assert out.min() >= 0 and tree._apply(first, E, v).min() >= 0


def test_oracle_on_a_9375_state_chain():
    """The deep_tree shape with p = 5, three basins and R = 5 has 9375
    states, whose dense chain matrix would take 703 MB; the oracle never
    forms it, at short times or at t = 1e12. The gap is
    within the usual bound, and the peak of compare, the spectral side
    included, is that of 16 vectors of the chain's size."""
    rng = np.random.default_rng(9)
    basins = (0, 1, 2)
    w = {b: RadialKernel(5, tuple(rng.uniform(0.5, 1.5, 3))) for b in basins}
    v = {b: RadialKernel(5, tuple(x * rng.uniform(1.1, 1.5) for x in w[b].levels))
         for b in basins}
    lam = {(a, b): rng.uniform(0.2, 1.0) for a in basins for b in basins if a != b}
    mu = {(b, a): 5 * x * rng.uniform(1.1, 1.5) for (a, b), x in lam.items()}
    spec = NetworkSpec(p=5, basins=basins, cross_lambda=lam, cross_mu=mu,
                       w_kernels=w, v_kernels=v)
    N = 6
    datum = CellFunction(5, N, basins, rng.uniform(0.0, 1.0, (3, 5 ** (N - 1))))
    assert discretize(spec, N).dim == 9375
    tracemalloc.start()
    try:
        gaps = tree.compare(spec, datum, [0.1, 1.0, 4.0, 1e12])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(gaps) <= 1e-8
    assert peak <= 16 * 9375 * 8
