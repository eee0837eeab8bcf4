"""End-to-end acceptance gate.

One test per shipped claim, each printing a single PASS line with its
headline number; run with -s to see them on a green suite.  Tolerances
and time budgets are part of the claims and are asserted, not logged.
"""

import math
import time
from dataclasses import replace

import numpy as np

from ultranet.binary import folding_tau, ivp2_datum
from ultranet.errors import ClassificationError
from ultranet.kernels import RadialKernel, symbol_value
from ultranet.montecarlo import SimConfig, simulate
from ultranet.network import NetworkSpec, aggregate_rates, build_basin_matrix, classify
from ultranet.padic import CellAddress, enumerate_cells
from ultranet.spectral import eval_density, evolve, init, matrix_exponential
from ultranet.tree import compare, discretize, solve
from ultranet.wavelets import (
    CellFunction,
    enumerate_wavelets,
    expand,
    wavelet_matrix,
)

from expm_reference import row_deficits
from two_basin_closed_form import (
    TwoBasinRates,
    two_basin_eigenvalues,
    two_basin_expm,
    two_basin_matrix,
)
from wavelet_reference import eigenvalue, eval_wavelet, reconstruct_all

SUITE_SEED = 20260819
SUITE_TIMES = (0.1, 1.0, 10.0)


def _random_spec(rng) -> NetworkSpec:
    """One admissible network: kernels dominated levelwise, cross gains
    dominated by both matching losses so any pairing convention holds."""
    p = int(rng.choice([2, 3, 5]))
    # basin labels are root digits, so p itself caps how many fit
    basins = tuple(range(int(rng.integers(1, min(3, p) + 1))))
    w, v = {}, {}
    for b in basins:
        n_levels = int(rng.integers(1, 3))
        vs = rng.uniform(0.2, 2.0, size=n_levels)
        ws = vs * rng.uniform(0.0, 1.0, size=n_levels)
        w[b] = RadialKernel(p, tuple(ws))
        v[b] = RadialKernel(p, tuple(vs))
    cross_mu, cross_lambda = {}, {}
    for a in basins:
        for b in basins:
            if a < b and rng.uniform() < 0.7:
                mu_ab = float(rng.uniform(0.1, 1.5))
                mu_ba = float(rng.uniform(0.1, 1.5))
                cross_mu[(a, b)] = mu_ab
                cross_mu[(b, a)] = mu_ba
                cap = min(mu_ab, mu_ba)
                cross_lambda[(a, b)] = cap * float(rng.uniform(0.0, 1.0))
                cross_lambda[(b, a)] = cap * float(rng.uniform(0.0, 1.0))
    return NetworkSpec(
        p=p,
        basins=basins,
        cross_lambda=cross_lambda,
        cross_mu=cross_mu,
        w_kernels=w,
        v_kernels=v,
    )


def _spec_depth(spec: NetworkSpec) -> int:
    j_max = max(
        max(k.j_max for k in spec.w_kernels.values()),
        max(k.j_max for k in spec.v_kernels.values()),
    )
    return j_max + 2  # R = J_max + 1, cells one level finer


def _random_datum(rng, spec: NetworkSpec, depth: int) -> CellFunction:
    n = spec.p ** (depth - 1)
    return CellFunction(
        spec.p, depth, spec.basins, [rng.uniform(0.0, 1.0, size=n) for b in spec.basins]
    )


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(SUITE_SEED)
    worst = 0.0
    for _ in range(50):
        spec = _random_spec(rng)
        depth = _spec_depth(spec)
        datum = _random_datum(rng, spec, depth)
        gaps = compare(spec, datum, SUITE_TIMES)
        worst = max(worst, max(gaps))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed <= 30.0
    print(f"criterion 1 oracle equivalence: PASS (worst gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_wavelet_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    for p in (2, 3, 5):
        for R in (1, 2, 3):
            depth = R + 1
            n_cells = p ** (depth - 1)
            W = wavelet_matrix(p, R, depth)
            assert W.shape[0] == p**R - 1
            basis = np.vstack([np.full(n_cells, p**0.5), W])
            gram = basis @ basis.conj().T * p ** (-depth)
            assert np.abs(gram - np.eye(len(basis))).max() <= 1e-12
            means = W.sum(axis=1) * p ** (-depth)
            assert np.abs(means).max() <= 1e-14
            f = CellFunction(p, depth, (0,), [rng.uniform(-1.0, 2.0, size=n_cells)])
            back = reconstruct_all(expand(f, R), depth)
            assert np.abs(back.values - f.values).max() <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    print(f"criterion 2 wavelet suite: PASS ({elapsed:.1f}s)")


def test_criterion_3_eigenrelation():
    start = time.perf_counter()
    worst = 0.0
    for p, levels in ((2, (1.0, 0.5)), (3, (0.7, 0.3)), (5, (1.5,))):
        k = RadialKernel(p, levels)
        # equal gain and loss kernels make the cell-chain generator act
        # on each wavelet exactly like the jump operator alone
        spec = NetworkSpec(
            p=p, basins=(0,), cross_lambda={}, cross_mu={},
            w_kernels={0: k}, v_kernels={0: k},
        )
        R = k.j_max + 1
        gen = discretize(spec, R + 1)
        for idx in enumerate_wavelets(p, R):
            psi = np.array([
                eval_wavelet(idx, CellAddress(0, digits), p)
                for digits in enumerate_cells(p, R + 1)
            ])
            gap = np.abs(gen.Q @ psi - float(eigenvalue(k, idx.r)) * psi).max()
            worst = max(worst, float(gap))
    assert worst <= 1e-10

    rng = np.random.default_rng(3)
    for i in range(100):
        p = (2, 3, 5)[i % 3]
        w1 = float(rng.uniform(0.01, 10.0))
        assert float(eigenvalue(RadialKernel(p, (w1,)), -1)) == -w1 / p
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    print(f"criterion 3 eigenrelation: PASS (worst gap {worst:.2e}, {elapsed:.1f}s)")


def _two_basin(p, w_levels, cross_lam, cross_mu):
    k = RadialKernel(p, w_levels)
    return NetworkSpec(
        p=p, basins=(0, 1),
        cross_lambda={(0, 1): cross_lam, (1, 0): cross_lam},
        cross_mu={(0, 1): cross_mu, (1, 0): cross_mu},
        w_kernels={0: k, 1: k}, v_kernels={0: k, 1: k},
    )


def test_criterion_4_classification_regimes():
    # balanced everywhere: dyadic rates so the zero row sums are exact
    balanced = _two_basin(2, (1.0,), 1.0, 2.0)
    result = classify(balanced, exact=True)
    assert result.g1 == (0, 1) and result.is_conservative_matrix
    lam = build_basin_matrix(replace(balanced, convention="paper"))
    for row in lam:
        assert row.sum() == 0.0

    # strict loss everywhere: spectrum in the open left half plane and
    # the semigroup annihilates every vector at long times
    dying = _two_basin(2, (1.0,), 0.25, 4.0)
    result = classify(dying, exact=True)
    assert result.g2 == (0, 1) and result.dies_at_infinity
    assert all(m > d for m, d in zip(dying.loss_total, dying.gain_diag))
    lam = build_basin_matrix(replace(dying, convention="paper"))
    eigs = np.linalg.eigvals(lam)
    assert eigs.real.max() < 0.0
    t_long = 50.0 / np.abs(eigs.real).min()
    for vec in (np.ones(2), np.array([1.0, 0.0]), np.array([0.3, 0.9])):
        assert np.abs(matrix_exponential(lam, row_deficits(lam), t_long) @ vec).max() <= 1e-8

    # one basin of each kind, found by a small dyadic sweep
    mixed = None
    for mu_01 in (0.5, 1.0, 2.0, 4.0):
        for mu_10 in (0.5, 1.0, 2.0, 4.0):
            k = RadialKernel(2, (1.0,))
            candidate = NetworkSpec(
                p=2, basins=(0, 1),
                cross_lambda={(0, 1): 0.25, (1, 0): 0.25},
                cross_mu={(0, 1): mu_01, (1, 0): mu_10},
                w_kernels={0: k, 1: k}, v_kernels={0: k, 1: k},
            )
            try:
                result = classify(candidate, exact=True)
            except ClassificationError:
                continue
            if len(result.g1) == 1 and len(result.g2) == 1:
                mixed = candidate
                break
        if mixed:
            break
    assert mixed is not None
    result = classify(mixed, exact=True)
    lam = build_basin_matrix(replace(mixed, convention="paper"))
    sums = lam.sum(axis=1)
    assert sums.max() <= 1e-12 and sums.min() < 0.0
    assert result.is_m_matrix
    inv = np.linalg.inv(-lam)
    assert inv.min() >= -1e-12
    print("criterion 4 classification regimes: PASS")


def test_criterion_5_conservation_and_bounds():
    # equal gains and losses in every channel: the sink vanishes and the
    # derived evolution moves mass around without creating or losing any
    rng = np.random.default_rng(5)
    for p, levels, c in ((2, (1.0,), 0.5), (3, (0.5, 0.25), 1.0), (5, (2.0,), 0.25)):
        k = RadialKernel(p, levels)
        spec = NetworkSpec(
            p=p, basins=(0, 1),
            cross_lambda={(0, 1): c, (1, 0): c},
            cross_mu={(0, 1): c, (1, 0): c},
            w_kernels={0: k, 1: k}, v_kernels={0: k, 1: k},
        )
        assert np.abs(aggregate_rates(spec)).max() == 0.0
        depth = _spec_depth(spec)
        datum = _random_datum(rng, spec, depth)
        state = init(spec, datum)
        total0 = eval_density(state).integral()
        for t in np.linspace(0.0, 20.0, 11):
            assert abs(eval_density(state, t).integral() - total0) <= 1e-9

    # Feller bound over the criterion-1 suite, same seed, same draws
    rng = np.random.default_rng(SUITE_SEED)
    high = 0.0
    for _ in range(50):
        spec = _random_spec(rng)
        depth = _spec_depth(spec)
        datum = _random_datum(rng, spec, depth)
        state = init(spec, datum)
        for t in SUITE_TIMES:
            out = eval_density(state, t)
            high = max(high, out.values.max())
    assert high <= 1.0 + 1e-9
    print(f"criterion 5 conservation and bounds: PASS (sup {high:.12f})")


def test_criterion_6_fast_mode_decay():
    p = 2
    w = RadialKernel(p, (1.0, 0.5))
    v = RadialKernel(p, (1.25, 0.75))
    spec = NetworkSpec(
        p=p, basins=(0, 1),
        cross_lambda={(0, 1): 0.5, (1, 0): 0.5},
        cross_mu={(0, 1): 1.0, (1, 0): 1.0},
        w_kernels={0: w, 1: w}, v_kernels={0: v, 1: v},
    )
    R = 3
    rng = np.random.default_rng(6)
    datum = _random_datum(rng, spec, R + 1)
    state = init(spec, datum)
    loss_total = {b: float(m) for b, m in zip(spec.basins, spec.loss_total)}
    ts = np.linspace(0.0, 5.0, 11)
    order = enumerate_wavelets(p, R)
    worst = 0.0
    for row, b in enumerate(spec.basins):
        history = np.array([expand(eval_density(evolve(state, t)), R).coeffs[row] for t in ts])
        for i, idx in enumerate(order):
            assert abs(history[0, i]) > 0.0
            slope = np.polyfit(ts, np.log(np.abs(history[:, i])), 1)[0]
            expected = symbol_value(spec.w_kernels[b], idx.r) - loss_total[b] / p
            worst = max(worst, abs(slope - expected))
    assert worst <= 1e-9
    print(f"criterion 6 fast mode decay: PASS (worst slope gap {worst:.2e})")


def test_criterion_7_binary_model(demo_scenario):
    start = time.perf_counter()
    cases = (
        TwoBasinRates(1.0, 2.0, 2.0),
        TwoBasinRates(0.5, 3.0, 1.25),
        TwoBasinRates(2.0, 2.0, 2.0),
    )
    for g in cases:
        M = two_basin_matrix(g)
        for t in (0.0, 0.5, 1.0, 5.0):
            gap = np.abs(two_basin_expm(g, t) - matrix_exponential(M, row_deficits(M), t)).max()
            assert gap <= 1e-10
        lo, hi = two_basin_eigenvalues(g)
        assert abs((lo + hi) - np.trace(M)) <= 1e-12
        assert abs(lo * hi - np.linalg.det(M)) <= 1e-12

    scenario = demo_scenario
    p = scenario.spec.p
    alpha, beta, gamma = scenario.coupling, scenario.loss_u, scenario.loss_n
    A = scenario.A
    datum = ivp2_datum(scenario)
    avg_u, avg_n = (datum.basin_integral(b) for b in scenario.spec.basins)
    assert abs(avg_u - (A - beta + gamma) / (2 * A * p)) <= 1e-12
    assert abs(avg_n - alpha / (A * p)) <= 1e-12

    assert scenario.spec.convention == "paper"
    report = folding_tau(scenario)
    assert math.isfinite(report.tau_numeric) and report.tau_numeric > 0
    assert report.crossing.crossing_cell.basin == scenario.spec.basins[1]
    assert math.isfinite(report.time_constant_chain)
    assert math.isfinite(report.time_constant_mode)
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    print(
        "criterion 7 binary model: PASS "
        f"(tau {report.tau_numeric:.6f}, {elapsed:.1f}s)"
    )


def test_criterion_8_monte_carlo():
    start = time.perf_counter()
    k = RadialKernel(2, (1.0,))
    spec = NetworkSpec(
        p=2, basins=(0, 1),
        cross_lambda={(0, 1): 0.5, (1, 0): 0.25},
        cross_mu={(0, 1): 1.0, (1, 0): 1.5},
        w_kernels={0: k, 1: k}, v_kernels={0: k, 1: k},
    )
    gen = discretize(spec, 2)
    assert gen.dim <= 8
    u0 = CellFunction(2, 2, (0, 1), [[0.9, 0.1], [0.45, 0.7]])
    cfg = SimConfig(
        n_paths=100_000,
        seed=SUITE_SEED,
        record_times=(0.3, 0.9, 1.8),
    )
    result = simulate(gen, u0, cfg)
    for j, t in enumerate(cfg.record_times):
        exact = solve(gen, u0, t)
        gap = np.abs(result.estimates[j] - exact.values.ravel())
        assert (gap <= 3.0 * result.stderrs[j] + 1e-12).all()

    again = simulate(gen, u0, cfg)
    threaded = simulate(gen, u0, SimConfig(
        n_paths=cfg.n_paths, seed=cfg.seed,
        record_times=cfg.record_times, threads=4,
    ))
    for other in (again, threaded):
        assert np.array_equal(result.estimates, other.estimates)
        assert np.array_equal(result.stderrs, other.stderrs)
        assert np.array_equal(result.n_alive, other.n_alive)
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    print(f"criterion 8 monte carlo: PASS ({elapsed:.1f}s)")
