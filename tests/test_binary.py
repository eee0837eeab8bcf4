import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ultranet.binary import FoldingScenario, bump_wavelet, folding_tau, ivp2_datum
from ultranet.errors import ClassificationError, UsageError, ValidationError
from ultranet.kernels import RadialKernel
from ultranet.network import NetworkSpec, classify
from ultranet.padic import CellAddress, enumerate_cells
from ultranet.spectral import matrix_exponential

from expm_reference import row_deficits
from two_basin_closed_form import (
    TwoBasinRates,
    two_basin_eigenvalues,
    two_basin_expm,
    two_basin_matrix,
)
from wavelet_reference import eval_wavelet


# ---------------------------------------------------------------- 2x2


def test_params_validation():
    with pytest.raises(UsageError):
        TwoBasinRates(alpha=0.0, beta=1.0, gamma=1.0)
    with pytest.raises(UsageError):
        TwoBasinRates(alpha=2.0, beta=1.0, gamma=3.0)
    with pytest.raises(UsageError):
        TwoBasinRates(alpha=2.0, beta=3.0, gamma=1.0)
    assert TwoBasinRates(alpha=1.0, beta=2.0, gamma=2.0).A == 2.0


def test_eigenvalues_frozen():
    assert two_basin_eigenvalues(TwoBasinRates(1.0, 2.0, 2.0)) == (-3.0, -1.0)
    lo, hi = two_basin_eigenvalues(TwoBasinRates(0.7, 0.7, 0.7))
    assert (lo, hi) == (-1.4, 0.0)
    g = TwoBasinRates(1.0, 3.0, 1.0)
    assert g.A == pytest.approx(math.sqrt(8))
    lo, hi = two_basin_eigenvalues(g)
    assert lo == pytest.approx(-(4 + math.sqrt(8)) / 2)
    assert hi == pytest.approx((math.sqrt(8) - 4) / 2)


def test_eigenvalues_match_trace_and_det():
    for g in (TwoBasinRates(1.0, 2.0, 2.0), TwoBasinRates(0.5, 3.0, 1.25)):
        lo, hi = two_basin_eigenvalues(g)
        M = two_basin_matrix(g)
        assert abs(lo + hi - np.trace(M)) < 1e-12
        assert abs(lo * hi - np.linalg.det(M)) < 1e-12
        assert hi <= 0


def test_expm_identity_at_zero():
    g = TwoBasinRates(1.0, 2.0, 2.0)
    assert np.abs(two_basin_expm(g, 0.0) - np.eye(2)).max() < 1e-15
    with pytest.raises(UsageError):
        two_basin_expm(g, -1.0)


def test_expm_matches_generic():
    g = TwoBasinRates(1.0, 2.0, 2.0)
    for t in (0.0, 0.5, 1.0, 5.0):
        M = two_basin_matrix(g)
        generic = matrix_exponential(M, row_deficits(M), t)
        assert np.abs(two_basin_expm(g, t) - generic).max() < 1e-10


def test_expm_semigroup():
    g = TwoBasinRates(0.5, 1.5, 2.5)
    a = two_basin_expm(g, 0.8) @ two_basin_expm(g, 1.4)
    b = two_basin_expm(g, 2.2)
    assert np.abs(a - b).max() < 1e-10


# ---------------------------------------------------------------- scenario


def test_demo_mapping_frozen(demo_scenario):
    s = demo_scenario
    assert s.coupling == 5.0
    assert s.loss_u == 2.5
    assert s.loss_n == 2.5
    assert s.A == 10.0


def test_scenario_validation(demo_scenario):
    s = demo_scenario
    with pytest.raises(ValidationError, match="exceed 1"):
        replace(s, amplitude=0.6)
    with pytest.raises(ValidationError, match="r must be"):
        replace(s, r=-1)
    with pytest.raises(ValidationError, match="threshold"):
        replace(s, threshold=0.0)
    lop = dict(s.spec.cross_lambda)
    lop[(0, 1)] = 4.0
    with pytest.raises(ValidationError, match="equal"):
        replace(s, spec=replace(s.spec, cross_lambda=lop))


def test_scenario_rejects_negative_trough():
    # uneven losses pull coupling/A under 1/2, so a large amplitude dips
    # below zero at the trough while the peak still clears the 1-check
    spec = NetworkSpec(
        p=2, basins=(0, 1),
        cross_lambda={(0, 1): 1.0, (1, 0): 1.0},
        cross_mu={(0, 1): 1.0, (1, 0): 1.0},
        w_kernels={0: RadialKernel(2, (0.5,)), 1: RadialKernel(2, (1.0,))},
        v_kernels={0: RadialKernel(2, (4.0,)), 1: RadialKernel(2, (1.0,))},
    )
    with pytest.raises(ValidationError, match="below 0"):
        FoldingScenario(spec=spec, r=-3, amplitude=0.5)
    FoldingScenario(spec=spec, r=-3, amplitude=0.4)


def test_bump_phase_range_by_enumeration():
    for p, r in ((2, -3), (3, -2)):
        top = 1 - Fraction(1, p ** (-r))
        seen = set()
        q = p ** (1 - r)
        for digits in enumerate_cells(p, 1 - r):
            # the character exponent {p^{r-1} x}_p of the within-basin x
            x = sum(d * p**i for i, d in enumerate(digits, start=1))
            phase = Fraction(x % q, q)
            assert 0 <= phase <= top
            seen.add(phase)
        assert max(seen) == top


def test_datum_frozen_values(demo_scenario):
    s = demo_scenario
    datum = ivp2_datum(s)
    assert datum.depth == 5
    assert np.allclose(datum.values[0], 0.5)
    n_vals = dict(zip(enumerate_cells(2, 5), datum.values[1]))
    assert n_vals[(0, 0, 0, 0)] == pytest.approx(0.9, abs=1e-15)
    assert n_vals[(0, 0, 0, 1)] == pytest.approx(0.1, abs=1e-15)
    assert n_vals[(1, 0, 0, 0)] == pytest.approx(0.5, abs=1e-15)
    assert datum.values[1].min() >= 0 and datum.values[1].max() <= 1
    with pytest.raises(UsageError, match="depth"):
        ivp2_datum(s, depth=4)


def per_cell_ivp2(scenario, depth):
    """The bump datum cell by cell through eval_wavelet: the reference
    for the block arithmetic of ivp2_datum."""
    p = scenario.spec.p
    A = scenario.A
    flat_u = (A - scenario.loss_u + scenario.loss_n) / (2 * A)
    flat_n = scenario.coupling / A
    idx = bump_wavelet(scenario)
    coeff = scenario.amplitude * p ** (scenario.r / 2)
    values = np.full((2, p ** (depth - 1)), [[flat_u], [flat_n]])
    for k, digits in enumerate(enumerate_cells(p, depth)):
        cell = CellAddress(scenario.spec.basins[1], digits)
        values[1, k] += coeff * eval_wavelet(idx, cell, p).real
    return values


@pytest.mark.parametrize(
    "p,r,depth",
    [
        (2, -2, 3), (2, -3, 9), (2, -8, 12), (2, -2, 16), (2, -15, 16),
        (3, -2, 3), (3, -4, 7), (3, -2, 12), (3, -11, 12),
        (5, -2, 4), (5, -3, 8), (5, -7, 8),
        (97, -2, 3),
    ],
)
def test_datum_is_the_per_cell_sum_bit_for_bit(p, r, depth):
    k = RadialKernel(p, (1.0,))
    spec = NetworkSpec(
        p=p, basins=(0, 1),
        cross_lambda={(0, 1): 1.0, (1, 0): 1.0},
        cross_mu={(0, 1): 1.5, (1, 0): 1.5},
        w_kernels={0: k, 1: k}, v_kernels={0: k, 1: RadialKernel(p, (2.0,))},
    )
    scenario = FoldingScenario(spec=spec, r=r, amplitude=0.3)
    datum = ivp2_datum(scenario, depth)
    assert datum.values.tobytes() == per_cell_ivp2(scenario, depth).tobytes()


def test_basin_averages_match_closed_form(demo_scenario):
    s = demo_scenario
    datum = ivp2_datum(s)
    avg_u, avg_n = (datum.basin_integral(b) for b in s.spec.basins)
    assert abs(avg_u - (s.A - s.loss_u + s.loss_n) / (2 * s.A * 2)) < 1e-12
    assert abs(avg_n - s.coupling / (s.A * 2)) < 1e-12

    # an uneven variant so the two averages actually differ
    k_u = RadialKernel(2, (1.0,))
    k_n = RadialKernel(2, (2.0, 1.0))
    spec = NetworkSpec(
        p=2, basins=(0, 1),
        cross_lambda={(0, 1): 5.0, (1, 0): 5.0},
        cross_mu={(0, 1): 5.0, (1, 0): 5.0},
        w_kernels={0: k_u, 1: k_n},
        v_kernels={0: RadialKernel(2, (2.0,)), 1: k_n},
    )
    s2 = FoldingScenario(spec=spec, r=-4, amplitude=0.3)
    datum = ivp2_datum(s2)
    avg_u, avg_n = (datum.basin_integral(b) for b in s2.spec.basins)
    assert abs(avg_u - (s2.A - s2.loss_u + s2.loss_n) / (2 * s2.A * 2)) < 1e-12
    assert abs(avg_n - s2.coupling / (s2.A * 2)) < 1e-12


# ---------------------------------------------------------------- tau


def test_folding_tau_pinned_paper_convention(demo_scenario):
    report = folding_tau(demo_scenario)
    assert report.convention == "paper"
    assert report.tau_formula == pytest.approx(math.log(0.9) / -2.5)
    # true crossing of 0.5 e^{2.5 t} + 0.4 e^{-3.125 t} over 0.99
    assert report.tau_numeric == pytest.approx(0.16132763928578644, abs=1e-6)
    assert report.crossing.crossing_cell == CellAddress(1, (0, 0, 0, 0))
    assert report.time_constant_chain == pytest.approx(-0.4)
    assert report.time_constant_mode == pytest.approx(0.32)
    assert report.fast_mode == bump_wavelet(demo_scenario)
    assert report.A == 10.0


def test_folding_tau_derived_never_crosses(demo_scenario):
    s = demo_scenario
    report = folding_tau(replace(s, spec=replace(s.spec, convention="derived")))
    assert report.tau_numeric == math.inf
    assert report.crossing.crossing_cell is None
    # the closed form does not depend on the convention
    assert report.tau_formula == pytest.approx(math.log(0.9) / -2.5)


def test_saturated_amplitude_gives_zero_formula_time(demo_scenario):
    s = replace(demo_scenario, amplitude=0.5)
    report = folding_tau(s)
    assert report.tau_formula == 0.0


def test_demo_network_defeats_classification(demo_scenario):
    # total gain balances total loss in both basins, which neither
    # classification regime can place; the tau machinery must not depend on it
    with pytest.raises(ClassificationError):
        classify(demo_scenario.spec)
