import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ultranet.errors import NumericError, UsageError, ValidationError
from ultranet.kernels import RadialKernel
from ultranet import spectral
from ultranet.network import NetworkSpec, build_basin_matrix
from ultranet.padic import CellAddress
from ultranet.spectral import (
    absorbing_time,
    decay_rates,
    eval_density,
    evolve,
    init,
    matrix_exponential,
)
from ultranet.tree import compare, discretize, solve
from ultranet.wavelets import (
    CellFunction,
    Expansion,
    WaveletIndex,
    enumerate_wavelets,
    expand,
)

from wavelet_reference import eval_wavelet, reconstruct_all

SQRT2 = math.sqrt(2.0)


def two_basin(cross_lam=1.0, cross_mu=2.0, levels=(1.0,), convention="derived"):
    k = RadialKernel(2, levels)
    return NetworkSpec(
        p=2, basins=(0, 1),
        cross_lambda={(0, 1): cross_lam, (1, 0): cross_lam},
        cross_mu={(0, 1): cross_mu, (1, 0): cross_mu},
        w_kernels={0: k, 1: k}, v_kernels={0: k, 1: k},
        convention=convention,
    )


def coeffs(state, basin):
    """Wavelet coefficients of a state's density, enumerate_wavelets order."""
    return expand(eval_density(state), state.R).coeffs[state.spec.basins.index(basin)]


def single_basin(w_levels=(1.0,), v_levels=None, p=2):
    v_levels = w_levels if v_levels is None else v_levels
    return NetworkSpec(
        p=p, basins=(0,), cross_lambda={}, cross_mu={},
        w_kernels={0: RadialKernel(p, w_levels)},
        v_kernels={0: RadialKernel(p, v_levels)},
    )


# ---------------------------------------------------------------- expm


def test_expm_zero_and_diagonal():
    assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))
    D = np.diag([-1.0, 2.0])
    out = matrix_exponential(D, 0.5)
    assert np.allclose(out, np.diag(np.exp([-0.5, 1.0])), atol=1e-14)


def test_expm_frozen_symmetric_pair():
    M = np.array([[-1.0, 1.0], [1.0, -1.0]])
    t = math.log(2.0)
    e = math.exp(-2 * t)  # = 1/4
    expected = 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])
    assert np.abs(matrix_exponential(M, t) - expected).max() < 1e-12


def test_expm_matches_power_series_small_norm():
    rng = np.random.default_rng(3)
    M = rng.uniform(-0.2, 0.2, (4, 4))
    series = np.eye(4)
    term = np.eye(4)
    for k in range(1, 30):
        term = term @ M / k
        series = series + term
    assert np.abs(matrix_exponential(M) - series).max() < 1e-12


def test_expm_squaring_identity_large_t():
    rng = np.random.default_rng(4)
    M = rng.uniform(-1.0, 1.0, (5, 5))
    t = 37.0
    full = matrix_exponential(M, t)
    half = matrix_exponential(M, t / 2)
    scale = np.abs(full).max()
    assert np.abs(full - half @ half).max() < 1e-10 * max(scale, 1.0)


def test_expm_guards():
    with pytest.raises(UsageError):
        matrix_exponential(np.array([[float("nan")]]))
    with pytest.raises(UsageError):
        matrix_exponential(np.zeros((2, 3)))


def test_seventeen_basins_match_oracle():
    # one basin per root digit of p = 17: a 17 x 17 basin matrix
    p = 17
    basins = tuple(range(p))
    rng = np.random.default_rng(17)
    mu = {(a, b): float(rng.uniform(0.5, 1.0)) for a in basins for b in basins if a != b}
    lam = {(a, b): 0.5 * mu[(b, a)] for a in basins for b in basins if a != b}
    spec = NetworkSpec(
        p=p, basins=basins, cross_lambda=lam, cross_mu=mu,
        w_kernels={b: RadialKernel(p, (0.5,)) for b in basins},
        v_kernels={b: RadialKernel(p, (1.0,)) for b in basins},
    )
    datum = CellFunction(p, 2, basins, [rng.uniform(0.0, 1.0, p) for b in basins])
    assert max(compare(spec, datum, 2, [0.1, 1.0, 10.0])) <= 1e-8


# ---------------------------------------------------------------- init


def test_init_constant_datum():
    spec = two_basin()
    state = init(spec, CellFunction.constant(2, 2, [0, 1], 1.0))
    assert np.allclose(state.mean / SQRT2, [1 / SQRT2, 1 / SQRT2])
    for b in (0, 1):
        assert np.abs(coeffs(state, b)).max() < 1e-15


def test_init_zero_datum_and_basin_indicator():
    spec = two_basin()
    zero = init(spec, CellFunction.constant(2, 2, [0, 1], 0.0))
    assert np.allclose(zero.mean / SQRT2, 0.0)
    # all mass in basin 0: the constant block starts at (1/sqrt(p), 0)
    datum = CellFunction(2, 2, (0, 1), [[1.0, 1.0], [0.0, 0.0]])
    state = init(spec, datum)
    assert np.allclose(state.mean / SQRT2, [1 / SQRT2, 0.0])
    assert np.abs(coeffs(state, 0)).max() < 1e-15


def test_init_guards():
    spec = two_basin()
    # only the crossing search needs a probability datum
    with pytest.raises(ValidationError, match="outside"):
        absorbing_time(spec, CellFunction.constant(2, 2, [0, 1], 1.5))
    init(spec, CellFunction.constant(2, 2, [0, 1], 1.5))
    with pytest.raises(ValidationError, match="basins"):
        init(spec, CellFunction.constant(2, 2, [0], 1.0))
    with pytest.raises(UsageError, match="R >= 1"):
        init(spec, CellFunction.constant(2, 1, [0, 1], 1.0))


# ---------------------------------------------------------------- rates


def test_decay_rates_frozen_two_basin():
    rates = decay_rates(two_basin(), 2)
    assert len(rates) == 4
    d = {(x.basin, x.r): x for x in rates}
    # symbol(-1) = -1/4, loss_total/p = 5/4
    assert d[(0, -1)].s == pytest.approx(-1.5, abs=1e-15)
    assert d[(0, -1)].sigma4 == pytest.approx(8 / 3)
    assert d[(0, -1)].sigma1 == pytest.approx(2 / 3)
    # at r = -2 the symbol of (1,) vanishes, leaving only the basin loss
    assert d[(0, -2)].s == pytest.approx(-1.25, abs=1e-15)


def test_decay_rates_zero_rate_gives_infinite_sigma():
    # basin 0 has no motion and no loss at all; basin 1 carries the loss
    k0 = RadialKernel(2, (0.0,))
    k1 = RadialKernel(2, (1.0,))
    spec = NetworkSpec(
        p=2, basins=(0, 1),
        cross_lambda={(0, 1): 0.0, (1, 0): 0.0},
        cross_mu={(0, 1): 0.0, (1, 0): 0.0},
        w_kernels={0: k0, 1: k0}, v_kernels={0: k0, 1: k1},
    )
    rates = {(d.basin, d.r): d for d in decay_rates(spec, 1)}
    assert rates[(0, -1)].s == 0.0
    assert rates[(0, -1)].sigma4 == math.inf
    assert rates[(1, -1)].s == pytest.approx(-0.25)
    assert rates[(1, -1)].sigma4 == pytest.approx(16.0)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("shape", [(0.0, 0.0, 1.0), (0.0, 1.0), (1.0, 0.5, 0.25)])
def test_decay_rates_accept_any_unit_of_time(p, shape):
    # no unit of time may turn a rate positive (w = v, so the exact rate
    # is 0 at some scales)
    for m in (1.0, 2.4, 3.7, 5.5, 7.3, 9.1):
        for k in range(10):
            spec = single_basin(tuple(x * m * 10.0**k for x in shape), p=p)
            assert all(d.s <= 0 for d in decay_rates(spec, len(shape)))


def _exact_rate(spec, a, r):
    """s_{a,r} from its definition, in Fractions: the jump-operator
    eigenvalue plus the mass of w, minus the total loss over p."""
    p, w, v = spec.p, spec.w_kernels[a], spec.v_kernels[a]
    c = Fraction(p - 1, p)

    def mass(k):
        return c * sum((Fraction(k.level(j)) / p**j for j in range(1, k.j_max + 1)), Fraction(0))

    eig = -c * sum(
        (Fraction(w.level(j)) / p**j for j in range(1, -r + 1)), Fraction(0)
    ) - Fraction(w.level(-r)) / p ** (1 - r)
    loss = p * mass(v) + sum(spec.cross_mu[(b, a)] for b in spec.basins if b != a)
    return eig + mass(w) - loss / p


@st.composite
def scaled_specs(draw):
    """A valid network, every rate multiplied by 10^k (k in [-14, 6]):
    gains are losses times a factor <= 1, which survives the rounding."""
    p = draw(st.sampled_from([2, 3, 5]))
    basins = tuple(range(draw(st.integers(min_value=1, max_value=3))))
    depth = draw(st.integers(min_value=1, max_value=4))
    unit = 10.0 ** draw(st.integers(min_value=-14, max_value=6))
    rate = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0))
    share = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
    v = {b: [draw(rate) * unit for _ in range(depth)] for b in basins}
    w = {b: [x * draw(share) for x in v[b]] for b in basins}
    mu = {(b, a): draw(rate) * unit for a in basins for b in basins if a != b}
    lam = {(a, b): mu[(b, a)] * draw(share) for (b, a) in mu}
    try:
        return NetworkSpec(
            p=p, basins=basins, cross_lambda=lam, cross_mu=mu,
            w_kernels={b: RadialKernel(p, tuple(w[b])) for b in basins},
            v_kernels={b: RadialKernel(p, tuple(v[b])) for b in basins},
        )
    except ValidationError:  # no loss anywhere
        assume(False)


@given(spec=scaled_specs(), R=st.integers(min_value=1, max_value=6))
@settings(max_examples=200, deadline=None)
def test_decay_rates_are_the_exact_rates_rounded_once(spec, R):
    for d in decay_rates(spec, R):
        exact = _exact_rate(spec, d.basin, d.r)
        assert exact <= 0
        assert d.s == float(exact)
        assert d.s <= 0
        assert d.sigma1 == (math.inf if d.s == 0 else 1.0 / -d.s)


# ---------------------------------------------------------------- evolve


def basin_indicator_datum():
    return CellFunction(2, 2, (0, 1), [[1.0, 1.0], [0.0, 0.0]])


def test_evolve_identity_at_zero():
    spec = two_basin()
    state = init(spec, basin_indicator_datum())
    out = evolve(state, 0.0)
    assert np.allclose(out.mean / SQRT2, state.mean / SQRT2)
    assert out.t == 0.0


def test_evolve_frozen_conservative_paper():
    spec = two_basin(convention="paper")
    state = init(spec, basin_indicator_datum())
    for t in (0.25, 1.0, 3.0):
        out = evolve(state, t)
        e = math.exp(-2 * t)
        expected = (1 / (2 * SQRT2)) * np.array([1 + e, 1 - e])
        assert np.abs(out.mean / SQRT2 - expected).max() < 1e-12


def test_evolve_pure_exponential_decay():
    spec = single_basin(w_levels=(0.0,), v_levels=(1.0,))
    datum = CellFunction.indicator(2, 2, (0,), CellAddress(0, (0,)))
    state = init(spec, datum)
    out = evolve(state, 2.0)
    # both the constant and the wavelet coefficient decay at rate 1/4
    assert out.mean[0] / SQRT2 == pytest.approx(
        state.mean[0] / SQRT2 * math.exp(-0.5), rel=1e-12
    )
    assert abs(coeffs(out, 0)[0]) == pytest.approx(
        abs(coeffs(state, 0)[0]) * math.exp(-0.5), rel=1e-12
    )


def test_evolve_semigroup():
    spec = two_basin(cross_mu=3.0)
    state = init(spec, basin_indicator_datum())
    a = evolve(evolve(state, 0.7), 1.9)
    b = evolve(state, 2.6)
    assert np.abs(a.mean / SQRT2 - b.mean / SQRT2).max() < 1e-10
    for basin in (0, 1):
        assert np.abs(coeffs(a, basin) - coeffs(b, basin)).max() < 1e-10
    assert a.t == pytest.approx(b.t)


def test_evolve_rejects_negative_time():
    state = init(two_basin(), basin_indicator_datum())
    with pytest.raises(UsageError):
        evolve(state, -0.1)


def test_coefficient_decay_rate_is_exact():
    spec = two_basin()
    datum = CellFunction(2, 2, (0, 1), [[0.9, 0.1], [0.5, 0.5]])
    state = init(spec, datum)
    rates = {(d.basin, d.r): d.s for d in decay_rates(spec, 1)}
    t = 1.7
    out = evolve(state, t)
    c_before = coeffs(state, 0)[0]
    c_after = coeffs(out, 0)[0]
    measured = (math.log(abs(c_after)) - math.log(abs(c_before))) / t
    assert abs(measured - rates[(0, -1)]) < 1e-9


# ---------------------------------------------------------------- density


def test_eval_density_identity_at_zero():
    spec = two_basin()
    datum = CellFunction(2, 2, (0, 1), [[0.25, 0.75], [1.0, 0.0]])
    state = init(spec, datum)
    out = eval_density(state)
    assert np.abs(out.values - datum.values).max() < 1e-12


def test_eval_density_conservative_fixed_point():
    spec = two_basin(convention="paper")
    state = init(spec, CellFunction.constant(2, 2, [0, 1], 1.0))
    for t in (0.5, 5.0, 20.0):
        out = eval_density(state, t)
        assert np.abs(out.values - 1.0).max() < 1e-10


def test_eval_density_dies_at_infinity():
    spec = two_basin(cross_mu=4.0, convention="paper")
    state = init(spec, CellFunction.constant(2, 2, [0, 1], 1.0))
    # paper-form matrix [[-2,1],[1,-2]]: slowest eigenvalue -1
    out = eval_density(state, 50.0)
    assert np.abs(out.values).max() < 1e-8


@pytest.mark.parametrize("p,R", [(2, 4), (3, 3), (5, 2)])
def test_block_means_match_wavelet_synthesis(p, R):
    k = RadialKernel(p, (1.0, 0.5))
    spec = NetworkSpec(
        p=p, basins=(0, 1),
        cross_lambda={(0, 1): 0.5, (1, 0): 0.25},
        cross_mu={(0, 1): 1.0, (1, 0): 1.5},
        w_kernels={0: k, 1: k}, v_kernels={0: k, 1: k},
    )
    rng = np.random.default_rng(p)
    datum = CellFunction(p, R + 1, (0, 1), [rng.uniform(0.0, 1.0, p**R) for b in (0, 1)])
    state = init(spec, datum)
    ex = expand(datum, R)
    lam = build_basin_matrix(spec)
    rates = {(d.basin, d.r): d.s for d in decay_rates(spec, R)}
    order = enumerate_wavelets(p, R)
    for t in (0.0, 1.3):
        decay = np.array([[math.exp(rates[(b, idx.r)] * t) for idx in order] for b in (0, 1)])
        ref = reconstruct_all(
            Expansion(
                p=p, R=R, basins=(0, 1),
                c0=matrix_exponential(lam, t) @ ex.c0,
                coeffs=ex.coeffs * decay,
            ),
            R + 1,
        )
        out = eval_density(state, t)
        assert np.abs(out.values - ref.values).max() <= 1e-12


# ---------------------------------------------------------------- tau


def test_absorbing_time_decaying_density_never_crosses():
    spec = single_basin()
    datum = CellFunction(2, 2, (0,), [[0.8, 0.2]])
    res = absorbing_time(spec, datum, threshold=1.0)
    assert res.tau == math.inf
    assert res.crossing_cell is None


def test_absorbing_time_datum_at_threshold_decaying():
    spec = single_basin(w_levels=(0.0,), v_levels=(1.0,))
    datum = CellFunction(2, 2, (0,), [[0.8, 0.8]])
    res = absorbing_time(spec, datum, threshold=0.8)
    assert res.tau == math.inf


def test_absorbing_time_growing_mode_crosses():
    spec = two_basin(cross_lam=1.0, cross_mu=1.0, convention="paper")
    datum = CellFunction.constant(2, 2, [0, 1], 0.5)
    res = absorbing_time(spec, datum, threshold=0.9)
    # uniform density 0.5 e^{t/2}: crossing at 2 ln(1.8)
    assert res.tau == pytest.approx(2 * math.log(1.8), rel=1e-6)
    assert res.crossing_cell is not None
    assert res.mode_index is None  # the constant mode carries the crossing


def test_absorbing_time_sustained_start_at_threshold():
    spec = two_basin(cross_lam=1.0, cross_mu=1.0, convention="paper")
    datum = CellFunction.constant(2, 2, [0, 1], 0.9)
    res = absorbing_time(spec, datum, threshold=0.9)
    assert res.tau == 0.0


def jordan_block_spec():
    """Paper-form basin matrix [[-1, 2], [0, -1]]: a defective Jordan block."""
    k = RadialKernel(2, (1.0,))
    return NetworkSpec(
        p=2, basins=(0, 1),
        cross_lambda={(0, 1): 2.0, (1, 0): 0.0},
        cross_mu={(0, 1): 2.0, (1, 0): 2.0},
        w_kernels={0: k, 1: k}, v_kernels={0: k, 1: k},
        convention="paper",
    )


def test_absorbing_time_on_defective_basin_matrix():
    spec = jordan_block_spec()
    lam = build_basin_matrix(spec)  # the spec is "paper"
    assert np.array_equal(lam, [[-1.0, 2.0], [0.0, -1.0]])
    datum = CellFunction.constant(2, 3, [0, 1], 0.5)
    res = absorbing_time(spec, datum, threshold=0.55)
    # basin 0 carries 0.5 e^{-t} (1 + 2t), which reaches 0.55 first at
    # the root of e^{-t} (1 + 2t) = 1.1 below the peak at t = 1/2
    assert res.tau == pytest.approx(0.1203245817, rel=1e-8)
    assert res.crossing_cell == CellAddress(0, (0, 0))
    assert (res.mode_basin, res.mode_index) == (0, None)


def test_absorbing_time_defective_matrix_on_unequal_basins():
    # basin 1 only decays from 0.6; it feeds basin 0, whose mean
    # e^{-t} (0.5 + 1.2 t) rises to 0.670 at t = 7/12
    datum = CellFunction(2, 3, (0, 1), [[0.5] * 4, [0.6] * 4])
    res = absorbing_time(jordan_block_spec(), datum, threshold=0.65)
    assert math.exp(-res.tau) * (0.5 + 1.2 * res.tau) == pytest.approx(0.65, rel=1e-8)
    assert 0.0 < res.tau < 7 / 12
    assert res.crossing_cell.basin == 0


def test_absorbing_time_does_not_depend_on_scan_chunks(monkeypatch):
    # budgets of 1, 2, 4 and 8 grid points per chunk put chunk edges
    # right around the crossing
    datum = CellFunction(2, 3, (0, 1), [[0.5] * 4, [0.6] * 4])
    ref = absorbing_time(jordan_block_spec(), datum, threshold=0.65, dt=1e-2)
    for budget in (1, 200, 400, 800):
        monkeypatch.setattr(spectral, "_SCAN_BYTES", budget)
        res = absorbing_time(jordan_block_spec(), datum, threshold=0.65, dt=1e-2)
        assert res.tau == pytest.approx(ref.tau, rel=1e-12)


def test_absorbing_time_zero_names_its_cell_on_defective_matrix():
    spec = jordan_block_spec()
    datum = CellFunction.constant(2, 3, [0, 1], 0.5)
    res = absorbing_time(spec, datum, threshold=0.5)
    assert res.tau == 0.0
    assert res.crossing_cell == CellAddress(0, (0, 0))
    assert (res.mode_basin, res.mode_index) == (0, None)


def test_absorbing_time_names_dominant_wavelet():
    # at the peak cell the datum is mean 1/4, scale -1 part 1/4 and
    # scale -2 part 1/2, so the scale -2 wavelet on cell 0.0 dominates
    datum = CellFunction(2, 3, (0, 1), [[1.0, 0.0, 0.0, 0.0], [0.0] * 4])
    res = absorbing_time(two_basin(), datum, threshold=0.9)
    assert res.tau == 0.0
    assert res.crossing_cell == CellAddress(0, (0, 0))
    assert res.mode_basin == 0
    assert res.mode_index == WaveletIndex(-2, (0,), 1)


def test_absorbing_time_memory_does_not_grow_with_resolution():
    spec = two_basin(cross_lam=1.0, cross_mu=1.0, convention="paper")
    rng = np.random.default_rng(8)
    peaks = {}
    for R in (4, 8):
        datum = CellFunction(2, R + 1, (0, 1), [rng.uniform(0.0, 1.0, 2**R) for b in (0, 1)])
        tracemalloc.start()
        try:
            res = absorbing_time(spec, datum, threshold=1e9, dt=1e-4, t_max=20.0)
            peaks[R] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.tau == math.inf  # the whole grid was scanned
    assert peaks[8] <= peaks[4] * 1.1


def test_absorbing_time_guards():
    with pytest.raises(UsageError):
        absorbing_time(single_basin(), CellFunction(2, 2, (0,), [[0.5, 0.5]]), threshold=0.0)


def wavelet_terms(details, j, p, basin):
    """Mode labels and their terms on cell j, one complex wavelet
    coefficient at a time, in report's label order: the reference for
    the real-arithmetic terms of _mode_terms."""
    R = details.shape[0]
    digits = tuple(int(d) for d in np.unravel_index(j, (p,) * R))
    cell = CellAddress(basin, digits)
    labels, terms = [], []
    for k in range(1, R + 1):
        m = digits[: k - 1]
        block = p ** (R - k)
        first = (j // (block * p)) * block * p
        children = details[k - 1, first : first + block * p : block]
        for phase in range(1, p):
            index = WaveletIndex(-k, m, phase)
            coeff = sum(
                value * np.conj(eval_wavelet(index, CellAddress(basin, m + (osc,)), p))
                for osc, value in enumerate(children)
            ) * p ** (-k - 1)
            labels.append(index)
            terms.append((coeff * eval_wavelet(index, cell, p)).real)
    return labels, np.array(terms)


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    R=st.integers(1, 4),
    offset=st.sampled_from([0.0, 0.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_mode_terms_match_the_wavelet_reference(p, R, offset, seed, data):
    rng = np.random.default_rng(seed)
    details = rng.uniform(-1.0, 1.0, (R, p**R))
    j = data.draw(st.integers(0, p**R - 1))
    _, ref = wavelet_terms(details, j, p, 0)
    got = spectral._mode_terms(details, j, p).ravel()
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(details).max()

    # the label report gives at its peak cell, on a datum whose scale
    # parts are drawn, against the largest reference term
    spec = single_basin(p=p)
    datum = CellFunction(p, R + 1, (0,), [offset + rng.uniform(-1.0, 1.0, p**R)])
    state = init(spec, datum)
    cell, basin, label = spectral._Peak(state).report(0.0)
    values = eval_density(state).values[0]
    j = int(values.argmax())
    assert cell == CellAddress(0, tuple(int(d) for d in np.unravel_index(j, (p,) * R)))
    labels, ref = wavelet_terms(state.details[0], j, p, 0)
    labels, ref = [None] + labels, np.abs(np.concatenate([[state.mean[0]], ref]))
    second, top = np.sort(ref)[-2:]
    if top - second > 1e-9 * top:
        assert label == labels[int(np.argmax(ref))]


def test_scan_chunk_starts_are_the_evolved_means(monkeypatch):
    # a non-symmetric three-basin matrix, chunks of 4 grid points
    k = RadialKernel(3, (1.0, 0.5))
    spec = NetworkSpec(
        p=3, basins=(0, 1, 2),
        cross_lambda={(0, 1): 0.7, (1, 2): 0.2, (2, 0): 1.3},
        cross_mu={(1, 0): 0.9, (2, 1): 0.5, (0, 2): 1.3, (0, 1): 0.4},
        w_kernels={0: k, 1: k, 2: k}, v_kernels={0: k, 1: k, 2: k},
        convention="paper",
    )
    rng = np.random.default_rng(11)
    state = init(spec, CellFunction(3, 3, (0, 1, 2), rng.uniform(0.0, 1.0, (3, 9))))
    monkeypatch.setattr(spectral, "_SCAN_BYTES", 8 * (9 + 2 + 3 + 4) * 4)
    peak = spectral._Peak(state)
    starts = []
    peaks = peak._peaks
    monkeypatch.setattr(peak, "_peaks", lambda ts, means: starts.append(means[0]) or peaks(ts, means))
    dt = 0.37
    chunks = [k0 for k0, _ in peak.scan(dt, 50)]
    assert chunks == list(range(0, 51, 4))
    for k0, mean in zip(chunks, starts):
        assert evolve(state, k0 * dt).mean.tobytes() == mean.tobytes()


def test_scan_stops_at_the_first_row_that_overflows():
    # paper-form matrix [[-1, 2], [2, -1]] grows like e^t; with dt = 1
    # the second chunk starts finite at t = 512 and its doubled rows
    # overflow past t = 710. The rows before the overflow are yielded,
    # and the overflow is reported at the state's own time.
    state = init(two_basin(cross_lam=2.0, convention="paper"), CellFunction.constant(2, 2, (0, 1), 0.5))
    chunks = spectral._Peak(evolve(state, 0.5)).scan(1.0, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert next(chunks)[0] == 0
        k0, peaks = next(chunks)
        assert (k0, len(peaks)) == (512, 198)
        assert np.isfinite(peaks).all()
        with pytest.raises(NumericError, match=r"not finite at t = 710\.5:"):
            next(chunks)


def test_crossing_before_an_overflow_in_the_same_chunk_is_found():
    # the first chunk reaches t = 1020, past the overflow near t = 710,
    # yet the basin means cross 0.99 at ln 1.98 long before
    spec = two_basin(cross_lam=2.0, convention="paper")
    datum = CellFunction.constant(2, 2, (0, 1), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = absorbing_time(spec, datum, threshold=0.99, dt=4.0, t_max=2000.0)
    assert res.tau == pytest.approx(math.log(1.98), rel=1e-8)
    assert res.mode_index is None


def nearly_split_chain(eps):
    """Three basins in a row, 0 - 1 - 2, the second link of rate eps;
    conservative under the paper convention, so 0.5 everywhere is a fixed
    point and no upward crossing of 0.99 exists."""
    k = RadialKernel(3, (1.0,))
    lam = {(0, 1): 1.0, (1, 0): 1.0, (1, 2): eps, (2, 1): eps}
    return NetworkSpec(
        p=3, basins=(0, 1, 2),
        cross_lambda=lam, cross_mu={key: 3 * rate for key, rate in lam.items()},
        w_kernels={0: k, 1: k, 2: k}, v_kernels={0: k, 1: k, 2: k},
        convention="paper",
    )


def test_overflowing_crossing_scan_fails_without_warnings():
    # the grid is capped at 2M points, so dt is about 5e15 and the
    # basin-matrix exponential overflows along the scan
    datum = CellFunction.constant(3, 2, (0, 1, 2), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            res = absorbing_time(nearly_split_chain(1e-20), datum, threshold=0.99)
        except NumericError as exc:
            assert "basin means are not finite" in str(exc)
        else:
            assert res.tau == math.inf


# ---------------------------------------------------------------- oracle


def test_compare_zero_datum():
    spec = two_basin()
    datum = CellFunction.constant(2, 2, [0, 1], 0.0)
    assert compare(spec, datum, 2, [0.5, 2.0]) == [0.0, 0.0]


def test_compare_single_basin_tight():
    spec = single_basin()
    datum = CellFunction(2, 2, (0,), [[1.0, 0.0]])
    gaps = compare(spec, datum, 2, [0.1, 1.0, 10.0])
    assert max(gaps) < 1e-10


@st.composite
def oracle_cases(draw):
    p = draw(st.sampled_from([2, 3]))
    n_basins = draw(st.integers(min_value=1, max_value=2))
    basins = tuple(range(n_basins))
    level = st.integers(min_value=0, max_value=6).map(lambda k: k / 4)
    depth = draw(st.integers(min_value=1, max_value=2))
    v_levels = {b: tuple(draw(level) for _ in range(depth)) for b in basins}
    w_levels = {
        b: tuple(x * draw(st.sampled_from([0.0, 0.5, 1.0])) for x in v_levels[b])
        for b in basins
    }
    lam, mu = {}, {}
    for a in basins:
        for b in basins:
            if a != b:
                mu[(b, a)] = draw(level)
                lam[(a, b)] = mu[(b, a)] * draw(st.sampled_from([0.0, 0.5, 1.0]))
    try:
        spec = NetworkSpec(
            p=p, basins=basins, cross_lambda=lam, cross_mu=mu,
            w_kernels={b: RadialKernel(p, w_levels[b]) for b in basins},
            v_kernels={b: RadialKernel(p, v_levels[b]) for b in basins},
        )
    except ValidationError:
        assume(False)
    N = depth + 1
    n_cells = p ** (N - 1)
    datum = CellFunction(
        p, N, basins,
        [
            [draw(st.integers(min_value=0, max_value=8)) / 8 for _ in range(n_cells)]
            for b in basins
        ],
    )
    return spec, datum, N


@given(case=oracle_cases())
@settings(max_examples=25, deadline=None)
def test_oracle_equivalence(case):
    spec, datum, N = case
    gaps = compare(spec, datum, N, [0.1, 1.0, 10.0])
    assert max(gaps) <= 1e-8


@given(case=oracle_cases())
@settings(max_examples=25, deadline=None)
def test_feller_bound_under_derived_convention(case):
    spec, datum, N = case
    state = init(spec, datum)
    for t in (0.1, 1.0, 10.0):
        dens = eval_density(state, t)
        assert dens.values.max() <= 1 + 1e-9


@given(case=oracle_cases())
@settings(max_examples=25, deadline=None)
def test_decay_rates_never_positive(case):
    spec, _, N = case
    assert all(d.s <= 0 for d in decay_rates(spec, N - 1))


def test_mass_balance_matches_sink():
    """d/dt of the total integral equals -sum_a S_a * (integral over a),
    checked per basin-balanced spec (cross gains symmetric)."""
    k_w = RadialKernel(2, (0.5,))
    k_v = RadialKernel(2, (1.0,))
    spec = NetworkSpec(
        p=2, basins=(0, 1),
        cross_lambda={(0, 1): 0.75, (1, 0): 0.75},
        cross_mu={(0, 1): 1.0, (1, 0): 1.0},
        w_kernels={0: k_w, 1: k_w}, v_kernels={0: k_v, 1: k_v},
    )
    datum = CellFunction(2, 2, (0, 1), [[0.9, 0.3], [0.2, 0.6]])
    state = init(spec, datum)
    from ultranet.network import aggregate_rates

    sink = aggregate_rates(spec)
    t, h = 0.7, 1e-5
    hi = eval_density(state, t + h)
    lo = eval_density(state, t - h)
    mid = eval_density(state, t)
    lhs = (hi.integral() - lo.integral()) / (2 * h)
    rhs = -sum(
        sink[i] * mid.basin_integral(b) for i, b in enumerate(spec.basins)
    )
    assert abs(lhs - rhs) < 1e-8


def test_mass_conservation_when_sink_vanishes():
    k = RadialKernel(2, (1.0,))
    spec = NetworkSpec(
        p=2, basins=(0, 1),
        cross_lambda={(0, 1): 0.5, (1, 0): 0.5},
        cross_mu={(0, 1): 0.5, (1, 0): 0.5},
        w_kernels={0: k, 1: k}, v_kernels={0: k, 1: k},
    )
    datum = CellFunction(2, 2, (0, 1), [[1.0, 0.0], [0.25, 0.5]])
    state = init(spec, datum)
    m0 = datum.integral()
    for t in (0.5, 3.0, 20.0):
        assert eval_density(state, t).integral() == pytest.approx(m0, abs=1e-9)


def test_spectral_matches_oracle_on_killed_symmetric_spec():
    """Belt and braces on one fixed spec with kill: cellwise agreement."""
    k_w = RadialKernel(2, (0.5,))
    k_v = RadialKernel(2, (1.0, 0.5))
    spec = NetworkSpec(
        p=2, basins=(0, 1),
        cross_lambda={(0, 1): 0.25, (1, 0): 1.0},
        cross_mu={(0, 1): 1.5, (1, 0): 0.5},
        w_kernels={0: k_w, 1: k_w}, v_kernels={0: k_v, 1: k_v},
    )
    N = 3
    datum = CellFunction(2, N, (0, 1), [[1.0, 0.5, 0.0, 0.25], [0.0, 0.75, 1.0, 0.5]])
    gaps = compare(spec, datum, N, [0.1, 1.0, 10.0])
    assert max(gaps) <= 1e-8
