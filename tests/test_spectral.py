import math
import re
import sys
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ultranet.cli import load_preset, parse_config, spec_from_config
from ultranet.errors import ClassificationError, NumericError, UsageError, ValidationError
from ultranet.kernels import RadialKernel
from ultranet import spectral
from ultranet.montecarlo import SimConfig, simulate
from ultranet.network import NetworkSpec, build_basin_matrix, classify
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
from ultranet.uniformization import _squarings
from ultranet.wavelets import (
    CellFunction,
    Expansion,
    WaveletIndex,
    enumerate_wavelets,
    expand,
)

from expm_reference import closed_states, exact_limit, extended_expm
from wavelet_reference import dense_details, eval_wavelet, reconstruct_all

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
    return expand(eval_density(state), len(state.details)).coeffs[state.spec.basins.index(basin)]


def single_basin(w_levels=(1.0,), v_levels=None, p=2):
    v_levels = w_levels if v_levels is None else v_levels
    return NetworkSpec(
        p=p, basins=(0,), cross_lambda={}, cross_mu={},
        w_kernels={0: RadialKernel(p, w_levels)},
        v_kernels={0: RadialKernel(p, v_levels)},
    )


# ---------------------------------------------------------------- expm


def test_expm_zero_and_diagonal():
    assert (matrix_exponential(np.zeros((3, 3)), np.zeros(3)) == np.eye(3)).all()
    D = np.diag([-1.0, -2.0])
    out = matrix_exponential(D, np.array([1.0, 2.0]), 0.5)
    assert np.allclose(out, np.diag(np.exp([-0.5, -1.0])), rtol=1e-15, atol=0)
    # a growing entry (kill < 0) goes through the shifted series
    D = np.diag([-1.0, 2.0])
    out = matrix_exponential(D, np.array([1.0, -2.0]), 0.5)
    assert np.allclose(out, np.diag(np.exp([-0.5, 1.0])), rtol=2e-15, atol=0)


def test_expm_frozen_symmetric_pair():
    M = np.array([[-1.0, 1.0], [1.0, -1.0]])
    t = math.log(2.0)
    e = math.exp(-2 * t)  # = 1/4
    expected = 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])
    assert np.abs(matrix_exponential(M, np.zeros(2), t) - expected).max() < 1e-15


def test_expm_guards():
    kill = np.zeros(2)
    with pytest.raises(UsageError):
        matrix_exponential(np.array([[float("nan")]]), np.zeros(1))
    with pytest.raises(UsageError):
        matrix_exponential(np.zeros((2, 3)), kill)
    with pytest.raises(UsageError, match=">= 0"):
        matrix_exponential(np.zeros((2, 2)), kill, -1.0)


def test_expm_refuses_a_non_finite_time_or_a_grid_of_times():
    with pytest.raises(UsageError, match="finite"):
        matrix_exponential(np.zeros((2, 2)), np.zeros(2), np.array([1.0, math.inf]))
    with pytest.raises(UsageError, match="1-D"):
        matrix_exponential(np.zeros((2, 2)), np.zeros(2), np.ones((2, 2)))


DYADIC = st.builds(lambda m, e: m * 2.0**e, st.integers(1, 1000), st.integers(-10, 0))


@st.composite
def closed_class_networks(draw):
    """1-7 basins on p = 7, either convention, rates m 2^-e from 1e-3 to
    1e3. Each basin is drawn into one of three classes or left transient:
    a class member gains only from its own class and loses exactly what it
    gains (v = w, and mu = lambda under "derived" or p lambda under
    "paper", exact in floats), so a class that a member reaches is closed;
    a transient basin gains from any basin and may lose more."""
    p = 7
    convention = draw(st.sampled_from(["derived", "paper"]))
    k = 1 if convention == "derived" else p
    n = draw(st.integers(1, 7))
    label = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))  # -1: transient
    lam = {}
    for a in range(n):
        for b in range(n):
            if a != b and (label[a] < 0 or label[a] == label[b]) and draw(st.booleans()):
                lam[(a, b)] = draw(DYADIC)
    w = {a: draw(DYADIC) for a in range(n)}
    extra = {a: draw(st.one_of(st.just(0.0), DYADIC)) if label[a] < 0 else 0.0 for a in range(n)}
    return NetworkSpec(
        p=p, basins=tuple(range(n)), cross_lambda=lam,
        cross_mu={(b, a): k * x for (a, b), x in lam.items()},
        w_kernels={a: RadialKernel(p, (w[a],)) for a in range(n)},
        v_kernels={a: RadialKernel(p, (w[a] + extra[a],)) for a in range(n)},
        convention=convention,
    )


# A draw that the empirical limit bound 64 S 2^-53 failed: basins 0 and 2
# bounce between each other at rates 31 and 1 and leave only slowly (to
# basin 1, or killed), so the slowest decay rate is 0.034 against L = 32.1.
SLOW_TRANSIENT_PAIR = NetworkSpec(
    p=7, basins=(0, 1, 2, 3),
    cross_lambda={(0, 1): 1.0, (0, 2): 31.0, (2, 0): 1.0},
    cross_mu={(1, 0): 7.0, (2, 0): 217.0, (0, 2): 7.0},
    w_kernels={a: RadialKernel(7, (1.0,)) for a in range(4)},
    v_kernels={a: RadialKernel(7, (2.0 if a == 0 else 1.0,)) for a in range(4)},
    convention="paper",
)


@settings(max_examples=150, deadline=None)
@given(
    spec=closed_class_networks(),
    seed=st.integers(0, 2**32 - 1),
    short=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=4),
    long=st.lists(st.floats(9.0, 300.0), min_size=1, max_size=4),
)
@example(spec=SLOW_TRANSIENT_PAIR, seed=0, short=[0.0], long=[9.0, 50.0])
def test_basin_means_match_the_exponential_and_its_exact_limit(spec, seed, short, long):
    """Up to t = 1e3 the means match an extended-precision exponential of
    the exact basin matrix, within the few 2^-53 per unit of L t that any
    scaling and squaring carries into a decaying mode (L the largest rate
    on the diagonal): 32 (1 + L t) 2^-53, where 9000 draws needed at most
    6.3. From t = 1e9 to 1e300 every mode but the limit has decayed below
    2^-53 (that needs a decay rate above 1e-7; the least in 3000 draws of
    these networks was 3.4e-5), and the means match the exact limit Pi
    m(0) within 32 (S + L / delta + s) 2^-53, a few 2^-53 for each of
    three roundings that the limit keeps:
    - P = I + M/L rounds a rate r on its diagonal to 2^-53 L, a relative
      2^-53 S for the slowest rate (S the spread of the rates);
    - a row of P that loses nothing sums to 1 only to rounding, so each
      uniformized step in a transient state gains or leaks a few 2^-53,
      and the limit keeps what a path gains or leaks in the L / delta
      steps it takes to settle (delta the slowest decay rate of M);
    - once settled, the result is a fixed point of squaring (Pi^2 = Pi),
      but its rounded square is not: it moves by a few 2^-53 that recur at
      each of the s squarings (s = log2(L t) + 1 or so, about 1000 at
      t = 1e300), so a transient row may drift that much per squaring
      (353 2^-53 after 425 squarings was seen).
    4662 random draws of these networks, at six times from 1e9 to 1e300,
    needed at most 3.5 (S + L / delta + s) 2^-53; the former bound,
    64 S 2^-53, failed 3 of them. The example pinned here failed it too:
    S = 32.1, L / delta = 948. The exact limit of its float basin matrix
    lies within 3.2 2^-53 of that of the exact one, so the rest is the
    exponential's."""
    state = init(spec, random_datum(spec, 1, seed))
    assert (state.kill >= 0).all()  # no row grows
    rows = spec.basin_rows
    lam = exact_basin_matrix(spec)
    m0 = state.mean
    size = np.abs(m0).max()
    rates = np.abs(state.lam)[state.lam != 0]
    L, S = (rates.max(), rates.max() / rates.min()) if rates.size else (0.0, 1.0)
    for t in short:
        exact = (extended_expm(lam, t) @ m0.astype(np.longdouble)).astype(float)
        got = evolve(state, t).mean
        assert np.abs(got - exact).max() <= 2.0**-53 * 32 * (1 + L * t) * size
    # M has one zero eigenvalue per closed class and decays in every other mode
    reach, closed = closed_states(rows)
    classes = len({frozenset(reach[a]) for a in range(len(rows)) if closed[a]})
    decay = np.sort(np.abs(np.linalg.eigvals(state.lam).real))[classes:]
    slow = L / decay[0] if decay.size else 0.0
    limit = np.array([float(x) for x in exact_limit(rows, m0.tolist())])
    for e in long:
        got = evolve(state, 10.0**e).mean
        squarings = _squarings(L, 10.0**e) if L else 0
        assert np.abs(got - limit).max() <= 2.0**-53 * 32 * (S + slow + squarings) * size


def exact_basin_matrix(spec):
    """The exact basin matrix in extended precision."""
    rows = spec.basin_rows
    return np.array([[np.longdouble(x.numerator) / np.longdouble(x.denominator) for x in row] for row in rows])


@st.composite
def growing_networks(draw):
    """closed_class_networks under "paper" with each mu drawn as j lambda,
    j from 1 to p: a basin whose mu fall short of p lambda gains more than
    it loses, and its row of the basin matrix grows."""
    spec = draw(closed_class_networks())
    mu = {(b, a): draw(st.integers(1, spec.p)) * x for (a, b), x in spec.cross_lambda.items()}
    return replace(spec, cross_mu=mu, convention="paper")


@settings(max_examples=150, deadline=None)
@given(
    spec=growing_networks(),
    seed=st.integers(0, 2**32 - 1),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
def test_growing_basin_means_match_the_exponential(spec, seed, fractions):
    """Where rows grow (kill < 0, c the largest growth) the series is that
    of Lambda - cI, times e^{c t / 2^s} before the squarings. Up to t = 4,
    and short of e^{ct} = e^600, the means match an extended-precision
    exponential of the exact basin matrix within 64 (1 + (L + c) t) 2^-53
    ||e^{t Lambda}||_inf max|m(0)|, L the largest rate on the diagonal:
    every factor is >= 0, so the rounding is relative to the exponential's
    own size. 3000 draws needed at most 12.7."""
    state = init(spec, random_datum(spec, 1, seed))
    assume((state.kill < 0).any())
    lam = exact_basin_matrix(spec)
    c = -state.kill.min()
    L = -state.lam.diagonal().min()
    m0 = state.mean
    for u in fractions:
        t = u * min(4.0, 600.0 / c)
        E = extended_expm(lam, t)
        exact = (E @ m0.astype(np.longdouble)).astype(float)
        got = evolve(state, t).mean
        size = float(E.sum(axis=1).max()) * np.abs(m0).max()
        assert np.abs(got - exact).max() <= 2.0**-53 * 64 * (1 + (L + c) * t) * size


def test_a_growing_network_is_refused_at_the_first_time_its_means_overflow():
    # folding_demo's paper rows sum to 2.5, its spectral abscissa: the
    # means grow like e^{2.5 t} and overflow near t = 284
    cfg = parse_config(load_preset("folding_demo"))
    state = init(spec_from_config(cfg), CellFunction.constant(2, 5, (0, 1), 0.5))
    assert (state.kill == -2.5).all()
    rows = spectral.evaluate(state, [1.0, 1.0e3, 1.0e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert next(rows)[0] == 1.0
        with pytest.raises(NumericError, match=r"not finite at t = 1000:"):
            next(rows)


def test_search_stops_at_the_first_interval_that_overflows():
    # basins 0 and 1 feed each other as in folding_demo (their rows sum to
    # c = 10/3, their means grow like e^{ct} / 2), basin 2 decays alone.
    # The datum lies in basin 2, so the means never reach the threshold,
    # but the exponential overflows near t = 709.78 / c, and the search
    # names the first left end it evaluates there
    k = RadialKernel(3, (1.0,))
    spec = NetworkSpec(
        p=3, basins=(0, 1, 2),
        cross_lambda={(0, 1): 5.0, (1, 0): 5.0}, cross_mu={(1, 0): 5.0, (0, 1): 5.0},
        w_kernels={0: k, 1: k, 2: RadialKernel(3, (0.5,))}, v_kernels={0: k, 1: k, 2: k},
        convention="paper",
    )
    datum = CellFunction(3, 2, (0, 1, 2), [[0.0] * 3, [0.0] * 3, [0.5] * 3])
    c = -init(spec, datum).kill.min()
    assert c == 10 / 3
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match="basin means are not finite") as info:
            search(spec, datum, 0.99, 1e4)
    t = float(re.search(r"t = (\S+):", str(info.value))[1])
    assert math.log(sys.float_info.max) / c < t < 1.05 * math.log(sys.float_info.max) / c


def test_a_row_that_sums_past_zero_does_not_refuse_a_bounded_solution():
    # paper rows [0, 0, 0], [0.1, -0.02, 0], [0.01, 0, -0.002]: basin 0 is
    # constant and the others relax to 5 m_0. Rows 1 and 2 sum past 0, so
    # the series is shifted by 0.08, but each time's series is scaled back
    # before the squarings, and nothing overflows. Those rows are not
    # rescaled, but once their transients decay each squaring maps them
    # through row 0, which is, so they keep their limit.
    k = RadialKernel(5, (0.0,))
    spec = NetworkSpec(
        p=5, basins=(0, 1, 2),
        cross_lambda={(1, 0): 0.1, (2, 0): 0.01}, cross_mu={(0, 1): 0.1, (0, 2): 0.01},
        w_kernels={0: k, 1: k, 2: k}, v_kernels={0: k, 1: k, 2: k},
        convention="paper",
    )
    state = init(spec, CellFunction(5, 2, (0, 1, 2), [[0.2] * 5, [0.5] * 5, [0.0] * 5]))
    assert state.kill.tolist() == [0.0, -0.08, -0.008]
    for t in (1e5, 1e10, 1e20, 1e300):
        assert np.abs(evolve(state, t).mean - [0.2, 1.0, 1.0]).max() <= 1e-13


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
    assert max(compare(spec, datum, [0.1, 1.0, 10.0])) <= 1e-8


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
        absorbing_time(spec, CellFunction.constant(2, 2, [0, 1], 1.5), threshold=1.0)
    init(spec, CellFunction.constant(2, 2, [0, 1], 1.5))
    with pytest.raises(ValidationError, match="basins"):
        init(spec, CellFunction.constant(2, 2, [0], 1.0))
    with pytest.raises(UsageError, match="R >= 1"):
        init(spec, CellFunction.constant(2, 1, [0, 1], 1.0))


# ---------------------------------------------------------------- rates


def test_decay_rates_frozen_two_basin():
    rates = decay_rates(two_basin(), 2)
    assert rates.shape == (2, 2)
    # symbol(-1) = -1/4, loss_total/p = 5/4
    assert rates[0, 0] == pytest.approx(-1.5, abs=1e-15)
    # at r = -2 the symbol of (1,) vanishes, leaving only the basin loss
    assert rates[0, 1] == pytest.approx(-1.25, abs=1e-15)


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
    # an exact 0, which decay_rates.csv reads as infinite time constants
    # (tests/test_cli.py pins that row)
    rates = decay_rates(spec, 1)
    assert rates[0, 0] == 0.0
    assert rates[1, 0] == pytest.approx(-0.25)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("shape", [(0.0, 0.0, 1.0), (0.0, 1.0), (1.0, 0.5, 0.25)])
def test_decay_rates_accept_any_unit_of_time(p, shape):
    # no unit of time may turn a rate positive (w = v, so the exact rate
    # is 0 at some scales)
    for m in (1.0, 2.4, 3.7, 5.5, 7.3, 9.1):
        for k in range(10):
            spec = single_basin(tuple(x * m * 10.0**k for x in shape), p=p)
            assert (decay_rates(spec, len(shape)) <= 0).all()


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
    rates = decay_rates(spec, R)
    assert rates.shape == (len(spec.basins), R)
    for (i, k), s in np.ndenumerate(rates):
        exact = _exact_rate(spec, spec.basins[i], -k - 1)
        assert exact <= 0
        assert s == float(exact)
        assert s <= 0


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
    rates = decay_rates(spec, 1)
    t = 1.7
    out = evolve(state, t)
    c_before = coeffs(state, 0)[0]
    c_after = coeffs(out, 0)[0]
    measured = (math.log(abs(c_after)) - math.log(abs(c_before))) / t
    assert abs(measured - rates[0, 0]) < 1e-9


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
    rates = decay_rates(spec, R)
    order = enumerate_wavelets(p, R)
    for t in (0.0, 1.3):
        decay = np.array([[math.exp(rates[b, -idx.r - 1] * t) for idx in order] for b in (0, 1)])
        ref = reconstruct_all(
            Expansion(
                p=p, R=R, basins=(0, 1),
                c0=matrix_exponential(state.lam, state.kill, t) @ ex.c0,
                coeffs=ex.coeffs * decay,
            ),
            R + 1,
        )
        out = eval_density(state, t)
        assert np.abs(out.values - ref.values).max() <= 1e-12


def random_datum(spec, R, seed=0):
    rng = np.random.default_rng(seed)
    return CellFunction(spec.p, R + 1, spec.basins, rng.uniform(0.0, 1.0, (len(spec.basins), spec.p**R)))


def random_state(spec, R, seed=0):
    return init(spec, random_datum(spec, R, seed))


def test_evaluate_does_not_depend_on_the_chunks(monkeypatch):
    state = random_state(two_basin(cross_mu=1.5), 3)
    times = [0.0, 1e-300, 0.3, 1.0, 2.5, 7.0, 40.0, 1e3, 1e6]

    def rows():
        return [(t, mean.tobytes(), values.tobytes()) for t, mean, values in spectral.evaluate(state, times)]

    whole = rows()
    assert [t for t, _, _ in whole] == times
    time_bytes = 8 * 2 * (5 * 2 + 3 + 1)  # one time of a stacked exponential
    row_bytes = 2 * 8 * 2 * 8  # a row of 2 x 8 cells and one product of its size
    # chunks of 1, 2 and 4 times, the last formed 3 rows and then 1; chunks
    # of 2 formed one row at a time; chunks of 6 formed 5 rows and then 1
    for scan_bytes, chunk, batch in [
        (time_bytes, 1, 1), (2 * time_bytes, 2, 1), (4 * time_bytes, 4, 3),
        (480, 2, 1), (1344, 6, 5),
    ]:
        monkeypatch.setattr(spectral, "_SCAN_BYTES", scan_bytes)
        assert (spectral._chunk_size(state), max(1, scan_bytes // row_bytes)) == (chunk, batch)
        assert rows() == whole
    for t, mean, values in whole:
        assert values == eval_density(state, t).values.tobytes()
        assert mean == evolve(state, t).mean.tobytes()


@pytest.mark.parametrize("R", [1, 3, 9, 12])
def test_evaluate_rows_sum_the_scales_as_one_sum_over_them(R):
    # past 8 scales a pairwise sum would round differently
    state = random_state(two_basin(cross_mu=1.5), R, seed=R)
    times = [0.0, 0.05, 1.0, 3.0, 60.0]
    details = dense_details(state.details, 2)
    for t, mean, values in spectral.evaluate(state, times):
        parts = (details * np.exp(state.rates * t)[:, :, None]).sum(axis=1)
        assert values.tobytes() == (mean[:, None] + parts).tobytes()


def test_evaluate_yields_the_rows_before_the_first_overflow():
    # paper-form [[-1, 2], [2, -1]] grows like e^t: the means overflow
    # past t = 710, and 1e+308 is out of range for the exponential
    # altogether, yet the error names the earlier 800
    state = init(two_basin(cross_lam=2.0, convention="paper"), CellFunction.constant(2, 2, (0, 1), 0.5))
    rows = spectral.evaluate(state, [0.0, 1.0, 700.0, 800.0, 1e308, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert [next(rows)[0] for _ in range(3)] == [0.0, 1.0, 700.0]
        with pytest.raises(NumericError, match=r"not finite at t = 800:"):
            next(rows)


def test_evaluate_memory_does_not_grow_with_the_time_grid():
    state = random_state(two_basin(), 6)
    n_cells = 2**6
    peaks = {}
    for n_times in (1000, 1000, 100_000):  # the first run warms caches
        times = np.linspace(0.0, 50.0, n_times)
        tracemalloc.start()
        try:
            for _ in spectral.evaluate(state, times):
                pass
            peaks[n_times] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[100_000] <= 1.5 * peaks[1000]
    assert peaks[100_000] <= spectral._SCAN_BYTES + 64 * 8 * 2 * 6 * n_cells


# ---------------------------------------------------------------- tau


def test_absorbing_time_decaying_density_never_crosses():
    spec = single_basin()
    datum = CellFunction(2, 2, (0,), [[0.8, 0.2]])
    res = absorbing_time(spec, datum, threshold=1.0)
    assert res.tau == math.inf
    assert res.crossing_cell is None


def test_absorbing_time_datum_at_threshold_decaying():
    # tau is the first t >= 0 at which the peak reaches the threshold, so
    # a datum at the threshold gives 0 whether or not the peak stays there
    spec = single_basin(w_levels=(0.0,), v_levels=(1.0,))
    datum = CellFunction(2, 2, (0,), [[0.8, 0.8]])
    res = absorbing_time(spec, datum, threshold=0.8)
    assert (res.tau, res.dt) == (0.0, 0.0)


def test_absorbing_time_growing_mode_crosses():
    spec = two_basin(cross_lam=1.0, cross_mu=1.0, convention="paper")
    datum = CellFunction.constant(2, 2, [0, 1], 0.5)
    res = absorbing_time(spec, datum, threshold=0.9)
    # uniform density 0.5 e^{t/2}: crossing at 2 ln(1.8)
    assert res.tau == pytest.approx(2 * math.log(1.8), rel=1e-9)
    assert 0 < res.dt <= 1e-9 * res.tau
    assert res.tau - res.dt < 2 * math.log(1.8) <= res.tau
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
    assert (res.crossing_cell.basin, res.mode_index) == (0, None)


def test_absorbing_time_defective_matrix_on_unequal_basins():
    # basin 1 only decays from 0.6; it feeds basin 0, whose mean
    # e^{-t} (0.5 + 1.2 t) rises to 0.670 at t = 7/12
    datum = CellFunction(2, 3, (0, 1), [[0.5] * 4, [0.6] * 4])
    res = absorbing_time(jordan_block_spec(), datum, threshold=0.65)
    assert math.exp(-res.tau) * (0.5 + 1.2 * res.tau) == pytest.approx(0.65, rel=1e-8)
    assert 0.0 < res.tau < 7 / 12
    assert res.crossing_cell.basin == 0


def test_absorbing_time_does_not_depend_on_scan_chunks(monkeypatch):
    # budgets of 1, 2, 4 and 8 left ends per stacked exponential put the
    # batch edges in different places along the search
    datum = CellFunction(2, 3, (0, 1), [[0.5] * 4, [0.6] * 4])
    ref = absorbing_time(jordan_block_spec(), datum, threshold=0.65)
    time_bytes = 8 * 2 * (5 * 2 + 2 + 1)
    for budget in (1, 2, 4, 8):
        monkeypatch.setattr(spectral, "_SCAN_BYTES", budget * time_bytes)
        assert absorbing_time(jordan_block_spec(), datum, threshold=0.65) == ref


def test_absorbing_time_zero_names_its_cell_on_defective_matrix():
    spec = jordan_block_spec()
    datum = CellFunction.constant(2, 3, [0, 1], 0.5)
    res = absorbing_time(spec, datum, threshold=0.5)
    assert res.tau == 0.0
    assert res.crossing_cell == CellAddress(0, (0, 0))
    assert (res.crossing_cell.basin, res.mode_index) == (0, None)


def test_absorbing_time_names_dominant_wavelet():
    # at the peak cell the datum is mean 1/4, scale -1 part 1/4 and
    # scale -2 part 1/2, so the scale -2 wavelet on cell 0.0 dominates
    datum = CellFunction(2, 3, (0, 1), [[1.0, 0.0, 0.0, 0.0], [0.0] * 4])
    res = absorbing_time(two_basin(), datum, threshold=0.9)
    assert res.tau == 0.0
    assert res.crossing_cell == CellAddress(0, (0, 0))
    assert res.crossing_cell.basin == 0
    assert res.mode_index == WaveletIndex(-2, (0,), 1)


def test_absorbing_time_memory_does_not_grow_with_the_horizon():
    # the decaying density never reaches the threshold, so the search runs
    # to t_max; it holds its pending intervals' means, not a time grid
    spec = two_basin()
    datum = CellFunction(2, 7, (0, 1), np.random.default_rng(8).uniform(0.0, 1.0, (2, 64)))
    peaks = {}
    for t_max in (20.0, 20.0, 2e7):  # the first run warms caches
        tracemalloc.start()
        try:
            tau, _, _ = search(spec, datum, 0.999, t_max)
            peaks[t_max] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tau == math.inf
    assert peaks[2e7] <= 1.5 * peaks[20.0]


def test_absorbing_time_guards():
    datum = CellFunction(2, 2, (0,), [[0.5, 0.5]])
    with pytest.raises(UsageError):
        absorbing_time(single_basin(), datum, threshold=0.0)


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
    levels = [rng.uniform(-1.0, 1.0, (1, p**k)) for k in range(1, R + 1)]
    details = dense_details(levels, p)[0]
    j = data.draw(st.integers(0, p**R - 1))
    _, ref = wavelet_terms(details, j, p, 0)
    digits = tuple(int(d) for d in np.unravel_index(j, (p,) * R))
    got = spectral._mode_terms(levels, 0, digits, p).ravel()
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(details).max()

    # the label report gives at its peak cell, on a datum whose scale
    # parts are drawn, against the largest reference term
    spec = single_basin(p=p)
    datum = CellFunction(p, R + 1, (0,), [offset + rng.uniform(-1.0, 1.0, p**R)])
    state = init(spec, datum)
    cell, label = spectral._report(state, 0.0)
    values = eval_density(state).values[0]
    j = int(values.argmax())
    assert cell == CellAddress(0, tuple(int(d) for d in np.unravel_index(j, (p,) * R)))
    labels, ref = wavelet_terms(dense_details(state.details, p)[0], j, p, 0)
    labels, ref = [None] + labels, np.abs(np.concatenate([[state.mean[0]], ref]))
    second, top = np.sort(ref)[-2:]
    if top - second > 1e-9 * top:
        assert label == labels[int(np.argmax(ref))]


def test_search_means_are_the_evolved_means(monkeypatch):
    # a non-symmetric three-basin matrix, left ends batched four at a time
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
    monkeypatch.setattr(spectral, "_SCAN_BYTES", 4 * 8 * 3 * (5 * 3 + 2 + 1))
    batches, seen = [], []
    propagate, ceiling = spectral._propagate, spectral._Peak._ceiling
    monkeypatch.setattr(
        spectral, "_propagate", lambda state, t: batches.append(np.size(t)) or propagate(state, t)
    )
    monkeypatch.setattr(
        spectral._Peak, "_ceiling", lambda self, t0, t1, mean: seen.append((t0, mean)) or ceiling(self, t0, t1, mean)
    )
    # the means grow past 5 well inside the horizon
    tau, _ = spectral._Peak(state).first_crossing(5.0, 50.0)
    assert 0 < tau < 50
    assert max(batches) == 4 and len(seen) > len(batches)
    for t0, mean in seen:
        assert evolve(state, t0).mean.tobytes() == mean.tobytes()


def test_search_clears_a_decaying_density_up_to_the_float_range():
    # the density decays to its limit; every interval up to t_max = 1e308
    # is cleared, and no overflow is met on the way
    spec = two_basin()
    datum = CellFunction.constant(2, 2, (0, 1), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tau, dt, _ = search(spec, datum, 0.99, 1e308)
        res = absorbing_time(spec, datum, threshold=0.99)
    assert (tau, dt) == (math.inf, 0.0)
    assert (res.tau, res.crossing_cell) == (math.inf, None)


def test_crossing_before_an_overflow_in_the_same_chunk_is_found(monkeypatch):
    # the first batch of left ends reaches t = 1000, past the overflow
    # near t = 710, yet the basin means cross 0.99 at ln 1.98 long before.
    # The batch keeps the means before the overflow: no left end it held
    # is propagated again on its own.
    spec = two_basin(cross_lam=2.0, convention="paper")
    datum = CellFunction.constant(2, 2, (0, 1), 0.5)
    batches, propagate = [], spectral._propagate
    monkeypatch.setattr(
        spectral, "_propagate",
        lambda state, t: np.ndim(t) and batches.append(np.ravel(t).tolist()) or propagate(state, t),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tau, _, _ = search(spec, datum, 0.99, 2000.0)
    assert tau == pytest.approx(math.log(1.98), rel=1e-9)
    assert spectral._report(init(spec, datum), tau)[1] is None
    assert max(batches[0]) == 1000.0
    retried = [ts for k, ts in enumerate(batches) if len(ts) == 1 and any(ts[0] in b for b in batches[:k])]
    assert retried == []


def test_a_threshold_near_the_float_range_is_searched_like_any_other(monkeypatch):
    # Lambda = [[-1, 2], [2, -1]], so each mean is 0.5 e^t: it crosses
    # 1e308 at ln 2 + 308 ln 10, within 1 of where Lambda m overflows.
    # The drift is bounded on the means scaled by a power of two, so the
    # intervals there are set aside as anywhere else, not halved down to
    # 1e-9 wide; at 1e300, where nothing comes near the float range, the
    # search takes the same intervals to the same bits as unscaled.
    state = init(two_basin(cross_lam=2.0, convention="paper"), CellFunction.constant(2, 2, (0, 1), 0.5))
    calls, ceiling = [], spectral._Peak._ceiling

    def counted(self, t0, t1, mean):
        calls.append(t0)
        assert len(calls) <= 1000, "the search took more than 1000 intervals"
        return ceiling(self, t0, t1, mean)

    monkeypatch.setattr(spectral._Peak, "_ceiling", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tau, _ = spectral._Peak(state).first_crossing(1e308, 2000.0)
        assert tau == pytest.approx(math.log(2) + 308 * math.log(10), rel=1e-9)
        calls.clear()
        assert spectral._Peak(state).first_crossing(1e300, 2000.0)[0] == 691.4686754816948
        assert len(calls) == 51


def test_one_stacked_exponential_per_chunk_even_past_an_overflow(monkeypatch):
    # the means of this growing network overflow near t = 710, partway
    # through one chunk of eleven times: the chunk's one exponential holds
    # the rows before it, each the bits of its time evaluated alone
    state = init(two_basin(cross_lam=2.0, convention="paper"), CellFunction.constant(2, 2, (0, 1), 0.5))
    times = [100.0 * i for i in range(11)]
    calls, expm = [], spectral.matrix_exponential
    monkeypatch.setattr(spectral, "matrix_exponential", lambda *a: calls.append(a) or expm(*a))
    rows = []
    with pytest.raises(NumericError, match=re.escape("not finite at t = 800:")):
        for row in spectral.evaluate(state, times):
            rows.append(row)
    assert len(calls) == 1
    assert [t for t, _, _ in rows] == times[:8]
    for t, mean, values in rows:
        [(_, alone, alone_values)] = spectral.evaluate(state, [t])
        assert (alone.tobytes(), alone_values.tobytes()) == (mean.tobytes(), values.tobytes())
    with pytest.raises(NumericError, match=re.escape("not finite at t = 800:")):
        next(spectral.evaluate(state, [800.0]))


def test_a_scale_factor_past_the_float_range_is_zero():
    # s t = -1e9 * 1e300 rounds to -inf, and e^{s t} to 0, with no warning
    state = init(single_basin(w_levels=(1e9,)), CellFunction(2, 2, (0,), [[1.0, 0.0]]))
    later = evolve(state, 1e300)
    assert dense_details(later.details, 2).tolist() == [[[0.0, 0.0]]] and later.mean.tolist() == [0.5]
    assert eval_density(state, 1e300).values.tolist() == [[0.5, 0.5]]


def stiff_two_basin():
    """Derived, and no row grows; basin 0 leaks at rates of 1e-13, which
    the one uniformization rate of both rows, about 25000, rounds away."""
    return NetworkSpec(
        p=2, basins=(0, 1),
        cross_lambda={(0, 1): 1e-13, (1, 0): 1.0}, cross_mu={(1, 0): 2e-13, (0, 1): 1.0},
        w_kernels={0: RadialKernel(2, (1.0,)), 1: RadialKernel(2, (1e5,))},
        v_kernels={0: RadialKernel(2, (1.0,)), 1: RadialKernel(2, (2e5,))},
    )


# basin 0's mean on stiff_two_basin from 1 everywhere: the exponential of
# the exact basin matrix times the exact means, by mpmath at 80 digits
STIFF_MEANS = {1e9: 0.9999000059997133474, 1e13: 0.36788311991067290647,
               1e15: 3.7237978381805331842e-44}


@pytest.mark.xfail(
    strict=True,
    reason="one uniformization rate serves both rows, so P = I + Lambda / L "
    "rounds basin 0's rates of 1e-13 away",
)
@pytest.mark.parametrize("t", sorted(STIFF_MEANS))
def test_a_stiff_network_keeps_its_slow_leak(t):
    state = init(stiff_two_basin(), CellFunction.constant(2, 2, (0, 1), 1.0))
    [(_, mean, _)] = spectral.evaluate(state, [t])
    exact = STIFF_MEANS[t]
    assert abs(mean[0] - exact) <= 1e-9 * max(1.0, abs(exact))


def uncoupled_two_basin():
    """No cross rate and no jump: each basin only leaks, basin 0 at
    2.5e-13 and basin 1 at 2.5e10, so from 1 everywhere basin 0's density
    is e^{-2.5e-13 t}."""
    return NetworkSpec(
        p=2, basins=(0, 1), cross_lambda={}, cross_mu={},
        w_kernels={0: RadialKernel(2, (0.0,)), 1: RadialKernel(2, (0.0,))},
        v_kernels={0: RadialKernel(2, (1e-12,)), 1: RadialKernel(2, (1e11,))},
    )


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 3: both routes run one uniformization rate, about 2.5e10, for "
    "both rows, so P = I + Q / L rounds basin 0's leak away: 1 up to t = 1e9, 0 from 1e10",
)
@pytest.mark.parametrize("route", ["spectral", "chain"])
@pytest.mark.parametrize("t", [1e6, 1e9, 1e10, 3e10, 1e11])
def test_an_uncoupled_slow_basin_keeps_its_leak(route, t):
    """The oracle cannot catch this: both routes share the uniformization
    driver and give the same wrong value, so compare's gap is 0."""
    spec, datum = uncoupled_two_basin(), CellFunction.constant(2, 2, (0, 1), 1.0)
    if route == "spectral":
        [(_, _, values)] = spectral.evaluate(init(spec, datum), [t])
    else:
        values = solve(discretize(spec, 2), datum, t).values
    exact = math.exp(-2.5e-13 * t)
    assert np.abs(values[0] - exact).max() <= 1e-12 * exact


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


def test_a_fixed_point_of_a_nearly_split_chain_never_crosses(monkeypatch):
    # the horizon is 1e16; the grid used to find a false crossing at
    # 2.3e15, where the basin means have lost their accuracy. Lambda m(0)
    # is exactly 0, so the whole horizon is cleared as one interval.
    datum = CellFunction.constant(3, 2, (0, 1, 2), 0.5)
    calls = record_at(monkeypatch)
    res = absorbing_time(nearly_split_chain(1e-14), datum, threshold=0.99)
    assert (res.tau, res.t_max) == (math.inf, 100 / 1e-14)
    assert calls == []


def test_a_nearly_split_chain_never_crosses_out_to_a_far_horizon():
    # the horizon 100 / eps lies far past t = 2^53 / ||Lambda||, where an
    # error growing like t ||Lambda|| 2^-53 would move the fixed point
    datum = CellFunction.constant(3, 2, (0, 1, 2), 0.5)
    for eps in (1e-17, 1e-20):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = absorbing_time(nearly_split_chain(eps), datum, threshold=0.99)
        assert res.tau == math.inf


def search(spec, datum, threshold, t_max=None) -> tuple:
    """(tau, dt, t_max) of the certified search itself, on absorbing_time's
    horizon by default; absorbing_time runs it only where a row grows."""
    state = init(spec, datum)
    if t_max is None:
        return spectral._search(state, threshold)
    return (*spectral._Peak(state).first_crossing(threshold, t_max), t_max)


def record_at(monkeypatch) -> list:
    """Record the time of every _Peak.at call in the returned list."""
    calls = []
    at = spectral._Peak.at
    monkeypatch.setattr(spectral._Peak, "at", lambda self, t, mean: calls.append(t) or at(self, t, mean))
    return calls


def crossing(spec, datum, threshold):
    """The search's tau, or the message of the NumericError it raised."""
    try:
        return search(spec, datum, threshold)[0]
    except NumericError as exc:
        return str(exc)


@st.composite
def decade_networks(draw, decades=3, primes=(2, 3, 5)):
    """p in primes, 1-3 basins, either convention; every basin draws its
    own rate decade, up to `decades` either side of 1, so the rates span
    several of them."""
    p = draw(st.sampled_from(primes))
    basins = tuple(sorted(draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=min(3, p)))))
    scale = {a: 10.0 ** draw(st.integers(-decades, decades)) for a in basins}
    level = st.integers(0, 10).map(lambda k: k / 10)
    # loss over gain; with none, a paper-convention network grows
    excess = st.just(0.0) if draw(st.booleans()) else st.sampled_from([0.0, 0.1, 1.0])
    w, v = {}, {}
    for a in basins:
        gains = draw(st.lists(level, min_size=1, max_size=3))
        w[a] = RadialKernel(p, tuple(scale[a] * g for g in gains))
        v[a] = RadialKernel(p, tuple(scale[a] * (g + draw(excess)) for g in gains))
    lam, mu = {}, {}
    for a in basins:
        for b in basins:
            if a != b:
                lam[(a, b)] = min(scale[a], scale[b]) * draw(level)
                mu[(b, a)] = lam[(a, b)] * (1.0 + draw(excess))
    assume(any(x > 0 for k in v.values() for x in k.levels) or any(mu.values()))
    return NetworkSpec(
        p=p, basins=basins, cross_lambda=lam, cross_mu=mu, w_kernels=w, v_kernels=v,
        convention=draw(st.sampled_from(["derived", "paper"])),
    )


TIMES = st.lists(
    st.one_of(
        st.floats(5e-324, 2.2250738585072014e-308),  # subnormal
        st.builds(lambda m, k: m * 10.0**k, st.floats(1.0, 10.0), st.integers(-12, 30)),
        st.sampled_from([1e100, 1e300, 1e308, 1.7976931348623157e308]),
    ),
    min_size=1, max_size=10,
).map(lambda ts: sorted([0.0, 5e-324, *ts]))


@settings(max_examples=200, deadline=None)
@given(spec=decade_networks(), ts=TIMES, seed=st.integers(0, 2**32 - 1))
def test_stacked_exponential_is_each_time_alone_bit_for_bit(spec, ts, seed):
    state = random_state(spec, 1, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        stack = matrix_exponential(state.lam, state.kill, np.array(ts))
        singles = [matrix_exponential(state.lam, state.kill, t) for t in ts]
    assert stack.shape == (len(ts), *state.lam.shape)
    assert [s.tobytes() for s in stack] == [s.tobytes() for s in singles]
    assert not (stack < 0).any()

    # the propagator on means of either sign: the same rows up to the first
    # time in list order whose row is not finite (a growing network's means
    # overflow), and the error naming that time when it comes first
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, len(state.lam))
    state = replace(state, mean=x)
    rows = []
    for t in ts:
        try:
            rows.append(spectral._propagate(state, t))
        except NumericError:
            break
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = spectral._propagate(state, np.array(ts))  # ts opens with 0, which never fails
        assert [g.tobytes() for g in got] == [r.tobytes() for r in rows]
        if len(rows) < len(ts):
            bad = ts[len(rows)]
            with pytest.raises(NumericError, match=re.escape(f"not finite at t = {bad:g}:")):
                spectral._propagate(state, np.array(ts[len(rows):]))


@settings(max_examples=200, deadline=None)
@given(
    spec=decade_networks(),
    R=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    start=st.one_of(st.none(), st.floats(-4.0, 3.0)),
    width=st.floats(-6.0, 1.0),
    points=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_interval_bound_holds_inside_the_interval(spec, R, seed, start, width, points):
    state = random_state(spec, R, seed)
    rates = spectral._rate_pool(state)
    assume(rates.size)  # else nothing moves
    unit = 1.0 / rates.max()
    t0 = 0.0 if start is None else 10.0**start * unit
    w = 10.0**width * unit
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            mean = evolve(state, t0).mean
        except NumericError:
            assume(False)
        peak = spectral._Peak(state)
        bound, margin = peak._ceiling(t0, t0 + w, mean)
        # the density at t, propagated from the interval's left end
        left = replace(state, mean=mean)
        for t in [t0, t0 + w] + [t0 + u * w for u in points]:
            inside = spectral._propagate(left, t - t0)
            assert peak.at(t, inside) <= bound + margin


@settings(max_examples=150, deadline=None)
@given(
    spec=decade_networks(decades=1),
    R=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.0, 1.0),
    n=st.integers(20, 2000),
    pick=st.floats(0.0, 1.0),
)
def test_tau_matches_a_fine_grid_where_the_grid_resolves_the_crossing(spec, R, seed, spread, n, pick):
    # the grid the search used to scan had dt = 1e-3 over the fastest
    # rate; this reference is a hundred times finer, over its first n
    # steps. Rates within a decade or two, the paper convention (whose
    # networks grow where gains match losses) and data near one level in
    # every basin let the peak rise that early.
    spec = replace(spec, convention="paper")
    rng = np.random.default_rng(seed)
    shape = (len(spec.basins), spec.p**R)
    table = rng.uniform(0.0, 1.0) + spread * rng.uniform(-0.5, 0.5, shape)
    datum = CellFunction(spec.p, R + 1, spec.basins, np.clip(table, 0.0, 1.0))
    state = init(spec, datum)
    rates = spectral._rate_pool(state)
    assume(rates.size)
    h = 1e-5 / rates.max()
    ts = h * np.arange(n + 1)
    peaks = np.array([values.max() for _, _, values in spectral.evaluate(state, ts)])
    assume(peaks.max() > 0)
    # the grid points where the peak first rises above all before it
    records = [k for k in range(1, n + 1) if peaks[k] > peaks[:k].max()]
    if not records:  # a threshold clear above every grid peak is never reached
        threshold = peaks.max() + (1e-6 + pick) * abs(peaks.max())
        assert search(spec, datum, threshold, n * h)[0] == math.inf
        return
    # a threshold first reached at one of them, on a rise steep enough
    # that rounding cannot move the crossing time by 1e-10 of itself
    k = records[int(pick * (len(records) - 1))]
    threshold = 0.5 * (peaks[:k].max() + peaks[k])
    assume(threshold > 0 and k * (peaks[k] - peaks[k - 1]) > 1e-5 * abs(peaks[k]))
    tau, dt, _ = search(spec, datum, threshold, n * h)

    def peak(t):
        return eval_density(state, t).values.max()

    if tau <= ts[k - 1]:  # a crossing between two earlier grid points
        assert peak(tau) >= threshold
        return
    lo, hi = ts[k - 1], ts[k]
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if peak(mid) >= threshold else (mid, hi)
    assert math.isclose(tau, hi, rel_tol=1e-9)
    assert tau - dt < hi and hi - 1e-9 * hi < tau


@settings(max_examples=100, deadline=None)
@given(
    spec=decade_networks(),
    R=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    slow=st.floats(-12.0, -6.0),
    loss=st.sampled_from([1.0, 2.0]),
    threshold=st.floats(0.05, 1.2),
    below=st.floats(0.2, 1.0),
    paper=st.booleans(),
)
def test_an_isolated_slow_basin_does_not_move_tau(spec, R, seed, slow, loss, threshold, below, paper):
    assume(len(spec.basins) < spec.p)
    if paper:  # more networks that grow, and so cross
        spec = replace(spec, convention="paper")
    b = min(set(range(spec.p)) - set(spec.basins))
    rate = 10.0**slow
    wider = NetworkSpec(
        p=spec.p, basins=tuple(sorted(spec.basins + (b,))),
        cross_lambda=spec.cross_lambda, cross_mu=spec.cross_mu,
        w_kernels={**spec.w_kernels, b: RadialKernel(spec.p, (rate,))},
        v_kernels={**spec.v_kernels, b: RadialKernel(spec.p, (rate * loss,))},
        convention=spec.convention,
    )
    # a datum below the threshold by the factor `below` at most
    values = random_datum(spec, R, seed).values * min(1.0, below * threshold)
    datum = CellFunction(spec.p, R + 1, spec.basins, values)
    rows = dict(zip(spec.basins, values))
    rows[b] = np.zeros(spec.p**R)
    wide_datum = CellFunction(spec.p, R + 1, wider.basins, [rows[a] for a in wider.basins])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tau, _, t_max = search(spec, datum, threshold)
        got = crossing(wider, wide_datum, threshold)
    if tau < math.inf:
        assert math.isclose(got, tau, rel_tol=1e-9)
        return
    # the slow basin stretches the horizon: past the first one, a growing
    # network may cross or overflow
    if isinstance(got, str):
        got = float(re.search(r"not finite at t = (\S+):", got)[1])
    assert got >= t_max


def rescaled(spec, k):
    """The spec in a unit of time 2^-k long: every rate, each cross lambda
    and mu and each kernel level, times 2^k, which is exact."""
    scale = 2.0**k

    def kernels(table):
        return {a: RadialKernel(spec.p, tuple(x * scale for x in table[a].levels)) for a in spec.basins}

    return NetworkSpec(
        p=spec.p, basins=spec.basins,
        cross_lambda={key: float(x) * scale for key, x in spec.cross_lambda.items()},
        cross_mu={key: float(x) * scale for key, x in spec.cross_mu.items()},
        w_kernels=kernels(spec.w_kernels), v_kernels=kernels(spec.v_kernels),
        convention=spec.convention,
    )


def outcome(f, *args):
    """f(*args), or the type of the ultranet error it raised."""
    try:
        return f(*args)
    except (NumericError, ClassificationError) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(
    spec=decade_networks(),
    k=st.integers(-30, 30),
    R=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
    threshold=st.floats(0.05, 1.2),
    below=st.floats(0.2, 1.0),
)
def test_every_answer_scales_exactly_with_a_power_of_two_unit_of_time(spec, k, R, seed, threshold, below):
    # rates times 2^k and times times 2^-k: the same bits, each time
    # and rate scaled back. The datum lies below the threshold by the
    # factor `below` at most, so that tau is mostly searched.
    fast, unit = rescaled(spec, k), 2.0**-k
    R = max(R, spec.j_max)  # the chain resolves every kernel level
    values = random_datum(spec, R, seed).values * min(1.0, below * threshold)
    datum = CellFunction(spec.p, R + 1, spec.basins, values)
    times = [0.0, 0.1, 1.0, 10.0, 1e3]
    fast_times = [t * unit for t in times]

    def rows(s, ts):
        """Each time's means and density, then the index of a time that overflows."""
        out = []
        try:
            for _, mean, values in spectral.evaluate(init(s, datum), ts):
                out.append((mean.tobytes(), values.tobytes()))
        except NumericError:
            out.append(len(out))
        return out

    assert rows(spec, times) == rows(fast, fast_times)
    assert (decay_rates(spec, R) * 2.0**k).tobytes() == decay_rates(fast, R).tobytes()
    assert outcome(compare, spec, datum, times[:4]) == outcome(compare, fast, datum, fast_times[:4])
    assert outcome(classify, spec) == outcome(classify, fast)
    res = outcome(absorbing_time, spec, datum, threshold)
    if not isinstance(res, type):
        res = replace(res, tau=res.tau * unit, dt=res.dt * unit, t_max=res.t_max * unit)
    assert outcome(absorbing_time, fast, datum, threshold) == res

    def sampled(s, ts):
        out = simulate(discretize(s, R + 1), datum, SimConfig(n_paths=16, seed=5, record_times=tuple(ts)))
        return out.labels, out.estimates.tobytes(), out.stderrs.tobytes(), out.n_alive.tobytes()

    assert sampled(spec, times[1:3]) == sampled(fast, fast_times[1:3])


def relabelled(spec, sigma):
    """The spec with basin a renamed sigma[a]: its kernels and cross
    rates follow their labels."""

    def kernels(table):
        return {sigma[a]: table[a] for a in spec.basins}

    def cross(table):
        return {(sigma[a], sigma[b]): x for (a, b), x in table.items()}

    return NetworkSpec(
        p=spec.p, basins=tuple(sorted(sigma[a] for a in spec.basins)),
        cross_lambda=cross(spec.cross_lambda), cross_mu=cross(spec.cross_mu),
        w_kernels=kernels(spec.w_kernels), v_kernels=kernels(spec.v_kernels),
        convention=spec.convention,
    )


def solution(spec, datum, times) -> list:
    """(mean, values) at each time that evaluate reaches before the means overflow."""
    out = []
    try:
        out.extend((mean, values) for _, mean, values in spectral.evaluate(init(spec, datum), times))
    except NumericError:
        pass
    return out


INVARIANCE_TIMES = [0.0, 0.1, 1.0, 10.0]


@settings(max_examples=100, deadline=None)
@given(
    spec=decade_networks(primes=(3, 5)),
    data=st.data(),
    R=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
    threshold=st.floats(0.05, 1.2),
    below=st.floats(0.2, 1.0),
)
def test_every_answer_permutes_with_the_basin_labels(spec, data, R, seed, threshold, below):
    # The rows of the basin matrix and of the chain follow the labels, so
    # their products sum in another order: each row and gap agrees within
    # 1e-14 of the solution's size, times 2 for each squaring that the
    # faster of the two exponentials takes at that time, as a squaring
    # may double a rounding difference. classify is exact.
    sigma = data.draw(st.permutations(range(spec.p)))
    moved = relabelled(spec, sigma)
    R = max(R, spec.j_max)
    values = random_datum(spec, R, seed).values * min(1.0, below * threshold)
    datum = CellFunction(spec.p, R + 1, spec.basins, values)
    back = {sigma[a]: a for a in spec.basins}
    rows = [spec.basins.index(back[b]) for b in moved.basins]  # moved row i is row rows[i]
    moved_datum = CellFunction(spec.p, R + 1, moved.basins, values[rows])

    state = init(spec, datum)
    rate = max(-state.lam.diagonal().min() - min(0.0, state.kill.min()), discretize(spec, R + 1).series[0])
    here, there = solution(spec, datum, INVARIANCE_TIMES), solution(moved, moved_datum, INVARIANCE_TIMES)
    assert len(here) == len(there)
    tols = [1e-14 * 2.0 ** int(_squarings(rate, t)) * np.abs(v).max() for t, (_, v) in zip(INVARIANCE_TIMES, here)]
    for tol, (mean, v), (moved_mean, moved_v) in zip(tols, here, there):
        assert np.abs(moved_mean - mean[rows]).max() <= tol
        assert np.abs(moved_v - v[rows]).max() <= tol
    gaps = outcome(compare, spec, datum, INVARIANCE_TIMES)
    moved_gaps = outcome(compare, moved, moved_datum, INVARIANCE_TIMES)
    if isinstance(gaps, type):
        assert moved_gaps == gaps
    else:
        assert all(abs(x - y) <= tol for x, y, tol in zip(gaps, moved_gaps, tols))
    sets = outcome(classify, spec)
    if isinstance(sets, type):
        assert outcome(classify, moved) == sets
    else:
        assert outcome(classify, moved) == replace(
            sets,
            g1=tuple(sorted(sigma[a] for a in sets.g1)),
            g2=tuple(sorted(sigma[a] for a in sets.g2)),
        )
    res = outcome(absorbing_time, spec, datum, threshold)
    moved_res = outcome(absorbing_time, moved, moved_datum, threshold)
    if isinstance(res, type):
        assert moved_res == res
    else:
        assert moved_res.tau == pytest.approx(res.tau, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(spec=decade_networks(), data=st.data(), R=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_permuting_the_children_of_a_block_permutes_the_density(spec, data, R, seed):
    # Permuting the p children of one block keeps every ultrametric
    # distance, so it commutes with each radial kernel (Kozyrev, Izv.
    # Math. 66, 2002) and with the generator: the solution of the
    # permuted datum is the permuted solution, on both routes.
    R = max(R, spec.j_max)
    p = spec.p
    datum = random_datum(spec, R, seed)
    i = data.draw(st.integers(0, len(spec.basins) - 1))
    k = data.draw(st.integers(0, R - 1))  # the block's depth below its basin
    block = data.draw(st.integers(0, p**k - 1))
    order = np.arange(p**R).reshape(p**k, p, -1)
    order[block] = order[block][data.draw(st.permutations(range(p)))]
    order = order.ravel()

    def permuted(values):
        out = values.copy()
        out[i] = values[i][order]
        return out

    moved = CellFunction(p, R + 1, spec.basins, permuted(datum.values))
    here, there = solution(spec, datum, INVARIANCE_TIMES), solution(spec, moved, INVARIANCE_TIMES)
    assert len(here) == len(there)
    gen = discretize(spec, R + 1)
    for t, (mean, v), (moved_mean, moved_v) in zip(INVARIANCE_TIMES, here, there):
        size = np.abs(v).max()
        assert np.abs(moved_mean - mean).max() <= 1e-14 * size
        assert np.abs(moved_v - permuted(v)).max() <= 1e-14 * size
        exact = solve(gen, datum, t).values
        if np.isfinite(exact).all():
            moved_exact = solve(gen, moved, t).values
            assert np.abs(moved_exact - permuted(exact)).max() <= 1e-14 * np.abs(exact).max()


@st.composite
def steady_networks(draw):
    """p in {2, 3, 5}, 1-3 basins, either convention, and no row of the
    basin matrix that grows: losses at least the gains level by level,
    and under "paper" each cross loss at least p times its gain, so every
    exact gap is >= 0. Rates are multiples of 1/8, so a factor p is exact
    and gaps of exactly 0 occur."""
    p = draw(st.sampled_from([2, 3, 5]))
    basins = tuple(sorted(draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=min(3, p)))))
    convention = draw(st.sampled_from(["derived", "paper"]))
    rate = st.integers(0, 16).map(lambda k: k / 8)
    floor = p if convention == "paper" else 1
    w, v = {}, {}
    for a in basins:
        gains = draw(st.lists(rate, min_size=1, max_size=3))
        w[a] = RadialKernel(p, tuple(gains))
        v[a] = RadialKernel(p, tuple(g + draw(rate) for g in gains))
    lam, mu = {}, {}
    for a in basins:
        for b in basins:
            if a != b:
                lam[(a, b)] = draw(rate)
                mu[(b, a)] = lam[(a, b)] * draw(st.sampled_from([floor, floor + 1, 2 * floor]))
    assume(any(x > 0 for k in v.values() for x in k.levels) or any(mu.values()))
    spec = NetworkSpec(
        p=p, basins=basins, cross_lambda=lam, cross_mu=mu, w_kernels=w, v_kernels=v,
        convention=convention,
    )
    assert all(sum(row) <= 0 for row in spec.basin_rows)
    return spec


@settings(max_examples=150, deadline=None)
@given(
    spec=steady_networks(),
    R=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 1.0),
    threshold=st.one_of(st.none(), st.floats(0.01, 1.5)),
)
@example(spec=two_basin(), R=2, seed=4, scale=0.7, threshold=None)
def test_the_peak_never_rises_where_no_row_grows(spec, R, seed, scale, threshold):
    # u(t) = E[u0(X_t); alive] <= max u0, so tau is decided at t = 0: 0
    # exactly when the datum reaches the threshold (None: at its maximum
    # exactly), and inf otherwise
    values = scale * np.random.default_rng(seed).uniform(0.0, 1.0, (len(spec.basins), spec.p**R))
    datum = CellFunction(spec.p, R + 1, spec.basins, values)
    top = values.max()
    times = np.geomspace(1e-4, 1e6, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        peaks = [rows.max() for _, _, rows in spectral.evaluate(init(spec, datum), times)]
    assert max(peaks) <= top + 8 * 2.0**-53
    threshold = top if threshold is None else threshold
    assume(threshold > 0)
    res = absorbing_time(spec, datum, threshold=threshold)
    assert res.tau == (0.0 if top >= threshold else math.inf)
    assert (res.dt, res.t_max) == (0.0, math.inf)


def flat_network():
    """tau_flat's shape: derived, two basins, p = 2, losses above gains,
    and one cross gain a thousand times slower than the other, which
    stretches the search horizon to 4e5. No row grows."""
    w, v = RadialKernel(2, (0.6, 0.3)), RadialKernel(2, (0.8, 0.4))
    return NetworkSpec(
        p=2, basins=(0, 1),
        cross_lambda={(0, 1): 5e-4, (1, 0): 0.7}, cross_mu={(1, 0): 1.4, (0, 1): 1.8},
        w_kernels={0: w, 1: w}, v_kernels={0: v, 1: v},
    )


def test_flat_derived_network_scans_no_grid_point(monkeypatch):
    # the grid took 2M steps here; the search clears the horizon in a
    # few dozen intervals, evaluating the peak only at their left ends.
    # absorbing_time runs no search at all: no row grows.
    datum = CellFunction(2, 4, (0, 1), np.random.default_rng(3).uniform(0.0, 0.5, (2, 8)))
    calls = record_at(monkeypatch)
    res = absorbing_time(flat_network(), datum, threshold=0.99)
    assert res.tau == math.inf and res.crossing_cell is None
    assert (res.t_max, res.dt) == (math.inf, 0.0)
    assert calls == []
    assert search(flat_network(), datum, 0.99) == (math.inf, 0.0, 400000.0)
    assert 0 < len(calls) < 100


@pytest.mark.parametrize("above", [0, 1])
def test_a_chunk_whose_bound_is_within_the_margin_is_evaluated(monkeypatch, above):
    # basin 0 keeps its datum: its scale -3 rate is not 0, but the datum
    # has no scale -3 part, and its other rates are exactly 0. Basins 1
    # and 2 trade mass, so the basin means as a whole do move. With the
    # threshold at the peak, tau is 0; half the margin above it, the
    # bound of [0, t_max] does not clear it, the peaks at both ends are
    # below it, and the interval is set aside, as the peak there can rise
    # only by rounding.
    flat, k = RadialKernel(3, (0.0, 0.0, 2.3)), RadialKernel(3, (1.0,))
    spec = NetworkSpec(
        p=3, basins=(0, 1, 2),
        cross_lambda={(1, 2): 0.5, (2, 1): 0.5}, cross_mu={(1, 2): 1.5, (2, 1): 1.5},
        w_kernels={0: flat, 1: k, 2: k}, v_kernels={0: flat, 1: k, 2: k},
        convention="paper",
    )
    rng = np.random.default_rng(5)
    table = [np.repeat(rng.uniform(0.5, 1.0, 9), 3), np.full(27, 0.2), np.full(27, 0.4)]
    datum = CellFunction(3, 4, (0, 1, 2), table)
    state = init(spec, datum)
    peak = spectral._Peak(state)
    top = peak.at(0.0, state.mean)
    bound, margin = peak._ceiling(0.0, 1.0, state.mean)
    threshold = top + above * margin / 2
    assert bound < threshold <= bound + margin or above == 0
    calls = record_at(monkeypatch)
    tau, _ = peak.first_crossing(threshold, 1.0)  # no row grows: the search itself
    if above == 0:
        assert (calls, tau) == ([0.0], 0.0)
    else:  # both ends of [0, t_max] evaluated below the threshold
        assert (calls, tau) == ([0.0, 1.0], math.inf)


# ---------------------------------------------------------------- oracle


def test_compare_zero_datum():
    spec = two_basin()
    datum = CellFunction.constant(2, 2, [0, 1], 0.0)
    assert compare(spec, datum, [0.5, 2.0]) == [0.0, 0.0]


def test_compare_single_basin_tight():
    spec = single_basin()
    datum = CellFunction(2, 2, (0,), [[1.0, 0.0]])
    gaps = compare(spec, datum, [0.1, 1.0, 10.0])
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
    spec, datum, _ = case
    gaps = compare(spec, datum, [0.1, 1.0, 10.0])
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
    assert (decay_rates(spec, N - 1) <= 0).all()


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
    gaps = compare(spec, datum, [0.1, 1.0, 10.0])
    assert max(gaps) <= 1e-8


def test_init_refuses_scale_parts_larger_than_the_memory(monkeypatch):
    """The levels of the scale parts, and the three rows of cells that
    evaluate and the search hold besides, are checked against the memory
    before numpy reserves them; at full size a one-basin p = 2 network at
    R = 25 needs 1.3 GB (its levels 0.5 GB), where a (basins, R, cells)
    array and one product of its size took 6.7 GB each."""
    spec = NetworkSpec(
        p=2, basins=(0,), cross_lambda={}, cross_mu={},
        w_kernels={0: RadialKernel(2, (1.0,))}, v_kernels={0: RadialKernel(2, (1.0,))},
    )
    datum = CellFunction.constant(2, 6, [0], 1.0)  # R = 5, 32 cells: 62 floats of levels
    need = 8 * (62 + 3 * 32)
    monkeypatch.setattr(spectral, "_memory_bytes", lambda: need)
    assert sum(level.nbytes for level in init(spec, datum).details) == 8 * 62
    monkeypatch.setattr(spectral, "_memory_bytes", lambda: need - 1)
    with pytest.raises(MemoryError, match="1 basins x 5 scales x 32 cells"):
        init(spec, datum)


@pytest.mark.parametrize("p, R", [(2, 9), (3, 6), (5, 4)])
def test_init_holds_each_scale_part_at_its_own_tree_level(p, R):
    # sum_k p^k floats a basin, at most p / (p - 1) times the datum; a
    # (basins, R, cells) array would hold R times the datum
    spec = NetworkSpec(
        p=p, basins=(0, 1), cross_lambda={(0, 1): 0.5, (1, 0): 0.5},
        cross_mu={(0, 1): 1.0, (1, 0): 1.0},
        w_kernels={0: RadialKernel(p, (1.0,)), 1: RadialKernel(p, (0.5,))},
        v_kernels={0: RadialKernel(p, (1.0,)), 1: RadialKernel(p, (0.5,))},
    )
    datum = random_datum(spec, R)
    details = init(spec, datum).details
    assert [level.shape for level in details] == [(2, p**k) for k in range(1, R + 1)]
    held = sum(level.nbytes for level in details)
    assert held == 8 * 2 * sum(p**k for k in range(1, R + 1))
    assert held <= p / (p - 1) * datum.values.nbytes
