import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultranet.errors import ClassificationError, ValidationError
from ultranet.kernels import RadialKernel
from ultranet.network import (
    NetworkSpec,
    aggregate_rates,
    build_basin_matrix,
    classify,
)
from ultranet.spectral import decay_rates


def two_basin(cross_lam=1.0, cross_mu=2.0, w_levels=(1.0,), v_levels=None):
    """The standing two-basin fixture: p=2, equal kernels unless told not."""
    v_levels = w_levels if v_levels is None else v_levels
    return NetworkSpec(
        p=2,
        basins=(0, 1),
        cross_lambda={(0, 1): cross_lam, (1, 0): cross_lam},
        cross_mu={(0, 1): cross_mu, (1, 0): cross_mu},
        w_kernels={0: RadialKernel(2, w_levels), 1: RadialKernel(2, w_levels)},
        v_kernels={0: RadialKernel(2, v_levels), 1: RadialKernel(2, v_levels)},
    )


def single_basin(p=2, levels=(1.0,)):
    k = RadialKernel(p, levels)
    return NetworkSpec(
        p=p, basins=(0,), cross_lambda={}, cross_mu={},
        w_kernels={0: k}, v_kernels={0: k},
    )


def test_j_max_is_the_deepest_level_over_the_basins():
    assert two_basin().j_max == 1
    assert two_basin(w_levels=(1.0,), v_levels=(1.0, 0.0, 2.0)).j_max == 3
    # a kernel given for a digit that is not a basin does not count
    k = RadialKernel(3, (1.0, 1.0))
    spec = NetworkSpec(
        p=3, basins=(1,), cross_lambda={}, cross_mu={},
        w_kernels={1: k, 2: RadialKernel(3, (1.0,) * 5)}, v_kernels={1: k},
    )
    assert spec.j_max == 2
    assert replace(spec, v_kernels={1: RadialKernel(3, (1.0,) * 4)}).j_max == 4


def test_aggregates_frozen_two_basin():
    # kernel levels (1,) at p=2 give diagonal p*mass = 1/2
    spec = two_basin()
    sink = aggregate_rates(spec)
    loss_total = np.array(spec.loss_total, dtype=float)
    assert np.allclose(np.array(spec.gain_diag, dtype=float), [0.5, 0.5])
    assert np.allclose(loss_total, [2.5, 2.5])
    assert np.allclose(loss_total - 2 * sink, [1.5, 1.5])  # the gain totals
    assert np.allclose(sink, [0.5, 0.5])


def test_aggregates_single_basin_symmetric():
    sink = aggregate_rates(single_basin())
    assert sink == pytest.approx([0.0])


def test_aggregates_loss_only_network():
    spec = NetworkSpec(
        p=2, basins=(0,), cross_lambda={}, cross_mu={},
        w_kernels={0: RadialKernel(2, (0.0,))},
        v_kernels={0: RadialKernel(2, (1.0,))},
    )
    sink = aggregate_rates(spec)
    loss_total = np.array(spec.loss_total, dtype=float)
    assert loss_total - 2 * sink == pytest.approx([0.0])  # the gain total
    assert loss_total == pytest.approx([0.5])  # p * mass of levels (1,) at p=2


def _draining_basin(mu, v0):
    """Basin 0 drains toward basin 1 at mu and loses v0 at level 1."""
    k0 = RadialKernel(2, (0.0,))
    return NetworkSpec(
        p=2, basins=(0, 1), cross_lambda={}, cross_mu={(1, 0): mu},
        w_kernels={0: k0, 1: k0}, v_kernels={0: RadialKernel(2, (v0,)), 1: k0},
    )


def test_totals_beyond_the_float_range_are_refused():
    big = sys.float_info.max
    # loss_total = big + 1/2 still rounds to the largest float: accepted,
    # and every float made from the totals is finite
    spec = _draining_basin(big, 1.0)
    assert np.isfinite(aggregate_rates(spec)).all()
    assert np.isfinite(build_basin_matrix(spec)).all()
    assert all(math.isfinite(d.s) for d in decay_rates(spec, 2))
    # half an ulp of it more (p * mass = v0 / 2 = 2^970) rounds to inf
    with pytest.raises(ValidationError, match="basin 0: the total loss rate exceeds the float range"):
        _draining_basin(big, 2.0**971)


def test_lambda_matrix_frozen_conventions():
    spec = two_basin()
    paper = build_basin_matrix(replace(spec, convention="paper"))
    derived = build_basin_matrix(replace(spec, convention="derived"))
    assert np.array_equal(paper, [[-1.0, 1.0], [1.0, -1.0]])
    assert np.array_equal(derived, [[-1.0, 0.5], [0.5, -1.0]])
    assert np.array_equal(build_basin_matrix(spec), derived)
    assert np.array_equal(build_basin_matrix(single_basin()), [[0.0]])


def test_classify_frozen_conservative():
    c = classify(two_basin(), exact=True)
    assert c.g1 == (0, 1)
    assert c.g2 == ()
    assert c.is_conservative_matrix
    assert not c.dies_at_infinity
    assert c.is_substochastic
    assert not c.is_m_matrix  # the conservative matrix is singular


def test_classify_frozen_dying():
    c = classify(two_basin(cross_mu=4.0), exact=True)
    assert c.g2 == (0, 1)
    assert c.dies_at_infinity
    assert c.is_m_matrix
    eigs = np.linalg.eigvals(build_basin_matrix(replace(two_basin(cross_mu=4.0), convention="paper")))
    assert eigs.real.max() < 0


def test_classify_single_basin_degenerate():
    c = classify(single_basin(), exact=True)
    assert c.g1 == (0,)
    assert c.is_conservative_matrix


def test_classify_balanced_cross_network_is_inconsistent():
    # equal gain and loss with live cross rates: the "paper"-convention
    # matrix has a positive row sum, which is neither regime
    with pytest.raises(ClassificationError):
        classify(two_basin(cross_lam=1.0, cross_mu=1.0))


def test_classify_tolerance_absorbs_tiny_perturbation():
    spec = two_basin(cross_mu=2.0 + 1e-15)
    assert classify(spec).g1 == (0, 1)
    with pytest.raises(ClassificationError):
        # exact mode sees the perturbation side; it lands below equality
        classify(two_basin(cross_mu=2.0 - 1e-13), exact=True)


def test_validation_names_offending_cross_pair():
    with pytest.raises(ValidationError, match=r"lambda\[0<-1\]"):
        two_basin(cross_lam=3.0, cross_mu=2.0)


def test_validation_names_offending_kernel_level():
    with pytest.raises(ValidationError, match="level 1"):
        two_basin(w_levels=(2.0,), v_levels=(1.0,))


def test_validation_rejects_dead_network():
    with pytest.raises(ValidationError, match="total loss"):
        NetworkSpec(
            p=2, basins=(0,), cross_lambda={}, cross_mu={},
            w_kernels={0: RadialKernel(2, (0.0,))},
            v_kernels={0: RadialKernel(2, (0.0,))},
        )


def test_validation_rejects_diagonal_and_alien_keys():
    with pytest.raises(ValidationError, match="diagonal"):
        NetworkSpec(
            p=2, basins=(0, 1), cross_lambda={(0, 0): 1.0}, cross_mu={},
            w_kernels={b: RadialKernel(2, (1.0,)) for b in (0, 1)},
            v_kernels={b: RadialKernel(2, (1.0,)) for b in (0, 1)},
        )
    with pytest.raises(ValidationError, match="not a basin"):
        NetworkSpec(
            p=3, basins=(0, 1), cross_lambda={(0, 2): 1.0}, cross_mu={},
            w_kernels={b: RadialKernel(3, (1.0,)) for b in (0, 1)},
            v_kernels={b: RadialKernel(3, (1.0,)) for b in (0, 1)},
        )


def test_validation_rejects_unsorted_basins_and_bad_convention():
    k = {0: RadialKernel(2, (1.0,)), 1: RadialKernel(2, (1.0,))}
    with pytest.raises(ValidationError, match="increasing"):
        NetworkSpec(2, (1, 0), {}, {(0, 1): 1.0}, k, k)
    with pytest.raises(ValidationError, match="convention"):
        NetworkSpec(2, (0,), {}, {}, k, k, convention="verbatim")


@st.composite
def hyp1_specs(draw):
    """Random specs satisfying the standing inequalities by construction."""
    p = draw(st.sampled_from([2, 3, 5]))
    n_basins = draw(st.integers(min_value=1, max_value=min(3, p)))
    basins = tuple(sorted(draw(st.sets(
        st.integers(min_value=0, max_value=p - 1),
        min_size=n_basins, max_size=n_basins,
    ))))
    rate = st.integers(min_value=0, max_value=8).map(lambda k: k / 4)
    depth = draw(st.integers(min_value=1, max_value=2))
    v_levels = {b: tuple(draw(rate) for _ in range(depth)) for b in basins}
    w_levels = {
        b: tuple(w * draw(st.sampled_from([0.0, 0.5, 1.0])) for w in v_levels[b])
        for b in basins
    }
    mu = {}
    lam = {}
    for a in basins:
        for b in basins:
            if a != b:
                mu[(b, a)] = draw(rate)
                lam[(a, b)] = mu[(b, a)] * draw(st.sampled_from([0.0, 0.5, 1.0]))
    try:
        return NetworkSpec(
            p=p, basins=basins, cross_lambda=lam, cross_mu=mu,
            w_kernels={b: RadialKernel(p, w_levels[b]) for b in basins},
            v_kernels={b: RadialKernel(p, v_levels[b]) for b in basins},
        )
    except ValidationError:
        # only the all-zero-loss corner can fail; discard it
        from hypothesis import assume

        assume(False)


@given(spec=hyp1_specs())
@settings(max_examples=120, deadline=None)
def test_derived_matrix_is_dominant_z_matrix(spec):
    lam = build_basin_matrix(replace(spec, convention="derived"))
    off = lam - np.diag(np.diag(lam))
    assert off.min() >= 0
    assert np.diag(lam).max() <= 1e-15
    assert lam.sum(axis=1).max() <= 1e-12


@given(spec=hyp1_specs())
@settings(max_examples=120, deadline=None)
def test_derived_row_sums_equal_minus_sink_exactly(spec):
    rows = spec.basin_rows  # hyp1_specs are "derived"
    agg_sink = [
        Fraction(m - l, spec.p)
        for l, m in zip(spec.gain_total, spec.loss_total)
    ]
    for row, s in zip(rows, agg_sink):
        assert sum(row, Fraction(0)) == -s


@st.composite
def classifiable_specs(draw):
    """Specs with loss cross rates >= p * transposed gain rates, so the
    "paper"-convention row sums are <= 0 and classification never errors."""
    p = draw(st.sampled_from([2, 3]))
    n_basins = draw(st.integers(min_value=1, max_value=2))
    basins = tuple(range(n_basins))
    rate = st.integers(min_value=0, max_value=6).map(lambda k: k / 2)
    w = {b: (draw(rate),) for b in basins}
    bump = st.sampled_from([0.0, 0.5])
    v = {b: (w[b][0] + draw(bump),) for b in basins}
    lam, mu = {}, {}
    for a in basins:
        for b in basins:
            if a != b:
                lam[(a, b)] = draw(rate)
                mu[(b, a)] = p * lam[(a, b)] + draw(bump)
    spec_kwargs = dict(
        p=p, basins=basins, cross_lambda=lam, cross_mu=mu,
        w_kernels={b: RadialKernel(p, w[b]) for b in basins},
        v_kernels={b: RadialKernel(p, v[b]) for b in basins},
    )
    try:
        return NetworkSpec(**spec_kwargs)
    except ValidationError:
        from hypothesis import assume

        assume(False)


@given(spec=classifiable_specs())
@settings(max_examples=120, deadline=None)
def test_conservative_iff_paper_rows_sum_to_zero(spec):
    c = classify(spec, exact=True)
    rows = replace(spec, convention="paper").basin_rows
    zero_rows = all(sum(row, Fraction(0)) == 0 for row in rows)
    assert c.is_conservative_matrix == zero_rows
    assert set(c.g1) | set(c.g2) == set(spec.basins)


@given(spec=classifiable_specs())
@settings(max_examples=120, deadline=None)
def test_dying_specs_have_strictly_stable_spectrum(spec):
    c = classify(spec, exact=True)
    if c.dies_at_infinity:
        eigs = np.linalg.eigvals(build_basin_matrix(replace(spec, convention="paper")))
        assert eigs.real.max() < 0


def _outcome(spec):
    try:
        c = classify(spec)
    except ClassificationError:
        return "not substochastic"
    return c.g1, c.g2, c.dies_at_infinity, c.is_m_matrix


def _rescaled(spec, scale):
    """The spec with basin a's own rates times scale[a]: its kernels, the
    cross gains into it and the cross losses out of it. Each scaled pair
    of a rate inequality is scaled alike, so the inequalities hold."""
    def kernels(table):
        return {a: RadialKernel(spec.p, tuple(x * scale[a] for x in table[a].levels))
                for a in spec.basins}

    return NetworkSpec(
        p=spec.p, basins=spec.basins,
        cross_lambda={(a, b): float(x) * scale[a] for (a, b), x in spec.cross_lambda.items()},
        cross_mu={(b, a): float(x) * scale[a] for (b, a), x in spec.cross_mu.items()},
        w_kernels=kernels(spec.w_kernels), v_kernels=kernels(spec.v_kernels),
        convention=spec.convention,
    )


@given(spec=st.one_of(hyp1_specs(), classifiable_specs()), data=st.data())
@settings(max_examples=150, deadline=None)
def test_classify_ignores_the_unit_of_time_of_each_basin(spec, data):
    exponents = st.integers(min_value=-14, max_value=6)
    scale = {a: 10.0 ** data.draw(exponents) for a in spec.basins}
    assert _outcome(_rescaled(spec, scale)) == _outcome(spec)


def _det(rows):
    """Exact determinant by cofactor expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** j * x * _det([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, x in enumerate(rows[0])
    )


@given(spec=classifiable_specs())
@settings(max_examples=120, deadline=None)
def test_m_matrix_iff_the_exact_paper_matrix_is_nonsingular(spec):
    paper = replace(spec, convention="paper").basin_rows
    assert classify(spec).is_m_matrix == (_det(paper) != 0)


@given(spec=classifiable_specs(), k=st.integers(min_value=-14, max_value=6))
@settings(max_examples=120, deadline=None)
def test_m_matrix_flag_agrees_with_the_regimes_at_any_scale(spec, k):
    c = classify(_rescaled(spec, {a: 10.0**k for a in spec.basins}))
    assert not (c.is_conservative_matrix and c.is_m_matrix)  # a conservative matrix is singular
    assert c.is_m_matrix or not c.dies_at_infinity

