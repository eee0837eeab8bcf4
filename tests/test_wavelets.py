import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultranet.errors import UsageError, ValidationError
from ultranet.padic import CellAddress, enumerate_cells
from ultranet.wavelets import (
    CellFunction,
    WaveletIndex,
    enumerate_wavelets,
    eval_wavelet,
    expand,
    reconstruct_all,
    wavelet_matrix,
)

SQRT2 = math.sqrt(2.0)


@pytest.mark.parametrize(
    "p,R,count", [(2, 1, 1), (2, 2, 3), (3, 2, 8), (5, 2, 24), (2, 3, 7)]
)
def test_enumeration_counts(p, R, count):
    idxs = enumerate_wavelets(p, R)
    assert len(idxs) == count
    assert len(idxs) == p**R - 1


def test_enumeration_order():
    idxs = enumerate_wavelets(3, 2)
    assert idxs[0] == WaveletIndex(-1, (), 1)
    assert idxs[1] == WaveletIndex(-1, (), 2)
    assert idxs[2] == WaveletIndex(-2, (0,), 1)
    assert idxs[-1] == WaveletIndex(-2, (2,), 2)


def test_eval_frozen_values():
    idx = WaveletIndex(-1, (), 1)
    up = eval_wavelet(idx, CellAddress(0, (0,)), 2)
    down = eval_wavelet(idx, CellAddress(0, (1,)), 2)
    assert abs(up - SQRT2) < 1e-15
    assert abs(down + SQRT2) < 1e-15
    # off the support cell
    deep = WaveletIndex(-2, (0,), 1)
    assert eval_wavelet(deep, CellAddress(0, (1, 0)), 2) == 0
    # depth too small to resolve the oscillation
    with pytest.raises(UsageError):
        eval_wavelet(deep, CellAddress(0, (0,)), 2)


def test_cell_function_validation():
    with pytest.raises(ValidationError, match="basin 0: expected 2 values"):
        CellFunction(2, 2, (0,), [[1.0]])  # missing cell (1,)
    with pytest.raises(ValidationError, match="basin 1: expected 2 values"):
        CellFunction(2, 2, (0, 1), [[1.0, 2.0], [1.0, 2.0, 3.0]])
    with pytest.raises(ValidationError, match="at least one basin"):
        CellFunction(2, 2, (), [])
    with pytest.raises(ValidationError, match="out of range"):
        CellFunction(2, 2, (2,), [[1.0, 2.0]])
    with pytest.raises(ValidationError, match="strictly increasing"):
        CellFunction(2, 2, (1, 0), [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValidationError, match="2 basins"):
        CellFunction(2, 2, (0, 1), [[1.0, 2.0]])
    f = CellFunction(2, 2, (0, 1), [[1.0, 2.0], [3.0, 4.0]])
    assert f.values.dtype == float
    assert np.array_equal(f.values, [[1.0, 2.0], [3.0, 4.0]])


def test_expand_frozen_constant():
    f = CellFunction.constant(2, 2, [0], 1.0)
    ex = expand(f, 1)
    assert abs(ex.c0[0] - 1 / SQRT2) < 1e-15
    (coeff,) = ex.coeffs[0]
    assert abs(coeff) < 1e-15


def test_expand_frozen_indicator():
    f = CellFunction.indicator(2, 2, (0,), CellAddress(0, (0,)))
    ex = expand(f, 1)
    assert abs(ex.c0[0] - 1 / (2 * SQRT2)) < 1e-15
    assert enumerate_wavelets(2, 1) == [WaveletIndex(-1, (), 1)]
    coeff = ex.coeffs[0, 0]
    assert abs(coeff - SQRT2 / 4) < 1e-15


def test_reconstruct_frozen_values():
    f = CellFunction.indicator(2, 2, (0,), CellAddress(0, (0,)))
    ex = expand(f, 1)
    back = reconstruct_all(ex, 2)
    assert back.basins == (0,)
    assert abs(back.values[0, 0] - 1.0) < 1e-12
    assert abs(back.values[0, 1] - 0.0) < 1e-12
    ones = reconstruct_all(expand(CellFunction.constant(2, 2, [0], 1.0), 1), 2)
    assert abs(ones.values[0, 1] - 1.0) < 1e-12


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("R", [1, 2, 3])
def test_gram_identity_with_constant(p, R):
    depth = R + 1
    W = wavelet_matrix(p, R, depth)
    n_cells = p ** (depth - 1)
    basis = np.vstack([np.full(n_cells, p**0.5), W])
    gram = basis @ basis.conj().T * p ** (-depth)
    assert np.abs(gram - np.eye(len(basis))).max() < 1e-12


@pytest.mark.parametrize("p", [2, 3, 5])
def test_zero_mean(p):
    R = 2
    W = wavelet_matrix(p, R, R + 1)
    means = W.sum(axis=1) * p ** (-(R + 1))
    assert np.abs(means).max() < 1e-14


@given(
    p=st.sampled_from([2, 3, 5]),
    R=st.integers(min_value=1, max_value=2),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_round_trip_exact_at_matching_depth(p, R, data):
    depth = R + 1
    n = p ** (depth - 1)
    basins = sorted(data.draw(
        st.lists(st.integers(min_value=0, max_value=p - 1), min_size=1, unique=True)
    ))
    values = [
        np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=-5, max_value=5, allow_nan=False),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        for b in basins
    ]
    f = CellFunction(p, depth, basins, values)
    ex = expand(f, R)
    back = reconstruct_all(ex, depth)
    assert np.abs(back.values - f.values).max() < 1e-12


def test_completeness_dimension():
    for p, R in [(2, 2), (3, 2), (5, 1)]:
        assert len(enumerate_wavelets(p, R)) + 1 == p**R


def test_expand_depth_guard():
    f = CellFunction.constant(2, 1, [0], 1.0)
    with pytest.raises(UsageError):
        expand(f, 1)


def test_integral_and_indicator_measure():
    f = CellFunction.indicator(3, 3, (1,), CellAddress(1, (2,)))
    # the subtree below one depth-2 cell has measure 1/9
    assert abs(f.integral() - 1 / 9) < 1e-15
    g = CellFunction.constant(3, 2, [0, 1, 2], 1.0)
    assert abs(g.integral() - 1.0) < 1e-15
