import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultranet.errors import UsageError, ValidationError
from ultranet.kernels import (
    RadialKernel,
    arrhenius_kernel,
    kernel_mass,
    symbol_value,
)
from ultranet.padic import CellAddress, enumerate_cells
from ultranet.wavelets import WaveletIndex

from wavelet_reference import eigenvalue, eval_wavelet


def test_kernel_validation():
    with pytest.raises(ValidationError):
        RadialKernel(2, ())
    with pytest.raises(ValidationError):
        RadialKernel(2, (-1.0,))
    with pytest.raises(ValidationError):
        RadialKernel(2, (float("nan"),))
    k = RadialKernel(2, (1.0, 2.0))
    assert k.j_max == 2
    assert k.level(1) == 1.0
    assert k.level(5) == 0.0
    with pytest.raises(UsageError):
        k.level(0)


def test_mass_frozen_values():
    assert abs(kernel_mass(RadialKernel(2, (1.0,))) - 0.25) < 1e-15
    assert abs(kernel_mass(RadialKernel(2, (1.0, 2.0))) - 0.5) < 1e-15
    assert kernel_mass(RadialKernel(3, (0.0, 0.0))) == 0.0


def test_eigenvalue_frozen_values():
    k = RadialKernel(2, (1.0,))
    assert abs(eigenvalue(k, -1) - (-0.5)) < 1e-15
    assert abs(eigenvalue(k, -2) - (-0.25)) < 1e-15
    zero = RadialKernel(5, (0.0, 0.0))
    for r in (-1, -2, -3):
        assert eigenvalue(zero, r) == 0.0
    with pytest.raises(UsageError):
        eigenvalue(k, 0)


def test_symbol_value_and_table():
    k = RadialKernel(2, (1.0,))
    # symbol at radius p^{1-r} is eigenvalue plus mass
    assert abs(symbol_value(k, -1) - (-0.25)) < 1e-15


def test_arrhenius():
    k = arrhenius_kernel(2, (0.0, 0.0), 3.7)
    assert k.levels == (1.0, 1.0)
    k1 = arrhenius_kernel(2, (1.0,), 1.0)
    assert abs(k1.levels[0] - math.exp(-1)) < 1e-15
    k2 = arrhenius_kernel(3, (1.0, 2.0), 0.5)
    assert abs(k2.levels[0] - math.exp(-2)) < 1e-15
    assert abs(k2.levels[1] - math.exp(-4)) < 1e-15
    with pytest.raises(UsageError):
        arrhenius_kernel(2, (1.0,), 0.0)


@given(
    w1=st.floats(min_value=0, max_value=100, allow_nan=False),
    p=st.sampled_from([2, 3, 5, 7]),
)
@settings(max_examples=100, deadline=None)
def test_scale_minus_one_collapse(w1, p):
    """The r = -1 eigenvalue collapses to -w1/p with no residue."""
    assert float(eigenvalue(RadialKernel(p, (w1,)), -1)) == -w1 / p


@given(
    levels=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=4),
    p=st.sampled_from([2, 3, 5, 7]),
    r=st.integers(min_value=-6, max_value=-1),
)
@settings(max_examples=100, deadline=None)
def test_symbol_and_mass_are_exact(levels, p, r):
    """symbol_value equals eigenvalue plus mass, each summed from its
    definition in Fractions, with nothing lost to cancellation."""
    k = RadialKernel(p, tuple(levels))
    c = Fraction(p - 1, p)
    gamma = c * sum((Fraction(w) / p**j for j, w in enumerate(levels, 1)), Fraction(0))
    lam = -c * sum(
        (Fraction(k.level(j)) / p**j for j in range(1, -r + 1)), Fraction(0)
    ) - Fraction(k.level(-r)) / p ** (1 - r)
    assert kernel_mass(k) == gamma
    assert symbol_value(k, r) == lam + gamma
    assert eigenvalue(k, r) == lam


def _riemann_mass(k: RadialKernel, depth: int) -> float:
    """Independent mass oracle: cell-sum of w(|y|_p) over one subtree."""
    total = 0.0
    for digits in enumerate_cells(k.p, depth):
        nonzero = [i for i, d in enumerate(digits, start=1) if d != 0]
        w = k.level(nonzero[0]) if nonzero else 0.0
        total += w
    return total * k.p ** (-depth)


@pytest.mark.parametrize(
    "p,levels",
    [(2, (1.0,)), (2, (1.0, 2.0)), (3, (0.5, 0.0, 2.5)), (5, (0.3,))],
)
def test_mass_matches_riemann_cell_sum(p, levels):
    k = RadialKernel(p, levels)
    assert abs(kernel_mass(k) - _riemann_mass(k, k.j_max + 2)) < 1e-12


def _apply_jump_operator(k: RadialKernel, depth: int, vec: np.ndarray) -> np.ndarray:
    """Independent operator oracle: (Wu)(I) = sum_J (u(J)-u(I)) w(|I-J|) p^{-N}."""
    cells = enumerate_cells(k.p, depth)
    out = np.zeros(len(cells), dtype=complex)
    for i, ci in enumerate(cells):
        acc = 0.0j
        for j, cj in enumerate(cells):
            if i == j:
                continue
            # |I-J| = p^{-l}, l the position of the first differing digit
            l = next(n for n, (a, b) in enumerate(zip(ci, cj), start=1) if a != b)
            acc += (vec[j] - vec[i]) * k.level(l)
        out[i] = acc * k.p ** (-depth)
    return out


@pytest.mark.parametrize(
    "p,levels,r",
    [
        (2, (1.0,), -1),
        (2, (1.0,), -2),
        (2, (1.0, 2.0), -1),
        (3, (0.7, 0.2), -2),
        (5, (1.5,), -1),
    ],
)
def test_eigen_ratio_against_discretized_operator(p, levels, r):
    k = RadialKernel(p, levels)
    depth = max(k.j_max, -r) + 1
    idx = WaveletIndex(r, (0,) * (-r - 1), 1)
    vec = np.array(
        [eval_wavelet(idx, CellAddress(0, d), p) for d in enumerate_cells(p, depth)]
    )
    applied = _apply_jump_operator(k, depth, vec)
    assert np.abs(applied - float(eigenvalue(k, r)) * vec).max() < 1e-10
