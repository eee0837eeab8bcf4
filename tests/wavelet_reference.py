"""Reference code that the tests compare the package with: single
wavelets, their eigenvalues under a radial kernel, synthesis from
wavelet coefficients, the scale parts repeated out to the finest cells,
and the cell address of each entry of a cell function. The package
forms none of them."""

from fractions import Fraction

import numpy as np

from ultranet.errors import UsageError
from ultranet.kernels import RadialKernel, kernel_mass, symbol_value
from ultranet.padic import CellAddress, enumerate_cells
from ultranet.wavelets import CellFunction, Expansion, WaveletIndex, wavelet_matrix


def eval_wavelet(index: WaveletIndex, cell: CellAddress, p: int) -> complex:
    """Value of the wavelet on a cell (basin digit ignored).

    The cell must be deep enough to resolve the oscillation: depth >=
    1 - r. Returns 0 off the support cell.
    """
    r = index.r
    if cell.depth < 1 - r:
        raise UsageError(
            f"cell depth {cell.depth} too small for scale r={r} (need >= {1 - r})"
        )
    if cell.digits[: -r - 1] != index.m_digits:
        return 0.0
    osc = cell.digits[-r - 1]
    return p ** (-r / 2) * np.exp(2j * np.pi * index.j * osc / p)


def eigenvalue(k: RadialKernel, r: int) -> Fraction:
    """Eigenvalue of the jump operator on scale-r wavelets: symbol minus mass."""
    return symbol_value(k, r) - kernel_mass(k)


def reconstruct_all(expansion: Expansion, depth: int) -> CellFunction:
    """Synthesis on every depth cell at once (depth >= R + 1)."""
    p = expansion.p
    W = wavelet_matrix(p, expansion.R, depth)
    values = p**0.5 * expansion.c0[:, None] + (expansion.coeffs @ W).real
    return CellFunction(p, depth, expansion.basins, values)


def dense_details(levels, p: int) -> np.ndarray:
    """Scale parts held per tree level (entry k - 1 of shape (..., p^k),
    as in SpectralState.details) repeated over the p^(R - k) finest cells
    of each block and stacked: (..., R, p^R), the scale axis before the
    cells."""
    R = len(levels)
    return np.stack(
        [np.repeat(level, p ** (R - k), axis=-1) for k, level in enumerate(levels, 1)], axis=-2
    )


def cells(f: CellFunction):
    """Yield the cell of each entry of f.values.ravel(), in that order."""
    for basin in f.basins:
        for digits in enumerate_cells(f.p, f.depth):
            yield CellAddress(basin, digits)
