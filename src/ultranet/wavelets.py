"""Orthonormal wavelet bases on the within-basin tree.

Each basin carries a copy of the unit-scale subtree (points whose first
digit is the basin label). On that subtree, the basis at resolution R
consists of the constant function sqrt(p) together with one wavelet per
index (r, m, j): scale r in {-1, .., -R}, location digits m of length
-r - 1, and phase multiplier j in {1, .., p-1}. The wavelet with index
(r, m, j) is supported on the depth-(-r) cell whose within digits are m,
where it takes the value

    p^{-r/2} * exp(2 pi i j x_{-r} / p)

on the depth-(1 - r) subcell with next digit x_{-r}. Every such family
is orthonormal, has zero mean, and spans all functions that are constant
on depth-(R + 1) cells once the constant is included.

The solver forms no wavelet and no coefficient: spectral works on block
means, and a WaveletIndex only names a mode. No command calls the dense
table or expand; they stay because the benchmark tracer wraps them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, ValidationError
from .padic import CellAddress, cell_index, enumerate_cells, validate_prime


@dataclass(frozen=True)
class WaveletIndex:
    r: int
    m_digits: tuple[int, ...]
    j: int


def enumerate_wavelets(p: int, R: int) -> list[WaveletIndex]:
    """All indices at resolution R: r = -1, -2, .., -R; m lexicographic;
    j ascending. The count is p^R - 1."""
    validate_prime(p)
    if R < 1:
        raise UsageError(f"resolution must be >= 1, got R={R}")
    out = []
    for r in range(-1, -R - 1, -1):
        for m in itertools.product(range(p), repeat=-r - 1):
            for j in range(1, p):
                out.append(WaveletIndex(r, m, j))
    return out


def wavelet_matrix(p: int, R: int, depth: int) -> np.ndarray:
    """Dense table W[i, c] of wavelet i evaluated on depth cell c.

    Rows follow enumerate_wavelets order, columns follow enumerate_cells
    order. Requires depth >= R + 1.
    """
    if depth < R + 1:
        raise UsageError(f"depth {depth} cannot resolve scale -{R}")
    indices = enumerate_wavelets(p, R)
    cells = enumerate_cells(p, depth)
    W = np.zeros((len(indices), len(cells)), dtype=complex)
    n_cells = len(cells)
    for i, idx in enumerate(indices):
        span = n_cells // p ** (-idx.r)  # cells per fixed (m, oscillation digit)
        base = cell_index(idx.m_digits, p)
        amp = p ** (-idx.r / 2)
        for osc in range(p):
            val = amp * np.exp(2j * np.pi * idx.j * osc / p)
            start = (base * p + osc) * span
            W[i, start : start + span] = val
    return W


def cell_table(rows: int, p: int, depth: int, fill=0.0) -> np.ndarray:
    """A float table of shape (rows, p^(depth - 1)) filled with `fill`.

    numpy refuses a table whose size in bytes exceeds intp with a
    ValueError; this refuses it first, as the MemoryError numpy raises
    for a table it cannot allocate."""
    shape = (rows, p ** (depth - 1))
    if rows * shape[1] * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"a float table of shape {shape} exceeds numpy's size limit")
    return np.full(shape, fill, dtype=float)


class CellFunction:
    """A real function constant on depth-N cells of a set of basins.

    basins is a strictly increasing tuple of basin digits; values is one
    float array of shape (len(basins), p^(N - 1)) whose row i holds the
    cells of basins[i] in enumerate_cells order.
    """

    def __init__(self, p: int, depth: int, basins, values):
        validate_prime(p)
        if depth < 1:
            raise UsageError(f"depth must be >= 1, got {depth}")
        basins = tuple(basins)
        if not basins:
            raise ValidationError("a cell function needs at least one basin")
        for basin in basins:
            if not 0 <= basin < p:
                raise ValidationError(f"basin digit {basin} out of range for p={p}")
        if list(basins) != sorted(set(basins)):
            raise ValidationError(f"basins {basins} must be strictly increasing")
        if len(values) != len(basins):
            raise ValidationError(f"{len(basins)} basins need as many rows, got {len(values)}")
        n = p ** (depth - 1)
        for basin, row in zip(basins, values):
            if np.shape(row) != (n,):
                raise ValidationError(
                    f"basin {basin}: expected {n} values, got shape {np.shape(row)}"
                )
        self.p = p
        self.depth = depth
        self.basins = basins
        self.values = np.asarray(values, dtype=float)

    @classmethod
    def constant(cls, p: int, depth: int, basins, value: float) -> "CellFunction":
        return cls(p, depth, basins, cell_table(len(basins), p, depth, float(value)))

    @classmethod
    def indicator(cls, p: int, depth: int, basins, cell: CellAddress) -> "CellFunction":
        """1 on the subtree below the cell, 0 elsewhere in every basin."""
        if cell.depth > depth:
            raise UsageError("indicator digits deeper than the function depth")
        if cell.basin not in basins:
            raise ValidationError(f"cell basin {cell.basin} is not in basins {list(basins)}")
        values = cell_table(len(basins), p, depth)
        n = values.shape[1]
        span = n // p ** len(cell.digits)
        start = cell_index(cell.digits, p) * span
        values[basins.index(cell.basin), start : start + span] = 1.0
        return cls(p, depth, basins, values)

    def require_basins(self, basins) -> None:
        """Refuse unless the function covers exactly these basins."""
        if self.basins != tuple(basins):
            raise ValidationError(
                f"datum covers basins {list(self.basins)}, network has {list(basins)}"
            )

    def cells(self):
        """Yield the cell of each entry of values.ravel(), in that order."""
        for basin in self.basins:
            for digits in enumerate_cells(self.p, self.depth):
                yield CellAddress(basin, digits)

    def basin_integral(self, basin: int) -> float:
        """Integral over one basin's subtree (depth-N cells weigh p^{-N})."""
        return float(self.values[self.basins.index(basin)].sum()) * self.p ** (-self.depth)

    def integral(self) -> float:
        return sum(self.basin_integral(b) for b in self.basins)


@dataclass
class Expansion:
    """Wavelet coefficients of a CellFunction at resolution R, one row
    per basin.

    c0[i] is sqrt(p) times the integral over basins[i]; coeffs[i, k] is
    the inner product with wavelet k (enumerate_wavelets order) on that
    basin's subtree.
    """

    p: int
    R: int
    basins: tuple
    c0: np.ndarray  # (basins,)
    coeffs: np.ndarray  # (basins, p^R - 1), complex


def expand(f: CellFunction, R: int) -> Expansion:
    """Project a cell function on the resolution-R basis, every basin at once."""
    if f.depth < R + 1:
        raise UsageError(
            f"function depth {f.depth} cannot resolve scale -{R}; need depth >= {R + 1}"
        )
    p = f.p
    W = wavelet_matrix(p, R, f.depth)
    weight = p ** (-f.depth)
    c0 = p**0.5 * f.values.sum(axis=1) * weight
    coeffs = f.values @ W.conj().T * weight
    return Expansion(p=p, R=R, basins=f.basins, c0=c0, coeffs=coeffs)
