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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

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


class CellFunction:
    """A real function constant on depth-N cells of a set of basins.

    values maps each basin digit to a flat array of cell values in
    enumerate_cells order.
    """

    def __init__(self, p: int, depth: int, values: Mapping):
        validate_prime(p)
        if depth < 1:
            raise UsageError(f"depth must be >= 1, got {depth}")
        self.p = p
        self.depth = depth
        n = p ** (depth - 1)
        table = {}
        for basin, cells in values.items():
            if not 0 <= basin < p:
                raise ValidationError(f"basin digit {basin} out of range for p={p}")
            arr = np.asarray(cells, dtype=float)
            if arr.shape != (n,):
                raise ValidationError(
                    f"basin {basin}: expected {n} values, got shape {arr.shape}"
                )
            table[basin] = arr
        if not table:
            raise ValidationError("a cell function needs at least one basin")
        self.table = table

    @property
    def basins(self) -> list[int]:
        return sorted(self.table)

    @classmethod
    def constant(cls, p: int, depth: int, basins, value: float) -> "CellFunction":
        n = p ** (depth - 1)
        return cls(p, depth, {b: np.full(n, float(value)) for b in basins})

    @classmethod
    def indicator(cls, p: int, depth: int, basin: int, digits: tuple) -> "CellFunction":
        """1 on the subtree below (basin, digits), 0 elsewhere in the basin."""
        n = p ** (depth - 1)
        arr = np.zeros(n)
        if len(digits) > depth - 1:
            raise UsageError("indicator digits deeper than the function depth")
        span = n // p ** len(digits)
        start = cell_index(tuple(digits), p) * span
        arr[start : start + span] = 1.0
        return cls(p, depth, {basin: arr})

    def value_at(self, cell: CellAddress) -> float:
        """Value on a cell at the native depth or deeper (local constancy)."""
        if cell.depth < self.depth:
            raise UsageError(
                f"cell depth {cell.depth} is coarser than the function depth {self.depth}"
            )
        if cell.basin not in self.table:
            raise UsageError(f"basin {cell.basin} not covered by this function")
        return float(self.table[cell.basin][cell_index(cell.digits[: self.depth - 1], self.p)])

    def basin_integral(self, basin: int) -> float:
        """Integral over one basin's subtree (depth-N cells weigh p^{-N})."""
        return float(self.table[basin].sum()) * self.p ** (-self.depth)

    def integral(self) -> float:
        return sum(self.basin_integral(b) for b in self.basins)


@dataclass
class Expansion:
    """Per-basin wavelet coefficients of a CellFunction at resolution R.

    c0[b] is sqrt(p) times the basin integral; coeffs[b][index] is the
    inner product with the indexed wavelet on that basin's subtree.
    """

    p: int
    R: int
    c0: dict
    coeffs: dict

    @property
    def basins(self) -> list[int]:
        return sorted(self.c0)


def expand(f: CellFunction, R: int) -> Expansion:
    """Project a cell function on the resolution-R basis, basin by basin."""
    if f.depth < R + 1:
        raise UsageError(
            f"function depth {f.depth} cannot resolve scale -{R}; need depth >= {R + 1}"
        )
    p = f.p
    indices = enumerate_wavelets(p, R)
    W = wavelet_matrix(p, R, f.depth)
    weight = p ** (-f.depth)
    c0 = {}
    coeffs = {}
    for b in f.basins:
        vec = f.table[b]
        c0[b] = p**0.5 * float(vec.sum()) * weight
        inner = W.conj() @ vec * weight
        coeffs[b] = dict(zip(indices, inner.tolist()))
    return Expansion(p=p, R=R, c0=c0, coeffs=coeffs)


def reconstruct_all(expansion: Expansion, depth: int) -> CellFunction:
    """Synthesis on every depth cell at once (depth >= R + 1)."""
    p = expansion.p
    indices = enumerate_wavelets(p, expansion.R)
    W = wavelet_matrix(p, expansion.R, depth)
    values = {}
    for b in expansion.basins:
        cvec = np.array([expansion.coeffs[b][idx] for idx in indices])
        values[b] = p**0.5 * expansion.c0[b] + (cvec[:, None] * W).real.sum(axis=0)
    return CellFunction(p, depth, values)
