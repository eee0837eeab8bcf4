"""Reference code for the chain's level rates (tree.DiscreteGenerator)
and its level algebra (tree._level_algebra): the dense generator matrix,
and the dense form of an element, entry by entry from the ultrametric
level of each pair of cells."""

import importlib
import math
import pkgutil

import numpy as np

import ultranet
from ultranet.padic import enumerate_cells
from ultranet.tree import DiscreteGenerator

# the names under which the library once formed a dense chain array
DENSE_BUILDERS = ("matrix", "fill_jumps", "require_dense", "MAX_CHAIN_BYTES", "_jump_table")


def dense_chain_builders():
    """(module, name) of each ultranet module, or DiscreteGenerator, that
    defines one of DENSE_BUILDERS."""
    modules = [importlib.import_module(f"ultranet.{m.name}")
               for m in pkgutil.iter_modules(ultranet.__path__)]
    return [(getattr(owner, "__name__", owner), name)
            for owner in [*modules, DiscreteGenerator] for name in DENSE_BUILDERS
            if hasattr(owner, name)]


def levels(p, N):
    """The level of each pair of a basin's cells, in enumerate_cells
    order: the 1-based place of the first digit where their addresses
    differ, and 0 on the diagonal."""
    digits = np.array(enumerate_cells(p, N))
    differ = digits[:, None, :] != digits[None, :, :]
    return np.where(differ.any(axis=2), differ.argmax(axis=2) + 1, 0)


def dense_chain(gen):
    """(Q, kill) with one row per state: Q[i, k] is the within-basin rate
    at the level of (i, k), or the cross rate between their basins, and
    q_ii is minus the row's rates and kill, summed by math.fsum."""
    n = gen.per_basin
    level = levels(gen.p, gen.N)
    Q = np.zeros((gen.dim, gen.dim))
    for a in range(len(gen.basins)):
        for b in range(len(gen.basins)):
            block = Q[a * n:(a + 1) * n, b * n:(b + 1) * n]
            if a == b:
                block[...] = np.concatenate([[0.0], gen.within[a]])[level]
            else:
                block[...] = gen.cross[a, b]
    kill = np.repeat(gen.kill, n)
    np.fill_diagonal(Q, [-math.fsum([*row, k]) for row, k in zip(Q.tolist(), kill.tolist())])
    return Q, kill


def dense_element(gen, beta, c):
    """An element (beta, c) of the level algebra on gen's shape as one
    dense array: beta[a, b] between the cells of basins a != b, and
    c[a, k] between two cells of basin a that share k leading digits,
    c[a, N - 1] on the diagonal."""
    n = gen.per_basin
    level = levels(gen.p, gen.N)
    shared = np.where(level == 0, gen.N - 1, level - 1)
    E = np.repeat(np.repeat(beta, n, axis=0), n, axis=1)
    for a in range(len(gen.basins)):
        E[a * n:(a + 1) * n, a * n:(a + 1) * n] = c[a][shared]
    return E
