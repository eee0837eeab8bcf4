"""Reference code for the package's matrix exponentials:
uniformization.exponential (spectral.matrix_exponential on the basin
matrix) and the chain's level exponential (tree.solve)."""

import math
from fractions import Fraction

import numpy as np


def extended_expm(Q, t):
    """e^{tQ} in extended precision (64-bit significand on x86-64), by
    Taylor's series to 18 terms at ||tQ / 2^s||_inf <= 1/2 and s squarings.
    Its squarings carry its own roundoff into a stationary mean, so on a
    chain that keeps its mass the error grows like L t (L the largest exit
    rate). On the conservative 4-state chain of
    test_tree.random_generator(2, [1e3], 3, False, 0), L = 380, e^{tQ} u is
    7.4e-15 max|u| off the exact mean at L t = 380, 7.4e-12 at 3.8e5 and
    7.3e-9 at 3.8e8. scipy's float64 expm errs by 1.2e-12 max|u| on a
    conservative 32-state chain at L t = 2450, where this reference errs by
    3e-16 (50 digits). The tests rely on it only up to L t = 1e3, on chains
    that die (where no stationary mean carries the drift), or against a
    bound that grows like L t 2^-53 by more than the drift does."""
    A = np.asarray(Q, dtype=np.longdouble) * np.longdouble(t)
    norm = float(np.abs(A).sum(axis=1).max())
    s = max(0, math.ceil(math.log2(2 * norm))) if norm > 0 else 0
    B = A / np.longdouble(2) ** s
    eye = np.eye(len(A), dtype=np.longdouble)
    E = eye
    for k in range(18, 0, -1):
        E = eye + (B @ E) / k
    for _ in range(s):
        E = E @ E
    return E


def row_deficits(M):
    """Minus the row sums of a float matrix, summed exactly and rounded
    once: the killing rates that spectral.matrix_exponential takes with a
    matrix whose rows sum to no positive number."""
    return np.array([float(-sum(map(Fraction, row))) for row in np.asarray(M).tolist()])


def fraction_solve(A, b):
    """x with A x = b in Fractions, by Gauss-Jordan elimination; A square
    and nonsingular."""
    n = len(A)
    M = [list(row) + [v] for row, v in zip(A, b)]
    for i in range(n):
        pivot = next(r for r in range(i, n) if M[r][i] != 0)
        M[i], M[pivot] = M[pivot], M[i]
        for r in range(n):
            if r != i and M[r][i] != 0:
                f = M[r][i] / M[i][i]
                M[r] = [x - f * y for x, y in zip(M[r], M[i])]
    return [M[i][n] / M[i][i] for i in range(n)]


def closed_states(rows):
    """For the exact rows of a Metzler Lambda that sum to <= 0: the states
    each state reaches (itself included), and whether it lies in a closed
    class: a state that loses nothing, and whose reachable states do the
    same and all reach it back."""
    n = len(rows)
    reach = [{a} for a in range(n)]
    grew = True
    while grew:
        grew = False
        for a in range(n):
            more = set().union(*(reach[b] for b in range(n) if rows[a][b] > 0 and b != a))
            if not more <= reach[a]:
                reach[a] |= more
                grew = True
    closed = [all(sum(rows[b]) == 0 and a in reach[b] for b in reach[a]) for a in range(n)]
    return reach, closed


def exact_limit(rows, m0):
    """lim e^{t Lambda} m0 as t -> inf, in Fractions, for the exact rows of
    a Metzler Lambda that sum to <= 0. A state of a closed class C tends
    to pi_C . m0 (pi_C Lambda_CC = 0, sum 1). The transient states T tend
    to -Lambda_TT^-1 Lambda_TC m_C of those limits m_C."""
    n = len(rows)
    reach, closed = closed_states(rows)
    limit = [None] * n
    for a in range(n):
        if closed[a] and limit[a] is None:
            C = sorted(reach[a])
            A = [[rows[c][d] for c in C] for d in C]  # Lambda_CC transposed
            A[-1] = [Fraction(1)] * len(C)
            pi = fraction_solve(A, [Fraction(0)] * (len(C) - 1) + [Fraction(1)])
            value = sum(x * Fraction(m0[c]) for x, c in zip(pi, C))
            for c in C:
                limit[c] = value
    T = [a for a in range(n) if not closed[a]]
    if T:
        A = [[-rows[a][b] for b in T] for a in T]
        rhs = [sum(rows[a][c] * limit[c] for c in range(n) if closed[c]) for a in T]
        for a, x in zip(T, fraction_solve(A, rhs)):
            limit[a] = x
    return limit
