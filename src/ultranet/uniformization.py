"""The matrix exponential by uniformization: one driver, two algebras.

For a Metzler Q (no negative entry off the diagonal) and L >= -min q_ii,
P = I + Q/L has no negative entry and e^{tQ} = sum_k e^{-Lt} (Lt)^k / k!
P^k (Jensen, Skand. Aktuarietidskr. 36, 1953). The driver sums it at
t / 2^s, L t / 2^s < 1/2, and squares the result s times (Grassmann,
Comput. Oper. Res. 4, 1977). No factor has a negative entry, so like the
GTH algorithm (Grassmann, Taksar & Heyman, Oper. Res. 33, 1985) nothing
is subtracted, and a killed state decays to exact zeros. The rows of
states that reach no killing (or growing) row sum to exactly 1 and are
rescaled to 1 after the series and after each squaring, so a
conservative chain keeps its limit at any time.

These steps are written once: series forms the powers of P, drive the
exponential at each time from them. An algebra supplies only its
identity, P, product and row sums, each element one array. There are
two: dense matrices (exponential: the spectral solver's basin means)
and the chain oracle's level algebra (tree._level_exponential).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError

# Terms of the series at y = L t / 2^s < 1/2. Past w_{K+1} each weight
# w_k = e^{-y} y^k / k! is at most y / (K + 2) times the one before, so the
# tail past w_K is at most w_{K+1} / (1 - y / (K + 2)). At y = 1/2 that is
# 1.5e-17 for K = 14, below 2^-53 = 1.1e-16, while w_14 = 4.2e-16 alone is
# above it; the tail grows with y, so K = 14 holds at every y < 1/2.
_TERMS = 15


def _weights(y: np.ndarray) -> np.ndarray:
    """Poisson weights e^{-y} y^k / k!, k < _TERMS, a row per y; in place, as np.cumprod copies."""
    weights = np.empty((len(y), _TERMS))
    weights[:, 0] = [math.exp(-x) for x in y.tolist()]
    for k in range(1, _TERMS):
        np.multiply(weights[:, k - 1], y / k, out=weights[:, k])
    return weights


def _squarings(rate: float, t=1.0):
    """The least s >= 0 with rate * t / 2^s < 1/2, for a time or an array
    of times. t is scaled into [1/2, 1) first, so rate * t may lie past
    the float range."""
    n, e = np.frexp(t)
    return np.maximum(0, e + 1 + np.frexp(rate * n)[1])


def _reaches_a_kill(Q: np.ndarray, kill: np.ndarray) -> np.ndarray:
    """Whether each state reaches a state of nonzero kill, itself included,
    along the positive off-diagonal entries of Q: a search backwards from
    those states that visits each state once."""
    jumps = Q > 0  # the diagonal is <= 0
    reach = np.asarray(kill) != 0
    new = reach
    while new.any():
        new = jumps[:, new].any(axis=1) & ~reach
        reach = reach | new
    return reach


def series(L: float, kill: np.ndarray, identity: np.ndarray, jumps, product) -> tuple:
    """(rate, shift, [I, P, .., P^(_TERMS - 1)]) for a Q of largest exit
    rate L whose rows sum to -kill: the rate L + c, c the largest growth;
    the shift c; and the powers of P = I + (Q - c I) / rate, formed by
    jumps(rate) and product, P on the left. Only I where the rate is 0."""
    rate = L + max(0.0, -float(np.min(kill, initial=0.0)))
    powers = [identity]
    if rate > 0:
        powers.append(jumps(rate))
        while len(powers) < _TERMS:
            powers.append(product(powers[1], powers[-1]))
    return rate, rate - L, powers  # the shift is exact where it is <= L (Sterbenz)


def drive(product, sums, terms: tuple, closed: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The stack of e^{t_i Q} for a 1-D array of times, from the terms
    series(..) gives for Q: the powers with each time's Poisson weights
    at t_i / 2^s_i, times e^{shift t_i / 2^s_i} (so it overflows only
    where e^{tQ} does), then s_i squarings; the closed rows (reaching no
    kill) are rescaled to sum 1 after each step. A squaring touches only
    the times that need it, and a time stops once a squaring returns its
    slice bit for bit (every later one would too), so slice i is the
    exponential at t_i alone."""
    rate, shift, powers = terms
    squarings = _squarings(rate, t) if rate > 0 else np.zeros(len(t), dtype=int)
    taus = np.ldexp(t, -squarings)
    out = np.zeros((len(t), *powers[0].shape))
    for weight, power in zip(_weights(rate * taus).T, powers):
        out += weight[:, None, None] * power
    if shift:
        out *= np.array([math.exp(shift * x) for x in taus.tolist()])[:, None, None]

    def rescale(E):
        if closed.any():
            E /= np.where(closed, sums(E), 1.0)[..., None]
        return E

    rescale(out)
    left = squarings  # the squarings each time still takes
    while left.any():
        need = left > 0
        part = out[need]
        square = rescale(product(part, part))
        out[need] = square
        left[need] = np.where((square == part).all(axis=(1, 2)), 0, left[need] - 1)
    return out


def exponential(Q: np.ndarray, kill: np.ndarray, t=1.0) -> np.ndarray:
    """e^{tQ} for a Metzler Q whose rows sum to -kill; for a 1-D array of
    times, the (n, B, B) stack of e^{t_i Q}: the driver on dense
    matrices, its series formed once for all the times."""
    Q = np.asarray(Q, dtype=float)
    ts = np.asarray(t, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise UsageError(f"matrix must be square, got shape {Q.shape}")
    if ts.ndim > 1:
        raise UsageError(f"times must be a scalar or a 1-D array, got shape {ts.shape}")
    if not (np.isfinite(Q).all() and np.isfinite(ts).all() and (ts >= 0).all()):
        raise UsageError("matrix exponential needs finite entries and times >= 0")
    L = float(-Q.diagonal().min(initial=0.0))

    def jumps(rate):
        P = Q / rate
        # L >= -q_ii, so L + q_ii rounds to no negative number
        np.fill_diagonal(P, (L + Q.diagonal()) / rate)
        return P

    terms = series(L, kill, np.eye(len(Q)), jumps, np.matmul)
    out = drive(np.matmul, lambda E: E.sum(axis=-1), terms, ~_reaches_a_kill(Q, kill), ts.ravel())
    return out if ts.ndim else out[0]
