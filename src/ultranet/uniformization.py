"""The one matrix exponential of the package, by uniformization.

For a Metzler Q (no negative entry off the diagonal) and L >= -min q_ii,
P = I + Q/L has no negative entry and e^{tQ} = sum_k e^{-Lt} (Lt)^k / k!
P^k (Jensen, Skand. Aktuarietidskr. 36, 1953). exponential sums it at
t / 2^s, L t / 2^s < 1/2, and squares the result s times (Grassmann,
Comput. Oper. Res. 4, 1977). No factor has a negative entry, so like the
GTH algorithm (Grassmann, Taksar & Heyman, Oper. Res. 33, 1985) nothing
is subtracted, and a killed state decays to exact zeros. The rows of
states that reach no killing (or growing) row sum to exactly 1 and are
rescaled to 1 after the series and after each squaring, so a
conservative chain keeps its limit at any time.

Both routes use it: the spectral solver for its basin means
(spectral._propagate), the chain oracle for its dense e^{tQ}
(tree.solve). The chain matrix, the oracle's action and the Monte Carlo
sampler stay independent of the spectral solver.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError

_TAIL = 2.0**-53


def _poisson_weights(y: float) -> np.ndarray:
    """The Poisson weights e^{-y} y^k / k! for k = 0..K. Once K + 2 > y,
    each term past w_{K+1} is at most y / (K + 2) times the one before, so
    the tail beyond K is at most w_{K+1} / (1 - y / (K + 2)); K is the
    first index where that bound falls below 2^-53."""
    weights = [math.exp(-y)]
    while True:
        k = len(weights)
        w = weights[-1] * y / k
        if k + 1 > y and w < _TAIL * (1.0 - y / (k + 1)):
            return np.array(weights)
        weights.append(w)


# Terms of the series at y <= 1/2: the tail past them lies below 2^-53.
_TERMS = len(_poisson_weights(0.5))


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


def exponential(Q: np.ndarray, kill: np.ndarray, t=1.0) -> np.ndarray:
    """e^{tQ} for a Metzler Q whose rows sum to -kill; for a 1-D array of
    times, the (n, B, B) stack of e^{t_i Q}. Where a row grows (kill < 0)
    the series is that of Q - cI, c the largest growth, times e^{c t / 2^s},
    so the result overflows only where e^{tQ} does. The _TERMS - 1 powers
    of P are formed once, one at a time, and added to every time's slice
    with its own Poisson weights; a squaring touches only the times that
    need it. So slice i is bit for bit the exponential at t_i alone."""
    Q = np.asarray(Q, dtype=float)
    ts = np.asarray(t, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise UsageError(f"matrix must be square, got shape {Q.shape}")
    if ts.ndim > 1:
        raise UsageError(f"times must be a scalar or a 1-D array, got shape {ts.shape}")
    if not (np.isfinite(Q).all() and np.isfinite(ts).all() and (ts >= 0).all()):
        raise UsageError("matrix exponential needs finite entries and times >= 0")
    times = ts.ravel()
    L = float(-Q.diagonal().min(initial=0.0))
    rate = L + max(0.0, -float(np.min(kill, initial=0.0)))
    shift = rate - L  # P = I + (Q - shift I) / rate; exact where c <= L (Sterbenz)
    squarings = _squarings(rate, times) if rate > 0 else np.zeros(len(times), dtype=int)
    taus = np.ldexp(times, -squarings)
    y = rate * taus
    weights = np.empty((len(times), _TERMS))  # e^{-y} y^k / k!, one row per time
    weights[:, 0] = [math.exp(-x) for x in y.tolist()]
    weights[:, 1:] = y[:, None] / np.arange(1, _TERMS)
    weights = np.cumprod(weights, axis=1)
    out = np.zeros((len(times), *Q.shape))
    diagonal = np.arange(len(Q))
    out[:, diagonal, diagonal] = weights[:, :1]
    if rate > 0:
        P = Q / rate
        # L >= -q_ii, so L + q_ii rounds to no negative number
        np.fill_diagonal(P, (L + Q.diagonal()) / rate)
        power = P
        for k in range(1, _TERMS):
            if k > 1:
                power = P @ power
            out += weights[:, k, None, None] * power
        del P, power
    if shift:
        out *= np.array([math.exp(shift * x) for x in taus.tolist()])[:, None, None]
    closed = ~_reaches_a_kill(Q, kill)

    def rescale(E):
        if closed.any():
            E /= np.where(closed, E.sum(axis=2), 1.0)[:, :, None]
        return E

    rescale(out)
    first = squarings.min() if len(times) else 0
    for _ in range(first):  # the squarings every time takes
        out = rescale(out @ out)
    for j in range(first, squarings.max(initial=0)):
        need = squarings > j
        part = out[need]
        out[need] = rescale(part @ part)
    return out if ts.ndim else out[0]
