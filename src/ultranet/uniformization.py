"""The matrix exponential by uniformization, and its shared steps.

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

exponential forms the spectral solver's basin means (spectral._propagate).
The chain oracle takes the same steps in its own level algebra
(tree._level_exponential), over the same weights, squaring count and
closed-state search; its chain and its algebra stay independent of the
spectral solver. Once a squaring returns its argument bit for bit,
every later one would too, so both stop there.
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


def exponential(Q: np.ndarray, kill: np.ndarray, t=1.0) -> np.ndarray:
    """e^{tQ} for a Metzler Q whose rows sum to -kill; for a 1-D array of
    times, the (n, B, B) stack of e^{t_i Q}. Where a row grows (kill < 0)
    the series is that of Q - cI, c the largest growth, times e^{c t / 2^s},
    so the result overflows only where e^{tQ} does. The _TERMS - 1 powers
    of P are formed once, one at a time, and added to every time's slice
    with its own Poisson weights; a squaring touches only the times that
    need it, and a time stops squaring once a squaring returns its slice bit
    for bit. So slice i is bit for bit the exponential at t_i alone."""
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
    weights = _weights(rate * taus)
    out = np.zeros((len(times), *Q.shape))
    diagonal = np.arange(len(Q))
    out[:, diagonal, diagonal] = weights[:, :1]
    closed = ~_reaches_a_kill(Q, kill)
    if rate > 0:
        # L >= -q_ii, so L + q_ii rounds to no negative number
        stay = (L + Q.diagonal()) / rate
        P = Q / rate
        np.fill_diagonal(P, stay)
        power = P
        for k in range(1, _TERMS):
            if k > 1:
                power = P @ power
            out += weights[:, k, None, None] * power
        del P, power
    if shift:
        out *= np.array([math.exp(shift * x) for x in taus.tolist()])[:, None, None]

    def rescale(E):
        if closed.any():
            E /= np.where(closed, E.sum(axis=2), 1.0)[:, :, None]
        return E

    rescale(out)
    left = squarings  # the squarings each time still takes
    while left.any():
        need = left > 0
        part = out[need]
        square = rescale(part @ part)
        out[need] = square
        left[need] = np.where((square == part).all(axis=(1, 2)), 0, left[need] - 1)
    return out if ts.ndim else out[0]
