"""Transition networks: basins, cross rates, kernels, and the basin matrix.

A network couples one radial gain kernel (w) and one radial loss kernel
(v) per basin with constant cross-basin rates. Cross matrices are
indexed (target, source): cross_lambda[(a, b)] feeds basin a from basin
b, cross_mu[(b, a)] drains basin a toward basin b. Diagonal entries are
never supplied; they are the within-basin aggregates

    lambda_{a,a} = p * mass(w_a),    mu_{a,a} = p * mass(v_a).

Every derived quantity is computed in exact rational arithmetic from
the stored rates (floats convert exactly), so classification can be
tolerance-free on request.

The basin matrix comes in two conventions. "derived" carries the
factor 1/p on cross terms that projection of the master equation onto
the per-basin constants produces; its row sums are exactly minus the
sink, so the matrix is always substochastic when the standing rate
inequalities hold. "paper" keeps the cross terms bare (no 1/p); it is
the convention under which the classification identities (conservative
matrix, dying at infinity) are stated. A NetworkSpec fixes one
convention for every solver run on it; classify builds the "paper"
matrix from a copy of the spec set to that convention.
build_basin_matrix returns a plain float array; the spectral state
builds it once and keeps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import ClassificationError, ValidationError
from .kernels import RadialKernel
from .padic import validate_prime

CONVENTIONS = ("derived", "paper")


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _exact_diagonal(k: RadialKernel) -> Fraction:
    """p * kernel mass, exactly: sum_j (p-1) w_j p^{-j}."""
    p = k.p
    return sum(
        (Fraction(p - 1) * _frac(w) / p**j for j, w in enumerate(k.levels, start=1)),
        Fraction(0),
    )


def _normalize_cross(raw, basins, name) -> dict:
    table = {(a, b): Fraction(0) for a in basins for b in basins if a != b}
    for key, value in dict(raw).items():
        try:
            a, b = key
        except (TypeError, ValueError):
            raise ValidationError(
                f"{name} keys must be (target, source) pairs, got {key!r}"
            ) from None
        if a == b:
            raise ValidationError(
                f"{name}[{a},{b}]: diagonal entries are derived from the kernels, "
                "not supplied"
            )
        if (a, b) not in table:
            raise ValidationError(f"{name}[{a},{b}]: {a} or {b} is not a basin")
        v = _frac(value)
        if not (math.isfinite(float(v)) and v >= 0):
            raise ValidationError(f"{name}[{a},{b}] = {value!r} must be finite and >= 0")
        table[(a, b)] = v
    return table


@dataclass(frozen=True)
class NetworkSpec:
    p: int
    basins: tuple
    cross_lambda: Mapping
    cross_mu: Mapping
    w_kernels: Mapping
    v_kernels: Mapping
    convention: str = "derived"

    def __post_init__(self):
        validate_prime(self.p)
        basins = tuple(self.basins)
        if not basins:
            raise ValidationError("a network needs at least one basin")
        if list(basins) != sorted(set(basins)):
            raise ValidationError(f"basins {basins} must be strictly increasing")
        if not all(0 <= b < self.p for b in basins):
            raise ValidationError(f"basins {basins} must be digits below p={self.p}")
        if self.convention not in CONVENTIONS:
            raise ValidationError(
                f"convention must be one of {CONVENTIONS}, got {self.convention!r}"
            )
        object.__setattr__(self, "basins", basins)
        for name, kernels in (("w", self.w_kernels), ("v", self.v_kernels)):
            for b in basins:
                k = kernels.get(b)
                if k is None:
                    raise ValidationError(f"basin {b} has no {name} kernel")
                if k.p != self.p:
                    raise ValidationError(
                        f"{name} kernel of basin {b} has p={k.p}, network has p={self.p}"
                    )
        object.__setattr__(
            self, "cross_lambda", _normalize_cross(self.cross_lambda, basins, "lambda")
        )
        object.__setattr__(
            self, "cross_mu", _normalize_cross(self.cross_mu, basins, "mu")
        )
        self._check_rate_inequalities()

    def _check_rate_inequalities(self):
        """The standing assumptions: gain never exceeds the opposing loss,
        levelwise within basins and pairwise across them, and at least
        one basin has positive total loss."""
        for a in self.basins:
            w, v = self.w_kernels[a], self.v_kernels[a]
            for j in range(1, max(w.j_max, v.j_max) + 1):
                if w.level(j) > v.level(j):
                    raise ValidationError(
                        f"basin {a}: gain kernel exceeds loss kernel at level {j} "
                        f"({w.level(j)} > {v.level(j)})"
                    )
        for a in self.basins:
            for b in self.basins:
                if a == b:
                    continue
                lam = self.cross_lambda[(a, b)]
                mu = self.cross_mu[(b, a)]
                if lam > mu:
                    raise ValidationError(
                        f"cross rate lambda[{a}<-{b}] = {float(lam)} exceeds "
                        f"mu[{b}<-{a}] = {float(mu)}"
                    )
        if all(t == 0 for t in self._exact_loss_total()):
            raise ValidationError("total loss is zero in every basin")

    def _exact_gain_diag(self) -> list:
        return [_exact_diagonal(self.w_kernels[a]) for a in self.basins]

    def _exact_loss_diag(self) -> list:
        return [_exact_diagonal(self.v_kernels[a]) for a in self.basins]

    def _exact_gain_total(self) -> list:
        diag = self._exact_gain_diag()
        return [
            diag[i] + sum(self.cross_lambda[(a, b)] for b in self.basins if b != a)
            for i, a in enumerate(self.basins)
        ]

    def _exact_loss_total(self) -> list:
        diag = self._exact_loss_diag()
        return [
            diag[i] + sum(self.cross_mu[(b, a)] for b in self.basins if b != a)
            for i, a in enumerate(self.basins)
        ]


@dataclass(frozen=True)
class Aggregates:
    """Per-basin totals in basin order, plus the sink (loss_total - gain_total) / p."""

    basins: tuple
    gain_diag: np.ndarray
    loss_total: np.ndarray
    sink: np.ndarray


def aggregate_rates(spec: NetworkSpec) -> Aggregates:
    lam_d = spec._exact_gain_diag()
    lam_b = spec._exact_gain_total()
    mu_b = spec._exact_loss_total()
    sink = [Fraction(m - l, spec.p) for l, m in zip(lam_b, mu_b)]
    if any(s < 0 for s in sink):
        raise ValidationError("negative sink; rate inequalities are inconsistent")

    def as_arr(xs):
        return np.array([float(x) for x in xs])

    return Aggregates(
        basins=spec.basins,
        gain_diag=as_arr(lam_d),
        loss_total=as_arr(mu_b),
        sink=as_arr(sink),
    )


def _basin_entries_exact(spec: NetworkSpec) -> list:
    """Basin matrix as exact Fractions under the spec's convention: diag
    -(loss_total - gain_diag)/p, off-diagonal the cross gain, divided by
    p under `derived`."""
    lam_d = spec._exact_gain_diag()
    mu_b = spec._exact_loss_total()
    rows = []
    for i, a in enumerate(spec.basins):
        row = []
        for k, b in enumerate(spec.basins):
            if i == k:
                row.append(Fraction(lam_d[i] - mu_b[i], spec.p))
            else:
                cross = spec.cross_lambda[(a, b)]
                row.append(Fraction(cross, spec.p) if spec.convention == "derived" else _frac(cross))
        rows.append(row)
    return rows


def build_basin_matrix(spec: NetworkSpec) -> np.ndarray:
    """The basin matrix as floats, rows and columns in basin order, under
    the spec's convention."""
    return np.array([[float(x) for x in row] for row in _basin_entries_exact(spec)])


@dataclass(frozen=True)
class Classification:
    g1: tuple
    g2: tuple
    is_conservative_matrix: bool
    dies_at_infinity: bool
    is_substochastic: bool
    is_m_matrix: bool


def _m_matrix_flag(neg_lambda: np.ndarray) -> bool:
    """Z-matrix, nonsingular, and inverse entrywise >= -1e-12."""
    off = neg_lambda - np.diag(np.diag(neg_lambda))
    if off.max(initial=0.0) > 1e-12:
        return False
    try:
        inv = np.linalg.inv(neg_lambda)
    except np.linalg.LinAlgError:
        return False
    if not np.all(np.isfinite(inv)):
        return False
    # reject numerically singular matrices that inv() silently accepts
    if np.linalg.cond(neg_lambda) > 1e12:
        return False
    return bool(inv.min() >= -1e-12)


def classify(spec: NetworkSpec, exact: bool = False) -> Classification:
    """Sort basins by the balance between total loss and total gain.

    Basin a lands in G1 when loss_total/p + (1 - 1/p) gain_diag equals
    gain_total (the "paper"-convention matrix row sums to zero there)
    and in G2 on strict ">". A "<" means that matrix is not
    substochastic for this network; that is reported as an error rather
    than forced into either class.
    """
    p = spec.p
    lam_d = spec._exact_gain_diag()
    lam_b = spec._exact_gain_total()
    mu_b = spec._exact_loss_total()
    gaps = [
        Fraction(m, p) + Fraction(p - 1, p) * d - l
        for d, l, m in zip(lam_d, lam_b, mu_b)
    ]
    if exact:
        tol = Fraction(0)
    else:
        scale = max(
            [abs(float(x)) for x in lam_b] + [abs(float(x)) for x in mu_b] + [1.0]
        )
        tol = Fraction(1e-12 * scale)
    g1, g2 = [], []
    for a, gap in zip(spec.basins, gaps):
        if abs(gap) <= tol:
            g1.append(a)
        elif gap > 0:
            g2.append(a)
        else:
            raise ClassificationError(
                f"basin {a}: total gain exceeds the loss balance "
                f"(gap {float(gap)}); the \"paper\"-convention matrix is "
                "not substochastic for this network"
            )
    conservative = len(g1) == len(spec.basins)
    dies = len(g2) == len(spec.basins) and all(
        m > d for m, d in zip(mu_b, lam_d)
    )
    paper = build_basin_matrix(replace(spec, convention="paper"))
    return Classification(
        g1=tuple(g1),
        g2=tuple(g2),
        is_conservative_matrix=conservative,
        dies_at_infinity=dies,
        is_substochastic=True,
        is_m_matrix=_m_matrix_flag(-paper),
    )
