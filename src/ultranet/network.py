"""Transition networks: basins, cross rates, kernels, and the basin matrix.

A network couples one radial gain kernel (w) and one radial loss kernel
(v) per basin with constant cross-basin rates. Cross matrices are
indexed (target, source): cross_lambda[(a, b)] feeds basin a from basin
b, cross_mu[(b, a)] drains basin a toward basin b. Diagonal entries are
never supplied; they are the within-basin aggregates

    lambda_{a,a} = p * mass(w_a),    mu_{a,a} = p * mass(v_a).

A NetworkSpec computes its per-basin totals once, at construction, in
exact rational arithmetic from the stored rates (floats convert
exactly): gain_diag (p * kernels.kernel_mass of w), gain_total and
loss_total, as Fraction tuples in basin order, and basin_rows, the
exact rows of the basin matrix under its convention. It also keeps
j_max, the deepest kernel level over its basins. Every reader takes
them from there: the sink, the basin matrix, its killing rates,
classify, decide_tau, the scale rates, the search's log-norms and the
folding model. A basin whose total gain or loss rounds to no finite
float is refused, which keeps every float made from the totals finite:
basin-matrix entries, sinks and scale rates are all bounded by them.
classify judges each basin against a tolerance relative to that basin's
own totals, or none on request, and uses no floating-point linear
algebra.

The basin matrix comes in two conventions. "derived" carries the
factor 1/p on cross terms that projection of the master equation onto
the per-basin constants produces; its row sums are exactly minus the
sink, so the matrix is always substochastic when the standing rate
inequalities hold. "paper" keeps the cross terms bare (no 1/p); it is
the convention under which the classification identities (conservative
matrix, dying at infinity) are stated. A NetworkSpec fixes one
convention for every solver run on it; classify states its result for
the "paper" matrix whatever the spec's convention. CONVENTIONS names
both; it is defined in the package, so the config layer reads it
without loading the model.
build_basin_matrix returns a plain float array; the spectral state
builds it once and keeps it. It and aggregate_rates, the two float
builders, import numpy in their bodies, so the exact model and classify
load no numpy.

decide_tau answers the absorbing time where t = 0 decides it, from the
datum's peak and the exact rows of the basin matrix: where no row sums
above 0 the density never rises above its start, so tau is 0 or inf for
all time, with no numeric layer loaded.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

from . import CONVENTIONS
from .errors import ClassificationError, UsageError, ValidationError
from .kernels import kernel_mass
from .padic import validate_prime

if TYPE_CHECKING:
    import numpy as np

# the crossing threshold of `tau` and the folding model when none is given
DEFAULT_THRESHOLD = 0.99


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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
    # exact per-basin totals in basin order, computed once from the rates
    gain_diag: tuple = field(init=False, repr=False, compare=False)
    gain_total: tuple = field(init=False, repr=False, compare=False)
    loss_total: tuple = field(init=False, repr=False, compare=False)
    # the basin matrix as exact Fractions under the convention, one tuple
    # per basin: diag -(loss_total - gain_diag)/p, off-diagonal the cross
    # gain, divided by p under "derived"
    basin_rows: tuple = field(init=False, repr=False, compare=False)
    # the deepest kernel level over the basins, J_max
    j_max: int = field(init=False, repr=False, compare=False)

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
        gain_diag = tuple(self.p * kernel_mass(self.w_kernels[a]) for a in basins)
        object.__setattr__(self, "gain_diag", gain_diag)
        object.__setattr__(self, "gain_total", tuple(
            d + sum(self.cross_lambda[(a, b)] for b in basins if b != a)
            for a, d in zip(basins, gain_diag)
        ))
        object.__setattr__(self, "loss_total", tuple(
            self.p * kernel_mass(self.v_kernels[a])
            + sum(self.cross_mu[(b, a)] for b in basins if b != a)
            for a in basins
        ))
        cross_scale = Fraction(1, self.p) if self.convention == "derived" else 1
        object.__setattr__(self, "basin_rows", tuple(
            tuple(
                Fraction(d - m, self.p) if a == b else self.cross_lambda[(a, b)] * cross_scale
                for b in basins
            )
            for a, d, m in zip(basins, gain_diag, self.loss_total)
        ))
        kernels = [self.w_kernels[a] for a in basins] + [self.v_kernels[a] for a in basins]
        object.__setattr__(self, "j_max", max(k.j_max for k in kernels))
        self._check_rate_inequalities()
        # the inequalities give gain_total <= loss_total, so this bounds both
        for a, m in zip(basins, self.loss_total):
            try:
                float(m)
            except OverflowError:
                raise ValidationError(
                    f"basin {a}: the total loss rate exceeds the float range "
                    f"(largest float {sys.float_info.max:.17g})"
                ) from None

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
        if all(t == 0 for t in self.loss_total):
            raise ValidationError("total loss is zero in every basin")


def aggregate_rates(spec: NetworkSpec) -> np.ndarray:
    """The per-basin sink (loss_total - gain_total) / p as floats, basin order."""
    import numpy as np

    return np.array([float((m - l) / spec.p) for l, m in zip(spec.gain_total, spec.loss_total)])


def build_basin_matrix(spec: NetworkSpec) -> np.ndarray:
    """The basin matrix as floats, rows and columns in basin order, under
    the spec's convention."""
    import numpy as np

    return np.array([[float(x) for x in row] for row in spec.basin_rows])


def datum_in_range(lo: float, hi: float) -> bool:
    """Whether a datum's values from lo to hi lie in [0, 1], up to 1e-12."""
    return lo >= -1e-12 and hi <= 1 + 1e-12


def decide_tau(spec: NetworkSpec, peak: float, threshold: float) -> float | None:
    """The absorbing time where t = 0 decides it, or None where it takes
    a search.

    It is 0 when the datum's peak reaches the threshold. It is inf when
    no exact row of the basin matrix, under the spec's convention, sums
    above 0. The density then evolves by a jump process whose killing
    rate in basin a is minus that row sum: the gains are its jumps and
    loss_total / p its exit rate. So u(t) = E[u0(X_t); alive] <=
    max(peak, 0) for all t (Norris, Markov Chains, 1997, sections 2-3;
    Berman & Plemmons, Nonnegative Matrices in the Mathematical
    Sciences, 1994, ch. 6), and a peak below the threshold is never
    reached. That holds for every "derived" network and for every "paper"
    network whose exact gaps are all >= 0.
    """
    if threshold <= 0:
        raise UsageError(f"threshold must be > 0, got {threshold}")
    if peak >= threshold:
        return 0.0
    if all(sum(row) <= 0 for row in spec.basin_rows):
        return math.inf
    return None


@dataclass(frozen=True)
class Classification:
    g1: tuple
    g2: tuple
    is_conservative_matrix: bool
    dies_at_infinity: bool
    is_substochastic: bool
    is_m_matrix: bool


def classify(spec: NetworkSpec, exact: bool = False) -> Classification:
    """Sort basins by the balance between total loss and total gain.

    Basin a lands in G1 when its gap loss_total/p + (1 - 1/p) gain_diag
    - gain_total is zero (the "paper"-convention matrix row sums to zero
    there) and in G2 when it is positive. A negative gap means that
    matrix is not substochastic for this network; that is reported as an
    error rather than forced into either class. A gap involves only its
    own basin's rates, so each basin is judged against its own tolerance,
    1e-12 * max(gain_total, loss_total), or none when exact; the answer
    does not depend on the unit of time or on the other basins' scale.

    The negated "paper" matrix is a Z-matrix whose row sums are the
    gaps. Such a matrix is a nonsingular M-matrix exactly when every
    basin reaches a G2 basin along positive cross gains
    cross_lambda[(a, b)] > 0 (weak chained diagonal dominance: Shivakumar
    & Chew, Proc. AMS 43, 1974; Azimzadeh, Math. Comp. 88, 2019), so
    is_m_matrix is read off the classification.
    """
    p = spec.p
    g1, g2 = [], []
    for a, d, l, m in zip(spec.basins, spec.gain_diag, spec.gain_total, spec.loss_total):
        gap = Fraction(m, p) + Fraction(p - 1, p) * d - l
        tol = 0 if exact else Fraction(1e-12) * max(l, m)
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
    reach = set(g2)  # grows to the basins that reach G2 along positive cross gains
    for _ in g1:
        reach |= {
            a for a in g1
            if a not in reach and any(spec.cross_lambda[(a, b)] > 0 for b in reach)
        }
    return Classification(
        g1=tuple(g1),
        g2=tuple(g2),
        is_conservative_matrix=not g2,
        dies_at_infinity=not g1 and all(
            m > d for m, d in zip(spec.loss_total, spec.gain_diag)
        ),
        is_substochastic=True,
        is_m_matrix=len(reach) == len(spec.basins),
    )
