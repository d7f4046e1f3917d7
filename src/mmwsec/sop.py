"""Closed-form secrecy outage probability and its piecewise branch logic.

The conditional outage probability is the tail of the eavesdropper SNDR
distribution past the rate threshold implied by the destination SNDR; the
overall value wraps it in the on-off protocol's branches (impairment
ceiling, transmit-or-suspend), which the smallest feasible split tau_min
decides.

The formulas work on batches of channel states (EffectiveCoeffs whose a,
c, d and e are arrays), and scalar coefficients are one state:
``sop_conditional`` broadcasts the split, and ``cdf_Y_E`` the level and
the split, against the states, and
``tau_min``/``sop_overall`` return per-state values and branches, shaped
like the states (0-d for one state), and mark states without a feasible
split instead of raising.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import EffectiveCoeffs

# A split counts as feasible only this far (relative) above tau_min; a tie
# goes to the less favorable certain outage.
_GATE_RTOL = 1e-12


def per_state(x, index):
    """The entries of per-state ``x`` that ``index`` picks; a scalar is shared."""
    return x if np.ndim(x) == 0 else np.asarray(x)[index]


def per_value(f, x, *args):
    """``f(v, *args)`` for each distinct value v of ``x``, as a Python scalar,
    on the entries of ``args`` (broadcast with x) where x is v.  numpy can
    round an array log or power differently in the last bit from a scalar
    one (x ** -1 is a reciprocal only for a scalar exponent), and a state
    must get the bits it gets alone."""
    if np.ndim(x) == 0:
        return f(x, *args)
    x, *args = np.broadcast_arrays(x, *args)
    values, inverse = np.unique(x, return_inverse=True)
    out = np.empty(x.shape)
    for i, v in enumerate(values.tolist()):
        at = inverse.reshape(x.shape) == i
        out[at] = f(v, *(a[at] for a in args))
    return out


@dataclass(frozen=True)
class SecrecyTarget:
    """Target secrecy rate (a float, or an array with one rate per state for
    the batch functions) and its derived rate factors T = 2^R_s, T-1."""

    R_s: float

    def __post_init__(self):
        r_s = np.asarray(self.R_s, float)
        if not np.all((r_s >= 0.0) & (r_s < 1024.0)):  # 2^R_s is a finite double
            raise ValueError(f"R_s must lie in [0, 1024), got {self.R_s}")

    def take(self, index) -> "SecrecyTarget":
        """The target of the states a numpy index picks; a shared R_s carries over."""
        return self if np.ndim(self.R_s) == 0 else SecrecyTarget(per_state(self.R_s, index))

    @cached_property
    def T(self) -> float:
        return per_value(lambda r: 2.0**r, self.R_s)

    @cached_property
    def T_bar(self) -> float:
        return self.T - 1.0


class SopBranch(enum.Enum):
    ALWAYS_OUTAGE = "AlwaysOutage"
    CONDITIONAL = "Conditional"
    SOURCE_SILENT = "SourceSilent"


@dataclass(frozen=True)
class SopBreakdown:
    """Overall SOP value plus the branch and tau_min that produced it.

    The fields are arrays shaped like the states (``branch`` holds one
    SopBranch per state).
    """

    value: float
    branch: SopBranch
    tau_min: float


def tau_min(target: SecrecyTarget, coeffs: EffectiveCoeffs) -> np.ndarray:
    """Smallest power split supporting the target rate, per state.

    Returns t_min shaped like the states (0-d for scalar coefficients).
    t_min is inf where d <= e*(T-1): T is at or past the impairment
    ceiling, no power reaches the target and the outage is certain
    (ALWAYS_OUTAGE).  A finite t_min >= 1 means the target needs more
    than the full power, so the source suspends (SOURCE_SILENT).  Either
    way ``t_min >= 1`` marks a state without a feasible split.  At
    R_s = 0 every state (d > 0) has t_min = 0.
    """
    t_bar = target.T_bar
    denom = np.asarray(coeffs.d - coeffs.e * t_bar)
    with np.errstate(divide="ignore"):
        return np.where(denom <= 0.0, math.inf, np.divide(t_bar, denom))


def outage_threshold(tau: float, target: SecrecyTarget, coeffs: EffectiveCoeffs) -> float:
    """Eavesdropper SNDR level above which secrecy fails at power split tau."""
    te1 = tau * coeffs.e + 1.0
    return (tau * coeffs.d - target.T_bar * te1) / (target.T * te1)


def eve_tail(r, tau, b, n_ec):
    """P(Y_E > x) = exp(-r) * (1 + (1-tau)*b*r)^(-n_ec), r = x / (tau*(a - c*x)) as
    each caller forms it, elementwise over broadcastable r, tau, b and n_ec; the
    one tail of ``cdf_Y_E``, ``sop_conditional`` and ``throughput.q_of_k``."""
    return np.exp(-r) * per_value(lambda n, y: np.power(y, -n), n_ec, 1.0 + (1.0 - tau) * b * r)


def cdf_Y_E(x, tau, coeffs: EffectiveCoeffs, n_ec):
    """CDF of the eavesdropper SNDR at power split tau.

    Averages the exponential law of the beam-leakage gain against the
    gamma-distributed artificial-noise gain.  The support ends at
    a/c = 1/k_tx^2 where the transmit distortion caps the SNDR; with an
    ideal transmitter the support is unbounded.  Degenerate cases (tau = 0
    or no common path) concentrate the SNDR at zero, so the CDF is 1.
    Elementwise over broadcastable x, tau and the states (n_ec too).
    """
    x, tau = np.asarray(x, float), np.asarray(tau, float)
    if not np.all((0.0 <= tau) & (tau <= 1.0)):
        raise ValueError("tau must lie in [0, 1]")
    rest = coeffs.a - coeffs.c * x
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = 1.0 - eve_tail(x / (tau * rest), tau, coeffs.b, n_ec)
    # rest <= 0: x at or past the distortion-imposed ceiling
    value = np.where((tau == 0.0) | (coeffs.a == 0.0) | (rest <= 0.0), 1.0, value)
    return np.where(x < 0.0, 0.0, value)


def sop_conditional(tau, target: SecrecyTarget, coeffs: EffectiveCoeffs, n_ec: int):
    """Conditional SOP at split tau inside the transmission region.

    Equals the complementary CDF of the eavesdropper SNDR at the outage
    threshold.  The two are separate expressions, and
    ``test_sop_conditional_equals_ccdf_at_threshold`` holds this long
    closed form to 1 - cdf_Y_E there.  ``tau`` broadcasts
    against array coefficients (a (states, 1) column of coefficients
    against a (states, grid) array of splits gives one grid per state); a
    float split of one state gives a 0-d array.
    """
    tau = np.asarray(tau, float)
    te1 = tau * coeffs.e + 1.0
    num = tau * coeffs.d - te1 * target.T_bar
    if (tau <= 0.0).any() or (num <= 0.0).any():
        raise ValueError(
            "sop_conditional requires tau > tau_min; use sop_overall for branching"
        )
    # den_core = a*(te1*T - k_tx^2*num) since c = k_tx^2*a, and it is
    # positive: num < tau*d, while te1*T >= tau*e + 1 > k_tx^2*tau*d as
    # T >= 1 and e = k_tot^2*d >= k_tx^2*d.  Without leakage (a = 0) it is
    # 0 and the SOP is 0
    den_core = te1 * target.T * coeffs.a - coeffs.c * num
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / (tau * den_core)
        value = eve_tail(ratio, tau, coeffs.b, n_ec)
    return np.where(coeffs.a == 0.0, 0.0, np.minimum(np.maximum(value, 0.0), 1.0))


def sop_overall(
    tau, target: SecrecyTarget, coeffs: EffectiveCoeffs, n_ec: int
) -> SopBreakdown:
    """Piecewise overall SOP of every state at its power split.

    ``tau`` is one split for all states or one per state, and the
    target's R_s one rate for all states or one per state; scalar
    coefficients count as one state.  tau_min decides the branch: inf
    (rate factor at or past the impairment ceiling) is a certain outage;
    finite but at least 1 (rate unreachable even at full power) means the
    source suspends; below 1 the conditional closed form applies.  A
    split at or below tau_min (possible only in fixed-split mode) cannot
    support the target rate, which is reported as a certain outage
    through the Conditional branch limit.

    Returns a SopBreakdown of arrays shaped like the states (0-d for one
    state); tau_min is inf outside the Conditional branch.
    """
    shape = np.shape(coeffs.d)
    d = np.atleast_1d(coeffs.d)
    tau = np.broadcast_to(np.asarray(tau, float), d.shape)
    if not np.all((0.0 <= tau) & (tau <= 1.0)):
        raise ValueError("tau_opt must lie in [0, 1]")
    t_min = np.broadcast_to(tau_min(target, coeffs), d.shape)
    always = np.isinf(t_min)
    conditional = t_min < 1.0
    silent = ~(always | conditional)
    t_min = np.where(conditional, t_min, math.inf)
    feasible = conditional & (tau > t_min * (1.0 + _GATE_RTOL))

    value = np.where(silent, 0.0, 1.0)
    value[feasible] = sop_conditional(
        tau[feasible], target.take(feasible), coeffs.take(feasible), per_state(n_ec, feasible)
    )
    branch = np.full(d.shape, SopBranch.CONDITIONAL, dtype=object)
    branch[silent] = SopBranch.SOURCE_SILENT
    branch[always] = SopBranch.ALWAYS_OUTAGE
    value, branch, t_min = (np.reshape(x, shape) for x in (value, branch, t_min))
    return SopBreakdown(value, branch, t_min)
