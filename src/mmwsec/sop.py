"""Closed-form secrecy outage probability and its piecewise branch logic.

The conditional outage probability is the tail of the eavesdropper SNDR
distribution past the rate threshold implied by the destination SNDR; the
overall value wraps it in the on-off protocol gates (impairment ceiling,
transmit-or-suspend).

The formulas work on batches of channel states (EffectiveCoeffs whose a,
c, d and e are arrays), and scalar coefficients are one state:
``sop_conditional`` broadcasts the split, and ``cdf_Y_E`` the level and
the split, against the states, and
``tau_min``/``sop_overall`` return per-state values and branches, shaped
like the states (0-d for one state), and mark silent states instead of
raising.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import EffectiveCoeffs

# Boundary comparisons between the rate factor T and the branch gates use
# this relative tolerance; exact ties go to the less favorable branch.
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
        if not np.all(np.isfinite(r_s) & (r_s >= 0.0)):
            raise ValueError(f"R_s must be finite and non-negative, got {self.R_s}")

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
    """Overall SOP value plus the branch and gate values that produced it.

    The fields are arrays shaped like the states (``branch`` holds one
    SopBranch per state; ``gamma3`` is shared unless the states come from
    several configurations).
    """

    value: float
    branch: SopBranch
    gamma1: float
    gamma2: float
    gamma3: float
    tau_min: float


def tau_min(target: SecrecyTarget, coeffs: EffectiveCoeffs) -> np.ndarray:
    """Smallest power split supporting the target rate, per state.

    Returns t_min shaped like the states (0-d for scalar coefficients).
    A state with d <= e*(T-1) is silent: its destination SNDR cannot reach
    the target for any split, the source suspends, and t_min is inf, so
    ``t_min >= 1`` marks every state without a feasible split.  At
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
    scale = tau * rest
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bracket = 1.0 + (1.0 - tau) * coeffs.b * x / scale
        value = 1.0 - np.exp(-x / scale) * per_value(lambda n, y: np.power(y, -n), n_ec, bracket)
    # rest <= 0: x at or past the distortion-imposed ceiling
    value = np.where((tau == 0.0) | (coeffs.a == 0.0) | (rest <= 0.0), 1.0, value)
    return np.where(x < 0.0, 0.0, value)


def thresholds(tau: float, coeffs: EffectiveCoeffs) -> tuple[float, float, float]:
    """Gate values (gamma1, gamma2, gamma3) of the piecewise SOP.

    gamma1(tau): largest rate factor whose outage threshold exceeds the
    eavesdropper SNDR ceiling (outage impossible below it).
    gamma2(tau): rate factor reachable by the destination at split tau.
    gamma3: large-power limit of gamma2 (infinite for ideal hardware).
    gamma1 and gamma2 are arrays when tau or the coefficients are, and
    gamma3 is one when k_tot2 is (a batch of several configurations).
    """
    k_tx2 = coeffs.k_tx2
    k_tot2 = coeffs.k_tot2
    k1 = k_tx2 * (1.0 + k_tot2)
    k2 = k_tot2 * (1.0 + k_tx2)
    k3 = 1.0 + k_tot2
    td = tau * coeffs.d
    gamma1 = (td * k1 + k_tx2) / (td * k2 + k_tx2 + 1.0)
    gamma2 = (td * k3 + 1.0) / (td * k_tot2 + 1.0)
    with np.errstate(divide="ignore"):
        gamma3 = np.divide(k3, k_tot2)  # inf for ideal hardware
    return gamma1, gamma2, gamma3


def sop_conditional(tau, target: SecrecyTarget, coeffs: EffectiveCoeffs, n_ec: int):
    """Conditional SOP at split tau inside the transmission region.

    Equals the complementary CDF of the eavesdropper SNDR at the outage
    threshold.  The two are separate expressions, and
    ``test_sop_conditional_equals_ccdf_at_threshold`` holds this long
    closed form to 1 - cdf_Y_E there.  ``tau`` broadcasts
    against array coefficients (a (states, 1) column of coefficients
    against a (states, grid) array of splits gives one grid per state); a
    float split of one state gives a float.
    """
    tau = np.asarray(tau, float)
    te1 = tau * coeffs.e + 1.0
    num = tau * coeffs.d - te1 * target.T_bar
    if (tau <= 0.0).any() or (num <= 0.0).any():
        raise ValueError(
            "sop_conditional requires tau > tau_min; use sop_overall for branching"
        )
    # den_core > 0 because T >= 1 > gamma1, the gate where the threshold
    # would reach the SNDR ceiling (see thresholds), except without
    # leakage (a = 0), where it is 0 and the SOP is 0
    den_core = te1 * target.T * coeffs.a - coeffs.c * num
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / (tau * den_core)
        value = np.exp(-ratio) * per_value(lambda n, x: np.power(x, -n), n_ec, 1.0 + (1.0 - tau) * coeffs.b * ratio)
    value = np.where(coeffs.a == 0.0, 0.0, np.minimum(np.maximum(value, 0.0), 1.0))
    return value if value.ndim else float(value)


def _gate_ge(t: float, gate):
    """T >= gate with ties (to relative tolerance) counted as crossing."""
    return t >= gate * (1.0 - _GATE_RTOL)


def sop_overall(
    tau, target: SecrecyTarget, coeffs: EffectiveCoeffs, n_ec: int
) -> SopBreakdown:
    """Piecewise overall SOP of every state at its power split.

    ``tau`` is one split for all states or one per state, and the
    target's R_s one rate for all states or one per state; scalar
    coefficients count as one state.  Branches, in order: rate factor
    above the impairment ceiling gamma3 is a certain outage; rate
    unreachable even at full power means the source suspends; otherwise
    the conditional closed form applies.  (Below gamma1 the outage event
    would be impossible, but gamma1 < 1 <= T for every R_s >= 0, so that
    gate never opens.)  Boundary ties are assigned to the less favorable
    branch.  A split at or below tau_min (possible only in fixed-split
    mode) cannot support the target rate, which is reported as a certain
    outage through the Conditional branch limit.

    Returns a SopBreakdown of arrays shaped like the states (0-d for one
    state); tau_min is inf outside the Conditional branch.
    """
    shape = np.shape(coeffs.d)
    d = np.atleast_1d(coeffs.d)
    tau = np.broadcast_to(np.asarray(tau, float), d.shape)
    if not np.all((0.0 <= tau) & (tau <= 1.0)):
        raise ValueError("tau_opt must lie in [0, 1]")
    t = target.T
    gamma1, gamma2, gamma3 = thresholds(tau, coeffs)
    _, gamma2_full, _ = thresholds(1.0, coeffs)

    always = np.full(d.shape, _gate_ge(t, gamma3))
    silent = ~always & _gate_ge(t, gamma2_full)
    conditional = ~(always | silent)
    t_min = np.where(conditional, tau_min(target, coeffs), math.inf)
    feasible = conditional & (tau > t_min * (1.0 + _GATE_RTOL))

    value = np.where(silent, 0.0, 1.0)
    value[feasible] = sop_conditional(
        tau[feasible], target.take(feasible), coeffs.take(feasible), per_state(n_ec, feasible)
    )
    branch = np.full(d.shape, SopBranch.CONDITIONAL, dtype=object)
    branch[silent] = SopBranch.SOURCE_SILENT
    branch[always] = SopBranch.ALWAYS_OUTAGE
    value, branch, gamma1, gamma2, t_min = (np.reshape(x, shape) for x in (value, branch, gamma1, gamma2, t_min))
    return SopBreakdown(value, branch, gamma1, gamma2, gamma3, t_min)
