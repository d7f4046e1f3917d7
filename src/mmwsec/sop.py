"""Closed-form secrecy outage probability and its piecewise branch logic.

The conditional outage probability is the tail of the eavesdropper SNDR
distribution past the rate threshold implied by the destination SNDR; the
overall value wraps it in the on-off protocol gates (impairment ceiling,
transmit-or-suspend).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from .config import EffectiveCoeffs
from .errors import SilentSourceError

# Boundary comparisons between the rate factor T and the branch gates use
# this relative tolerance; exact ties go to the less favorable branch.
_GATE_RTOL = 1e-12


@dataclass(frozen=True)
class SecrecyTarget:
    """Target secrecy rate and its derived rate factors T = 2^R_s, T-1."""

    R_s: float

    def __post_init__(self):
        if self.R_s < 0.0:
            raise ValueError("R_s must be non-negative")

    @property
    def T(self) -> float:
        return 2.0**self.R_s

    @property
    def T_bar(self) -> float:
        return self.T - 1.0


class SopBranch(enum.Enum):
    ALWAYS_OUTAGE = "AlwaysOutage"
    CONDITIONAL = "Conditional"
    SOURCE_SILENT = "SourceSilent"


@dataclass(frozen=True)
class SopBreakdown:
    """Overall SOP value plus the branch and gate values that produced it."""

    value: float
    branch: SopBranch
    gamma1: float
    gamma2: float
    gamma3: float
    tau_min: float


def tau_min(target: SecrecyTarget, coeffs: EffectiveCoeffs) -> float:
    """Smallest power split supporting the target rate at the destination.

    Raises SilentSourceError when d <= e*(T-1): the destination SNDR cannot
    reach the target for any split and the source suspends.
    """
    t_bar = target.T_bar
    if t_bar == 0.0:
        return 0.0
    denom = coeffs.d - coeffs.e * t_bar
    if denom <= 0.0:
        raise SilentSourceError(
            f"no feasible power split: d={coeffs.d:.6g} <= e*(T-1)={coeffs.e * t_bar:.6g}"
        )
    return t_bar / denom


def outage_threshold(tau: float, target: SecrecyTarget, coeffs: EffectiveCoeffs) -> float:
    """Eavesdropper SNDR level above which secrecy fails at power split tau."""
    te1 = tau * coeffs.e + 1.0
    return (tau * coeffs.d - target.T_bar * te1) / (target.T * te1)


def cdf_Lambda_hat(
    f_lambda: Callable[[float], float],
    alpha1: float,
    alpha2: float,
    alpha3: float,
    x: float,
) -> float:
    """CDF of alpha1*L/(alpha2*L + alpha3) for a nonnegative r.v. L.

    ``f_lambda`` is the CDF of L; the transformed variable saturates at
    alpha1/alpha2, above which the CDF is identically 1.
    """
    if min(alpha1, alpha2, alpha3) <= 0.0:
        raise ValueError("alpha coefficients must be positive")
    if x < 0.0:
        return 0.0
    if alpha1 - alpha2 * x <= 0.0:
        return 1.0
    return float(f_lambda(alpha3 * x / (alpha1 - alpha2 * x)))


def cdf_Y_E(x: float, tau: float, coeffs: EffectiveCoeffs, n_ec: int) -> float:
    """CDF of the eavesdropper SNDR at power split tau.

    Averages the exponential law of the beam-leakage gain against the
    gamma-distributed artificial-noise gain.  The support ends at
    a/c = 1/k_tx^2 where the transmit distortion caps the SNDR; with an
    ideal transmitter the support is unbounded.  Degenerate cases (tau = 0
    or no common path) concentrate the SNDR at zero, so the CDF is 1.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    if x < 0.0:
        return 0.0
    if tau == 0.0 or coeffs.a == 0.0:
        return 1.0
    rest = coeffs.a - coeffs.c * x
    if rest <= 0.0:  # x at or past the distortion-imposed ceiling
        return 1.0
    scale = tau * rest
    bracket = 1.0 + (1.0 - tau) * coeffs.b * x / scale
    return 1.0 - math.exp(-x / scale) * bracket ** (-n_ec)


def thresholds(tau: float, coeffs: EffectiveCoeffs) -> tuple[float, float, float]:
    """Gate values (gamma1, gamma2, gamma3) of the piecewise SOP.

    gamma1(tau): largest rate factor whose outage threshold exceeds the
    eavesdropper SNDR ceiling (outage impossible below it).
    gamma2(tau): rate factor reachable by the destination at split tau.
    gamma3: large-power limit of gamma2 (infinite for ideal hardware).
    """
    k_tx2 = coeffs.k_tx2
    k_tot2 = coeffs.k_tot2
    k1 = k_tx2 * (1.0 + k_tot2)
    k2 = k_tot2 * (1.0 + k_tx2)
    k3 = 1.0 + k_tot2
    td = tau * coeffs.d
    gamma1 = (td * k1 + k_tx2) / (td * k2 + k_tx2 + 1.0)
    gamma2 = (td * k3 + 1.0) / (td * k_tot2 + 1.0)
    gamma3 = k3 / k_tot2 if k_tot2 > 0.0 else math.inf
    return gamma1, gamma2, gamma3


def sop_conditional(
    tau: float, target: SecrecyTarget, coeffs: EffectiveCoeffs, n_ec: int
) -> float:
    """Conditional SOP at split tau inside the transmission region.

    Equals the complementary CDF of the eavesdropper SNDR at the outage
    threshold; both are generated from one expression so the long closed
    form cannot drift from the CDF it was derived from.
    """
    te1 = tau * coeffs.e + 1.0
    num = tau * coeffs.d - te1 * target.T_bar
    if tau <= 0.0 or num <= 0.0:
        raise ValueError(
            "sop_conditional requires tau > tau_min; use sop_overall for branching"
        )
    if coeffs.a == 0.0:
        return 0.0
    # den_core > 0 because T >= 1 > gamma1, the gate where the threshold
    # would reach the SNDR ceiling (see thresholds)
    den_core = te1 * target.T * coeffs.a - coeffs.c * num
    ratio = num / (tau * den_core)
    bracket = 1.0 + (1.0 - tau) * coeffs.b * ratio
    value = math.exp(-ratio) * bracket ** (-n_ec)
    return min(max(value, 0.0), 1.0)


def sop_conditional_grid(taus, target: SecrecyTarget, coeffs: EffectiveCoeffs, n_ec: int):
    """Vectorized conditional SOP over an array of splits above tau_min."""
    import numpy as np

    taus = np.asarray(taus, float)
    te1 = taus * coeffs.e + 1.0
    num = taus * coeffs.d - te1 * target.T_bar
    if np.any(num <= 0.0) or np.any(taus <= 0.0):
        raise ValueError("all splits must exceed tau_min")
    if coeffs.a == 0.0:
        return np.zeros_like(taus)
    den_core = te1 * target.T * coeffs.a - coeffs.c * num
    ratio = num / (taus * den_core)
    values = np.exp(-ratio) * (1.0 + (1.0 - taus) * coeffs.b * ratio) ** (-n_ec)
    return np.clip(values, 0.0, 1.0)


def _gate_ge(t: float, gate: float) -> bool:
    """T >= gate with ties (to relative tolerance) counted as crossing."""
    if math.isinf(gate):
        return False
    return t >= gate * (1.0 - _GATE_RTOL)


def sop_overall(
    tau_opt: float, target: SecrecyTarget, coeffs: EffectiveCoeffs, n_ec: int
) -> SopBreakdown:
    """Piecewise overall SOP at the supplied power split.

    Branches, in order: rate factor above the impairment ceiling gamma3 is
    a certain outage; rate unreachable even at full power means the source
    suspends; otherwise the conditional closed form applies.  (Below gamma1
    the outage event would be impossible, but gamma1 < 1 <= T for every
    R_s >= 0, so that gate never opens.)  Boundary ties are assigned to the
    less favorable branch.  A split at or below tau_min (possible only in
    fixed-split mode) cannot support the target rate, which is reported as
    a certain outage through the Conditional branch limit.
    """
    if not 0.0 <= tau_opt <= 1.0:
        raise ValueError("tau_opt must lie in [0, 1]")
    t = target.T
    gamma1, gamma2, gamma3 = thresholds(tau_opt, coeffs)
    _, gamma2_full, _ = thresholds(1.0, coeffs)

    if _gate_ge(t, gamma3):
        return SopBreakdown(1.0, SopBranch.ALWAYS_OUTAGE, gamma1, gamma2, gamma3, math.inf)
    if _gate_ge(t, gamma2_full):
        return SopBreakdown(0.0, SopBranch.SOURCE_SILENT, gamma1, gamma2, gamma3, math.inf)

    t_min = tau_min(target, coeffs)
    if tau_opt <= t_min * (1.0 + _GATE_RTOL):
        return SopBreakdown(1.0, SopBranch.CONDITIONAL, gamma1, gamma2, gamma3, t_min)
    value = sop_conditional(tau_opt, target, coeffs, n_ec)
    return SopBreakdown(value, SopBranch.CONDITIONAL, gamma1, gamma2, gamma3, t_min)
