"""Signal-to-noise-plus-distortion ratios at destination and eavesdropper.

Both take the raw effective coefficients (scalars or arrays), so one
function per receiver serves a single state and a batch alike.
"""

from __future__ import annotations

import math

from .config import EffectiveCoeffs


def sndr_destination(tau, d, e):
    """Destination SNDR tau*d/(tau*e + 1) at power split tau."""
    return tau * d / (tau * e + 1.0)


def sndr_eve(tau, u, v, a, b, c):
    """Eavesdropper SNDR tau*a*u / ((1-tau)*b*v + tau*c*u + 1) at power split tau.

    The denominator is at least 1, so the sweeps test the event y_E > thr
    in its linear form instead (``cli._event_columns``); this ratio is the
    oracle route of ``montecarlo``, ``validate`` and ``opa_sop.phi``.
    """
    return tau * a * u / ((1.0 - tau) * b * v + tau * c * u + 1.0)


def sndr_destination_ideal(tau: float, coeffs: EffectiveCoeffs) -> float:
    """Ideal-hardware destination SNR tau*d."""
    return tau * coeffs.d


def sndr_eve_ideal(tau: float, u, v, coeffs: EffectiveCoeffs, n_ec: int):
    """Ideal-hardware eavesdropper SNR N_EC*tau*a*u / ((1-tau)*beta_E*v + N_EC)."""
    return n_ec * tau * coeffs.a * u / ((1.0 - tau) * coeffs.beta_E * v + n_ec)


def high_snr_ceiling(k_tot2: float) -> float:
    """Large-power limit of the destination SNDR, 1/k_tot^2 (inf if ideal)."""
    if k_tot2 < 0.0:
        raise ValueError("k_tot2 must be non-negative")
    if k_tot2 == 0.0:
        return math.inf
    return 1.0 / k_tot2
