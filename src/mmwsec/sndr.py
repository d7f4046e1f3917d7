"""Signal-to-noise-plus-distortion ratios at destination and eavesdropper.

Both take the raw effective coefficients (scalars or arrays), so one
function per receiver serves a single state and a batch alike.
"""

from __future__ import annotations

import numpy as np


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


def high_snr_ceiling(k_tot2):
    """Large-power limit of the destination SNDR, 1/k_tot^2 (inf if ideal),
    elementwise over k_tot2."""
    if np.any(k_tot2 < 0.0):
        raise ValueError("k_tot2 must be non-negative")
    with np.errstate(divide="ignore"):
        return np.divide(1.0, k_tot2)
