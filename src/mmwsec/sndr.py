"""Signal-to-noise-plus-distortion ratios at destination and eavesdropper.

Both take the raw effective coefficients (scalars or arrays), so one
function per receiver serves a single state and a batch alike.
"""

from __future__ import annotations

import math

import numpy as np

from .config import EffectiveCoeffs


def sndr_destination(tau, d, e):
    """Destination SNDR tau*d/(tau*e + 1) at power split tau."""
    return tau * d / (tau * e + 1.0)


def sndr_eve(tau, u, v, a, b, c, out=None):
    """Eavesdropper SNDR tau*a*u / ((1-tau)*b*v + tau*c*u + 1) at power split tau.

    ``out`` is an optional pair of float arrays of the broadcast shape: the
    SNDR is written to the first and the second is scratch, so a caller that
    evaluates block after block allocates nothing.
    """
    if out is None:
        shape = np.broadcast_shapes(*(np.shape(x) for x in (tau, u, v, a, b, c)))
        out = np.empty(shape), np.empty(shape)
    num, den = out
    np.multiply((1.0 - tau) * b, v, out=den)
    np.multiply(tau * c, u, out=num)
    den += num
    den += 1.0
    np.multiply(tau * a, u, out=num)
    np.divide(num, den, out=num)
    return num if num.ndim else num[()]


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
