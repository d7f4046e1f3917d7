import math

import numpy as np
import pytest

from conftest import make_coeffs, workable_cfg
from mmwsec.config import SystemConfig
from mmwsec.sndr import high_snr_ceiling, sndr_destination, sndr_eve


def sndr_destination_ideal(tau, coeffs):
    """Ideal-hardware destination SNR tau*d, the reference of the ideal reduction."""
    return tau * coeffs.d


def sndr_eve_ideal(tau, u, v, coeffs, n_ec):
    """Ideal-hardware eavesdropper SNR N_EC*tau*a*u / ((1-tau)*beta_E*v + N_EC)."""
    return n_ec * tau * coeffs.a * u / ((1.0 - tau) * coeffs.beta_E * v + n_ec)


def test_destination_hand_values():
    assert sndr_destination(0.0, 10.0, 0.2) == 0.0
    assert sndr_destination(1.0, 7.0, 0.0) == 7.0
    assert math.isclose(sndr_destination(0.5, 10.0, 0.2), 5.0 / 1.1, rel_tol=1e-12)


def test_eve_hand_values():
    assert sndr_eve(0.5, 0.0, 1.0, 1.0, 2.0, 0.01) == 0.0
    assert math.isclose(sndr_eve(1.0, 1.5, 3.0, 2.0, 0.0, 0.0), 3.0, rel_tol=1e-12)
    assert math.isclose(sndr_eve(0.5, 1.0, 1.0, 1.0, 2.0, 0.01), 0.5 / 2.005, rel_tol=1e-12)


def test_ideal_reductions_match(rng):
    cfg = SystemConfig(k_tx=0.0, k_rx=0.0, N_D=20, N_C=10, P_dBm=55.0)
    for _ in range(200):
        g_hat, g_check = rng.gamma(10, 1), rng.gamma(10, 1)
        co = make_coeffs(cfg, g_hat, g_check)
        tau = rng.uniform(0, 1)
        u, v = rng.exponential(1.0, 50), rng.gamma(cfg.n_ec, 1.0, 50)
        assert math.isclose(
            sndr_destination(tau, co.d, co.e), sndr_destination_ideal(tau, co), rel_tol=1e-14
        )
        np.testing.assert_allclose(
            sndr_eve(tau, u, v, co.a, co.b, co.c),
            sndr_eve_ideal(tau, u, v, co, cfg.n_ec),
            rtol=1e-12,
        )


def test_destination_monotone_in_tau(rng):
    for _ in range(100):
        d, e = float(rng.uniform(0.1, 100)), float(rng.uniform(0, 2))
        vals = [sndr_destination(t, d, e) for t in np.linspace(0, 1, 64)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_high_snr_ceiling_values(rng):
    assert math.isclose(high_snr_ceiling(0.02), 50.0, rel_tol=1e-12)
    assert high_snr_ceiling(1.0) == 1.0
    assert math.isinf(high_snr_ceiling(0.0))
    with pytest.raises(ValueError):
        high_snr_ceiling(-0.1)
    # one call over a grid equals its 0-d calls, and one negative entry raises
    k_tot2 = np.append(0.0, rng.uniform(0.0, 0.05, 50))
    assert np.array_equal(high_snr_ceiling(k_tot2), [high_snr_ceiling(float(k)) for k in k_tot2])
    with pytest.raises(ValueError):
        high_snr_ceiling(np.array([0.02, -0.1]))


def test_destination_approaches_ceiling():
    k_tot2 = 0.02
    ceiling = high_snr_ceiling(k_tot2)
    # e = k_tot2 * d
    assert abs(sndr_destination(1.0, 100.0 / k_tot2, 100.0) - ceiling) / ceiling < 0.01


def test_high_snr_ceiling_meets_the_finite_power_sndr():
    # the ceiling's oracle: the finite-power destination SNDR approaches
    # 1/k_tot2 as 1/P over fuzzed configurations with impairments.  Its
    # relative gap 1/(tau*e + 1) shrinks a hundredfold per 20 dB; over these
    # 200 states the measured gap ratios are 0.009999961-0.010012008 and the
    # worst gap at 140 dBm is 1.2e-7, and the bounds sit just outside them
    rng = np.random.Generator(np.random.Philox(2027))
    powers = (100.0, 120.0, 140.0)
    gaps = np.zeros((200, len(powers)))
    for row in gaps:
        n_c, tau, d_d = int(rng.integers(0, 20)), float(rng.uniform(0.05, 1.0)), float(rng.uniform(20.0, 200.0))
        k_tx, k_rx = float(rng.uniform(0.0, 0.2)), float(rng.uniform(0.01, 0.2))
        g_hat, g_check = (rng.gamma(n_c) if n_c else 0.0), rng.gamma(20 - n_c)
        for j, p_dbm in enumerate(powers):
            cfg = SystemConfig(M=100, N_D=20, N_C=n_c, P_dBm=p_dbm, k_tx=k_tx, k_rx=k_rx, d_D_m=d_d)
            co = make_coeffs(cfg, g_hat, g_check)
            row[j] = 1.0 - sndr_destination(tau, co.d, co.e) / high_snr_ceiling(co.k_tot2)
    ratios = gaps[:, 1:] / gaps[:, :-1]
    print(f"gap ratios {ratios.min():.9f}-{ratios.max():.9f}, worst gap {gaps[:, -1].max():.2e} at 140 dBm")
    assert np.all(gaps > 0.0)
    assert np.all((0.00999 <= ratios) & (ratios <= 0.0101)), ratios
    assert gaps[:, -1].max() <= 1e-6
