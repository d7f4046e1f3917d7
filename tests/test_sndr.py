import math

import numpy as np
import pytest

from conftest import make_coeffs, workable_cfg
from mmwsec.config import SystemConfig
from mmwsec.sndr import (
    high_snr_ceiling,
    sndr_destination,
    sndr_destination_ideal,
    sndr_eve,
    sndr_eve_ideal,
)


def test_destination_hand_values():
    assert sndr_destination(0.0, 10.0, 0.2) == 0.0
    assert sndr_destination(1.0, 7.0, 0.0) == 7.0
    assert math.isclose(sndr_destination(0.5, 10.0, 0.2), 5.0 / 1.1, rel_tol=1e-12)


def test_eve_hand_values():
    assert sndr_eve(0.5, 0.0, 1.0, 1.0, 2.0, 0.01) == 0.0
    assert math.isclose(sndr_eve(1.0, 1.5, 3.0, 2.0, 0.0, 0.0), 3.0, rel_tol=1e-12)
    assert math.isclose(sndr_eve(0.5, 1.0, 1.0, 1.0, 2.0, 0.01), 0.5 / 2.005, rel_tol=1e-12)


def test_eve_values_equal_the_expression_with_and_without_buffers(rng):
    # the buffered evaluation runs the expression's operations in its order,
    # so it must agree with the one-line form bit for bit
    def expression(tau, u, v, a, b, c):
        return tau * a * u / ((1.0 - tau) * b * v + tau * c * u + 1.0)

    tau, a, c = (rng.uniform(0.0, 1.0, (5, 1)) for _ in range(3))
    b = np.full((5, 1), 0.3)
    u, v = rng.exponential(1.0, 64), rng.gamma(2.0, 1.0, 64)
    buffers = np.empty((2, 5, 64))
    want = expression(tau, u, v, a, b, c)
    assert np.array_equal(sndr_eve(tau, u, v, a, b, c), want)
    assert np.array_equal(sndr_eve(tau, u, v, a, b, c, out=buffers), want)
    assert np.shares_memory(sndr_eve(tau, u, v, a, b, c, out=buffers), buffers[0])
    one = sndr_eve(0.4, 1.5, 0.7, 2.0, 0.3, 0.02)
    assert np.ndim(one) == 0 and one == expression(0.4, 1.5, 0.7, 2.0, 0.3, 0.02)


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


def test_high_snr_ceiling_values():
    assert math.isclose(high_snr_ceiling(0.02), 50.0, rel_tol=1e-12)
    assert high_snr_ceiling(1.0) == 1.0
    assert math.isinf(high_snr_ceiling(0.0))
    with pytest.raises(ValueError):
        high_snr_ceiling(-0.1)


def test_destination_approaches_ceiling():
    k_tot2 = 0.02
    ceiling = high_snr_ceiling(k_tot2)
    # e = k_tot2 * d
    assert abs(sndr_destination(1.0, 100.0 / k_tot2, 100.0) - ceiling) / ceiling < 0.01
