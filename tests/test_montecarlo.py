import math

import numpy as np
import pytest

from conftest import make_coeffs, workable_cfg
from mmwsec.config import SystemConfig
from mmwsec.montecarlo import (
    empirical_cdf_Y_E,
    empirical_sndr_from_distortion,
    empirical_sop,
    empirical_sop_conditional,
)
from mmwsec.sop import SecrecyTarget, sop_conditional, sop_overall, SopBranch


def test_conditional_estimates_are_reproducible():
    cfg = workable_cfg()
    co = make_coeffs(cfg, 10.0, 8.0)
    target = SecrecyTarget(cfg.R_s)
    a = empirical_sop_conditional(co, 0.6, target, cfg.n_ec, 250_000, 42)
    b = empirical_sop_conditional(co, 0.6, target, cfg.n_ec, 250_000, 42)
    c = empirical_sop_conditional(co, 0.6, target, cfg.n_ec, 250_000, np.int64(42))
    d = empirical_sop_conditional(co, 0.6, target, cfg.n_ec, 250_000, 43)
    assert a.value == b.value == c.value
    assert a.value != d.value
    assert a.seed == 42 and a.n == 250_000


def test_full_sop_estimator_matches_analytic_average():
    cfg = workable_cfg(N_C=10, P_dBm=56.0)
    target = SecrecyTarget(cfg.R_s)
    tau = 0.7
    est = empirical_sop(cfg, tau, target, 400_000, 7)
    # analytic reference: average the closed form over accepted states
    rng = np.random.Generator(np.random.Philox(1234))
    vals = []
    for _ in range(4000):
        g_hat = float(rng.gamma(cfg.N_C, 1.0))
        g_check = float(rng.gamma(cfg.n_dc, 1.0))
        co = make_coeffs(cfg, g_hat, g_check)
        bd = sop_overall(tau, target, co, cfg.n_ec)
        if bd.branch != SopBranch.SOURCE_SILENT:
            vals.append(bd.value)
    ref = float(np.mean(vals))
    se = math.sqrt(np.var(vals) / len(vals)) + est.std_error
    assert abs(est.value - ref) <= max(0.01, 4.0 * se)
    assert 0.0 < est.accept_rate <= 1.0


def test_full_sop_no_common_paths_is_outage_free():
    cfg = workable_cfg(N_C=0, R_s=2.0)
    est = empirical_sop(cfg, 1.0, SecrecyTarget(2.0), 100_000, 3)
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_full_sop_certain_outage_past_ceiling():
    # R_s = 6 with k = 0.1 sits above the impairment ceiling log2(51); the
    # outage event is certain for every state, at any power
    for p_dbm in (5.0, 55.0, 95.0):
        cfg = workable_cfg(P_dBm=p_dbm, R_s=6.0, k_tx=0.1, k_rx=0.1)
        with pytest.warns(UserWarning, match="ceiling"):
            est = empirical_sop(cfg, 1.0, SecrecyTarget(6.0), 10_000, 21)
        assert est.value == 1.0
        assert est.accept_rate == 0.0


def test_full_sop_warns_on_empty_region():
    cfg = workable_cfg(P_dBm=20.0, R_s=5.0)  # link far below the target rate
    with pytest.warns(UserWarning, match="nearly empty"):
        est = empirical_sop(cfg, 1.0, SecrecyTarget(5.0), 50_000, 11)
    assert est.accept_rate < 1e-4


def test_empirical_cdf_limits_and_agreement(rng):
    from mmwsec.sop import cdf_Y_E

    cfg = workable_cfg(N_C=8)
    co = make_coeffs(cfg, 8.0, 12.0)
    tau = 0.55
    grid = [0.0, 0.05, 0.2, 0.8, 2.0, 1e9]
    ests = empirical_cdf_Y_E(co, tau, grid, 200_000, 17, cfg.n_ec)
    assert ests[0].value == 0.0
    assert ests[-1].value == 1.0
    gaps = np.abs([est.value for est in ests] - cdf_Y_E(grid, tau, co, cfg.n_ec))
    assert np.all(gaps <= np.maximum(0.005, [4 * est.std_error for est in ests]))


def test_empirical_cdf_rejects_unsorted():
    cfg = workable_cfg()
    co = make_coeffs(cfg, 10.0, 6.0)
    with pytest.raises(ValueError):
        empirical_cdf_Y_E(co, 0.5, [1.0, 0.5], 1000, 5, cfg.n_ec)


def test_sndr_reconstruction_impaired():
    cfg = SystemConfig(M=64, N_D=12, N_C=6, P_dBm=55.0, k_tx=0.1, k_rx=0.1)
    recon = empirical_sndr_from_distortion(cfg, 0.5, 100_000, 2024)
    assert abs(recon.y_d.value - recon.y_d_formula) <= 3.0 * recon.y_d.std_error
    assert abs(recon.y_e.value - recon.y_e_formula) <= 3.0 * recon.y_e.std_error


def test_sndr_reconstruction_ideal_hardware():
    cfg = SystemConfig(M=64, N_D=12, N_C=6, P_dBm=55.0, k_tx=0.0, k_rx=0.0)
    recon = empirical_sndr_from_distortion(cfg, 0.5, 100_000, 99)
    # formula collapses to the no-distortion SNRs
    assert abs(recon.y_d.value - recon.y_d_formula) <= 3.0 * recon.y_d.std_error
    assert abs(recon.y_e.value - recon.y_e_formula) <= 3.0 * recon.y_e.std_error


def test_sndr_reconstruction_full_power():
    cfg = SystemConfig(M=64, N_D=12, N_C=6, P_dBm=55.0, k_tx=0.1, k_rx=0.05)
    recon = empirical_sndr_from_distortion(cfg, 1.0, 100_000, 500)
    assert abs(recon.y_d.value - recon.y_d_formula) <= 3.0 * recon.y_d.std_error
    assert abs(recon.y_e.value - recon.y_e_formula) <= 3.0 * recon.y_e.std_error
