import math

import numpy as np
import pytest
from scipy import stats

from conftest import fuzz_states, make_coeffs, workable_cfg
from mmwsec.channel import sample_gain_scalars
from mmwsec.config import coeffs_from_gains
from mmwsec.errors import SilentSourceError
from mmwsec.sop import (
    SecrecyTarget,
    SopBranch,
    cdf_Lambda_hat,
    cdf_Y_E,
    outage_threshold,
    sop_conditional,
    sop_overall,
    sop_overall_batch,
    tau_min,
    tau_min_batch,
    thresholds,
)


def _ideal_coeffs(d, a, b):
    from mmwsec.config import EffectiveCoeffs

    return EffectiveCoeffs(beta_E=1.0, k_tx2=0.0, k_tot2=0.0,
                           a=a, b=b, c=0.0, d=d, e=0.0)


# -- secrecy target and minimum split ---------------------------------------

def test_target_rate_factors():
    t = SecrecyTarget(5.0)
    assert t.T == 32.0 and t.T_bar == 31.0
    assert SecrecyTarget(0.0).T_bar == 0.0
    for bad in (-1.0, math.nan, np.array([1.0, math.nan]), math.inf, -math.inf, np.array([1.0, math.inf])):
        with pytest.raises(ValueError, match="R_s"):
            SecrecyTarget(bad)


def test_tau_min_values():
    assert tau_min(SecrecyTarget(0.0), _ideal_coeffs(10.0, 1.0, 1.0)) == 0.0
    assert math.isclose(tau_min(SecrecyTarget(1.0), _ideal_coeffs(10.0, 1.0, 1.0)), 0.1, rel_tol=1e-14)


def test_tau_min_infeasible():
    from mmwsec.config import EffectiveCoeffs

    co = EffectiveCoeffs(beta_E=1.0, k_tx2=0.5, k_tot2=1.0,
                         a=1.0, b=1.0, c=0.5, d=1.0, e=1.0)
    with pytest.raises(SilentSourceError):
        tau_min(SecrecyTarget(math.log2(3.0)), co)  # T=3: d <= e*(T-1)


# -- ratio-variable CDF helper ----------------------------------------------

def test_cdf_lambda_hat_branches():
    f_exp = lambda x: 1.0 - math.exp(-x)
    assert cdf_Lambda_hat(f_exp, 2.0, 1.0, 1.0, 0.0) == 0.0
    assert cdf_Lambda_hat(f_exp, 2.0, 1.0, 1.0, 2.0) == 1.0
    assert cdf_Lambda_hat(f_exp, 2.0, 1.0, 1.0, 5.0) == 1.0
    assert math.isclose(cdf_Lambda_hat(f_exp, 2.0, 1.0, 1.0, 1.0), 1.0 - math.exp(-1.0), rel_tol=1e-14)
    with pytest.raises(ValueError):
        cdf_Lambda_hat(f_exp, 0.0, 1.0, 1.0, 0.5)


def test_cdf_lambda_hat_against_empirical(rng):
    n = 100_000
    lam = rng.gamma(3.0, 1.0, size=n)
    f_gamma = stats.gamma(3.0).cdf
    for _ in range(5):
        a1, a2, a3 = rng.uniform(0.5, 3.0, size=3)
        transformed = a1 * lam / (a2 * lam + a3)
        grid = np.quantile(transformed, np.linspace(0.04, 0.96, 20))
        for x in grid:
            emp = float(np.mean(transformed <= x))
            assert abs(cdf_Lambda_hat(f_gamma, a1, a2, a3, float(x)) - emp) <= 0.01


# -- eavesdropper SNDR CDF ---------------------------------------------------

def test_cdf_y_e_examples():
    cfg = workable_cfg()
    co = make_coeffs(cfg, 10.0, 6.0)
    assert cdf_Y_E(0.0, 0.7, co, cfg.n_ec) == 0.0
    ceiling = 1.0 / cfg.k_tx**2
    assert cdf_Y_E(ceiling, 0.7, co, cfg.n_ec) == 1.0
    assert cdf_Y_E(ceiling + 5.0, 0.7, co, cfg.n_ec) == 1.0
    # at tau=1 the AN bracket disappears
    ideal = _ideal_coeffs(5.0, 1.0, 2.0)
    assert math.isclose(cdf_Y_E(0.7, 1.0, ideal, 3), 1.0 - math.exp(-0.7), rel_tol=1e-14)


def test_cdf_y_e_degenerate_cases():
    cfg = workable_cfg()
    co = make_coeffs(cfg, 10.0, 6.0)
    assert cdf_Y_E(0.5, 0.0, co, cfg.n_ec) == 1.0  # no signal power: SNDR is 0 a.s.
    no_leak = make_coeffs(workable_cfg(N_C=0), 0.0, 16.0)
    assert cdf_Y_E(0.5, 0.7, no_leak, 20) == 1.0


def test_cdf_y_e_monotone_with_limits(rng):
    for _ in range(100):
        cfg = workable_cfg(
            N_C=int(rng.integers(1, 19)),
            k_tx=float(rng.uniform(0, 0.15)),
            k_rx=float(rng.uniform(0, 0.15)),
            P_dBm=float(rng.uniform(45, 65)),
        )
        co = make_coeffs(cfg, float(rng.gamma(cfg.N_C, 1)), float(rng.gamma(cfg.n_dc, 1)))
        tau = float(rng.uniform(0.05, 1.0))
        xs = np.geomspace(1e-6, 1e6, 60)
        vals = [cdf_Y_E(float(x), tau, co, cfg.n_ec) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[0] >= 0.0 and vals[-1] > 0.999


def test_cdf_y_e_against_empirical(rng):
    cfg = workable_cfg(N_C=8)
    co = make_coeffs(cfg, 8.0, 12.0)
    tau = 0.6
    n = 200_000
    u = rng.exponential(1.0, n)
    v = rng.gamma(cfg.n_ec, 1.0, n)
    y = tau * co.a * u / ((1 - tau) * co.b * v + tau * co.c * u + 1.0)
    for q in np.linspace(0.05, 0.95, 10):
        x = float(np.quantile(y, q))
        emp = float(np.mean(y < x))
        assert abs(cdf_Y_E(x, tau, co, cfg.n_ec) - emp) < 0.01


# -- branch gates -------------------------------------------------------------

def test_thresholds_values():
    cfg = workable_cfg(k_tx=0.1, k_rx=0.1)
    co = make_coeffs(cfg, 10.0, 6.0)
    g1, g2, g3 = thresholds(0.7, co)
    assert math.isclose(g3, 1.02 / 0.02, rel_tol=1e-12)  # rates past log2(51) never work
    assert math.log2(g3) < 6.0 < math.log2(g3) + 0.5

    ideal = _ideal_coeffs(10.0, 1.0, 1.0)
    g1, g2, g3 = thresholds(0.5, ideal)
    assert g1 == 0.0
    assert math.isclose(g2, 0.5 * 10.0 + 1.0, rel_tol=1e-14)
    assert math.isinf(g3)


def test_thresholds_at_zero_split():
    cfg = workable_cfg(k_tx=0.2, k_rx=0.1)
    co = make_coeffs(cfg, 10.0, 6.0)
    g1, g2, _ = thresholds(0.0, co)
    k_tx2 = 0.04
    assert math.isclose(g1, k_tx2 / (k_tx2 + 1.0), rel_tol=1e-12)
    assert math.isclose(g2, 1.0, rel_tol=1e-14)


def test_gamma1_below_one_for_all_valid_rates(rng):
    # the zero-outage gate never opens for R_s >= 0: gamma1 < 1 <= T always
    for _ in range(200):
        cfg = workable_cfg(
            k_tx=float(rng.uniform(0, 0.9)), k_rx=float(rng.uniform(0, 0.9)),
            P_dBm=float(rng.uniform(0, 80)),
        )
        co = make_coeffs(cfg, float(rng.gamma(cfg.N_C, 1)), float(rng.gamma(cfg.n_dc, 1)))
        g1, _, _ = thresholds(float(rng.uniform(0, 1)), co)
        assert g1 < 1.0


# -- conditional SOP ----------------------------------------------------------

def test_sop_conditional_equals_ccdf_at_threshold(rng):
    for _ in range(200):
        cfg = workable_cfg(
            N_C=int(rng.integers(1, 19)),
            k_tx=float(rng.uniform(0, 0.15)),
            k_rx=float(rng.uniform(0, 0.15)),
            P_dBm=float(rng.uniform(50, 68)),
            R_s=float(rng.uniform(0.5, 5.0)),
        )
        co = make_coeffs(cfg, float(rng.gamma(cfg.N_C, 1)), float(rng.gamma(cfg.n_dc, 1)))
        target = SecrecyTarget(cfg.R_s)
        try:
            t_min = tau_min(target, co)
        except SilentSourceError:
            continue
        if t_min >= 1.0:
            continue
        tau = float(rng.uniform(t_min + 1e-6, 1.0))
        direct = sop_conditional(tau, target, co, cfg.n_ec)
        via_cdf = 1.0 - cdf_Y_E(outage_threshold(tau, target, co), tau, co, cfg.n_ec)
        assert abs(direct - via_cdf) <= 1e-12
        assert 0.0 <= direct <= 1.0


def test_sop_conditional_ideal_hardware_form():
    # no-distortion reduction: exp(-(tau*d - T+1)/(tau*T*a)) * (1 + (1-tau)*b*(...)/(tau*T*a))^-N
    co = _ideal_coeffs(d=200.0, a=8.0, b=3.0)
    target = SecrecyTarget(3.0)
    t, t_bar, n_ec = target.T, target.T_bar, 5
    tau = 0.4
    num = tau * co.d - t_bar
    ref = math.exp(-num / (tau * t * co.a)) * (
        1.0 + (1.0 - tau) * co.b * num / (tau * t * co.a)
    ) ** (-n_ec)
    assert math.isclose(sop_conditional(tau, target, co, n_ec), ref, rel_tol=1e-12)


def test_sop_conditional_limit_at_tau_min():
    cfg = workable_cfg()
    co = make_coeffs(cfg, 12.0, 6.0)
    target = SecrecyTarget(cfg.R_s)
    t_min = tau_min(target, co)
    val = sop_conditional(t_min * (1.0 + 1e-9), target, co, cfg.n_ec)
    assert val > 0.999999


def test_sop_conditional_no_leakage():
    cfg = workable_cfg(N_C=0)
    co = make_coeffs(cfg, 0.0, 16.0)
    assert sop_conditional(0.8, SecrecyTarget(cfg.R_s), co, cfg.n_ec) == 0.0


def test_sop_conditional_rejects_infeasible_split():
    cfg = workable_cfg()
    co = make_coeffs(cfg, 12.0, 6.0)
    target = SecrecyTarget(cfg.R_s)
    t_min = tau_min(target, co)
    with pytest.raises(ValueError):
        sop_conditional(0.5 * t_min, target, co, cfg.n_ec)


def test_sop_conditional_against_mc(rng):
    from mmwsec.montecarlo import empirical_sop_conditional

    cfg = workable_cfg(N_C=10)
    co = make_coeffs(cfg, 10.0, 8.0)
    target = SecrecyTarget(cfg.R_s)
    tau = 0.6
    analytic = sop_conditional(tau, target, co, cfg.n_ec)
    est = empirical_sop_conditional(co, tau, target, cfg.n_ec, 200_000, 99)
    assert abs(analytic - est.value) <= max(0.01, 4.0 * est.std_error)


# -- overall SOP branching ----------------------------------------------------

def test_overall_always_outage_above_impairment_ceiling():
    # gamma3 = 51 caps achievable rates at log2(51) ~ 5.67 regardless of power
    for p in [5.0, 40.0, 70.0, 100.0]:
        cfg = workable_cfg(P_dBm=p, R_s=6.0)
        co = make_coeffs(cfg, 16.0, 4.0)
        bd = sop_overall(1.0, SecrecyTarget(6.0), co, cfg.n_ec)
        assert bd.branch is SopBranch.ALWAYS_OUTAGE
        assert bd.value == 1.0


def test_overall_source_silent_for_weak_channel():
    cfg = workable_cfg(P_dBm=30.0, R_s=5.0)
    co = make_coeffs(cfg, 0.05, 0.05)
    bd = sop_overall(1.0, SecrecyTarget(5.0), co, cfg.n_ec)
    assert bd.branch is SopBranch.SOURCE_SILENT
    assert bd.value == 0.0


def test_overall_middle_branch_delegates():
    cfg = workable_cfg()
    co = make_coeffs(cfg, 12.0, 6.0)
    target = SecrecyTarget(cfg.R_s)
    bd = sop_overall(0.7, target, co, cfg.n_ec)
    assert bd.branch is SopBranch.CONDITIONAL
    assert math.isclose(bd.value, sop_conditional(0.7, target, co, cfg.n_ec), rel_tol=1e-14)
    assert bd.gamma1 < target.T < bd.gamma2


def test_overall_split_below_tau_min_is_certain_outage():
    cfg = workable_cfg()
    co = make_coeffs(cfg, 12.0, 6.0)
    target = SecrecyTarget(cfg.R_s)
    t_min = tau_min(target, co)
    bd = sop_overall(0.5 * t_min, target, co, cfg.n_ec)
    assert bd.value == 1.0


def test_sop_overall_batch_matches_one_state(rng):
    branches = set()
    for cfg, co in fuzz_states(rng, 40, 8):
        target = SecrecyTarget(cfg.R_s)
        for tau in (1.0, rng.uniform(0.0, 1.0, size=8)):  # one split for all, one per state
            bd = sop_overall_batch(tau, target, co, cfg.n_ec)
            for i, tau_i in enumerate(np.broadcast_to(tau, 8)):
                one = sop_overall(float(tau_i), target, co.take(i), cfg.n_ec)
                assert bd.branch[i] is one.branch
                assert bd.value[i] == one.value and 0.0 <= one.value <= 1.0
                assert bd.tau_min[i] == one.tau_min
                branches.add(one.branch)
        t_min, silent = tau_min_batch(target, co)
        for i in range(8):
            if silent[i]:
                with pytest.raises(SilentSourceError):
                    tau_min(target, co.take(i))
            else:
                assert tau_min(target, co.take(i)) == t_min[i]
    assert branches == set(SopBranch)


def test_sop_overall_batch_with_per_state_target(rng):
    # 50 states of one configuration, R_s alternating 4 and 9: the R_s = 9
    # states lie past the impairment ceiling, so the feasible subset must
    # carry its own R_s
    cfg = workable_cfg(N_C=8)
    g_hat, g_check, _, _ = sample_gain_scalars(cfg.N_C, cfg.n_dc, cfg.n_ec, 50, rng)
    co = coeffs_from_gains(cfg, g_hat, g_check)
    # (fractional rates too: T is one scalar power per distinct rate)
    for r_s in (np.where(np.arange(50) % 2, 9.0, 4.0), rng.uniform(0.0, 9.0, 50)):
        for tau in (1.0, rng.uniform(0.0, 1.0, size=50)):
            bd = sop_overall_batch(tau, SecrecyTarget(r_s), co, cfg.n_ec)
            for i, tau_i in enumerate(np.broadcast_to(tau, 50)):
                one = sop_overall(float(tau_i), SecrecyTarget(float(r_s[i])), co.take(i), cfg.n_ec)
                assert bd.branch[i] is one.branch
                assert bd.value[i] == one.value
                assert bd.tau_min[i] == one.tau_min
        assert {SopBranch.CONDITIONAL, SopBranch.ALWAYS_OUTAGE} <= set(bd.branch)


def test_one_state_calls_reject_batches():
    cfg = workable_cfg()
    co = make_coeffs(cfg, np.array([12.0, 8.0]), np.array([6.0, 5.0]))
    target = SecrecyTarget(cfg.R_s)
    with pytest.raises(ValueError):
        tau_min(target, co)
    with pytest.raises(ValueError):
        sop_overall(1.0, target, co, cfg.n_ec)
    with pytest.raises(ValueError):
        sop_overall_batch(1.5, target, co, cfg.n_ec)
