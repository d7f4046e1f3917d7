import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fuzz_states, gate_branch, make_coeffs, thresholds, workable_cfg
from mmwsec import checks
from mmwsec.channel import sample_gain_scalars
from mmwsec.config import coeffs_from_gains, stack_coeffs
from mmwsec.sop import (
    SecrecyTarget,
    SopBranch,
    cdf_Y_E,
    outage_threshold,
    sop_conditional,
    sop_overall,
    tau_min,
)


def _ideal_coeffs(d, a, b):
    from mmwsec.config import EffectiveCoeffs

    return EffectiveCoeffs(k_tot2=0.0, a=a, b=b, c=0.0, d=d, e=0.0)


# -- secrecy target and minimum split ---------------------------------------

def test_target_rate_factors():
    t = SecrecyTarget(5.0)
    assert t.T == 32.0 and t.T_bar == 31.0
    assert SecrecyTarget(0.0).T_bar == 0.0
    for bad in (-1.0, math.nan, np.array([1.0, math.nan]), math.inf, -math.inf, np.array([1.0, math.inf])):
        with pytest.raises(ValueError, match="R_s"):
            SecrecyTarget(bad)


# per-state rates: any finite non-negative float up to 1000 (2^R_s stays
# finite below 1024, and a rate from 1024 on raises)
_rate_lists = st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=12)
_bad_rates = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(max_value=-math.ulp(0.0))


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(rates=_rate_lists, bad=_bad_rates, data=st.data())
def test_per_state_target_rejects_nan_inf_and_negative_rates(rates, bad, data):
    rates.insert(data.draw(st.integers(0, len(rates)), label="at"), bad)
    with pytest.raises(ValueError, match="R_s"):
        SecrecyTarget(np.array(rates))


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(rates=_rate_lists, data=st.data())
def test_per_state_target_take_keeps_each_rate_and_its_factor(rates, data):
    # any index, one state or many (repeated, negative or none), picks the
    # states' rates with the T a one-state target of each rate gets
    n = len(rates)
    one = st.integers(-n, n - 1)
    index = data.draw(one | st.lists(one, max_size=12).map(lambda i: np.array(i, dtype=np.intp)), label="index")
    taken = SecrecyTarget(np.array(rates)).take(index)
    picked = np.array(rates)[index]
    assert np.array_equal(taken.R_s, picked)
    assert np.array_equal(taken.T, np.reshape([SecrecyTarget(r).T for r in np.ravel(picked).tolist()], picked.shape))
    too_high = data.draw(st.floats(min_value=1024.0, allow_infinity=False), label="too_high")
    with pytest.raises(ValueError, match="R_s"):
        SecrecyTarget(np.append(rates, too_high))


def test_tau_min_values():
    assert tau_min(SecrecyTarget(0.0), _ideal_coeffs(10.0, 1.0, 1.0)) == 0.0
    assert math.isclose(tau_min(SecrecyTarget(1.0), _ideal_coeffs(10.0, 1.0, 1.0)), 0.1, rel_tol=1e-14)


def test_tau_min_infeasible():
    from mmwsec.config import EffectiveCoeffs

    co = EffectiveCoeffs(k_tot2=1.0, a=1.0, b=1.0, c=0.5, d=1.0, e=1.0)
    t_min = tau_min(SecrecyTarget(math.log2(3.0)), co)  # T=3: d <= e*(T-1), past the impairment ceiling
    assert t_min.shape == () and t_min == math.inf


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
    states, taus, n_ec = [], [], []
    for _ in range(100):
        cfg = workable_cfg(
            N_C=int(rng.integers(1, 19)),
            k_tx=float(rng.uniform(0, 0.15)),
            k_rx=float(rng.uniform(0, 0.15)),
            P_dBm=float(rng.uniform(45, 65)),
        )
        states.append(make_coeffs(cfg, float(rng.gamma(cfg.N_C, 1)), float(rng.gamma(cfg.n_dc, 1))))
        taus.append(float(rng.uniform(0.05, 1.0)))
        n_ec.append(cfg.n_ec)
    xs = np.geomspace(1e-6, 1e6, 60)[:, None]  # a row per x, a column per state
    vals = cdf_Y_E(xs, np.array(taus), stack_coeffs(states), np.array(n_ec))
    assert np.all(np.diff(vals, axis=0) >= -1e-12)
    assert np.all(vals[0] >= 0.0) and np.all(vals[-1] > 0.999)


def test_cdf_y_e_and_sop_overall_lie_in_unit_interval():
    # one call per fuzzed configuration: the CDF on a grid of x (a row per
    # x, a column per state, each state with its own split and N_EC, splits
    # 0 and 1 among them) lies in [0, 1], does not decrease in x and equals
    # its 0-d calls bit for bit; the overall SOP lies in [0, 1]
    rng = np.random.Generator(np.random.Philox(1717))
    xs = np.concatenate([[-1.0, 0.0], np.geomspace(1e-6, 1e6, 58)])[:, None]
    for cfg, co in fuzz_states(rng, 50, 40):
        tau = np.append([0.0, 1.0], rng.uniform(0.0, 1.0, 38))
        n_ec = rng.integers(1, 20, 40)
        vals = cdf_Y_E(xs, tau, co, n_ec)
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert np.all(np.diff(vals, axis=0) >= 0.0)
        for i in range(0, 60, 10):
            for j in range(40):
                assert cdf_Y_E(float(xs[i, 0]), float(tau[j]), co.take(j), int(n_ec[j])) == vals[i, j]
        value = sop_overall(tau, SecrecyTarget(cfg.R_s), co, np.full(40, cfg.n_ec)).value
        assert np.all((0.0 <= value) & (value <= 1.0))


# -- branch gates -------------------------------------------------------------

def test_tau_min_branch_equals_the_gate_branch():
    # the paper states the branches through the gates gamma3 and gamma2(1);
    # sop_overall takes them from tau_min alone, and the two agree on every
    # fuzzed state (d > 0, e = k_tot^2 d)
    seen = set()
    for cfg, co in fuzz_states(np.random.Generator(np.random.Philox(7)), 400, 200):
        target = SecrecyTarget(cfg.R_s)
        branch = sop_overall(1.0, target, co, cfg.n_ec).branch
        assert np.array_equal(branch, gate_branch(target, co, cfg.k_tx**2))
        seen.update(branch)
    assert seen == set(SopBranch)


def test_thresholds_values():
    cfg = workable_cfg(k_tx=0.1, k_rx=0.1)
    co = make_coeffs(cfg, 10.0, 6.0)
    g1, g2, g3 = thresholds(0.7, co, cfg.k_tx**2)
    assert math.isclose(g3, 1.02 / 0.02, rel_tol=1e-12)  # rates past log2(51) never work
    assert math.log2(g3) < 6.0 < math.log2(g3) + 0.5

    ideal = _ideal_coeffs(10.0, 1.0, 1.0)
    g1, g2, g3 = thresholds(0.5, ideal, 0.0)
    assert g1 == 0.0
    assert math.isclose(g2, 0.5 * 10.0 + 1.0, rel_tol=1e-14)
    assert math.isinf(g3)


def test_thresholds_at_zero_split():
    cfg = workable_cfg(k_tx=0.2, k_rx=0.1)
    co = make_coeffs(cfg, 10.0, 6.0)
    g1, g2, _ = thresholds(0.0, co, cfg.k_tx**2)
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
        g1, _, _ = thresholds(float(rng.uniform(0, 1)), co, cfg.k_tx**2)
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
        t_min = tau_min(target, co)
        if t_min >= 1.0:  # no feasible split
            continue
        tau = float(rng.uniform(t_min + 1e-6, 1.0))
        direct = sop_conditional(tau, target, co, cfg.n_ec)
        via_cdf = 1.0 - cdf_Y_E(outage_threshold(tau, target, co), tau, co, cfg.n_ec)
        assert abs(direct - via_cdf) <= 1e-12
        assert 0.0 <= direct <= 1.0
    # and every fuzzed state that can transmit, one call per configuration
    fuzz = np.random.Generator(np.random.Philox(1718))
    checked = 0
    for cfg, co in fuzz_states(fuzz, 50, 40):
        target = SecrecyTarget(cfg.R_s)
        t_min = tau_min(target, co)
        live = (sop_overall(1.0, target, co, cfg.n_ec).branch == SopBranch.CONDITIONAL) & (t_min < 1.0 - 1e-6)
        co, t_min = co.take(live), t_min[live]
        tau = fuzz.uniform(t_min + 1e-6, 1.0)
        direct = sop_conditional(tau, target, co, cfg.n_ec)
        via_cdf = 1.0 - cdf_Y_E(outage_threshold(tau, target, co), tau, co, cfg.n_ec)
        assert np.all(np.abs(direct - via_cdf) <= 1e-12)
        assert np.all((0.0 <= direct) & (direct <= 1.0))
        checked += live.sum()
    assert checked > 500


def test_sop_conditional_batch_equals_0d_calls():
    # a 0-d state (np.float64 coefficients, a float split) gets the bits it
    # gets inside a batch; the N_EC power is numpy's for both
    fuzz = np.random.Generator(np.random.Philox(7))
    checked = 0
    for cfg, co in fuzz_states(fuzz, 40, 40):
        target = SecrecyTarget(cfg.R_s)
        t_min = tau_min(target, co)
        live = (sop_overall(1.0, target, co, cfg.n_ec).branch == SopBranch.CONDITIONAL) & (t_min < 1.0 - 1e-6)
        co, t_min = co.take(live), t_min[live]
        tau = fuzz.uniform(t_min + 1e-6, 1.0)
        batch = sop_conditional(tau, target, co, cfg.n_ec)
        for i in range(tau.size):
            assert sop_conditional(float(tau[i]), target, co.take(i), cfg.n_ec) == batch[i]
        checked += tau.size
    assert checked > 500


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


def test_sop_conditional_against_mc():
    cfg = workable_cfg(N_C=10)
    case = (make_coeffs(cfg, 10.0, 8.0), 0.6, SecrecyTarget(cfg.R_s), cfg.n_ec, 99)
    check = checks.sop_conditional_vs_mc([case], 200_000, 0.01, 4.0)
    assert check.margin <= 1.0, check.detail


# -- overall SOP branching ----------------------------------------------------

def test_overall_always_outage_above_impairment_ceiling():
    # gamma3 = 51 caps achievable rates at log2(51) ~ 5.67 regardless of power
    for p in [5.0, 40.0, 70.0, 100.0]:
        cfg = workable_cfg(P_dBm=p, R_s=6.0)
        co = make_coeffs(cfg, 16.0, 4.0)
        bd = sop_overall(1.0, SecrecyTarget(6.0), co, cfg.n_ec)
        assert bd.branch == SopBranch.ALWAYS_OUTAGE
        assert bd.value == 1.0


def test_overall_source_silent_for_weak_channel():
    cfg = workable_cfg(P_dBm=30.0, R_s=5.0)
    co = make_coeffs(cfg, 0.05, 0.05)
    bd = sop_overall(1.0, SecrecyTarget(5.0), co, cfg.n_ec)
    assert bd.branch == SopBranch.SOURCE_SILENT
    assert bd.value == 0.0


def test_overall_middle_branch_delegates():
    cfg = workable_cfg()
    co = make_coeffs(cfg, 12.0, 6.0)
    target = SecrecyTarget(cfg.R_s)
    bd = sop_overall(0.7, target, co, cfg.n_ec)
    assert bd.branch == SopBranch.CONDITIONAL
    assert math.isclose(bd.value, sop_conditional(0.7, target, co, cfg.n_ec), rel_tol=1e-14)
    g1, g2, _ = thresholds(0.7, co, cfg.k_tx**2)
    assert g1 < target.T < g2


def test_overall_split_below_tau_min_is_certain_outage():
    cfg = workable_cfg()
    co = make_coeffs(cfg, 12.0, 6.0)
    target = SecrecyTarget(cfg.R_s)
    t_min = tau_min(target, co)
    bd = sop_overall(0.5 * t_min, target, co, cfg.n_ec)
    assert bd.value == 1.0


def test_sop_overall_batch_matches_one_state(rng):
    # every state of a batch equals the call on that state alone, a 0-d
    # state (co.take(i)), bit for bit
    branches = set()
    for cfg, co in fuzz_states(rng, 40, 8):
        target = SecrecyTarget(cfg.R_s)
        for tau in (1.0, rng.uniform(0.0, 1.0, size=8)):  # one split for all, one per state
            bd = sop_overall(tau, target, co, cfg.n_ec)
            for i, tau_i in enumerate(np.broadcast_to(tau, 8)):
                one = sop_overall(float(tau_i), target, co.take(i), cfg.n_ec)
                assert bd.branch[i] is one.branch.item()
                assert bd.value[i] == one.value and 0.0 <= one.value <= 1.0
                assert bd.tau_min[i] == one.tau_min
                branches.add(one.branch.item())
        t_min = tau_min(target, co)
        for i in range(8):
            assert tau_min(target, co.take(i)) == t_min[i]  # inf == inf past the ceiling
        assert np.all(np.isinf(t_min) == (co.d <= co.e * target.T_bar))
    assert branches == set(SopBranch)


def test_sop_overall_per_state_n_ec_with_a_silent_state():
    # the feasible states take their own n_ec entries
    cfg = workable_cfg()
    co = coeffs_from_gains(cfg, np.array([12.0, 1e-6, 10.0]), np.array([6.0, 1e-6, 8.0]))
    target = SecrecyTarget(cfg.R_s)
    shared = sop_overall(0.7, target, co, 8)
    per_state = sop_overall(0.7, target, co, np.array([8, 8, 8]))
    assert list(shared.branch) == [SopBranch.CONDITIONAL, SopBranch.SOURCE_SILENT, SopBranch.CONDITIONAL]
    assert np.array_equal(per_state.value, shared.value) and list(per_state.branch) == list(shared.branch)


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
            bd = sop_overall(tau, SecrecyTarget(r_s), co, cfg.n_ec)
            for i, tau_i in enumerate(np.broadcast_to(tau, 50)):
                one = sop_overall(float(tau_i), SecrecyTarget(float(r_s[i])), co.take(i), cfg.n_ec)
                assert bd.branch[i] is one.branch.item()
                assert bd.value[i] == one.value
                assert bd.tau_min[i] == one.tau_min
        assert {SopBranch.CONDITIONAL, SopBranch.ALWAYS_OUTAGE} <= set(bd.branch)


def test_zero_d_state_gives_zero_d_results():
    # scalar coefficients are one state, and every field comes back 0-d
    from mmwsec.opa_sop import minimize_sop_tau
    from mmwsec.throughput import dk_dtau, drs_dtau

    cfg = workable_cfg()
    co = make_coeffs(cfg, 12.0, 6.0)
    target = SecrecyTarget(cfg.R_s)
    assert tau_min(target, co).shape == ()
    bd = sop_overall(0.7, target, co, cfg.n_ec)
    assert all(np.shape(getattr(bd, f)) == () for f in ("value", "branch", "tau_min"))
    assert bd.branch.item() is SopBranch.CONDITIONAL
    tau_star, value = minimize_sop_tau(target, co, cfg.n_ec)
    assert tau_star.shape == value.shape == ()
    assert np.shape(dk_dtau(0.5, co, cfg.n_ec, cfg.epsilon)) == ()
    assert np.shape(drs_dtau(0.5, co, cfg.n_ec, cfg.epsilon)) == ()
    # a batch of one state keeps its axis
    one = co.take([0])
    assert tau_min(target, one).shape == (1,)
    assert sop_overall(0.7, target, one, cfg.n_ec).branch.shape == (1,)
    assert minimize_sop_tau(target, one, cfg.n_ec)[0].shape == (1,)


def test_sop_overall_rejects_splits_outside_unit_interval():
    cfg = workable_cfg()
    target = SecrecyTarget(cfg.R_s)
    for co in (make_coeffs(cfg, 12.0, 6.0), make_coeffs(cfg, np.array([12.0, 8.0]), np.array([6.0, 5.0]))):
        for tau in (1.5, -0.1):
            with pytest.raises(ValueError):
                sop_overall(tau, target, co, cfg.n_ec)
