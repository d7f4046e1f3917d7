import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fuzz_states, make_coeffs, thresholds, workable_cfg
from mmwsec.channel import sample_gain_scalars
from mmwsec.config import EffectiveCoeffs, SystemConfig, coeffs_from_gains, stack_coeffs
from mmwsec.errors import SilentSourceError
from mmwsec import checks, opa_sop, throughput
from mmwsec.opa_sop import (
    OpaCase,
    OpaResult,
    _log_sop_slope,
    minimize_sop_tau,
    omega,
    omega_roots,
    optimize_tau_sop,
    optimize_tau_sop_batch,
    phi,
    phi_coeffs,
    phi_rational,
)
from mmwsec.sop import (
    SecrecyTarget, SopBranch, sop_conditional, sop_overall, tau_min,
)


def _random_state(rng, **overrides):
    params = dict(
        N_C=int(rng.integers(1, 19)),
        P_dBm=float(rng.uniform(45, 70)),
        R_s=float(rng.uniform(0.5, 5.0)),
        k_tx=float(rng.uniform(0, 0.15)),
        k_rx=float(rng.uniform(0, 0.15)),
        d_E_m=float(rng.uniform(50, 200)),
    )
    params.update(overrides)
    cfg = workable_cfg(**params)
    coeffs = make_coeffs(cfg, float(rng.gamma(cfg.N_C, 1)), float(rng.gamma(cfg.n_dc, 1)))
    u, v = float(rng.exponential(1.0)), float(rng.gamma(cfg.n_ec, 1.0))
    return cfg, coeffs, u, v


def _only_state(res):
    """The one state of a batch-of-one OpaResult, as floats and one OpaCase."""
    return OpaResult(res.tau_star.item(), res.case_tag.item(), res.objective_value.item())


def test_phi_dual_forms_agree(rng):
    for _ in range(300):
        cfg, coeffs, u, v = _random_state(rng)
        pc = phi_coeffs(u, v, coeffs)
        tau = float(rng.uniform(0, 1))
        direct = phi(tau, u, v, coeffs)
        rational = float(phi_rational(tau, pc))
        assert abs(direct - rational) <= 1e-10 * max(1.0, abs(direct))


def test_phi_trivial_values():
    cfg = workable_cfg()
    coeffs = make_coeffs(cfg, 10.0, 6.0)
    assert math.isclose(phi(0.0, 1.0, 2.0, coeffs), 1.0, rel_tol=1e-14)
    # no leakage: phi is 1 + destination SNDR
    from mmwsec.sndr import sndr_destination

    assert math.isclose(
        phi(0.6, 0.0, 2.0, coeffs), 1.0 + sndr_destination(0.6, coeffs.d, coeffs.e), rel_tol=1e-14
    )


def test_phi_coeffs_structure(rng):
    for _ in range(100):
        _, coeffs, u, v = _random_state(rng)
        pc = phi_coeffs(u, v, coeffs)
        assert math.isclose(pc.c3, coeffs.b * v + 1.0, rel_tol=1e-14)
        scale = max(abs(pc.eps1), abs(pc.eps2), abs(pc.eps3), 1e-300)
        assert abs(pc.eps1 - (pc.c1 * pc.c5 - pc.c2 * pc.c4)) <= 1e-12 * scale
        assert abs(pc.eps2 - 2.0 * pc.c3 * (pc.c1 - pc.c4)) <= 1e-12 * scale
        assert abs(pc.eps3 - pc.c3 * (pc.c2 - pc.c5)) <= 1e-12 * scale


def test_omega_sign_matches_phi_slope(rng):
    checked = 0
    while checked < 1000:
        _, coeffs, u, v = _random_state(rng)
        pc = phi_coeffs(u, v, coeffs)
        tau = float(rng.uniform(0.01, 0.99))
        om = float(omega(tau, pc))
        scale = max(abs(pc.eps1), abs(pc.eps2), abs(pc.eps3))
        if abs(om) <= 1e-6 * scale:
            continue
        h = 1e-6
        slope = (phi(tau + h, u, v, coeffs) - phi(tau - h, u, v, coeffs)) / (2 * h)
        assert math.copysign(1, om) == math.copysign(1, slope)
        checked += 1


def _check_roots(pc):
    """Real roots of Omega: ascending, NaN-padded at the end, zeros of Omega."""
    roots = omega_roots(pc)
    assert roots.shape == (2,)
    real = roots[~np.isnan(roots)]
    assert np.isnan(roots[real.size:]).all()
    assert np.all(np.diff(real) >= 0.0)
    scale = max(abs(pc.eps1), abs(pc.eps2), abs(pc.eps3))
    for r in real:
        if abs(r) < 10.0:
            assert abs(omega(r, pc)) <= 1e-9 * scale * max(1.0, r * r)
    return roots


def test_omega_roots_ordering_and_residual(rng):
    for _ in range(200):
        _, coeffs, u, v = _random_state(rng)
        _check_roots(phi_coeffs(u, v, coeffs))
    # low power and a close eavesdropper: Omega has a complex pair
    cfg = workable_cfg(N_C=13, P_dBm=33.0, k_tx=0.09, k_rx=0.06, d_E_m=12.0)
    pc = phi_coeffs(3.7, 5.4, make_coeffs(cfg, 13.0, 7.0))
    assert pc.eps2**2 < 4.0 * pc.eps1 * pc.eps3
    assert np.isnan(_check_roots(pc)).all()
    # a*u == b*v on ideal hardware: Omega is linear, its one root comes first
    cfg = workable_cfg(k_tx=0.0, k_rx=0.0, P_dBm=55.0)
    coeffs = make_coeffs(cfg, 10.0, 6.0)
    roots = _check_roots(phi_coeffs(coeffs.b * 2.0 / coeffs.a, 2.0, coeffs))
    assert np.isfinite(roots[0]) and np.isnan(roots[1])
    # several states at once: one row of roots per state
    pcs = phi_coeffs(np.array([3.7, coeffs.b * 2.0 / coeffs.a]), 2.0, coeffs)
    assert omega_roots(pcs).shape == (2, 2)


def test_grid_audit_agrees_with_analytic(rng):
    # a 10,000-point grid never leads the analytic split by more than 1e-6
    for _ in range(50):
        cfg, coeffs, u, v = _random_state(rng)
        target = SecrecyTarget(cfg.R_s)
        try:
            check = checks.opa_sop_vs_grid(target, coeffs, cfg.n_ec, u, v, 10_000, 1e-6)
        except SilentSourceError:
            continue
        assert check.margin <= 1.0, check.detail


def test_concave_interior_certificate(rng):
    seen = 0
    while seen < 30:
        cfg, coeffs, u, v = _random_state(rng)
        target = SecrecyTarget(cfg.R_s)
        try:
            res = _only_state(optimize_tau_sop_batch(target, coeffs, cfg.n_ec, u, v))
        except SilentSourceError:
            continue
        if res.case_tag is not OpaCase.CONCAVE_INTERIOR:
            continue
        pc = phi_coeffs(u, v, coeffs)
        t_min = tau_min(target, coeffs)
        assert res.objective_value >= float(phi_rational(t_min, pc)) - 1e-12
        assert res.objective_value >= float(phi_rational(1.0, pc)) - 1e-12
        seen += 1


def test_degenerate_linear_case():
    cfg = workable_cfg(k_tx=0.0, k_rx=0.0, P_dBm=55.0)
    coeffs = make_coeffs(cfg, 10.0, 6.0)
    v = 2.0
    u = coeffs.b * v / coeffs.a  # a*u == b*v collapses the quadratic term
    pc = phi_coeffs(u, v, coeffs)
    assert abs(pc.eps1) <= 1e-12 * max(abs(pc.eps2), abs(pc.eps3))
    res = _only_state(optimize_tau_sop_batch(SecrecyTarget(cfg.R_s), coeffs, cfg.n_ec, u, v))
    assert res.case_tag is OpaCase.DEGENERATE_LINEAR


@pytest.mark.parametrize("p_dbm", [0.0, 5.0, 10.0])
def test_degenerate_linear_tag_follows_the_roots_rule(rng, p_dbm):
    # the tag calls Omega linear exactly where omega_roots solves it as
    # linear: |eps1| <= 1e-12 * max(|eps1|, |eps2|, |eps3|), with no
    # absolute floor, which at low power called quadratics linear
    cfg = SystemConfig(P_dBm=p_dbm, R_s=0.0)
    g_hat, g_check = rng.gamma(cfg.N_C, 1.0, 2000), rng.gamma(cfg.n_dc, 1.0, 2000)
    coeffs = coeffs_from_gains(cfg, g_hat, g_check)
    res = optimize_tau_sop_batch(SecrecyTarget(cfg.R_s), coeffs, cfg.n_ec)
    pc = phi_coeffs(1.0, np.full(2000, float(cfg.n_ec)), coeffs)
    scale = np.max(np.abs([pc.eps1, pc.eps2, pc.eps3]), axis=0)
    linear = np.abs(pc.eps1) <= 1e-12 * scale
    assert np.array_equal(res.case_tag == OpaCase.DEGENERATE_LINEAR, linear)


def test_mean_policy_default_and_validation():
    cfg = workable_cfg()
    coeffs = make_coeffs(cfg, 12.0, 6.0)
    target = SecrecyTarget(cfg.R_s)
    res = optimize_tau_sop(target, coeffs, cfg.n_ec)
    assert tau_min(target, coeffs) < res.tau_star <= 1.0
    # without a realized draw the split is built at the means u = 1, v = N_EC
    assert res == _only_state(optimize_tau_sop_batch(target, coeffs, cfg.n_ec, 1.0, cfg.n_ec))
    assert res != _only_state(optimize_tau_sop_batch(target, coeffs, cfg.n_ec, 1.0, 0.5 * cfg.n_ec))
    # the one-state call runs no grid audit, and says so when asked for one
    assert optimize_tau_sop(target, coeffs, cfg.n_ec, grid_points=0) == res
    for points in (1, 2048, 10_000, -1):
        with pytest.raises(ValueError, match="checks.opa_sop_vs_grid"):
            optimize_tau_sop(target, coeffs, cfg.n_ec, grid_points=points)


def test_weak_an_effect_prefers_full_power():
    # ideal hardware with a distant eavesdropper: AN buys little, so the
    # capacity-ratio optimizer stays at (or near) full information power
    cfg = workable_cfg(k_tx=0.0, k_rx=0.0, d_E_m=500.0, N_C=2, R_s=2.0)
    coeffs = make_coeffs(cfg, 2.0, 18.0)
    res = optimize_tau_sop(SecrecyTarget(cfg.R_s), coeffs, cfg.n_ec)
    assert res.tau_star > 0.95


def test_optimizer_silent_when_infeasible():
    cfg = workable_cfg(P_dBm=30.0, R_s=5.0)
    coeffs = make_coeffs(cfg, 0.05, 0.05)
    with pytest.raises(SilentSourceError):
        optimize_tau_sop(SecrecyTarget(5.0), coeffs, cfg.n_ec)


def test_mean_policy_split_decreases_with_impairment_and_power():
    # the capacity-ratio optimizer pushes power toward AN as hardware
    # degrades and as the power budget grows
    target = SecrecyTarget(5.0)
    for g_hat, g_check in [(16.0, 4.0), (24.0, 6.0), (10.0, 10.0)]:
        for p in (56.0, 62.0, 68.0):
            taus = []
            for k in (0.0, 0.05, 0.1):
                cfg = SystemConfig(M=150, N_D=20, N_C=16, P_dBm=p, k_tx=k, k_rx=k)
                coeffs = make_coeffs(cfg, g_hat, g_check)
                taus.append(optimize_tau_sop(target, coeffs, cfg.n_ec).tau_star)
            assert taus[0] >= taus[1] >= taus[2]
        for k in (0.0, 0.1):
            taus = []
            for p in (56.0, 62.0, 68.0):
                cfg = SystemConfig(M=150, N_D=20, N_C=16, P_dBm=p, k_tx=k, k_rx=k)
                coeffs = make_coeffs(cfg, g_hat, g_check)
                taus.append(optimize_tau_sop(target, coeffs, cfg.n_ec).tau_star)
            assert taus[0] >= taus[1] >= taus[2]


def test_minimize_sop_tau_beats_grid(rng):
    for _ in range(100):
        cfg, coeffs, _, _ = _random_state(rng)
        target = SecrecyTarget(cfg.R_s)
        try:
            tau_star, val = minimize_sop_tau(target, coeffs, cfg.n_ec)
        except SilentSourceError:
            continue
        t_min = tau_min(target, coeffs)
        taus = t_min + (np.arange(1, 4001) / 4000) * (1.0 - t_min)
        grid_min = float(np.min(sop_conditional(taus, target, coeffs, cfg.n_ec)))
        assert val <= grid_min + 1e-9
        assert math.isclose(val, sop_conditional(tau_star, target, coeffs, cfg.n_ec), rel_tol=1e-12)


def test_minimize_sop_tau_never_worse_than_full_power(rng):
    for _ in range(100):
        cfg, coeffs, _, _ = _random_state(rng)
        target = SecrecyTarget(cfg.R_s)
        try:
            _, val = minimize_sop_tau(target, coeffs, cfg.n_ec)
        except SilentSourceError:
            continue
        assert val <= sop_conditional(1.0, target, coeffs, cfg.n_ec) + 1e-12


def test_minimize_sop_tau_batch_fuzz(rng):
    # 12 states per configuration go through one batch call
    split_states = {"N_C=0": 0, "R_s=0": 0, "ideal": 0}
    for cfg, coeffs in fuzz_states(rng, 40, 12):
        target = SecrecyTarget(cfg.R_s)
        gate = sop_overall(1.0, target, coeffs, cfg.n_ec)
        split = np.flatnonzero(gate.branch == SopBranch.CONDITIONAL)
        if split.size < 12:
            with pytest.raises(SilentSourceError):
                minimize_sop_tau(target, coeffs, cfg.n_ec)
        taus, vals = minimize_sop_tau(target, coeffs.take(split), cfg.n_ec)
        for tau_b, val_b, i in zip(taus, vals, split):
            state = coeffs.take(i)  # one 0-d state
            tau_one, val_one = minimize_sop_tau(target, state, cfg.n_ec)
            assert tau_b == tau_one and val_b == val_one  # one arithmetic, any batch size
            assert 0.0 <= val_b <= 1.0
            t_min = tau_min(target, state)
            grid = t_min + (np.arange(1, 4001) / 4000) * (1.0 - t_min)
            assert val_b <= float(np.min(sop_conditional(grid, target, state, cfg.n_ec))) + 1e-9
            assert val_b <= sop_conditional(1.0, target, state, cfg.n_ec) + 1e-12
        split_states["N_C=0"] += split.size * (cfg.N_C == 0)
        split_states["R_s=0"] += split.size * (cfg.R_s == 0.0)
        split_states["ideal"] += split.size * (cfg.k_tot2 == 0.0)
    assert min(split_states.values()) > 0, split_states


def test_minimize_sop_tau_batch_blocks_keep_the_bits(rng, monkeypatch):
    # the Conditional states of fuzzed configurations, stacked with a
    # per-state R_s and n_ec (the N_C = 0 ones do not leak), give the same
    # bits scanned in blocks of 1, 7 and 256 states and whole, whose
    # brackets are refined in one call
    states, r_s, n_ec = [], [], []
    for cfg, coeffs in fuzz_states(rng, 20, 30):
        target = SecrecyTarget(cfg.R_s)
        split = np.flatnonzero(sop_overall(1.0, target, coeffs, cfg.n_ec).branch == SopBranch.CONDITIONAL)
        states.append(coeffs.take(split))
        r_s += [cfg.R_s] * split.size
        n_ec += [cfg.n_ec] * split.size
    stacked, target, n_ec = stack_coeffs(states), SecrecyTarget(np.array(r_s)), np.array(n_ec)
    assert 0 < np.count_nonzero(stacked.a == 0.0) < stacked.a.size and stacked.a.size > 256
    points = opa_sop._SLOPE_GRID.size
    monkeypatch.setattr(throughput, "_BLOCK_ELEMENTS", 10**9)
    assert len(throughput.state_blocks(stacked.a.size, points)) == 1
    whole = [x.tobytes() for x in minimize_sop_tau(target, stacked, n_ec)]
    for block in (1, 7, 256):
        monkeypatch.setattr(throughput, "_BLOCK_ELEMENTS", block * points)
        assert throughput.state_blocks(stacked.a.size, points)[0] == slice(0, block)
        assert [x.tobytes() for x in minimize_sop_tau(target, stacked, n_ec)] == whole, block


def _slope_cols(states: EffectiveCoeffs):
    """(a, b, c, d, e) of the states as (states, 1) columns."""
    return [np.broadcast_to(getattr(states, k), states.a.shape)[:, None] for k in "abcde"]


def test_sop_log_slope_matches_finite_differences(rng):
    # g / (1 + (1 - tau)*b*r) against Richardson-extrapolated central
    # differences of log(sop_conditional), on the fuzzed configurations plus
    # one just below the impairment ceiling (T = 0.95 gamma3)
    edge = workable_cfg(P_dBm=75.0, k_tx=0.15, k_rx=0.15)
    ceiling = edge.with_overrides(R_s=math.log2(0.95 * (1.0 + edge.k_tot2) / edge.k_tot2))
    g_hat, g_check = rng.gamma(ceiling.N_C, 1.0, 12), rng.gamma(ceiling.n_dc, 1.0, 12)
    configs = [*fuzz_states(rng, 40, 12), (ceiling, coeffs_from_gains(ceiling, g_hat, g_check))]
    seen = {"R_s=0": 0, "ideal": 0, "ceiling": 0}
    q = np.array([1e-3, 0.02, 0.1, 0.3, 0.6, 0.9, 0.99])
    for cfg, coeffs in configs:
        target = SecrecyTarget(cfg.R_s)
        gate = sop_overall(1.0, target, coeffs, cfg.n_ec)
        states = coeffs.take(np.flatnonzero((gate.branch == SopBranch.CONDITIONAL) & (coeffs.a > 0.0)))
        t_min = tau_min(target, states)[:, None]
        cols = _slope_cols(states)

        # just above tau_min the SOP falls from 1 when R_s > 0 and rises
        # from its infimum at the open end when R_s = 0
        g_start = _log_sop_slope(t_min + 1e-9 * (1.0 - t_min), *cols, target.T, cfg.n_ec)
        assert np.all(g_start > 0.0) if cfg.R_s == 0.0 else np.all(g_start < 0.0)

        tau = t_min + q * (1.0 - t_min)
        h = 0.01 * np.minimum(tau - t_min, 1.0 - tau)
        at = states.take((slice(None), None))
        sops = np.stack([sop_conditional(tau + k * h, target, at, cfg.n_ec) for k in (-1.0, -0.5, 0.0, 0.5, 1.0)])
        ok = np.all(sops > 1e-280, axis=0)  # away from subnormal SOP values
        lo, lo_half, mid, hi_half, hi = np.log(np.where(ok, sops, 1.0))
        fd = (4.0 * (hi_half - lo_half) / h - (hi - lo) / (2.0 * h)) / 3.0
        b, d, e = cols[1], cols[3], cols[4]
        num = tau * d - (tau * e + 1.0) * target.T_bar
        r = num / (tau * ((tau * e + 1.0) * target.T * cols[0] - cols[2] * num))
        slope = _log_sop_slope(tau, *cols, target.T, cfg.n_ec) / (1.0 + (1.0 - tau) * b * r)
        # the scale is the larger of the slope and the mean slope
        # |log SOP(tau)| / (tau - tau_min) since tau_min, so points where the
        # slope crosses zero keep a meaningful bound
        scale = np.maximum(np.abs(fd), np.abs(mid) / (tau - t_min))
        assert np.all(np.abs(slope - fd)[ok] <= 1e-6 * scale[ok])
        checked = int(ok.sum())
        seen["R_s=0"] += checked * (cfg.R_s == 0.0)
        seen["ideal"] += checked * (cfg.k_tot2 == 0.0)
        seen["ceiling"] += checked * (target.T > 0.9 * (1.0 + cfg.k_tot2) / max(cfg.k_tot2, 1e-300))
    assert min(seen.values()) > 0, seen


# One example: a configuration and one to six channel states (G_hat = 0
# when no path is common, as sample_gain_scalars draws it).
_configs = st.builds(
    SystemConfig,
    M=st.just(100),
    N_D=st.just(20),
    N_C=st.integers(0, 19),
    P_dBm=st.floats(30.0, 80.0),
    R_s=st.floats(0.0, 6.0),
    k_tx=st.floats(0.0, 0.15),
    k_rx=st.floats(0.0, 0.15),
    d_E_m=st.floats(20.0, 200.0),
)
_gains = st.lists(st.tuples(st.floats(1e-3, 60.0), st.floats(1e-3, 60.0)), min_size=1, max_size=6)


def test_minimize_sop_tau_batch_properties():
    # the split minimizer over the SystemConfig space and the gains; local
    # minima beyond the first are counted on a dense slope grid and printed
    dense = np.concatenate([np.geomspace(1e-14, 1e-3, 200, endpoint=False), np.linspace(1e-3, 1.0, 4000)])
    seen = {"states": 0, "N_C=0": 0, "R_s=0": 0, "ideal": 0, "several minima": 0}

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(cfg=_configs, gains=_gains)
    def check(cfg, gains):
        g_hat, g_check = np.array(gains).T
        coeffs = coeffs_from_gains(cfg, g_hat * (cfg.N_C > 0), g_check)
        target = SecrecyTarget(cfg.R_s)
        gate = sop_overall(1.0, target, coeffs, cfg.n_ec)
        states = coeffs.take(np.flatnonzero(gate.branch == SopBranch.CONDITIONAL))
        taus, vals = minimize_sop_tau(target, states, cfg.n_ec)
        t_min = tau_min(target, states)
        for j in range(t_min.size):
            state = states.take(j)
            tau_one, val_one = minimize_sop_tau(target, state, cfg.n_ec)
            assert taus[j] == tau_one and vals[j] == val_one
            assert 0.0 <= vals[j] <= 1.0
            grid = t_min[j] + (np.arange(1, 4001) / 4000) * (1.0 - t_min[j])
            assert vals[j] <= float(np.min(sop_conditional(grid, target, state, cfg.n_ec))) + 1e-9
            assert vals[j] <= sop_conditional(1.0, target, state, cfg.n_ec) + 1e-12
        leak = states.take(np.flatnonzero(states.a > 0.0))
        t_leak = tau_min(target, leak)[:, None]
        rising = _log_sop_slope(t_leak + dense * (1.0 - t_leak), *_slope_cols(leak), target.T, cfg.n_ec) > 0.0
        seen["states"] += t_min.size
        seen["N_C=0"] += t_min.size * (cfg.N_C == 0)
        seen["R_s=0"] += t_min.size * (cfg.R_s == 0.0)
        seen["ideal"] += t_min.size * (cfg.k_tot2 == 0.0)
        seen["several minima"] += int(np.sum(np.sum(~rising[:, :-1] & rising[:, 1:], axis=1) > 1))

    check()
    print(f"minimize_sop_tau properties: {seen}")
    assert min(seen[k] for k in ("N_C=0", "R_s=0", "ideal")) > 0, seen


def test_batch_stacked_from_several_configurations():
    # one state per configuration, stacked field by field: b and the scale
    # factors differ between the states, and the first is ideal (k_tot2 = 0)
    cfgs = [
        workable_cfg(P_dBm=p, k_tx=k, k_rx=k) for p, k in ((50.0, 0.0), (55.0, 0.05), (60.0, 0.1))
    ]

    singles = [make_coeffs(cfg, 9.0, 6.0) for cfg in cfgs]
    stacked = stack_coeffs(singles)
    target, n_ec = SecrecyTarget(cfgs[0].R_s), cfgs[0].n_ec
    picked = stacked.take([2, 0])
    for f in fields(EffectiveCoeffs):
        assert list(getattr(picked, f.name)) == [getattr(singles[i], f.name) for i in (2, 0)]
    batch = sop_overall(1.0, target, stacked, n_ec)
    taus, vals = minimize_sop_tau(target, stacked, n_ec)
    for i, one in enumerate(singles):
        for f in fields(EffectiveCoeffs):
            assert getattr(stacked.take(i), f.name) == getattr(one, f.name)
        gate = sop_overall(1.0, target, one, n_ec)
        assert batch.branch[i] is gate.branch.item() is SopBranch.CONDITIONAL
        for f in ("value", "tau_min"):
            assert getattr(batch, f)[i] == getattr(gate, f), f
        tau_one, val_one = minimize_sop_tau(target, one, n_ec)
        assert taus[i] == tau_one and vals[i] == val_one
    assert thresholds(1.0, stacked, np.array([cfg.k_tx**2 for cfg in cfgs]))[2][0] == math.inf

    # per-state R_s and n_ec: each state keeps its own configuration's, the
    # zero rate (infimum at the open end tau_min), fractional rates and
    # n_ec = 1 too (a shared x ** -1 is a reciprocal, not numpy's power)
    cfgs = [
        cfg.with_overrides(R_s=r_s, N_E=cfg.N_C + n_ec)
        for cfg, r_s, n_ec in zip(
            cfgs + [workable_cfg(P_dBm=58.0), workable_cfg(P_dBm=57.0)], (3.3, 2.0, 0.0, 0.7, 1.5), (8, 4, 2, 3, 1)
        )
    ]
    singles = [make_coeffs(cfg, 9.0, 6.0) for cfg in cfgs]
    taus, vals = minimize_sop_tau(
        SecrecyTarget(np.array([cfg.R_s for cfg in cfgs])), stack_coeffs(singles), np.array([cfg.n_ec for cfg in cfgs])
    )
    for i, (cfg, one) in enumerate(zip(cfgs, singles)):
        tau_one, val_one = minimize_sop_tau(SecrecyTarget(cfg.R_s), one, cfg.n_ec)
        assert taus[i] == tau_one and vals[i] == val_one
    assert 0.0 < taus[2] <= 1e-12  # the zero rate keeps the grid's first split


def test_optimize_tau_sop_batch_fuzz(rng):
    # every state of a batch gets exactly its one-state result, at the mean
    # and at realized per-state (u, v)
    seen = {"N_C=0": 0, "R_s=0": 0, "ideal": 0, "silent": 0}
    for cfg, coeffs in fuzz_states(rng, 40, 12):
        target = SecrecyTarget(cfg.R_s)
        t_min = tau_min(target, coeffs)
        feasible = np.flatnonzero(t_min < 1.0)  # t_min >= 1 where no split is feasible
        if feasible.size < 12:
            with pytest.raises(SilentSourceError):
                optimize_tau_sop_batch(target, coeffs, cfg.n_ec)
            seen["silent"] += 1
        states = coeffs.take(feasible)
        u = rng.exponential(1.0, feasible.size)
        v = rng.gamma(cfg.n_ec, 1.0, feasible.size)
        for realized in (False, True):
            batch = optimize_tau_sop_batch(target, states, cfg.n_ec, *((u, v) if realized else (1.0, None)))
            for j, i in enumerate(feasible):
                state = coeffs.take(i)
                if realized:
                    one = _only_state(optimize_tau_sop_batch(target, state, cfg.n_ec, u[j], v[j]))
                else:
                    one = optimize_tau_sop(target, state, cfg.n_ec)
                assert batch.tau_star[j] == one.tau_star
                assert batch.case_tag[j] is one.case_tag
                assert batch.objective_value[j] == one.objective_value
                assert t_min[i] < one.tau_star <= 1.0
        for uv in ((1.0, cfg.n_ec), (u, v)):
            check = checks.opa_sop_vs_grid(target, states, cfg.n_ec, *uv, 4000, 1e-7)
            assert check.margin <= 1.0, check.detail
        seen["N_C=0"] += feasible.size * (cfg.N_C == 0)
        seen["R_s=0"] += feasible.size * (cfg.R_s == 0.0)
        seen["ideal"] += feasible.size * (cfg.k_tot2 == 0.0)
    assert min(seen.values()) > 0, seen


def test_capacity_ratio_split_never_beats_the_sop_minimum():
    # fig5 reports optimize_tau_sop_batch's capacity-ratio split; fig3 and
    # fig4 use minimize_sop_tau.  At every feasible fuzzed state the
    # minimizer's SOP is at most the SOP at the capacity-ratio split.  The
    # relative slack of 1e-12 allows only rounding: the minimizer's split is
    # a slope root refined to 1e-12 in tau, where the SOP is flat, and both
    # sides are sop_conditional values (the measured worst excess is 0).
    # The capacity-ratio split is also audited here over the whole space:
    # a 2,000-point grid of phi leads it by at most 1e-6 relative (the
    # measured worst lead is 0 at 1,000 to 4,000 points)
    seen = {"states": 0, "strictly_lower": 0, "N_C=0": 0, "R_s=0": 0, "ideal": 0}
    grid_led = 0  # configurations where the grid leads the split at all (expected none)
    for cfg, coeffs in fuzz_states(np.random.Generator(np.random.Philox(11)), 200, 200):
        target = SecrecyTarget(cfg.R_s)
        states = coeffs.take(np.flatnonzero(tau_min(target, coeffs) < 1.0))
        if not states.a.size:
            continue
        _, best = minimize_sop_tau(target, states, cfg.n_ec)
        at_ratio = sop_conditional(optimize_tau_sop_batch(target, states, cfg.n_ec).tau_star,
                                   target, states, cfg.n_ec)
        assert np.all(best <= at_ratio * (1.0 + 1e-12)), cfg
        check = checks.opa_sop_vs_grid(target, states, cfg.n_ec, 1.0, cfg.n_ec, 2000, 1e-6)
        assert check.margin <= 1.0, (cfg, check.detail)
        grid_led += check.gap > 0.0
        seen["states"] += best.size
        seen["strictly_lower"] += np.count_nonzero(best < at_ratio)
        seen["N_C=0"] += best.size * (cfg.N_C == 0)
        seen["R_s=0"] += best.size * (cfg.R_s == 0.0)
        seen["ideal"] += best.size * (cfg.k_tot2 == 0.0)
    assert seen["states"] > 25_000 and seen["strictly_lower"] > 10_000 and min(seen.values()) > 0, (seen, grid_led)


def test_opa_sop_vs_grid_scans_in_state_blocks(rng):
    # validate's 4,000-point grid over 100 states peaked at 13 MB as one
    # (states x points) array; in blocks its arrays stay cache-sized
    cfg = workable_cfg()
    g_hat, g_check, _, _ = sample_gain_scalars(cfg.N_C, cfg.n_dc, cfg.n_ec, 200, rng)
    coeffs = coeffs_from_gains(cfg, g_hat, g_check)
    target = SecrecyTarget(cfg.R_s)
    states = coeffs.take(np.flatnonzero(tau_min(target, coeffs) < 1.0)[:100])
    assert states.a.size == 100
    tracemalloc.start()
    try:
        check = checks.opa_sop_vs_grid(target, states, cfg.n_ec, 1.0, cfg.n_ec, 4000, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.margin <= 1.0, check.detail
    assert peak < 2e6, peak
