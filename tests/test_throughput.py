import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from conftest import fuzz_states, make_coeffs, workable_cfg
from mmwsec import throughput
from mmwsec.cli import SweepSpec, run_sweep
from mmwsec.config import SystemConfig, stack_coeffs
from mmwsec.errors import ConvergenceError, InfeasibleError
from mmwsec.sop import cdf_Y_E
from mmwsec.throughput import (
    KTauSolver,
    ThroughputCase,
    ThroughputResult,
    avg_throughput_mrt,
    dk_dtau,
    drs_dtau,
    high_snr_k_and_rate,
    k_max_tau1,
    log_moment,
    mrt_rate,
    mrt_rate_direct,
    mrt_throughput,
    mrt_throughput_closed_form,
    mrt_throughput_quad2d,
    mrt_transmit_threshold,
    optimize_tau_throughput,
    optimize_tau_throughput_batch,
    q_of_k,
    rs_of_tau,
    solve_k,
    solve_k_batch,
)


# ---------------------------------------------------------------------------
# scaled exponential integral exp(z) * E1(z)
# ---------------------------------------------------------------------------

def test_e1_scaled_against_mpmath():
    # both branches: scipy's exp1 up to z = 5, the continued fraction above;
    # z = 1e-12 is deep in the -gamma - ln(z) limit, z = 700 is where
    # exp(-z) nears the double underflow.  One array call over the grid,
    # equal bit for bit to the calls on each 0-d element.
    zs = np.concatenate([np.geomspace(1e-12, 1e7, 300), [5.0, np.nextafter(5.0, 6.0), 700.0]])
    got = throughput._e1_scaled(zs)
    assert got.shape == zs.shape
    with mpmath.workdps(40):
        for z, value in zip(zs, got):
            zm = mpmath.mpf(float(z))
            ref = float(mpmath.e1(zm) * mpmath.exp(zm))
            assert abs(value - ref) <= 1e-12 * ref, z
            assert throughput._e1_scaled(np.asarray(z)) == value, z


# Ei(x) = -E1(-x) for x < 0, through the scaled form the library evaluates,
# checked against a pure series in 60-digit arithmetic

def ei_oracle(x: float) -> float:
    assert x < 0
    with mpmath.workdps(60):
        xm = mpmath.mpf(x)
        if abs(xm) <= 30:
            acc = mpmath.euler + mpmath.log(abs(xm))
            term = mpmath.mpf(1)
            tiny = mpmath.mpf(10) ** -70
            for n in range(1, 500):
                term *= xm / n
                acc += term / n
                # past n = |x| the terms only shrink
                if n > abs(xm) and abs(term / n) < tiny * abs(acc):
                    break
            return float(acc)
        return float(mpmath.ei(xm))


def _ei_via_e1_scaled(x: float) -> float:
    return -math.exp(x) * throughput._e1_scaled(-x)


def test_ei_known_point():
    ref = ei_oracle(-1.0)
    assert math.isclose(ref, -0.21938393439552028, rel_tol=1e-14)
    assert math.isclose(_ei_via_e1_scaled(-1.0), ref, rel_tol=1e-13)


def test_ei_accuracy_across_range():
    xs = -np.geomspace(1e-12, 700.0, 1000)
    for x in xs:
        ref = ei_oracle(float(x))
        got = _ei_via_e1_scaled(float(x))
        assert abs(got - ref) <= 1e-12 * abs(ref), f"x={x}"


def test_ei_small_argument_log_behavior():
    x = -1e-12
    gamma = 0.5772156649015328606
    assert abs(_ei_via_e1_scaled(x) - (gamma + math.log(abs(x)))) < 1e-11


def test_ei_extreme_argument_is_finite():
    val = _ei_via_e1_scaled(-700.0)
    assert math.isfinite(val)
    assert abs(val) < 1e-300


# ---------------------------------------------------------------------------
# survival gap Q and the implicit cap k(tau)
# ---------------------------------------------------------------------------

def _solver(cfg, coeffs, epsilon=None):
    return KTauSolver(coeffs.a, coeffs.b, coeffs.c, cfg.n_ec,
                      cfg.epsilon if epsilon is None else epsilon)


def test_q_at_zero():
    cfg = workable_cfg(epsilon=0.05)
    co = make_coeffs(cfg, 10.0, 6.0)
    assert math.isclose(
        q_of_k(0.0, 0.5, co.a, co.b, co.c, cfg.n_ec, 0.05), 0.95, rel_tol=1e-14
    )


def test_q_domain_error():
    cfg = workable_cfg()
    co = make_coeffs(cfg, 10.0, 6.0)
    bad_k = 2.0 * co.a / (co.c * 0.9)
    with pytest.raises(ValueError):
        q_of_k(bad_k, 0.9, co.a, co.b, co.c, cfg.n_ec, 0.05)


def test_k_max_closed_form_against_root_oracle():
    # independent bisection of exp(-k/(a - c k)) = eps
    for a, c, eps in [(2.0, 0.02, 0.01), (1.0, 0.0, math.exp(-1.0)), (9.0, 0.09, 0.13)]:
        lo, hi = 0.0, (a / c) * (1 - 1e-12) if c > 0 else 1e6
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if math.exp(-mid / (a - c * mid)) > eps:
                lo = mid
            else:
                hi = mid
        assert math.isclose(k_max_tau1(a, c, eps), 0.5 * (lo + hi), rel_tol=1e-10)


def test_k_max_special_values():
    assert k_max_tau1(5.0, 0.3, 1.0) == 0.0
    assert math.isclose(k_max_tau1(1.0, 0.0, math.exp(-1.0)), 1.0, rel_tol=1e-14)
    # frozen from the defining equation: -2 ln(0.01) / (1 - 0.02 ln(0.01))
    assert math.isclose(k_max_tau1(2.0, 0.02, 0.01), 8.433579037117983, rel_tol=1e-12)


def test_solve_k_full_power_matches_closed_form():
    cfg = workable_cfg(epsilon=0.03)
    co = make_coeffs(cfg, 10.0, 6.0)
    solver = _solver(cfg, co)
    k_closed = k_max_tau1(co.a, co.c, cfg.epsilon)
    assert abs(solve_k(1.0, solver) - k_closed) <= 1e-9 * max(1.0, k_closed)
    # over fuzzed states, each with its own epsilon: the closed form is the
    # solver's k(1) bit for bit, and it and the full-power rate from the
    # coefficients equal their 0-d calls
    rng = np.random.Generator(np.random.Philox(1719))
    for cfg, co in fuzz_states(rng, 30, 20):
        eps = rng.uniform(0.003, 1.0, 20)
        k1 = k_max_tau1(co.a, co.c, eps)
        assert np.array_equal(k1, solve_k_batch(1.0, co.a, co.b, co.c, cfg.n_ec, eps))
        rate = mrt_rate_direct(co, eps)
        for i in range(20):
            one = co.take(i)
            assert k_max_tau1(one.a, one.c, float(eps[i])) == k1[i]
            assert mrt_rate_direct(one, float(eps[i])) == rate[i]


def test_solve_k_monotone_in_tau(rng):
    for _ in range(50):
        cfg = workable_cfg(
            N_C=int(rng.integers(1, 19)),
            epsilon=float(rng.uniform(0.005, 0.5)),
            k_tx=float(rng.uniform(0, 0.15)),
            k_rx=float(rng.uniform(0, 0.15)),
        )
        co = make_coeffs(cfg, float(rng.gamma(cfg.N_C, 1)), float(rng.gamma(cfg.n_dc, 1)))
        solver = _solver(cfg, co)
        ks = [solve_k(t, solver) for t in np.linspace(0.05, 1.0, 20)]
        assert all(b >= a - 1e-9 for a, b in zip(ks, ks[1:]))


def test_solve_k_vanishes_without_constraint():
    cfg = workable_cfg(epsilon=1.0)
    co = make_coeffs(cfg, 10.0, 6.0)
    assert solve_k(0.7, _solver(cfg, co)) == 0.0


def test_solve_k_self_consistency_with_cdf(rng):
    # the solved cap is the (1-eps) SNDR quantile: F(tau*k(tau)) = 1 - eps
    for _ in range(50):
        cfg = workable_cfg(
            N_C=int(rng.integers(1, 19)),
            epsilon=float(rng.uniform(0.01, 0.5)),
            k_tx=float(rng.uniform(0, 0.15)),
            k_rx=float(rng.uniform(0, 0.15)),
        )
        co = make_coeffs(cfg, float(rng.gamma(cfg.N_C, 1)), float(rng.gamma(cfg.n_dc, 1)))
        solver = _solver(cfg, co)
        tau = float(rng.uniform(0.05, 1.0))
        k = solve_k(tau, solver)
        assert abs(cdf_Y_E(tau * k, tau, co, cfg.n_ec) - (1.0 - cfg.epsilon)) <= 1e-8


def test_q_strictly_decreasing_in_k(rng):
    states, taus, n_ec, eps = [], [], [], []
    for _ in range(100):
        cfg = workable_cfg(
            N_C=int(rng.integers(1, 19)),
            epsilon=float(rng.uniform(0.01, 0.9)),
            k_tx=float(rng.uniform(0, 0.15)),
            k_rx=float(rng.uniform(0, 0.15)),
        )
        states.append(make_coeffs(cfg, float(rng.gamma(cfg.N_C, 1)), float(rng.gamma(cfg.n_dc, 1))))
        taus.append(float(rng.uniform(0.05, 1.0)))
        n_ec.append(cfg.n_ec)
        eps.append(cfg.epsilon)
    co, eps = stack_coeffs(states), np.array(eps)
    ks = np.linspace(0.0, k_max_tau1(co.a, co.c, eps), 64)  # a column per state
    qs = q_of_k(ks, np.array(taus), co.a, co.b, co.c, np.array(n_ec), eps)
    steps = np.diff(qs, axis=0)
    assert np.all(steps <= 0.0)
    live = qs > -eps * (1.0 - 1e-9)  # flat only after underflow to -eps
    assert np.all(steps[live[1:]] < 0.0)


def test_q_vanishes_at_the_solved_k_over_fuzzed_states():
    # |Q(k(tau))| stays at rounding level at every leaking state, each with
    # its own epsilon and split, one call per configuration, and the batch
    # Q equals its 0-d calls.  Without leakage (a = 0) k(tau) = 0 makes
    # a - c*tau*k = 0, which lies outside Q's domain.
    rng = np.random.Generator(np.random.Philox(1720))
    worst, leaking = 0.0, 0
    for cfg, co in fuzz_states(rng, 50, 50):
        eps, tau = rng.uniform(0.003, 1.0, 50), rng.uniform(0.0, 1.0, 50)
        leak = co.a > 0.0
        co, eps, tau = co.take(leak), eps[leak], tau[leak]
        k = solve_k_batch(tau, co.a, co.b, co.c, cfg.n_ec, eps)
        q = q_of_k(k, tau, co.a, co.b, co.c, cfg.n_ec, eps)
        for i in range(tau.size):
            assert q_of_k(float(k[i]), float(tau[i]), co.a[i], co.b, co.c[i], cfg.n_ec, float(eps[i])) == q[i]
        worst = max(worst, float(np.max(np.abs(q), initial=0.0)))
        leaking += tau.size
    assert leaking > 1500
    assert worst <= 1e-12


def _bisect_k(tau, a, b, c, n_ec, eps):
    """Reference k(tau), elementwise over arrays of leaking states (a > 0):
    plain bisection of Q(k) over the feasible set, each element to its last bit."""
    args = np.broadcast_arrays(tau, a, b, c, n_ec, eps)
    tau, a, b, c, n_ec, eps = args
    lo = np.zeros(tau.shape)
    bounded = c * tau > 0.0
    with np.errstate(divide="ignore"):
        hi = np.where(bounded, a / (c * tau), np.maximum(1.0, a))
    grow = ~bounded
    while grow.any():  # no ceiling a/(c*tau): double until Q(hi) <= 0
        grow[grow] = q_of_k(hi[grow], *(x[grow] for x in args)) > 0.0
        hi[grow] *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            return mid
        up = np.zeros(tau.shape, bool)
        up[live] = q_of_k(mid[live], *(x[live] for x in args)) > 0.0
        lo = np.where(live & up, mid, lo)
        hi = np.where(live & ~up, mid, hi)


def test_solve_k_batch_matches_bisection_oracle(rng):
    # random configurations x splits, with c > 0, tau -> 1 and eps -> 1 drawn
    # on purpose; the Newton loop raises ConvergenceError if it hits its cap
    drawn = []  # (taus, ks, a, b, c, n_ec, eps) of each configuration
    for _ in range(300):
        cfg = SystemConfig(
            M=100, N_D=20, N_C=int(rng.integers(1, 19)), P_dBm=float(rng.uniform(20, 85)),
            k_tx=float(rng.uniform(0.0, 0.3)), k_rx=float(rng.uniform(0.0, 0.3)),
            d_E_m=float(rng.uniform(5.0, 300.0)),
            epsilon=float(rng.choice([rng.uniform(1e-4, 0.5), 1.0 - 10.0 ** rng.uniform(-4, -1)])),
        )
        co = make_coeffs(cfg, float(rng.gamma(cfg.N_C, 1)), float(rng.gamma(cfg.n_dc, 1)))
        taus = np.concatenate([
            [0.0, 1.0], rng.uniform(0.0, 1.0, 4), 1.0 - 10.0 ** -rng.uniform(3, 12, 3),
        ])
        ks = solve_k_batch(taus, co.a, co.b, co.c, cfg.n_ec, cfg.epsilon)
        drawn.append((taus, ks, co.a, co.b, co.c, cfg.n_ec, cfg.epsilon))
    # one bisection over every configuration, a row each
    taus, ks, *states = (np.array(col) for col in zip(*drawn))
    ref = _bisect_k(taus, *(x[:, None] for x in states))
    assert np.max(np.abs(ks - ref) / ref) <= 1e-10


def test_solve_k_batch_raises_at_newton_cap(monkeypatch):
    cfg = workable_cfg(epsilon=0.02)
    co = make_coeffs(cfg, 10.0, 6.0)
    monkeypatch.setattr(throughput, "_NEWTON_MAX_ITERS", 1)
    with pytest.raises(ConvergenceError):
        solve_k_batch(0.5, co.a, co.b, co.c, cfg.n_ec, cfg.epsilon)


def test_solve_k_batch_matches_scalar(rng):
    cfg = workable_cfg(epsilon=0.02)
    co = make_coeffs(cfg, 10.0, 6.0)
    solver = _solver(cfg, co)
    taus = np.linspace(0.05, 1.0, 40)
    batch = solve_k_batch(taus, co.a, co.b, co.c, cfg.n_ec, cfg.epsilon)
    for t, kb in zip(taus, batch):
        assert abs(solve_k(float(t), solver) - kb) < 1e-8


def test_per_state_epsilon_keeps_the_one_state_bits(rng):
    # numpy's array log can round differently from math.log in the last bit;
    # each state with its own epsilon must still get its one-state k(tau)
    eps = rng.uniform(0.003, 1.0, 20_000)
    eps = eps[np.log(eps) != np.array([math.log(x) for x in eps])][:40]
    cfg = workable_cfg()
    co = make_coeffs(cfg, 10.0, 6.0)
    taus = np.array([[0.25], [0.5], [1.0]])
    ks = solve_k_batch(taus, co.a, co.b, co.c, cfg.n_ec, eps)
    for x, k in zip(eps, ks.T):
        assert np.array_equal(k, solve_k_batch(taus[:, 0], co.a, co.b, co.c, cfg.n_ec, float(x)))


def _slope_batches(rng):
    """Fuzzed batches of 8 states, each with its own n_ec in [1, 19] (one
    of them 1), outage cap and split."""
    for cfg, co in fuzz_states(rng, 30, 8):
        n_ec = np.append(1, rng.integers(1, 20, 7))
        yield cfg, co, n_ec, rng.uniform(0.003, 0.3, 8), rng.uniform(0.1, 0.95, 8)


def _assert_batch_is_per_state(slope, tau, co, n_ec, eps):
    """The batch of a slope equals its calls on each 0-d state with a
    scalar n_ec and epsilon, bit for bit."""
    batch = slope(tau, co, n_ec, eps)
    for i in range(tau.size):
        assert batch[i] == slope(float(tau[i]), co.take(i), int(n_ec[i]), float(eps[i]))
    return batch


def test_dk_dtau_matches_finite_differences(rng):
    no_leak = 0
    h = 1e-5
    for cfg, co, n_ec, eps, tau in _slope_batches(rng):
        an = _assert_batch_is_per_state(dk_dtau, tau, co, n_ec, eps)
        k_of = lambda t: solve_k_batch(t, co.a, co.b, co.c, n_ec, eps)
        fd = (k_of(tau + h) - k_of(tau - h)) / (2 * h)
        assert np.all(np.abs(an - fd) <= 1e-4 * np.maximum(1.0, np.abs(fd)))
        if cfg.N_C == 0:  # no leakage, a = 0: k(tau) = 0 and so is its slope
            assert np.all(an == 0.0)
            no_leak += 1
    assert no_leak > 0


# ---------------------------------------------------------------------------
# secrecy rate and optimizer
# ---------------------------------------------------------------------------

def test_rs_hand_values():
    from mmwsec.config import EffectiveCoeffs

    co = EffectiveCoeffs(beta_E=1, k_tx2=0, k_tot2=0,
                         a=1.0, b=1.0, c=0.0, d=10.0, e=0.0)
    assert rs_of_tau(0.0, 5.0, co) == 0.0
    assert math.isclose(rs_of_tau(0.5, 1.0, co), 2.0, rel_tol=1e-14)  # log2(6/1.5)
    assert math.isclose(rs_of_tau(0.5, 0.0, co), math.log2(6.0), rel_tol=1e-14)


def test_drs_matches_finite_differences(rng):
    h = 1e-5
    for _, co, n_ec, eps, tau in _slope_batches(rng):
        an = _assert_batch_is_per_state(drs_dtau, tau, co, n_ec, eps)
        rate_of = lambda t: rs_of_tau(t, solve_k_batch(t, co.a, co.b, co.c, n_ec, eps), co)
        fd = (rate_of(tau + h) - rate_of(tau - h)) / (2 * h)
        assert np.all(np.abs(an - fd) <= 1e-4 * np.maximum(1.0, np.abs(fd)))


def _assert_state(batch: ThroughputResult, i: int, one: ThroughputResult):
    """State i of a batch record equals the one-state result, field by field."""
    for f in fields(ThroughputResult):
        assert getattr(batch, f.name)[i] == getattr(one, f.name), f.name


def test_optimizer_dominates_grid(rng):
    # each configuration also draws three extra states from a separate
    # stream; the batched optimizer over all four, and one stacked call
    # over all 400 states with a per-state n_ec and epsilon, must return
    # exactly the one-state results
    extra = np.random.Generator(np.random.Philox(7))
    singles, states, n_ec, eps = [], [], [], []
    for _ in range(100):
        cfg = workable_cfg(
            N_C=int(rng.integers(2, 19)),
            P_dBm=float(rng.uniform(42, 72)),
            epsilon=float(rng.uniform(0.003, 0.3)),
            k_tx=float(rng.uniform(0, 0.16)),
            k_rx=float(rng.uniform(0, 0.16)),
        )
        g_hat = np.append(rng.gamma(cfg.N_C, 1), extra.gamma(cfg.N_C, 1, 3))
        g_check = np.append(rng.gamma(cfg.n_dc, 1), extra.gamma(cfg.n_dc, 1, 3))
        batch = optimize_tau_throughput_batch(make_coeffs(cfg, g_hat, g_check), cfg.n_ec, cfg.epsilon)
        for i, (gh, gc) in enumerate(zip(g_hat, g_check)):
            co = make_coeffs(cfg, float(gh), float(gc))
            solver = _solver(cfg, co)
            res = optimize_tau_throughput(co, solver)
            _assert_state(batch, i, res)
            singles.append(res)
            taus = np.linspace(1e-4, 1.0, 10_000)
            ks = solve_k_batch(taus, solver.a, solver.b, solver.c, solver.n_ec, solver.epsilon)
            rates = np.log2((taus * (co.d + co.e) + 1.0) / ((taus * co.e + 1.0) * (1.0 + taus * ks)))
            achieved = res.R_s_star if res.transmit else 0.0
            assert achieved >= float(np.max(rates)) - 1e-6
        states.append(make_coeffs(cfg, g_hat, g_check))
        n_ec += [cfg.n_ec] * 4
        eps += [cfg.epsilon] * 4
    stacked = optimize_tau_throughput_batch(stack_coeffs(states), np.array(n_ec), np.array(eps))
    assert len(set(n_ec)) > 10 and len(set(eps)) == 100
    for i, res in enumerate(singles):
        _assert_state(stacked, i, res)


def test_optimizer_blocks_keep_the_bits(rng, monkeypatch):
    # fuzzed states with a per-state n_ec and epsilon give the same bits
    # whole and scanned in blocks of 7 states
    co = stack_coeffs([co for _, co in fuzz_states(rng, 20, 12)])
    n_ec, eps = rng.integers(1, 20, co.a.size), rng.uniform(0.003, 0.3, co.a.size)
    whole = optimize_tau_throughput_batch(co, n_ec, eps)
    monkeypatch.setattr(throughput, "_SCAN_BLOCK_STATES", 7)
    blocked = optimize_tau_throughput_batch(co, n_ec, eps)
    for f in fields(ThroughputResult):
        assert np.array_equal(getattr(whole, f.name), getattr(blocked, f.name)), f.name


def test_optimizer_full_power_at_low_budget():
    cfg = workable_cfg(P_dBm=32.0, R_s=1.0, epsilon=0.01, N_C=16)
    co = make_coeffs(cfg, 16.0, 4.0)
    res = optimize_tau_throughput(co, _solver(cfg, co))
    assert res.transmit
    assert res.tau_star == 1.0
    assert res.case_tag is ThroughputCase.CONCAVE_BOUNDARY


def test_optimizer_without_common_paths():
    # N_C = 0: no leakage (a = 0), so k(tau) = 0 and the rate rises in tau
    cfg = workable_cfg(N_C=0)
    co = make_coeffs(cfg, 0.0, 4.0)
    assert co.a == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = optimize_tau_throughput(co, _solver(cfg, co))
        batch = optimize_tau_throughput_batch(
            make_coeffs(cfg, np.zeros(3), np.array([4.0, 9.0, 25.0])), cfg.n_ec, cfg.epsilon
        )
        assert dk_dtau(0.5, co, cfg.n_ec, cfg.epsilon) == 0.0
    _assert_state(batch, 0, single)
    assert batch.transmit.all()
    assert np.all(batch.tau_star == 1.0) and np.all(batch.k_star == 0.0)
    assert np.all(batch.case_tag == ThroughputCase.CONCAVE_BOUNDARY)


def test_optimizer_empty_batch():
    cfg = workable_cfg()
    co = make_coeffs(cfg, np.zeros(0), np.zeros(0))
    res = optimize_tau_throughput_batch(co, cfg.n_ec, cfg.epsilon)
    assert all(getattr(res, f.name).shape == (0,) for f in fields(ThroughputResult))


def test_optimizer_an_dominant_at_high_budget():
    cfg = workable_cfg(P_dBm=72.0, epsilon=0.01, N_C=16)
    co = make_coeffs(cfg, 16.0, 4.0)
    res = optimize_tau_throughput(co, _solver(cfg, co))
    assert res.transmit
    assert res.tau_star < 0.1


def test_optimizer_silent_for_dominated_link():
    # eavesdropper much closer than the destination, low power: no split works
    cfg = SystemConfig(M=100, N_D=20, N_C=16, P_dBm=28.0, d_D_m=300.0, d_E_m=5.0,
                       epsilon=0.01, k_tx=0.1, k_rx=0.1)
    co = make_coeffs(cfg, 16.0, 4.0)
    res = optimize_tau_throughput(co, _solver(cfg, co))
    assert not res.transmit
    assert res.R_s_star == 0.0
    assert res.case_tag is ThroughputCase.SILENT
    # in a batch the silent state keeps its split and cap next to a
    # stronger state that transmits
    batch = optimize_tau_throughput_batch(
        make_coeffs(cfg, np.array([16.0, 16.0]), np.array([4.0, 400.0])), cfg.n_ec, cfg.epsilon
    )
    _assert_state(batch, 0, res)
    assert res.k_star > 0.0 and 0.0 < res.tau_star <= 1.0
    assert batch.transmit[1] and batch.R_s_star[1] > 0.0


# ---------------------------------------------------------------------------
# full-power (MRT) closed forms
# ---------------------------------------------------------------------------

def test_mrt_rate_dual_forms(rng):
    for _ in range(1000):
        cfg = workable_cfg(
            N_C=int(rng.integers(1, 19)),
            epsilon=float(rng.uniform(0.005, 0.9)),
            k_tx=float(rng.uniform(0, 0.16)),
            k_rx=float(rng.uniform(0, 0.16)),
            P_dBm=float(rng.uniform(40, 70)),
        )
        g_hat, g_check = float(rng.gamma(cfg.N_C, 1)), float(rng.gamma(cfg.n_dc, 1))
        co = make_coeffs(cfg, g_hat, g_check)
        bar_form = float(mrt_rate(g_hat, g_check, cfg))
        direct = mrt_rate_direct(co, cfg.epsilon)
        assert abs(bar_form - direct) <= 1e-10 * max(1.0, abs(direct))


def test_mrt_rate_no_constraint_and_no_leakage():
    cfg = workable_cfg(epsilon=1.0)
    g_hat, g_check = 12.0, 6.0
    co = make_coeffs(cfg, g_hat, g_check)
    expected = math.log2(1.0 + co.d / (co.e + 1.0))
    assert math.isclose(float(mrt_rate(g_hat, g_check, cfg)), expected, rel_tol=1e-12)

    cfg2 = workable_cfg(epsilon=0.01)
    co2 = make_coeffs(cfg2, 0.0, 18.0)
    expected2 = math.log2(1.0 + co2.d / (co2.e + 1.0))
    assert math.isclose(float(mrt_rate(0.0, 18.0, cfg2)), expected2, rel_tol=1e-12)


def test_mrt_threshold_flips_rate_sign(rng):
    found = 0
    while found < 50:
        cfg = workable_cfg(
            N_C=int(rng.integers(1, 19)),
            epsilon=float(rng.uniform(0.005, 0.2)),
            k_tx=float(rng.uniform(0, 0.16)),
            k_rx=float(rng.uniform(0, 0.16)),
            P_dBm=float(rng.uniform(40, 65)),
        )
        g_hat = float(rng.gamma(cfg.N_C, 1))
        beta = float(mrt_transmit_threshold(g_hat, cfg))
        if beta <= 1e-6:
            continue
        eps = 1e-8 * max(1.0, beta)
        assert float(mrt_rate(g_hat, beta + eps, cfg)) > 0.0
        assert float(mrt_rate(g_hat, beta - eps, cfg)) < 0.0
        found += 1


def test_mrt_threshold_trivial_cases():
    cfg = workable_cfg(epsilon=1.0)
    assert float(mrt_transmit_threshold(10.0, cfg)) <= 0.0
    cfg2 = workable_cfg(epsilon=0.01)
    assert float(mrt_transmit_threshold(0.0, cfg2)) <= 0.0


def test_log_moment_against_quadrature(rng):
    for _ in range(40):
        q = float(rng.uniform(0.001, 50.0))
        m = int(rng.integers(0, 7))
        ref, _ = integrate.quad(
            lambda x: math.log2(1.0 + q * x) * x**m * math.exp(-x) / math.factorial(m),
            0.0, 300.0, limit=200,
        )
        assert abs(log_moment(q, m) - ref) <= 1e-8 * max(1.0, abs(ref))
    assert log_moment(0.0, 3) == 0.0


def log_moment_oracle(q: float, m: int) -> float:
    # E[ln(1 + qX)] = e^w * sum_{n=1}^{m+1} E_n(w) with w = 1/q: each order
    # adds q * int_0^inf e^-s (1 + sq)^-(m+1) ds.  Generalized exponential
    # integrals, no alternating sum, in 30-digit arithmetic.
    with mpmath.workdps(30):
        w = 1 / mpmath.mpf(q)
        total = mpmath.fsum(mpmath.expint(n, w) for n in range(1, m + 2))
        return float(mpmath.exp(w) * total / mpmath.log(2))


def test_log_moment_against_mpmath():
    # one q per decade, across both sides of the Gauss-Laguerre switch: at
    # q = 1e-7 every order m >= 1 cancels past the guard, at q = 1e6 none
    # does.  A guard that only saw the terms after they cancelled gave
    # -5.9e31 at (q, m) = (1e-6, 10) and 4.7e4 at (1e-3, 10).  One array
    # call over the grid, orders on the leading axis, equal bit for bit to
    # the calls on each 0-d element.
    top = 19
    qs = np.geomspace(1e-7, 1e6, 14)
    moments = throughput._log_moments(qs, top)
    assert moments.shape == (top + 1, qs.size)
    for i, q in enumerate(qs.tolist()):
        assert np.array_equal(throughput._log_moments(np.asarray(q), top), moments[:, i]), q
        for m in range(top + 1):
            ref = log_moment_oracle(q, m)
            assert abs(moments[m, i] - ref) <= 1e-9 * abs(ref), (q, m, moments[m, i], ref)
            assert log_moment(q, m) == moments[m, i]


def test_log_moments_of_zero_q_are_zero():
    # q = 0 (no impairment gives e_bar = 0) is 0 at every order, with no
    # division by zero, next to q > 0 in the same call
    qs = np.array([[0.0, 1e-7], [0.3, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments = throughput._log_moments(qs, 6)
    assert moments.shape == (7, 2, 2)
    assert np.all(moments[:, qs == 0.0] == 0.0)
    assert np.all(moments[:, qs > 0.0] > 0.0)
    with pytest.raises(ValueError):
        throughput._log_moments(np.array([0.5, -1e-3]), 2)


# ---------------------------------------------------------------------------
# batched adaptive Gauss-Kronrod rule
# ---------------------------------------------------------------------------

def _gamma_mass(shapes):
    """Integrand of the Gamma(shape_i, 1) pdf, integral i taking shape i."""
    log_norm = special.gammaln(shapes)
    return lambda x, owner: np.exp((shapes[owner, None] - 1.0) * np.log(x) - x - log_norm[owner, None])


def test_gk21_gamma_mass_matches_gammainc(rng):
    # per-element limits and shapes, some intervals wide enough to hold
    # the whole mode and some far out in the tail
    shapes = rng.integers(1, 40, 60).astype(float)
    lo = rng.uniform(0.0, 60.0, 60)
    hi = lo + rng.uniform(0.0, 80.0, 60)
    got = throughput._gk21(_gamma_mass(shapes), lo, hi, 1e-14, 1e-12)
    ref = special.gammainc(shapes, hi) - special.gammainc(shapes, lo)
    assert got.shape == lo.shape
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_gk21_batch_equals_each_integral_alone(rng):
    # a (3 x 4) batch with broadcast limits against 12 one-integral calls,
    # each within its own tolerance
    shapes = rng.integers(1, 20, 12).astype(float)
    lo = rng.uniform(0.0, 10.0, (3, 1))
    hi = lo + rng.uniform(0.5, 60.0, (1, 4))
    epsabs, epsrel = 1e-12, 1e-9
    batch = throughput._gk21(_gamma_mass(shapes), lo, hi, epsabs, epsrel)
    assert batch.shape == (3, 4)
    for i, (a, b) in enumerate(zip(np.broadcast_to(lo, (3, 4)).ravel(), np.broadcast_to(hi, (3, 4)).ravel())):
        alone = throughput._gk21(_gamma_mass(shapes[i : i + 1]), a, b, epsabs, epsrel)
        assert alone.shape == ()
        assert abs(batch.flat[i] - alone) <= max(epsabs, epsrel * abs(alone))


def test_gk21_raises_when_an_integral_cannot_settle():
    # 1/x on [0, 1] diverges: the panel at 0 never meets its share.  The
    # rule raises, it does not warn and return, and a settled neighbour in
    # the batch does not hide it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError):
            throughput._gk21(lambda x, _: 1.0 / x, np.array([1.0, 0.0]), np.array([2.0, 1.0]), 1e-12, 1e-9)


def test_import_loads_no_scipy_integrate_or_optimize():
    # the library's quadratures are its own, so importing it stays light
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, mmwsec; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_mrt_throughput_dual_quadrature():
    cfg = SystemConfig(M=100, N_D=20, N_C=16, P_dBm=55.0, epsilon=0.01, k_tx=0.1, k_rx=0.1)
    closed = mrt_throughput_closed_form(cfg)
    direct = mrt_throughput_quad2d(cfg)
    assert abs(closed - direct) <= 1e-3 * max(abs(direct), 1e-9)
    # the wrapper runs the same audit when asked, and returns the closed form
    assert math.isclose(mrt_throughput(cfg, cross_check=True), closed, rel_tol=1e-12)


def test_mrt_closed_form_matches_quad2d_across_configs(rng):
    # a quadrature that does not settle raises ConvergenceError, which
    # fails the test by itself
    for _ in range(20):
        cfg = SystemConfig(
            M=100, N_D=20, N_C=int(rng.integers(1, 20)), P_dBm=float(rng.uniform(40, 70)),
            epsilon=float(rng.uniform(0.005, 0.2)), k_tx=float(rng.uniform(0, 0.15)),
            k_rx=float(rng.uniform(0, 0.15)),
        )
        closed = mrt_throughput_closed_form(cfg)
        direct = mrt_throughput_quad2d(cfg)
        gap = abs(closed - direct) / max(abs(closed), abs(direct), 1e-9)
        assert gap <= 1e-6, (cfg, closed, direct)


def test_mrt_throughput_unconstrained_reduction():
    cfg = SystemConfig(M=100, N_D=20, N_C=16, P_dBm=50.0, epsilon=1.0, k_tx=0.1, k_rx=0.1)
    closed = mrt_throughput_closed_form(cfg)
    beta_d, k_tot2 = cfg.beta_d(), cfg.k_tot2

    def unconstrained(g):
        y_d = beta_d * g / (k_tot2 * beta_d * g + 1.0)
        return math.log2(1.0 + y_d) * g ** (cfg.N_D - 1) * math.exp(-g) / math.factorial(cfg.N_D - 1)

    ref, _ = integrate.quad(unconstrained, 0.0, 200.0, limit=200)
    assert abs(closed - ref) <= 1e-4 * ref


def test_mrt_throughput_no_common_paths():
    cfg = SystemConfig(M=100, N_D=20, N_C=0, P_dBm=50.0, epsilon=0.01, k_tx=0.1, k_rx=0.1)
    val = mrt_throughput(cfg)
    beta_d, k_tot2 = cfg.beta_d(), cfg.k_tot2

    def f(g):
        y_d = beta_d * g / (k_tot2 * beta_d * g + 1.0)
        return math.log2(1.0 + y_d) * g ** (cfg.N_D - 1) * math.exp(-g) / math.factorial(cfg.N_D - 1)

    ref, _ = integrate.quad(f, 0.0, 200.0, limit=200)
    assert abs(val - ref) <= 1e-6 * ref


def test_mrt_throughput_montecarlo_consistency():
    cfg = SystemConfig(M=100, N_D=20, N_C=16, P_dBm=52.0, epsilon=0.01, k_tx=0.1, k_rx=0.1)
    closed = mrt_throughput(cfg, cross_check=False)
    est = avg_throughput_mrt(cfg, 40_000, 31415)
    assert abs(closed - est.value) <= 4.0 * est.std_error + 1e-3 * abs(closed)


# ---------------------------------------------------------------------------
# averaged throughputs
# ---------------------------------------------------------------------------

def _sweep_averages(mode: str, cfg: SystemConfig, key: str, values: list, trials: int, seed: int) -> list:
    """The ``analytic`` column, the sample-mean rate over ``trials`` drawn
    states, of a sweep of ``mode`` over ``key`` from ``cfg``."""
    spec = SweepSpec(mode=mode, swept_key=key, values=values, base=cfg, trials=trials,
                     uv_samples=10, seed=seed)
    return [row["analytic"] for row in run_sweep(spec)]


def test_opa_dominates_benchmarks_pointwise():
    cfg = SystemConfig(M=100, N_D=20, N_C=16, P_dBm=55.0, epsilon=0.01, k_tx=0.1, k_rx=0.1)
    seed = 777  # identical gain draws across all three schemes
    (opa,) = _sweep_averages("throughput_opa", cfg, "P_dBm", [cfg.P_dBm], 150, seed)
    (equal,) = _sweep_averages("throughput_equal_power", cfg, "P_dBm", [cfg.P_dBm], 150, seed)
    mrt = avg_throughput_mrt(cfg, 150, seed)
    assert opa >= equal - 1e-9
    assert opa >= mrt.value - 1e-9


def test_throughput_nondecreasing_in_epsilon():
    cfg = SystemConfig(M=100, N_D=20, N_C=16, P_dBm=55.0, k_tx=0.1, k_rx=0.1)
    vals = _sweep_averages("throughput_equal_power", cfg, "epsilon", [1e-4, 0.01, 0.3], 400, 5150)
    assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9


# ---------------------------------------------------------------------------
# high-SNR limits
# ---------------------------------------------------------------------------

def test_high_snr_rate_decreases_with_tau():
    cfg = workable_cfg(epsilon=0.05)
    co = make_coeffs(cfg, 12.0, 6.0)
    rates = high_snr_k_and_rate(np.linspace(0.05, 0.95, 30), co, cfg.epsilon, cfg.n_ec)[1]
    assert np.all(np.diff(rates) < 0.0)


def test_high_snr_cap_increases_with_tau():
    cfg = workable_cfg(epsilon=0.05)
    co = make_coeffs(cfg, 12.0, 6.0)
    ks = high_snr_k_and_rate(np.linspace(0.05, 0.95, 30), co, cfg.epsilon, cfg.n_ec)[0]
    assert np.all(np.diff(ks) > 0.0)


def test_high_snr_special_epsilon_identity():
    cfg = workable_cfg()
    co = make_coeffs(cfg, 12.0, 6.0)
    eps = 2.0 ** (-cfg.n_ec)  # quantile factor becomes exactly 1
    tau = 0.4
    k_inf, _ = high_snr_k_and_rate(tau, co, eps, cfg.n_ec)
    assert math.isclose((1.0 - tau) * co.b * k_inf, co.a - co.c * tau * k_inf, rel_tol=1e-12)


def test_high_snr_power_invariance():
    lo = workable_cfg(P_dBm=50.0, epsilon=0.05)
    hi = workable_cfg(P_dBm=70.0, epsilon=0.05)
    k_lo, r_lo = high_snr_k_and_rate(0.3, make_coeffs(lo, 12.0, 6.0), 0.05, lo.n_ec)
    k_hi, r_hi = high_snr_k_and_rate(0.3, make_coeffs(hi, 12.0, 6.0), 0.05, hi.n_ec)
    assert math.isclose(k_lo, k_hi, rel_tol=1e-12)
    assert math.isclose(r_lo, r_hi, rel_tol=1e-12)


def test_high_snr_requires_impairments_and_interior_tau():
    cfg = workable_cfg(k_tx=0.0, k_rx=0.0)
    co = make_coeffs(cfg, 12.0, 6.0)
    with pytest.raises(InfeasibleError):
        high_snr_k_and_rate(0.5, co, 0.05, cfg.n_ec)
    cfg2 = workable_cfg()
    co2 = make_coeffs(cfg2, 12.0, 6.0)
    with pytest.raises(ValueError):
        high_snr_k_and_rate(1.0, co2, 0.05, cfg2.n_ec)


def test_high_snr_limits_meet_the_finite_power_solution():
    # the limits' oracle: the finite-power k(tau) of solve_k_batch and its
    # rate approach (k_inf, rate) as 1/P, two decades per 20 dB; the rate
    # keeps the larger gap, the destination SNDR's 1/(tau*e) from its ceiling.
    # One call per power over the 200 states, equal to its 0-d calls
    rng = np.random.Generator(np.random.Philox(2026))
    powers = (100.0, 120.0, 140.0)
    params, gains, eps, tau = [], [], [], []
    for _ in range(200):
        n_c, k = int(rng.integers(1, 19)), float(rng.uniform(0.01, 0.2))
        eps.append(float(rng.uniform(0.003, 0.3)))
        tau.append(float(rng.uniform(0.05, 0.95)))
        params.append(dict(M=100, N_D=20, N_C=n_c, k_tx=k, k_rx=k, epsilon=eps[-1]))
        gains.append((rng.gamma(n_c), rng.gamma(20 - n_c)))
    eps, tau = np.array(eps), np.array(tau)
    n_ec = np.array([20 - p["N_C"] for p in params])
    gaps = np.zeros((len(powers), 2))  # worst relative gap of k and of the rate
    for row, p_dbm in enumerate(powers):
        co = stack_coeffs([make_coeffs(SystemConfig(P_dBm=p_dbm, **p), *g) for p, g in zip(params, gains)])
        k_inf, rate_inf = high_snr_k_and_rate(tau, co, eps, n_ec)
        for i in range(tau.size):
            assert high_snr_k_and_rate(float(tau[i]), co.take(i), float(eps[i]), int(n_ec[i])) == (k_inf[i], rate_inf[i])
        k_p = solve_k_batch(tau, co.a, co.b, co.c, n_ec, eps)
        rate_p = rs_of_tau(tau, k_p, co)
        gaps[row] = [np.max(np.abs(k_p / k_inf - 1.0)), np.max(np.abs(rate_p / rate_inf - 1.0))]
    assert np.all(gaps[1:] <= 0.02 * gaps[:-1]), gaps
    assert gaps[-1, 0] <= 1e-7 and gaps[-1, 1] <= 1e-6, gaps
