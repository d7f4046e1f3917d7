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
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from conftest import fuzz_states, make_coeffs, workable_cfg
from mmwsec import checks, numerics, throughput
from mmwsec.sweep import SweepSpec, run_sweep
from mmwsec.config import EffectiveCoeffs, SystemConfig, stack_coeffs
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
    # both branches: the power series up to z = 1, the continued fraction
    # above; z = 1e-12 is deep in the -gamma - ln(z) limit, z = 700 is where
    # exp(-z) nears the double underflow.  One array call over the grid,
    # equal bit for bit to the calls on each 0-d element and to a 3-d call.
    zs = np.concatenate([np.geomspace(1e-12, 1e7, 300), [1.0, np.nextafter(1.0, 2.0), 5.0, 700.0]])
    got = numerics.e1_scaled(zs)
    assert got.shape == zs.shape
    assert np.array_equal(numerics.e1_scaled(zs[:300].reshape(3, 10, 10)), got[:300].reshape(3, 10, 10))
    with mpmath.workdps(40):
        for z, value in zip(zs, got):
            zm = mpmath.mpf(float(z))
            ref = float(mpmath.e1(zm) * mpmath.exp(zm))
            assert abs(value - ref) <= 1e-12 * ref, z
            assert numerics.e1_scaled(np.asarray(z)) == value, z


def test_e1_scaled_against_scipy():
    # the whole of (0, 5], where the library took scipy's exp1 before
    zs = np.concatenate([np.geomspace(1e-300, 1e-3, 200), np.linspace(1e-3, 5.0, 4000)])
    ref = special.exp1(zs) * np.exp(zs)
    assert np.max(np.abs(numerics.e1_scaled(zs) - ref) / ref) <= 1e-12


def test_e1_check_integral_against_mpmath():
    # the reference of checks.e1_scaled is the integral form, taken by the
    # library's Gauss-Kronrod rule; it is not the series or the fraction
    zs = np.concatenate([np.geomspace(1e-300, 1e7, 20), [1.0]])
    got = checks._e1_scaled_integral(zs)
    with mpmath.workdps(40):
        for z, value in zip(zs, got):
            zm = mpmath.mpf(float(z))
            ref = float(mpmath.e1(zm) * mpmath.exp(zm))
            assert abs(value - ref) <= 1e-14 * ref, z


def test_e1_check_fails_a_planted_error(monkeypatch):
    # a relative error of 1e-11 in the library's E1 must fail validate's
    # check at its own grid and tolerance
    zs = np.geomspace(1e-8, 600.0, 200)
    assert checks.e1_scaled(zs, 1e-12).margin <= 1.0
    exact = numerics.e1_scaled
    monkeypatch.setattr(numerics, "e1_scaled", lambda z: exact(z) * (1.0 + 1e-11))
    assert checks.e1_scaled(zs, 1e-12).margin > 1.0


def test_e1_tail_rule_is_the_fraction_tail():
    # the Gauss rule of rows 10 to 100 of the Laguerre Jacobi matrix sums to
    # the continued fraction's levels 11 to 100, evaluated backward
    z = np.geomspace(1.0, 1e7, 200)
    t = z + 201.0
    for i in range(100, 10, -1):
        t = z + (2 * i - 1.0) - i * i / t
    nodes, weights = numerics._laguerre_rule(0, 10, 91)
    tail = 1.0 / np.sum(weights / (z[:, None] + nodes), axis=1)
    assert np.max(np.abs(tail / t - 1.0)) <= 1e-13


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
    return -math.exp(x) * numerics.e1_scaled(-x)


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

    co = EffectiveCoeffs(k_tot2=0, a=1.0, b=1.0, c=0.0, d=10.0, e=0.0)
    assert rs_of_tau(0.0, 5.0, co.d, co.e) == 0.0
    assert math.isclose(rs_of_tau(0.5, 1.0, co.d, co.e), 2.0, rel_tol=1e-14)  # log2(6/1.5)
    assert math.isclose(rs_of_tau(0.5, 0.0, co.d, co.e), math.log2(6.0), rel_tol=1e-14)


def test_drs_matches_finite_differences(rng):
    h = 1e-5
    for _, co, n_ec, eps, tau in _slope_batches(rng):
        an = _assert_batch_is_per_state(drs_dtau, tau, co, n_ec, eps)
        rate_of = lambda t: rs_of_tau(t, solve_k_batch(t, co.a, co.b, co.c, n_ec, eps), co.d, co.e)
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
    # exactly the one-state results, which no split of a 10,000-point grid beats
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
        states.append(make_coeffs(cfg, g_hat, g_check))
        n_ec += [cfg.n_ec] * 4
        eps += [cfg.epsilon] * 4
    stacked = optimize_tau_throughput_batch(stack_coeffs(states), np.array(n_ec), np.array(eps))
    assert len(set(n_ec)) > 10 and len(set(eps)) == 100
    for i, res in enumerate(singles):
        _assert_state(stacked, i, res)
    check = checks.throughput_opt_vs_grid(stack_coeffs(states), np.array(n_ec), np.array(eps),
                                          np.linspace(1e-4, 1.0, 10_000), 1e-6)
    assert check.margin <= 1.0, check.detail


def test_throughput_opt_vs_grid_fails_on_a_falling_cap(rng, monkeypatch):
    # the check solves each state's k grid once and also audits that the
    # grid does not fall; a solver that returns it reversed must fail it
    co = stack_coeffs([co for _, co in fuzz_states(rng, 6, 12)])
    taus = np.linspace(1e-3, 1.0, 50)
    assert checks.throughput_opt_vs_grid(co, 4, 0.01, taus, 1e-6).margin <= 1.0
    solve = throughput.solve_k_batch
    monkeypatch.setattr(throughput, "solve_k_batch",
                        lambda tau, *rest: solve(tau, *rest)[..., ::-1] if tau is taus else solve(tau, *rest))
    check = checks.throughput_opt_vs_grid(co, 4, 0.01, taus, 1e-6)
    assert check.margin == math.inf and "k(tau) falls by" in check.detail


def test_optimizer_blocks_keep_the_bits(rng, monkeypatch):
    # fuzzed states with a per-state n_ec and epsilon give the same bits
    # whole and scanned in blocks of 1, 7 and 256 states
    co = stack_coeffs([co for _, co in fuzz_states(rng, 24, 12)])
    assert co.a.size > 256
    n_ec, eps = rng.integers(1, 20, co.a.size), rng.uniform(0.003, 0.3, co.a.size)
    points = throughput._SCAN_GRID.size
    monkeypatch.setattr(numerics, "_BLOCK_ELEMENTS", 10**9)
    assert len(numerics.state_blocks(co.a.size, points)) == 1
    whole = optimize_tau_throughput_batch(co, n_ec, eps)
    for block in (1, 7, 256):
        monkeypatch.setattr(numerics, "_BLOCK_ELEMENTS", block * points)
        assert numerics.state_blocks(co.a.size, points)[0] == slice(0, block)
        blocked = optimize_tau_throughput_batch(co, n_ec, eps)
        for f in fields(ThroughputResult):
            assert np.array_equal(getattr(whole, f.name), getattr(blocked, f.name)), (block, f.name)


def test_candidates_do_not_depend_on_the_concavity_probe(rng, monkeypatch):
    # an empty probe calls every state concave: full power and every local
    # maximum still compete, so only the case tags may move
    co = stack_coeffs([co for _, co in fuzz_states(rng, 20, 12)])
    n_ec, eps = rng.integers(1, 20, co.a.size), rng.uniform(0.003, 0.3, co.a.size)
    probed = optimize_tau_throughput_batch(co, n_ec, eps)
    monkeypatch.setattr(throughput, "_CONCAVITY_IDX", np.array([], dtype=int))
    concave = optimize_tau_throughput_batch(co, n_ec, eps)
    non_concave = [ThroughputCase.NONCONCAVE_TAU1_VS_1, ThroughputCase.NONCONCAVE_TAU1P_VS_TAU3]
    assert np.isin(probed.case_tag, non_concave).any() and not np.isin(concave.case_tag, non_concave).any()
    for name in ("tau_star", "R_s_star", "k_star", "transmit"):
        assert np.array_equal(getattr(probed, name), getattr(concave, name)), name


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


def _newton_in_illinois_optimum(a, b, c, d, e, n_ec, epsilon):
    """(tau*, k*) by the refinement the optimizer ran before it moved onto the
    cap's curve: false position in tau, with Newton solving x(tau) at every
    step, and k* by solve_k_batch at every candidate; the scan and the pick
    are the optimizer's."""
    grid, log_eps = throughput._SCAN_GRID, math.log(epsilon)
    rp = throughput._rate_slope(grid, throughput._solve_x(grid, b[:, None], n_ec, log_eps),
                                *(v[:, None] for v in (a, b, c, d, e)), n_ec)
    up = rp > 0.0
    i, j = np.nonzero(up[:, :-1] & ~up[:, 1:])
    roots = numerics.bracketed_roots(
        lambda t, a, b, c, d, e: throughput._rate_slope(t, throughput._solve_x(t, b, n_ec, log_eps), a, b, c, d, e, n_ec),
        grid[j], grid[j + 1], rp[i, j], rp[i, j + 1], *(v[i] for v in (a, b, c, d, e)),
    )
    state = np.concatenate([np.arange(a.size), i])
    tau = np.concatenate([np.ones(a.size), roots])
    k = solve_k_batch(tau, a[state], b[state], c[state], n_ec, epsilon)
    best = numerics.best_candidates(state, -rs_of_tau(tau, k, d[state], e[state]), -tau, a.size)
    return tau[best], k[best]


@pytest.mark.parametrize("n_ec", [1, 4, 18])
@pytest.mark.parametrize("epsilon", [0.01, 0.2, 1.0])
def test_optimizer_on_both_forms_of_the_cap_curve(n_ec, epsilon, monkeypatch):
    # b from 1e-9 to 1e9 puts the local maxima on both sides of
    # x = -ln(eps)/2, where the refinement switches from x to w = (1 - tau)*x.
    # Each state's split is within 1e-10 of the Newton-in-Illinois
    # refinement, its cap solves Q(k) = 0 to 1e-12, it has the bits of its
    # one-state call, and a cap at full power has the bits of
    # solve_k_batch(1.0, ...).  x alone put tau up to 1.2e-4 off at
    # b = 1e-9, w alone 5.8e-7 at b = 1e7; without a Newton step at the
    # stored split, |Q(k*)| reached 1.4e-11 at b = 1e9.  No Newton step runs inside the
    # root search, and no RuntimeWarning is raised.
    rng = np.random.default_rng(36)
    b = np.repeat(np.geomspace(1e-9, 1e9, 19), 8)
    a = np.exp(rng.uniform(math.log(1e-2), math.log(1e3), b.size))
    c = a * rng.uniform(0.0, 0.02, b.size)
    d = a * np.exp(rng.uniform(math.log(0.1), math.log(1e4), b.size))
    e = d * rng.uniform(0.0, 0.05, b.size)
    co = EffectiveCoeffs(0.0, a, b, c, d, e)
    solve_x, roots = throughput._solve_x, numerics.bracketed_roots
    searching, newton_in_search = [False], []

    def counting_solve_x(*args):
        newton_in_search.append(searching[0])
        return solve_x(*args)

    def flagged_roots(*args, **kwargs):
        searching[0] = True
        try:
            return roots(*args, **kwargs)
        finally:
            searching[0] = False

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref_tau, _ = _newton_in_illinois_optimum(a, b, c, d, e, n_ec, epsilon)
        monkeypatch.setattr(throughput, "_solve_x", counting_solve_x)
        monkeypatch.setattr(throughput, "bracketed_roots", flagged_roots)
        res = optimize_tau_throughput_batch(co, n_ec, epsilon)
        singles = [optimize_tau_throughput_batch(co.take(i), n_ec, epsilon) for i in range(b.size)]
    assert newton_in_search and not any(newton_in_search)
    assert np.max(np.abs(res.tau_star - ref_tau)) <= 1e-10
    assert np.max(np.abs(q_of_k(res.k_star, res.tau_star, a, b, c, n_ec, epsilon))) <= 1e-12
    for i, one in enumerate(singles):
        for f in fields(ThroughputResult):
            assert np.asarray(getattr(one, f.name)).tobytes() == np.asarray(getattr(res, f.name)[i:i + 1]).tobytes(), (i, f.name)
    full = res.tau_star == 1.0
    assert res.k_star[full].tobytes() == solve_k_batch(1.0, a[full], b[full], c[full], n_ec, epsilon).tobytes()
    interior = ~full
    if epsilon == 1.0:
        # no cap at any split: the rate climbs to full power
        assert not interior.any() and np.all(res.k_star == 0.0)
        return
    x = res.k_star / (a - c * res.tau_star * res.k_star)
    low = x <= -0.5 * math.log(epsilon)
    assert np.count_nonzero(interior & low) >= 20 and np.count_nonzero(interior & ~low) >= 10


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
        beta = float(throughput._bar_scales(cfg).threshold(g_hat))
        if beta <= 1e-6:
            continue
        eps = 1e-8 * max(1.0, beta)
        assert float(mrt_rate(g_hat, beta + eps, cfg)) > 0.0
        assert float(mrt_rate(g_hat, beta - eps, cfg)) < 0.0
        found += 1


def test_mrt_threshold_trivial_cases():
    cfg = workable_cfg(epsilon=1.0)
    assert float(throughput._bar_scales(cfg).threshold(10.0)) <= 0.0
    cfg2 = workable_cfg(epsilon=0.01)
    assert float(throughput._bar_scales(cfg2).threshold(0.0)) <= 0.0


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
    # integrals, no alternating sum, in 30-digit arithmetic.  mpmath's
    # E_n(w) goes wrong once n nears w, so orders past those the tests use
    # are refused: at (q, m) = (0.0096, 99) the sum reads 30.2 against 0.969
    if m >= 20:
        raise ValueError(f"log_moment_oracle is exact at orders 0-19, not {m}; use log_moment_quad_oracle")
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
    moments = numerics.log_moments(qs, top)
    assert moments.shape == (top + 1, qs.size)
    for i, q in enumerate(qs.tolist()):
        assert np.array_equal(numerics.log_moments(np.asarray(q), top), moments[:, i]), q
        for m in range(top + 1):
            ref = log_moment_oracle(q, m)
            assert abs(moments[m, i] - ref) <= 1e-9 * abs(ref), (q, m, moments[m, i], ref)
            assert log_moment(q, m) == moments[m, i]


def log_moment_quad_oracle(q: float, m: int) -> float:
    # E[log2(1 + qX)] as a 30-digit tanh-sinh integral of log1p(qx)/q against
    # the Gamma(m+1, 1) density, split at multiples of m; at m >= 40 mpmath's
    # E_n(w) behind log_moment_oracle goes wrong once n nears w
    with mpmath.workdps(30):
        qm = mpmath.mpf(q)
        integral = mpmath.quad(
            lambda x: mpmath.log1p(qm * x) / qm * mpmath.exp(m * mpmath.log(x) - x - mpmath.loggamma(m + 1)),
            [0] + [m * t for t in (0.25, 0.5, 1, 1.5, 2, 3, 5)] + [mpmath.inf],
        )
        return float(qm * integral / mpmath.log(2))


def test_log_moment_oracle_refuses_orders_past_its_range():
    # the E_n sum reads 30.2 here, where the quadrature reads 0.969
    with pytest.raises(ValueError, match="log_moment_quad_oracle"):
        log_moment_oracle(0.0096, 99)


def test_log_moment_fallback_against_mpmath(monkeypatch):
    # every (q, m) that falls back to the Gauss rule, on a log grid of q from
    # 1e-300 past the switch (q about 0.06) at the orders 0-19 and at 40, is
    # within 1e-14 relative of mpmath, and the fallback builds no rule but
    # its 16-point one.  log2(1 + q*x) on 160 nodes read up to 1.7e-12 off
    # on this grid above q = 1e-6, 6.5e-6 between 1e-12 and 1e-6, where
    # 1 + q*x keeps few digits of q*x, and 0 once it rounds to 1
    rule, laguerre = numerics._log_moment_rule, numerics._laguerre_rule
    fallbacks, sizes = [], []

    def recording_rule(q, m):
        value = rule(q, m)
        fallbacks.append((q.copy(), m, value))
        return value

    def recording_laguerre(m, first=0, count=numerics._LOG_MOMENT_NODES):
        sizes.append(count)
        return laguerre(m, first, count)

    monkeypatch.setattr(numerics, "_log_moment_rule", recording_rule)
    monkeypatch.setattr(numerics, "_laguerre_rule", recording_laguerre)
    qs = np.concatenate([[1e-300, 1e-100], np.geomspace(1e-20, 1e-3, 40), np.geomspace(1e-3, 0.07, 45)])
    numerics.log_moments(qs, 19)
    # orders 1-19 fall back, each below its own switch, inside the grid
    assert [m for _, m, _ in fallbacks] == list(range(1, 20))
    assert max(q.max() for q, _, _ in fallbacks) < qs[-1]
    with mpmath.workdps(30):
        # order m is e^w * sum_{n=1}^{m+1} E_n(w)/ln 2, cumulated over n per q
        refs = {q: np.cumsum([float(mpmath.exp(1 / mpmath.mpf(q)) * mpmath.expint(n, 1 / mpmath.mpf(q))
                                    / mpmath.log(2)) for n in range(1, 21)]) for q in qs.tolist()}
    for q, m, value in fallbacks:
        ref = np.array([refs[v][m] for v in q.tolist()])
        assert np.max(np.abs(value - ref) / ref) <= 1e-14, m
    fallbacks.clear()
    qs = np.concatenate([[1e-300], np.geomspace(1e-12, 0.07, 8)])
    numerics.log_moments(qs, 40)
    q, m, value = fallbacks[-1]
    assert m == 40 and q.size >= 8
    ref = np.array([log_moment_quad_oracle(v, 40) for v in q.tolist()])
    assert np.max(np.abs(value - ref) / ref) <= 1e-14
    assert set(sizes) <= {numerics._LOG_MOMENT_NODES, 91} and numerics._LOG_MOMENT_NODES in sizes


def test_laguerre_rule_against_scipy():
    # every order the fallback can take with N_D = 20, at the fallback's own
    # rule size: the nodes, and the weights of the Gamma(m+1, 1) law, none of
    # them underflowing to 0; a smooth integral against mpmath at the lowest,
    # a middle and the top order, at q = 1/20, inside the q the fallback takes
    size = numerics._LOG_MOMENT_NODES
    for m in range(20):
        nodes, weights = numerics._laguerre_rule(m)
        assert nodes.size == size
        ref_nodes, ref_weights = special.roots_genlaguerre(size, m)
        ref_weights = ref_weights / math.factorial(m)
        assert np.max(np.abs(nodes - ref_nodes) / ref_nodes) <= 1e-12, m
        assert np.all(weights > 0.0)
        assert np.max(np.abs(weights - ref_weights) / ref_weights) <= 1e-10, m
        if m not in (0, 7, 19):
            continue
        with mpmath.workdps(30):
            ref = mpmath.quad(lambda x: mpmath.log(1 + x / 20) * x**m * mpmath.exp(-x), [0, mpmath.inf])
            ref = float(ref / mpmath.factorial(m))
        assert abs(np.sum(weights * np.log1p(nodes / 20.0)) - ref) <= 1e-13 * ref, m


def test_gamma_cap_against_scipy_and_mpmath():
    # Q(n, cap) = 1e-10 for the shapes 1-20 of N_D = 20, and 100
    for n in [*range(1, 21), 100]:
        cap = numerics.gamma_cap(n)
        assert abs(cap - special.gammainccinv(n, 1e-10)) <= 1e-12 * cap, n
        with mpmath.workdps(30):
            tail = float(mpmath.gammainc(n, cap, mpmath.inf, regularized=True))
        assert abs(tail / 1e-10 - 1.0) <= 1e-11, n


def test_log_poisson_against_scipy():
    # log(x^k e^-x / k!) for k = 0..119, past 170! in neither k! nor x^k,
    # with an array k and with each int k alike; 0^0 = 1 gives 0 at
    # x = 0, k = 0 and -inf at x = 0, k > 0
    ks = np.arange(120)
    xs = np.array([0.0, 1e-300, 1e-3, 0.5, 1.0, 7.0, 60.0, 119.0, 500.0, 1e4])
    ref = stats.poisson.logpmf(ks[:, None], xs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = numerics.log_poisson(xs, ks[:, None])
        by_int = np.array([numerics.log_poisson(xs, int(k)) for k in ks])
    assert got.shape == (120, xs.size) and np.array_equal(got, by_int)
    assert got[0, 0] == 0.0 and np.all(got[1:, 0] == -np.inf)
    finite = np.isfinite(ref)
    assert np.array_equal(finite, np.isfinite(got))
    assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-13 * np.maximum(1.0, np.abs(ref[finite])))


def test_log_moments_of_zero_q_are_zero():
    # q = 0 (no impairment gives e_bar = 0) is 0 at every order, with no
    # division by zero, next to q > 0 in the same call
    qs = np.array([[0.0, 1e-7], [0.3, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments = numerics.log_moments(qs, 6)
    assert moments.shape == (7, 2, 2)
    assert np.all(moments[:, qs == 0.0] == 0.0)
    assert np.all(moments[:, qs > 0.0] > 0.0)
    with pytest.raises(ValueError):
        numerics.log_moments(np.array([0.5, -1e-3]), 2)


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
    got = numerics.gk21(_gamma_mass(shapes), np.stack([lo, hi], axis=-1), 1e-14, 1e-12)
    ref = special.gammainc(shapes, hi) - special.gammainc(shapes, lo)
    assert got.shape == lo.shape
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_gk21_batch_equals_each_integral_alone(rng):
    # a (3 x 4) batch of integrals, each from its own three panels, against
    # 12 one-integral calls: each gets the bits it gets alone
    shapes = rng.integers(1, 20, 12).astype(float)
    lo = rng.uniform(0.0, 10.0, (3, 1))
    hi = lo + rng.uniform(0.5, 60.0, (1, 4))
    breaks = lo[..., None] + (hi - lo)[..., None] * np.array([0.0, 0.1, 0.4, 1.0])
    batch = numerics.gk21(_gamma_mass(shapes), breaks, 1e-12, 1e-9)
    assert batch.shape == (3, 4)
    for i, row in enumerate(breaks.reshape(12, 4)):
        alone = numerics.gk21(_gamma_mass(shapes[i : i + 1]), row, 1e-12, 1e-9)
        assert alone.shape == ()
        assert alone == batch.flat[i]
        assert abs(alone - special.gammainc(shapes[i], row[-1]) + special.gammainc(shapes[i], row[0])) <= 1e-11


def test_gk21_starts_from_the_given_panels():
    # exp(-x/1e-4) on [0, 23]: from the one panel [0, 23] every node reads
    # below exp(-400), so the rule settles on 0; from breakpoints on the
    # kernel's scale it finds 1e-4.  A repeated breakpoint adds no panel.
    panels = []

    def spike(x, owner):
        panels.append(x.shape[0])
        return np.exp(-x / 1e-4)

    assert numerics.gk21(spike, np.array([0.0, 23.0]), 1e-30, 1e-9) < 1e-150
    panels.clear()
    got = numerics.gk21(spike, np.array([0.0, 1e-3, 1e-3, 4e-3, 23.0]), 1e-30, 1e-9)
    assert panels[0] == 3
    assert got == pytest.approx(1e-4, rel=1e-9)


def test_gk21_raises_when_an_integral_cannot_settle():
    # 1/x on [0, 1] diverges: the panel at 0 never meets its share.  The
    # rule raises, it does not warn and return, and a settled neighbour in
    # the batch does not hide it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError):
            numerics.gk21(lambda x, _: 1.0 / x, np.array([[1.0, 2.0], [0.0, 1.0]]), 1e-12, 1e-9)


def test_library_loads_no_scipy():
    # scipy is the tests' reference only: neither the import, nor a sweep
    # through fig6's MRT rows (E1, the Laguerre fallback, the gamma cap and
    # the log Poisson terms), nor the validate suite loads any part of it
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, mmwsec\n"
            "from mmwsec import cli, sweep\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            "for fig in ('fig5', 'fig6'):\n"
            "    for spec in sweep.preset_specs(fig, trials=4):\n"
            "        sweep.run_sweep(spec)\n"
            "print(loaded())\n"
            "cli.run_validation(trials=2000, verbose=False)\n"
            "print(loaded())\n")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "[]", "[]", ""]


def test_mrt_throughput_dual_quadrature():
    # the wrapper audits the closed form against the 2-D quadrature when
    # asked, and returns the closed form; without common paths that route
    # does not apply, and asking for it raises instead of skipping the audit
    cfg = SystemConfig(M=100, N_D=20, N_C=16, P_dBm=55.0, epsilon=0.01, k_tx=0.1, k_rx=0.1)
    assert math.isclose(mrt_throughput(cfg, cross_check=True), mrt_throughput_closed_form(cfg), rel_tol=1e-12)
    with pytest.raises(ValueError, match="N_C >= 1"):
        mrt_throughput(cfg.with_overrides(N_C=0), cross_check=True)


def test_mrt_closed_form_weights_do_not_overflow():
    # beta^k/k! overflowed at a large threshold beta and a large N_D - N_C:
    # "overflow encountered in power", then a NaN kernel and a
    # ConvergenceError.  In log space both configurations are finite; the
    # value they read is not asserted here
    for kw in (dict(N_D=60, N_C=4, P_dBm=100.0), dict(N_D=98, N_C=1, P_dBm=129.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(mrt_throughput_closed_form(SystemConfig(M=200, N_E=20, **kw))), kw
    # the same weights agree with the direct 2-D quadrature where both
    # routes were finite before
    for kw in (dict(N_D=60, N_C=4, P_dBm=0.0), dict(N_D=100, N_C=4, P_dBm=30.0)):
        cfg = SystemConfig(M=200, N_E=20, **kw)
        closed, direct = mrt_throughput_closed_form(cfg), throughput.mrt_throughput_quad2d(cfg)
        assert abs(closed - direct) <= 1e-6 * abs(direct), kw


# kernels that sit near y = 0: at high power with one common path the
# outer integrand is below 1e-37 from y = 0.05 on.  Both routes once
# started from the one panel [0, cap], whose lowest node lies near y =
# 0.05, and settled on its zeros, reading 6.5e-39, 6.4e-21 and 0.0
_NEAR_ZERO_KERNELS = {
    "M79_80dBm": SystemConfig(M=79, N_D=53, N_E=5, N_C=1, k_tx=0.0, k_rx=0.47, R_s=9.18,
                              epsilon=0.0027, d_D_m=24.7, d_E_m=193.9, P_dBm=80.0),
    "fig6_nc1_90dBm": SystemConfig(M=100, N_D=20, N_C=1, epsilon=0.01, k_tx=0.1, k_rx=0.1, P_dBm=90.0),
    "fig6_nc1_100dBm": SystemConfig(M=100, N_D=20, N_C=1, epsilon=0.01, k_tx=0.1, k_rx=0.1, P_dBm=100.0),
}


@pytest.mark.parametrize("name", _NEAR_ZERO_KERNELS)
def test_mrt_integrals_find_a_kernel_near_zero(name):
    # both routes against the estimator at 200,000 draws, within 4 of its
    # standard errors (about 3e-4 at 90 dBm, 1.2e-4 at 100)
    cfg = _NEAR_ZERO_KERNELS[name]
    est = avg_throughput_mrt(cfg, 200_000, 2024)
    for route in (mrt_throughput_closed_form, throughput.mrt_throughput_quad2d):
        assert abs(route(cfg) - est.value) <= 4.0 * est.std_error, route.__name__


def _log_grid_integral(cfg: SystemConfig, points: int) -> float:
    """The closed form's integral of ``_mrt_kernel`` over y in cap*[1e-16, 1]
    by the composite Simpson rule on ``points`` (odd) nodes in s = ln y,
    int K(y) dy = int K(e^s) e^s ds.  The grid starts above y = 0, where the
    kernel divides by zero; below it the kernel adds at most about 1e-14."""
    s = np.linspace(math.log(1e-16), 0.0, points)
    y = numerics.gamma_cap(cfg.N_C) * np.exp(s)
    f = throughput._mrt_kernel(y, throughput._bar_scales(cfg), cfg.N_C, cfg.n_dc) * y
    return (s[1] - s[0]) / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())


@st.composite
def _few_common_path_configs(draw):
    n_c = draw(st.integers(1, 4))
    return SystemConfig(
        M=100, N_C=n_c, N_D=n_c + draw(st.integers(1, 30)), N_E=n_c + draw(st.integers(0, 30)),
        P_dBm=draw(st.floats(-20.0, 130.0)), k_tx=draw(st.floats(0.0, 0.5)), k_rx=draw(st.floats(0.0, 0.5)),
        epsilon=draw(st.floats(1e-3, 0.5)), d_D_m=draw(st.floats(10.0, 300.0)), d_E_m=draw(st.floats(10.0, 300.0)),
    )


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(cfg=_few_common_path_configs())
def test_mrt_closed_form_matches_a_dense_log_grid(cfg):
    # 30 examples on a 4,001-node grid, whose Simpson sum is within 6e-8
    # relative (or 1e-14) of a 64,001-node one on each of them
    closed, grid = mrt_throughput_closed_form(cfg), _log_grid_integral(cfg, 4001)
    assert abs(closed - grid) <= max(1e-6 * abs(grid), 1e-12), (closed, grid)


def test_mrt_closed_form_matches_quad2d_across_configs(rng):
    # a quadrature that does not settle raises ConvergenceError, which
    # fails the test by itself
    cfgs = [
        SystemConfig(
            M=100, N_D=20, N_C=int(rng.integers(1, 20)), P_dBm=float(rng.uniform(40, 70)),
            epsilon=float(rng.uniform(0.005, 0.2)), k_tx=float(rng.uniform(0, 0.15)),
            k_rx=float(rng.uniform(0, 0.15)),
        )
        for _ in range(20)
    ]
    check = checks.mrt_throughput_dual_quadrature(cfgs, 1e-6)
    assert check.margin <= 1.0, check.detail


def test_mrt_batch_equals_each_config_alone():
    # a sequence of configurations sharing N_C and N_D - N_C is one batch
    # of integrals and one gain draw; each gets its one-config bits, with
    # common paths and without (N_C = 0, the log-moment pair)
    for n_c in (16, 8, 0):
        cfgs = [SystemConfig(M=100, N_D=20, N_C=n_c, P_dBm=p, epsilon=eps, k_tx=k, k_rx=k)
                for p in (40.0, 55.0, 65.0) for k in (0.0, 0.1) for eps in (0.01, 0.2)]
        values = mrt_throughput(cfgs)
        estimates = avg_throughput_mrt(cfgs, 3000, 99)
        assert isinstance(values, np.ndarray) and values.shape == (len(cfgs),)
        for cfg, value, est in zip(cfgs, values, estimates, strict=True):
            alone = mrt_throughput(cfg)
            assert type(alone) is float and value == alone
            assert est == avg_throughput_mrt(cfg, 3000, 99)
        assert mrt_throughput_closed_form(cfgs).tolist() == values.tolist()


def test_mrt_batch_rejects_mixed_path_counts():
    base = SystemConfig(M=100, N_D=20, N_C=16, P_dBm=55.0)
    for mixed in ([base, base.with_overrides(N_C=8)], [base, base.with_overrides(N_D=18)],
                  [base.with_overrides(N_C=0), base]):
        for call in (mrt_throughput, mrt_throughput_closed_form, lambda c: avg_throughput_mrt(c, 10, 1)):
            with pytest.raises(ValueError):
                call(mixed)


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


def _no_common_path_reference(cfg: SystemConfig) -> float:
    """E[log2(1 + Y_D(1))] at N_C = 0 by scipy's adaptive quadrature of the
    rate against the Gamma(N_D) density, on [0, N_D] and [N_D, inf)."""
    n, d = cfg.N_D, cfg.beta_d()
    e, log_norm = cfg.k_tot2 * d, math.lgamma(n)

    def f(g):
        rate = (math.log1p((d + e) * g) - math.log1p(e * g)) / math.log(2.0)
        return rate * math.exp((n - 1) * math.log(g) - g - log_norm)

    return sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
               for lo, hi in ((0.0, n), (n, math.inf)))


def test_mrt_closed_form_without_common_paths_across_configs():
    # the log-moment pair against an independent quadrature of the rate on
    # 40 seeded configurations plus four corners: one path, ideal hardware
    # (e_bar = 0), -20 and 140 dBm, eps = 1 (eps does not enter without
    # leakage).  The worst relative gap measured is 2.9e-12, all of it the
    # quadrature's: the closed form is within 6.9e-15 of 30-digit mpmath here
    rng = np.random.Generator(np.random.Philox(2026))
    cfgs = [
        SystemConfig(M=200, N_D=int(rng.integers(1, 99)), N_E=int(rng.integers(1, 100)), N_C=0,
                     P_dBm=float(rng.uniform(-20.0, 140.0)), k_tx=float(rng.uniform(0.0, 0.5)),
                     k_rx=float(rng.uniform(0.0, 0.5)), epsilon=float(rng.uniform(1e-3, 1.0)))
        for _ in range(40)
    ] + [
        SystemConfig(M=200, N_D=1, N_C=0, P_dBm=-20.0),
        SystemConfig(M=200, N_D=1, N_C=0, P_dBm=140.0, k_tx=0.0, k_rx=0.0),
        SystemConfig(M=200, N_D=98, N_C=0, P_dBm=140.0, k_tx=0.0, k_rx=0.0, epsilon=1.0),
        SystemConfig(M=200, N_D=98, N_C=0, P_dBm=-20.0, k_tx=0.5, k_rx=0.5, epsilon=1.0),
    ]
    for cfg in cfgs:
        closed, ref = mrt_throughput_closed_form(cfg), _no_common_path_reference(cfg)
        assert type(closed) is float and abs(closed - ref) <= 1e-9 * abs(ref), (cfg, closed, ref)


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


def test_high_snr_cap_against_mpmath_near_eps_one():
    # eps^(-1/N) - 1 is formed as expm1(-ln(eps)/N), which does not cancel
    # when eps^(-1/N) is near 1: eps near 1 and N up to 20
    cfg = workable_cfg()
    co = make_coeffs(cfg, 12.0, 6.0)
    tau = 0.4
    eps = np.array([0.5, 0.9, 0.99, 1 - 1e-4, 1 - 1e-7, 1 - 1e-10, 1 - 1e-13])[:, None]
    n_ec = np.arange(1, 21)
    k_inf, _ = high_snr_k_and_rate(tau, co, eps, n_ec)
    with mpmath.workdps(40):
        a, b, c = (mpmath.mpf(float(v)) for v in (co.a, co.b, co.c))
        for i, e in enumerate(eps[:, 0]):
            for j, n in enumerate(n_ec):
                phi = mpmath.mpf(float(e)) ** (-mpmath.mpf(1) / int(n)) - 1
                ref = float(phi * a / ((1 - mpmath.mpf(tau)) * b + c * tau * phi))
                assert abs(k_inf[i, j] - ref) <= 1e-14 * ref, (e, n)


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
        rate_p = rs_of_tau(tau, k_p, co.d, co.e)
        gaps[row] = [np.max(np.abs(k_p / k_inf - 1.0)), np.max(np.abs(rate_p / rate_inf - 1.0))]
    assert np.all(gaps[1:] <= 0.02 * gaps[:-1]), gaps
    assert gaps[-1, 0] <= 1e-7 and gaps[-1, 1] <= 1e-6, gaps
