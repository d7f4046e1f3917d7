"""Acceptance suite: oracle equivalence and trend reproduction.

Each test prints one PASS line with its headline numbers; tolerances are
fixed here and nowhere else.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import stats

from conftest import make_coeffs
from mmwsec import cli
from mmwsec.channel import (
    build_basis,
    channel_row,
    an_beamformer,
    sample_channel,
    sample_path_sets,
)
from mmwsec.config import EffectiveCoeffs, SystemConfig, coeffs_from_gains, stack_coeffs
from mmwsec.errors import SilentSourceError
from mmwsec.montecarlo import (
    empirical_cdf_Y_E,
    empirical_sndr_from_distortion,
    empirical_sop_conditional,
)
from mmwsec.opa_sop import (
    OpaCase,
    minimize_sop_tau,
    optimize_tau_sop,
    optimize_tau_sop_batch,
    phi_coeffs,
    phi_rational,
)
from mmwsec.sop import (
    SecrecyTarget,
    SopBranch,
    cdf_Y_E,
    sop_conditional,
    sop_overall,
    tau_min,
)
from mmwsec.throughput import (
    k_max_tau1,
    mrt_throughput_closed_form,
    mrt_throughput_quad2d,
    optimize_tau_throughput_batch,
    q_of_k,
    solve_k_batch,
)


def _broad_state(rng, **overrides):
    params = dict(
        M=100,
        N_D=20,
        N_C=int(rng.integers(1, 19)),
        P_dBm=float(rng.uniform(48, 68)),
        R_s=float(rng.uniform(0.5, 5.0)),
        k_tx=float(rng.uniform(0.0, 0.15)),
        k_rx=float(rng.uniform(0.0, 0.15)),
        d_E_m=float(rng.uniform(50, 200)),
    )
    params.update(overrides)
    cfg = SystemConfig(**params)
    g_hat = float(rng.gamma(cfg.N_C, 1.0)) if cfg.N_C else 0.0
    g_check = float(rng.gamma(cfg.n_dc, 1.0))
    return cfg, make_coeffs(cfg, g_hat, g_check)


def test_acceptance_1_conditional_sop_oracle():
    """Closed-form conditional SOP vs 1e6-sample Monte-Carlo, 25 states."""
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.Philox(101))
    done = 0
    worst = 0.0
    while done < 25:
        cfg, coeffs = _broad_state(rng)
        target = SecrecyTarget(cfg.R_s)
        t_min = tau_min(target, coeffs)
        if t_min >= 1.0:  # inf when the source is silent
            continue
        tau = float(rng.uniform(t_min + 1e-6, 1.0))
        analytic = sop_conditional(tau, target, coeffs, cfg.n_ec)
        est = empirical_sop_conditional(coeffs, tau, target, cfg.n_ec, 1_000_000, 1000 + done)
        gap = abs(analytic - est.value)
        tol = max(0.005, 3.0 * est.std_error)
        assert gap <= tol, f"state {done}: gap {gap:.5f} > tol {tol:.5f}"
        worst = max(worst, gap)
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s budget"
    print(f"\nACCEPTANCE 1 PASS: 25 states, worst gap {worst:.5f} <= 0.005, {elapsed:.1f}s")


def test_acceptance_2_cdf_oracle():
    """Eavesdropper SNDR CDF vs empirical CDF on 20-point grids, 10 sets."""
    rng = np.random.Generator(np.random.Philox(202))
    worst = 0.0
    for trial in range(10):
        cfg, coeffs = _broad_state(rng)
        tau = float(rng.uniform(0.1, 1.0))
        probe_u = rng.exponential(1.0, 4000)
        probe_v = rng.gamma(cfg.n_ec, 1.0, 4000)
        from mmwsec.sndr import sndr_eve

        probe = sndr_eve(tau, probe_u, probe_v, coeffs.a, coeffs.b, coeffs.c)
        grid = sorted(float(np.quantile(probe, q)) for q in np.linspace(0.03, 0.97, 20))
        ests = empirical_cdf_Y_E(coeffs, tau, grid, 1_000_000, 2000 + trial, cfg.n_ec)
        gaps = np.abs(cdf_Y_E(grid, tau, coeffs, cfg.n_ec) - [est.value for est in ests])
        i = int(np.argmax(gaps))
        assert gaps[i] <= 0.005, f"set {trial}, x={grid[i]:.4g}: gap {gaps[i]:.5f}"
        worst = max(worst, float(gaps[i]))
    print(f"\nACCEPTANCE 2 PASS: 10 parameter sets, worst pointwise gap {worst:.5f} <= 0.005")


def test_acceptance_3_sop_power_split_optimizer():
    """Capacity-ratio optimizer matches a 1e4-point grid; all sign cases hit."""
    rng = np.random.Generator(np.random.Philox(303))
    counts = {case: 0 for case in OpaCase}
    worst_rel = 0.0
    accepted = []  # (R_s, coeffs, u, v, objective) of every draw checked
    done = 0
    while done < 1000:
        if done % 10 < 7:
            cfg, coeffs = _broad_state(rng)
            u = float(rng.exponential(1.0))
            v = float(rng.gamma(cfg.n_ec, 1.0))
        else:
            # steered corner: close eavesdropper, weak AN gain, low target
            # rates; the regime where the derivative quadratic opens upward
            n_c = int(rng.integers(3, 11))
            n_d = int(rng.integers(n_c + 2, 16))
            cfg = SystemConfig(
                M=100, N_D=n_d, N_E=n_c + 1, N_C=n_c,
                P_dBm=float(rng.uniform(30, 44)),
                R_s=float(rng.uniform(0.05, 1.0)),
                k_tx=float(rng.uniform(0.1, 0.17)),
                k_rx=float(rng.uniform(0.0, 0.17)),
                d_E_m=float(rng.uniform(5, 20)),
            )
            coeffs = make_coeffs(cfg, float(rng.gamma(n_c, 1.0)), float(rng.gamma(n_d - n_c, 1.0)))
            u = float(rng.uniform(1.0, 8.0))
            v = float(rng.uniform(0.0005, 0.05))
        target = SecrecyTarget(cfg.R_s)
        try:
            res = optimize_tau_sop(target, coeffs, cfg.n_ec, u=u, v=v, grid_points=0)
        except SilentSourceError:
            continue
        counts[res.case_tag] += 1
        t_min = tau_min(target, coeffs)
        taus = t_min + (np.arange(1, 10_001) / 10_000) * (1.0 - t_min)
        grid_best = float(np.max(phi_rational(taus, phi_coeffs(u, v, coeffs))))
        rel = (grid_best - res.objective_value) / max(abs(grid_best), 1e-12)
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-7, f"draw {done}: shortfall {rel:.2e}"
        accepted.append((cfg.R_s, coeffs, u, v, res.objective_value))
        done += 1
    for case in (OpaCase.BOTH_SIGN, OpaCase.CONVEX_ENDPOINTS, OpaCase.CONCAVE_INTERIOR):
        assert counts[case] >= 10, f"case {case.value} hit only {counts[case]} times"
    # the same draws as one batch, audited on a 10,000-point grid: the grid
    # never beats the analytic split, which keeps its value (to rounding:
    # numpy's vectorized 2**R_s may differ from the scalar one in the last bit)
    r_s, states, u_arr, v_arr, objective = zip(*accepted)
    states = EffectiveCoeffs(**{
        f.name: np.array([getattr(c, f.name) for c in states])
        for f in dataclasses.fields(EffectiveCoeffs)
    })
    audited = optimize_tau_sop_batch(
        SecrecyTarget(np.array(r_s)), states, 1, u=np.array(u_arr), v=np.array(v_arr), grid_points=10_000
    )
    assert not np.any(audited.case_tag == OpaCase.GRID_FALLBACK)
    np.testing.assert_allclose(audited.objective_value, objective, rtol=1e-12, atol=0.0)
    tally = {c.value: n for c, n in counts.items() if n}
    print(f"\nACCEPTANCE 3 PASS: 1000 draws, worst rel shortfall {worst_rel:.2e} <= 1e-7, cases {tally}")


def test_acceptance_4_throughput_optimizer():
    """Rate optimizer matches a 1e4-point grid; cap and survival monotone."""
    rng = np.random.Generator(np.random.Philox(404))
    drawn, q_taus = [], {}
    for done in range(1000):
        cfg, coeffs = _broad_state(
            rng,
            N_C=int(rng.integers(2, 19)),
            P_dBm=float(rng.uniform(42, 72)),
        )
        drawn.append((cfg.with_overrides(epsilon=float(rng.uniform(0.003, 0.3))), coeffs))
        if done % 50 == 0 and coeffs.a > 0.0:
            q_taus[done] = float(rng.uniform(0.05, 1.0))
    # one optimizer call over the 1,000 states, each with its own n_ec and epsilon
    res = optimize_tau_throughput_batch(
        stack_coeffs([co for _, co in drawn]),
        np.array([cfg.n_ec for cfg, _ in drawn]), np.array([cfg.epsilon for cfg, _ in drawn]),
    )
    worst_bits = 0.0
    taus = np.linspace(1e-4, 1.0, 10_000)
    for done, (cfg, coeffs) in enumerate(drawn):
        ks = solve_k_batch(taus, coeffs.a, coeffs.b, coeffs.c, cfg.n_ec, cfg.epsilon)
        assert np.all(np.diff(ks) >= -1e-9), f"draw {done}: cap not monotone"
        rates = np.log2((taus * (coeffs.d + coeffs.e) + 1.0)
                        / ((taus * coeffs.e + 1.0) * (1.0 + taus * ks)))
        achieved = res.R_s_star[done] if res.transmit[done] else 0.0
        shortfall = float(np.max(rates)) - achieved
        assert shortfall <= 1e-6, f"draw {done}: shortfall {shortfall:.2e} bits"
        worst_bits = max(worst_bits, shortfall)
        if done in q_taus:
            ks = np.linspace(0.0, k_max_tau1(coeffs.a, coeffs.c, cfg.epsilon), 64)
            qs = q_of_k(ks, q_taus[done], coeffs.a, coeffs.b, coeffs.c, cfg.n_ec, cfg.epsilon)
            # strictly decreasing until the survival factor underflows to -eps
            assert np.all(np.diff(qs) <= 0.0), "survival gap not decreasing"
            live = qs > -cfg.epsilon * (1.0 - 1e-9)
            assert np.all(np.diff(qs[live]) < 0.0), "survival gap flat before saturation"
    print(f"\nACCEPTANCE 4 PASS: 1000 draws, worst shortfall {worst_bits:.2e} <= 1e-6 bits")


def test_acceptance_5_mrt_throughput_closed_form():
    """Exponential-integral sum vs direct 2-D quadrature on a 3x3 grid."""
    t0 = time.monotonic()
    worst = 0.0
    for p_dbm in (50.0, 55.0, 60.0):
        for k in (0.0, 0.05, 0.1):
            cfg = SystemConfig(M=100, N_D=20, N_C=16, P_dBm=p_dbm,
                               epsilon=0.01, k_tx=k, k_rx=k)
            closed = mrt_throughput_closed_form(cfg)
            direct = mrt_throughput_quad2d(cfg)
            rel = abs(closed - direct) / max(abs(direct), 1e-9)
            assert rel <= 1e-3, f"P={p_dbm}, k={k}: rel gap {rel:.2e}"
            worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 120s budget"
    print(f"\nACCEPTANCE 5 PASS: 3x3 grid, worst rel gap {worst:.2e} <= 1e-3, {elapsed:.1f}s")


def test_acceptance_6_impairment_ceiling():
    """Rate factors past the impairment ceiling are certain outages; ideal
    hardware escapes as power grows."""
    target = SecrecyTarget(6.0)
    gamma3 = 1.02 / 0.02
    assert math.isclose(math.log2(gamma3), 5.672, abs_tol=5e-4)
    for p_dbm in (5.0, 25.0, 45.0, 65.0, 85.0, 105.0):
        cfg = SystemConfig(M=100, N_D=20, N_C=16, P_dBm=p_dbm, R_s=6.0, k_tx=0.1, k_rx=0.1)
        coeffs = make_coeffs(cfg, 16.0, 4.0)
        bd = sop_overall(1.0, target, coeffs, cfg.n_ec)
        assert bd.branch == SopBranch.ALWAYS_OUTAGE and bd.value == 1.0

    rng = np.random.Generator(np.random.Philox(606))
    gains = np.array([(float(rng.gamma(16, 1.0)), float(rng.gamma(4, 1.0))) for _ in range(300)])
    means = []
    for p_dbm in (58.0, 66.0, 74.0):
        cfg = SystemConfig(M=100, N_D=20, N_C=16, P_dBm=p_dbm, R_s=6.0, k_tx=0.0, k_rx=0.0)
        coeffs = coeffs_from_gains(cfg, gains[:, 0], gains[:, 1])
        gate = sop_overall(1.0, target, coeffs, cfg.n_ec)
        accepted = np.flatnonzero(gate.branch != SopBranch.SOURCE_SILENT)
        _, vals = minimize_sop_tau(target, coeffs.take(accepted), cfg.n_ec)
        means.append(float(np.mean(vals)))
    assert means[0] > means[1] > means[2]
    assert means[-1] < 1e-3
    print(f"\nACCEPTANCE 6 PASS: ceiling branch certain at all powers; ideal-hardware "
          f"SOP falls {means[0]:.3g} -> {means[-1]:.3g} with power")


def _rows_by(rows, **match):
    out = [r for r in rows if all(r[k] == v for k, v in match.items())]
    return sorted(out, key=lambda r: r["swept_value"])


def test_acceptance_7_trend_suite():
    """Figure-level trends with Monte-Carlo error margins."""
    # SOP versus common paths (fig3 preset)
    fig3 = cli.preset_specs("fig3", trials=500, uv_samples=800, seed=42)[0]
    rows3 = cli.run_sweep(fig3)
    assert cli.check_rows(rows3) == []
    for variant in {r["variant"] for r in rows3}:
        for scheme in ("mrt", "an_opa"):
            series = _rows_by(rows3, variant=variant, scheme=scheme)
            for lo, hi in zip(series, series[1:]):
                slack = 4.0 * (lo["mc_stderr"] + hi["mc_stderr"]) + 0.01
                assert hi["analytic"] >= lo["analytic"] - slack, (
                    f"fig3 {variant}/{scheme}: SOP fell {lo['analytic']:.4f} -> {hi['analytic']:.4f}"
                )
        for an_row, mrt_row in zip(
            _rows_by(rows3, variant=variant, scheme="an_opa"),
            _rows_by(rows3, variant=variant, scheme="mrt"),
        ):
            assert an_row["analytic"] <= mrt_row["analytic"] + 1e-9

    # optimal split versus power and impairment level (fig5 preset)
    fig5 = cli.preset_specs("fig5", trials=300, uv_samples=500, seed=42)[0]
    rows5 = cli.run_sweep(fig5)
    assert cli.check_rows(rows5) == []
    variants5 = sorted({r["variant"] for r in rows5})
    for variant in variants5:
        series = _rows_by(rows5, variant=variant)
        taus = [r["tau_star_mean"] for r in series if not math.isnan(r["tau_star_mean"])]
        for lo, hi in zip(taus, taus[1:]):
            assert hi <= lo + 0.01, f"fig5 {variant}: tau* rose {lo:.4f} -> {hi:.4f} with P"
    by_value = {}
    for r in rows5:
        if not math.isnan(r["tau_star_mean"]):
            by_value.setdefault(r["swept_value"], {})[r["k_tx"]] = r["tau_star_mean"]
    for value, taus_by_k in by_value.items():
        ks = sorted(taus_by_k)
        for k_lo, k_hi in zip(ks, ks[1:]):
            assert taus_by_k[k_hi] <= taus_by_k[k_lo] + 0.01, (
                f"fig5 P={value}: tau* rose with impairment {k_lo} -> {k_hi}"
            )

    # throughput ordering and growth (fig6 presets)
    rows6 = []
    for spec in cli.preset_specs("fig6", trials=250, uv_samples=500, seed=42):
        rows6.extend(cli.run_sweep(spec))
    assert cli.check_rows(rows6) == []
    for variant in sorted({r["variant"] for r in rows6}):
        opa = _rows_by(rows6, variant=variant, scheme="opa")
        equal = _rows_by(rows6, variant=variant, scheme="equal")
        for o, e in zip(opa, equal):
            assert o["analytic"] >= e["analytic"] - 1e-9
        for lo, hi in zip(opa, opa[1:]):
            slack = 4.0 * (lo["mc_stderr"] + hi["mc_stderr"])
            assert hi["analytic"] >= lo["analytic"] - slack, (
                f"fig6 {variant}: throughput fell with P"
            )
    # impairments cost throughput at every power
    ideal = _rows_by(rows6, variant="k_rx=0.0;k_tx=0.0", scheme="opa")
    impaired = _rows_by(rows6, variant="k_rx=0.1;k_tx=0.1", scheme="opa")
    for i_row, m_row in zip(ideal, impaired):
        slack = 4.0 * (i_row["mc_stderr"] + m_row["mc_stderr"])
        assert m_row["analytic"] <= i_row["analytic"] + slack

    # split that maximizes throughput collapses toward AN at high power
    # (fig7).  The collapse to zero needs the impairment ceiling: with ideal
    # hardware both link scales keep growing and the optimal split levels
    # off at a positive constant instead.
    fig7 = cli.preset_specs("fig7", trials=250, uv_samples=400, seed=42)[0]
    rows7 = cli.run_sweep(fig7)
    assert cli.check_rows(rows7) == []
    for variant in sorted({r["variant"] for r in rows7}):
        series = _rows_by(rows7, variant=variant)
        taus = [r["tau_star_mean"] for r in series]
        assert taus[0] >= 0.9, f"fig7 {variant}: tau* at lowest power is {taus[0]:.3f}"
        impaired = series[0]["k_tx"] > 0.0
        if impaired:
            assert taus[-1] < 0.05, f"fig7 {variant}: tau* at highest power is {taus[-1]:.3f}"
        else:
            assert taus[-1] < 0.45, f"fig7 {variant}: ideal-hardware plateau at {taus[-1]:.3f}"
        for lo, hi in zip(taus, taus[1:]):
            assert hi <= lo + 0.02
    print("\nACCEPTANCE 7 PASS: fig3/fig5/fig6/fig7 trends hold with MC margins")


def test_acceptance_8_structural_invariants():
    """Basis unitarity, AN null-space leakage, gain laws, SNDR synthesis."""
    for m in (1, 2, 4, 16, 64, 100):
        w = build_basis(m)
        assert np.max(np.abs(w.conj().T @ w - np.eye(m))) <= 1e-10

    rng = np.random.Generator(np.random.Philox(808))
    m = 64
    w = build_basis(m)
    worst_leak = 0.0
    for _ in range(1000):
        sets = sample_path_sets(m, 10, 8, 4, rng)
        g_d, _, _ = sample_channel(sets, 1, rng)
        h_d = channel_row(w, sets.xi_d, g_d[0], 1e-9)
        _, f_an = an_beamformer(w, sets, h_d)
        z = (rng.standard_normal(f_an.shape[1]) + 1j * rng.standard_normal(f_an.shape[1]))
        denom = np.linalg.norm(h_d) * max(np.linalg.norm(f_an @ z), 1e-300)
        leak = abs(h_d @ (f_an @ z)) / denom
        worst_leak = max(worst_leak, leak)
    assert worst_leak <= 1e-9

    n = 100_000
    sets = sample_path_sets(m, 12, 10, 6, rng)
    _, _, draw = sample_channel(sets, n, rng)
    for name, sample, dist in (
        ("G_hat", draw.G_hat, stats.gamma(6)),
        ("G_check", draw.G_check, stats.gamma(6)),
        ("u", draw.u, stats.expon()),
        ("v", draw.v, stats.gamma(4)),
    ):
        p = stats.kstest(sample, dist.cdf).pvalue
        assert p > 0.001, f"{name}: KS p-value {p:.5f}"
    corr = float(np.corrcoef(draw.u, draw.v)[0, 1])
    assert abs(corr) < 0.01

    cfg = SystemConfig(M=64, N_D=12, N_C=6, P_dBm=55.0, k_tx=0.1, k_rx=0.1)
    recon = empirical_sndr_from_distortion(cfg, 0.5, 100_000, 3030)
    assert abs(recon.y_d.value - recon.y_d_formula) <= 3.0 * recon.y_d.std_error
    assert abs(recon.y_e.value - recon.y_e_formula) <= 3.0 * recon.y_e.std_error
    print(f"\nACCEPTANCE 8 PASS: unitarity <= 1e-10, worst AN leak {worst_leak:.2e} <= 1e-9, "
          f"KS and SNDR synthesis within tolerance")
