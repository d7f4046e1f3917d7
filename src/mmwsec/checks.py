"""One check per pairing of a closed form with its independent oracle,
called by ``mmwsec validate``, the acceptance suite and the unit tests at
their own budgets and tolerances.  A check takes the states, splits, seeds
and grids its caller drew, runs both sides and returns a ``Check``; a
margin <= 1 passes, and NaN fails.  The oracles' own quadrature and
blocks of states are the public rules of ``numerics``."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import montecarlo, numerics, opa_sop, sndr, sop, throughput
from .config import coeffs_from_gains

# the fall of k(tau) from one split to the next that a solved grid may show:
# the secrecy cap is non-decreasing in tau, up to the solver's tolerance
_K_DROP = 1e-9


class Check(NamedTuple):
    """The worst gap, the worst gap/tol margin and the line ``validate`` prints."""

    gap: float
    margin: float
    detail: str


def _worst(x) -> float:
    """Largest element, 0 for none; NaN propagates."""
    return float(np.max(np.asarray(x, float), initial=0.0))


def _vs_estimates(pairs, tol: float, sigmas: float) -> tuple[float, float]:
    """Worst gap |closed - mc| and worst margin of (closed value, McEstimate)
    pairs, each tolerance max(tol, sigmas * standard error)."""
    gaps = [abs(closed - est.value) for closed, est in pairs]
    return _worst(gaps), _worst(np.divide(gaps, [max(tol, sigmas * est.std_error) for _, est in pairs]))


def sop_conditional_vs_mc(cases, n: int, tol: float, sigmas: float) -> Check:
    """``sop.sop_conditional`` vs ``montecarlo.empirical_sop_conditional``
    at each (coeffs, feasible tau, target, n_ec, seed) of ``cases``, with
    ``n`` samples each."""
    gap, margin = _vs_estimates([
        (sop.sop_conditional(tau, target, coeffs, n_ec),
         montecarlo.empirical_sop_conditional(coeffs, tau, target, n_ec, n, seed))
        for coeffs, tau, target, n_ec, seed in cases
    ], tol, sigmas)
    return Check(gap, margin, f"worst gap/tol = {margin:.3f}")


def cdf_Y_E_vs_mc(cases, n: int, tol: float, sigmas: float) -> Check:
    """``sop.cdf_Y_E`` vs ``montecarlo.empirical_cdf_Y_E`` at every level of
    each (coeffs, tau, ascending levels, n_ec, seed) of ``cases``."""
    gap, margin = _vs_estimates([
        pair for coeffs, tau, levels, n_ec, seed in cases
        for pair in zip(sop.cdf_Y_E(levels, tau, coeffs, n_ec), montecarlo.empirical_cdf_Y_E(coeffs, tau, levels, n, seed, n_ec))
    ], tol, sigmas)
    return Check(gap, margin, f"max pointwise gap = {gap:.4f}")


def opa_sop_vs_grid(target, states, n_ec, u, v, points: int, tol: float) -> Check:
    """``opa_sop.optimize_tau_sop_batch`` vs the best of ``points`` even
    splits of each state's feasible set (tau_min, 1], with phi at the given
    (u, v) (u = 1, v = n_ec is the optimizer's mean policy); every state must
    be able to transmit.  The gap is the grid's relative lead (best - phi*) /
    best, 0 where the optimizer wins; phi is a ratio of positive terms."""
    objective = opa_sop.optimize_tau_sop_batch(target, states, n_ec, u, v).objective_value
    t_min = np.atleast_1d(sop.tau_min(target, states))  # scalar coefficients are one state
    best, _ = opa_sop.phi_grid_best(t_min, opa_sop.phi_coeffs(u, v, states), points)
    gap = _worst((best - objective) / np.abs(best))
    return Check(gap, gap / tol, f"worst relative shortfall = {gap:.2e}")


def throughput_opt_vs_grid(states, n_ec, epsilon, taus: np.ndarray, tol: float) -> Check:
    """``throughput.optimize_tau_throughput_batch`` vs the best rate over the
    ascending splits ``taus`` with k from ``throughput.solve_k_batch``;
    ``n_ec`` and ``epsilon`` are shared or per state.  The gap is the grid's
    lead in bits, 0 where the optimizer wins (its rate is 0 where it cannot
    transmit).  The same k grid must not fall: a drop of more than 1e-9
    from one split to the next fails the check."""
    rate = throughput.optimize_tau_throughput_batch(states, n_ec, epsilon).R_s_star
    per_state = np.broadcast_arrays(states.a, states.b, states.c, states.d, states.e, n_ec, epsilon)
    best = np.empty(rate.shape)
    drops = []
    for rows in numerics.state_blocks(rate.size, taus.size):
        a, b, c, d, e, n, eps = (x[rows, None] for x in per_state)  # a row per state
        ks = throughput.solve_k_batch(taus, a, b, c, n, eps)
        best[rows] = np.max(throughput.rs_of_tau(taus, ks, d, e), axis=1)
        drops.append(_worst(-np.diff(ks, axis=1)))
    gap, drop = _worst(best - rate), _worst(drops)
    detail = f"worst shortfall = {gap:.2e} bits"
    if drop <= _K_DROP:
        return Check(gap, gap / tol, detail)
    return Check(gap, math.inf, f"{detail}; k(tau) falls by {drop:.2e}")


def mrt_throughput_dual_quadrature(configs, tol: float) -> Check:
    """``throughput.mrt_throughput_closed_form`` vs the direct 2-D quadrature
    ``mrt_throughput_quad2d`` per configuration: gap |closed - direct| /
    max(|direct|, 1e-12); the detail names the worst configuration's pair."""
    pairs = [(throughput.mrt_throughput_closed_form(cfg), throughput.mrt_throughput_quad2d(cfg)) for cfg in configs]
    rels = [abs(closed - direct) / max(abs(direct), 1e-12) for closed, direct in pairs]
    worst = int(np.argmax(rels))  # the first NaN, if any
    (closed, direct), rel = pairs[worst], rels[worst]
    return Check(rel, rel / tol, f"closed={closed:.6g} direct={direct:.6g} rel={rel:.2e}")


def sndr_reconstruction(cfg, tau: float, n: int, seed: int, sigmas: float) -> Check:
    """Both closed-form SNDRs vs ``montecarlo.empirical_sndr_from_distortion``,
    their signal-level synthesis at one drawn state: gap |mc - formula| /
    formula, the larger of the two, tolerance ``sigmas`` standard errors.
    It needs a common path: at N_C = 0 the eavesdropper's SNDR is 0, and a
    relative gap to it is undefined, so that is a ValueError."""
    if cfg.N_C == 0:
        raise ValueError("sndr_reconstruction needs N_C >= 1: at N_C = 0 the eavesdropper's SNDR is 0, "
                         "so its relative gap is undefined")
    rec = montecarlo.empirical_sndr_from_distortion(cfg, tau, n, seed)
    formula = np.array([rec.y_d_formula, rec.y_e_formula])
    diff = np.abs([rec.y_d.value, rec.y_e.value] - formula)
    margin = _worst(diff / (sigmas * np.array([rec.y_d.std_error, rec.y_e.std_error])))
    detail = f"y_D {rec.y_d.value:.4g}~{rec.y_d_formula:.4g}, y_E {rec.y_e.value:.4g}~{rec.y_e_formula:.4g}"
    return Check(_worst(diff / formula), margin, detail)


def _e1_scaled_integral(zs: np.ndarray) -> np.ndarray:
    """exp(z)*E1(z) = int_0^inf exp(-t)/(t + z) dt (NIST DLMF 6.7(i)), taken
    with t = z*(e^s - 1) as int_0^inf exp(-z*expm1(s)) ds, a smooth integrand
    bounded by 1, by ``numerics.gk21`` to 1e-14 relative.  Past s =
    log1p(745/z) the integrand is below exp(-745), under the smallest double."""
    zs = np.asarray(zs, float)
    upper = np.log1p(745.0 / zs)
    return numerics.gk21(lambda s, owner: np.exp(-zs[owner, None] * np.expm1(s)),
                         np.stack([np.zeros_like(upper), upper], axis=-1), 0.0, 1e-14)


def e1_scaled(zs: np.ndarray, tol: float) -> Check:
    """``numerics.e1_scaled``, exp(z)*E1(z), vs its integral form
    ``_e1_scaled_integral``: gap the worst relative error."""
    ref = _e1_scaled_integral(zs)
    gap = _worst(np.abs(numerics.e1_scaled(zs) - ref) / ref)
    return Check(gap, gap / tol, f"worst relative error = {gap:.2e}")


def high_snr_ceiling(states, powers, ratio_tol: float, tol: float) -> Check:
    """``sndr.high_snr_ceiling`` vs the finite-power destination SNDR of each
    impaired (cfg, g_hat, g_check, tau) of ``states`` at each transmit power
    of ``powers`` (dBm).  The relative gap 1 - y_D/ceiling must be positive
    and within ``tol`` of its law 1/(tau*e + 1) at every power, and each
    step's gap ratio within ``ratio_tol`` of its law (1 + tau*e_k)/(1 +
    tau*e_k+1).  The reported gap is the worst at the last power.  No
    Monte-Carlo sample is drawn."""
    gaps, laws = np.array([
        [(1.0 - sndr.sndr_destination(tau, co.d, co.e) / sndr.high_snr_ceiling(co.k_tot2), 1.0 / (tau * co.e + 1.0))
         for co in (coeffs_from_gains(cfg.with_overrides(P_dBm=p), g_hat, g_check) for p in powers)]
        for cfg, g_hat, g_check, tau in states
    ]).transpose(2, 0, 1)
    ratios = gaps[:, 1:] / gaps[:, :-1]
    gap = _worst(gaps[:, -1])
    margin = _worst([_worst(np.abs(gaps - laws)) / tol,
                     _worst(np.abs(ratios - laws[:, 1:] / laws[:, :-1])) / ratio_tol])
    detail = f"gap ratios {ratios.min():.9f}-{ratios.max():.9f}, worst gap {gap:.2e} at {powers[-1]:g} dBm"
    return Check(gap, margin if np.all(gaps > 0.0) else math.inf, detail)
