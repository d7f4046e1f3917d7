"""Throughput-maximizing power allocation under a secrecy outage cap.

The secrecy-rate cap at split tau is set by the (1-eps)-quantile of the
eavesdropper SNDR, expressed through the implicit function k(tau).  In the
variable x = k/(a - c*tau*k) its defining equation Q(k) = 0 turns into an
increasing, concave equation in x that does not involve a or c, which
Newton's method solves from x = 0 without a bracket.  The rate optimizer
works on arrays of channel states: one scan grid for all of them, then
one batched false-position search for every stationary point.  The module
also carries the full-power (MRT) closed forms: the per-state rate, its
transmission threshold, and the expected throughput as an
exponential-integral sum over the common gain, with a direct 2-D
quadrature of the rate as its check.  Both integrate with one adaptive
21-point Gauss-Kronrod rule that works on batches of integrals and
evaluates each integrand on whole arrays of nodes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np
from scipy import special

from .channel import sample_gain_scalars
from .config import EffectiveCoeffs, SystemConfig
from .errors import ConvergenceError, InfeasibleError
from .montecarlo import McEstimate, as_rng, sample_mean
from .sndr import high_snr_ceiling, sndr_destination
from .sop import per_value

LN2 = math.log(2.0)

# z above which exp(z)*E1(z) comes from the continued fraction instead of
# scipy's exp1: exp1(z) underflows and exp(z) overflows for large z, and
# from z = 5 up, 30 terms of the fraction, evaluated backward, stay within
# 2.4e-16 relative of 40-digit mpmath (3,000 points on [5, 1e7])
_E1_CF_CUTOFF = 5.0
_E1_CF_TERMS = 30


# ---------------------------------------------------------------------------
# scaled exponential integral exp(z) * E1(z)
# ---------------------------------------------------------------------------

def _e1_scaled(z):
    """exp(z) * E1(z) elementwise for z > 0, stable for arbitrarily large z.

    Up to z = 5 it is scipy's exp1 times exp; above, the continued fraction
    1/(z+1 - 1/(z+3 - 4/(z+5 - 9/(z+7 - ...)))) cut at a fixed depth.
    Both branches are evaluated on z clipped to their side of the cutoff.
    """
    z = np.asarray(z, float)
    small = np.minimum(z, _E1_CF_CUTOFF)
    large = np.maximum(z, _E1_CF_CUTOFF)
    t = large + (2 * _E1_CF_TERMS + 1.0)
    for i in range(_E1_CF_TERMS, 0, -1):
        t = large + (2 * i - 1.0) - (i * i) / t
    return np.where(z <= _E1_CF_CUTOFF, special.exp1(small) * np.exp(small), 1.0 / t)


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature over batches of integrals
# ---------------------------------------------------------------------------

# QUADPACK's 21-point Kronrod nodes on [0, 1) (Piessens et al., QUADPACK,
# 1983), largest first, with their weights; the embedded 10-point Gauss
# rule uses every other node from the largest
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208122301273, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# the 21 nodes on [-1, 1], the Kronrod weights, and the Kronrod minus the
# Gauss weights, whose sum against f is K21 - G10
_GK_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_WEIGHTS = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_GAP = _GK_WEIGHTS.copy()
_GK_GAP[1:10:2] -= _WG
_GK_GAP[19:10:-2] -= _WG
# bisection rounds, and panels of one integral, after which _gk21 gives up
_GK_MAX_ROUNDS = 50
_GK_MAX_PANELS = 500


def _gk21(f, a, b, epsabs: float, epsrel: float):
    """Integrals of f from a to b, elementwise over broadcastable a/b arrays.

    An adaptive 21-point Gauss-Kronrod rule.  Each round evaluates the new
    panels of every open integral in one call ``f(x, owner)``: x is
    (panels x 21), and owner gives each panel's integral as an index into
    the flattened batch.  A panel's error estimate is |K21 - G10|, the gap
    between its Kronrod sum and the embedded 10-point Gauss sum.  An
    integral closes when its summed estimate is at most
    max(epsabs, epsrel*|value|); until then, each of its panels whose
    estimate exceeds its share of that bound (the share in proportion to
    the panel's width) is bisected.  An integral depends only on its own
    panels, never on the rest of the batch.  Raises ConvergenceError after
    50 rounds or past 500 panels for one integral.
    """
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    shape = a.shape
    a, b = a.ravel(), b.ravel()
    width = b - a
    value = np.empty(a.size)
    live = np.ones(a.size, bool)
    # evaluated panels of the open integrals, and the panels still to evaluate
    lo, hi, own, val, err = np.empty(0), np.empty(0), np.empty(0, int), np.empty(0), np.empty(0)
    new_lo, new_hi, new_own = a, b, np.arange(a.size)
    for _ in range(_GK_MAX_ROUNDS):
        half = 0.5 * (new_hi - new_lo)
        fx = f((new_lo + half)[:, None] + half[:, None] * _GK_NODES, new_own)
        lo, hi, own = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi]), np.concatenate([own, new_own])
        val = np.concatenate([val, (fx * _GK_WEIGHTS).sum(axis=1) * half])
        err = np.concatenate([err, np.abs((fx * _GK_GAP).sum(axis=1)) * half])
        total = np.bincount(own, val, a.size)
        tol = np.maximum(epsabs, epsrel * np.abs(total))
        # written so that a NaN estimate keeps its integral open
        settled = live & (np.bincount(own, err, a.size) <= tol)
        value[settled] = total[settled]
        live &= ~settled
        if not live.any():
            return value.reshape(shape)
        keep = live[own]
        lo, hi, own, val, err = lo[keep], hi[keep], own[keep], val[keep], err[keep]
        split = ~(err <= tol[own] * (hi - lo) / width[own])
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_own = np.concatenate([own[split], own[split]])
        lo, hi, own, val, err = lo[~split], hi[~split], own[~split], val[~split], err[~split]
        if np.bincount(np.concatenate([own, new_own])).max() > _GK_MAX_PANELS:
            break
    raise ConvergenceError(
        f"Gauss-Kronrod quadrature did not settle within {_GK_MAX_ROUNDS} rounds and "
        f"{_GK_MAX_PANELS} panels per integral for {int(live.sum())} of {live.size} integrals"
    )


# ---------------------------------------------------------------------------
# the implicit secrecy-cap function k(tau)
# ---------------------------------------------------------------------------

# Newton steps allowed for k(tau); the preset states settle in 2-6
_NEWTON_MAX_ITERS = 100
# relative size of the Newton step after which x(tau) counts as settled:
# from below the root, the error left after a step of relative size r is at
# most r^2/2 relative, so 1e-9 leaves round-off only
_NEWTON_RTOL = 1e-9
# bracket width at which a root of bracketed_roots counts as found, and the
# false-position steps allowed to get there
_ROOT_XTOL = 1e-12
_ROOT_MAX_ITERS = 100


@dataclass(frozen=True)
class KTauSolver:
    """Eavesdropper-side scalars for solving k(tau).

    a, b, c are the leakage, artificial-noise and transmit-distortion
    scales of one channel state; epsilon is the outage cap.
    """

    a: float
    b: float
    c: float
    n_ec: int
    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        if self.n_ec < 1:
            raise InfeasibleError("n_ec must be at least 1 to carry artificial noise")
        if min(self.a, self.b, self.c) < 0.0:
            raise ValueError("coefficients a, b, c must be non-negative")


def q_of_k(k, tau, a, b, c, n_ec, epsilon):
    """Survival gap Q(k): eavesdropper outage survival at level tau*k, minus eps.

    Zero at k = k(tau); positive below, negative above (Q is strictly
    decreasing in k on the feasible bracket).  Elementwise over
    broadcastable k, tau, a, b, c, n_ec and epsilon.
    """
    rest = a - c * tau * k
    if np.any(rest <= 0.0):
        raise ValueError(f"a - c*tau*k must stay positive (got {np.min(rest):.3g})")
    bracket = 1.0 + (1.0 - tau) * b * k / rest
    return np.exp(-k / rest) * per_value(lambda n, y: np.power(y, -n), n_ec, bracket) - epsilon


def k_max_tau1(a, c, epsilon):
    """Closed-form k(1): the cap at full power, -a*ln(eps) / (1 - c*ln(eps)),
    elementwise over broadcastable a, c and epsilon.  ln(eps) is taken as
    ``solve_k_batch`` takes it, so k(1) has its bits at tau = 1."""
    if not np.all((0.0 < epsilon) & (epsilon <= 1.0)):
        raise ValueError("epsilon must lie in (0, 1]")
    if np.any((a < 0.0) | (c < 0.0)):
        raise ValueError("a and c must be non-negative")
    log_eps = per_value(math.log, epsilon)
    return -a * log_eps / (1.0 - c * log_eps)


def _solve_x(tau, b, n_ec, log_eps):
    """x(tau) = k / (a - c*tau*k) elementwise over broadcastable tau, b, n_ec and ln(eps).

    In x, Q(k) = 0 becomes

        h(x) = x + n_ec * log1p((1 - tau)*b*x) + ln(eps) = 0,

    free of a and c.  h is increasing and concave with h(0) = ln(eps) <= 0,
    so Newton started at x = 0 climbs to the root without overshooting.
    Each element stops on its own last step, so its value does not depend
    on the rest of the batch; callers take ln(eps) with ``sop.per_value``.
    """
    tau = np.asarray(tau, float)
    s = (1.0 - tau) * np.asarray(b, float)
    ns = n_ec * s
    x = np.zeros(np.broadcast(s, n_ec, log_eps).shape)
    live = np.ones(x.shape, bool)
    for _ in range(_NEWTON_MAX_ITERS):
        sx = s * x
        step = (x + n_ec * np.log1p(sx) + log_eps) / (1.0 + ns / (1.0 + sx))
        x = np.where(live, x - step, x)
        live &= np.abs(step) > _NEWTON_RTOL * x
        if not live.any():
            return x
    raise ConvergenceError(
        f"Newton iteration for k(tau) did not settle in {_NEWTON_MAX_ITERS} steps "
        f"at {int(live.sum())} of {live.size} points"
    )


def _k_of_x(x, tau, a, c):
    return x * a / (1.0 + c * tau * x)


def solve_k_batch(tau, a, b, c, n_ec, epsilon):
    """k(tau) elementwise over broadcastable tau/a/b/c/n_ec/epsilon arrays.

    x(tau) is solved over the broadcast of tau, b, n_ec and epsilon alone;
    then k = x*a / (1 + c*tau*x), which keeps a - c*tau*k > 0 and reduces
    to ``k_max_tau1`` at tau = 1.
    """
    return _k_of_x(_solve_x(tau, b, n_ec, per_value(math.log, epsilon)), tau, a, c)


def solve_k(tau: float, solver: KTauSolver) -> float:
    """k(tau) of one channel state at one split value."""
    if not (0.0 <= tau <= 1.0):
        raise ValueError("tau must lie in [0, 1]")
    return float(solve_k_batch(tau, solver.a, solver.b, solver.c, solver.n_ec, solver.epsilon))


def _dk_dtau(x, tau, a, b, c, n_ec):
    # dx/dtau = -h_tau / h_x, then differentiate k = a*x / (1 + c*tau*x);
    # no division by a, so a = 0 gives k = 0 with slope 0
    s = (1.0 - tau) * b
    dx = n_ec * b * x / (1.0 + s * x + n_ec * s)
    return a * (dx - c * x * x) / (1.0 + c * tau * x) ** 2


def dk_dtau(tau, coeffs: EffectiveCoeffs, n_ec, epsilon):
    """Implicit-function derivative of k(tau), elementwise over tau and the
    states (n_ec and epsilon too); x(tau) is solved as the optimizer does."""
    x = _solve_x(tau, coeffs.b, n_ec, per_value(math.log, epsilon))
    return _dk_dtau(x, tau, coeffs.a, coeffs.b, coeffs.c, n_ec)


# ---------------------------------------------------------------------------
# secrecy rate and its optimizer
# ---------------------------------------------------------------------------

def _rate(tau, k, d, e):
    return np.log2((tau * (d + e) + 1.0) / ((tau * e + 1.0) * (1.0 + tau * k)))


def _rate_slope(tau, x, a, b, c, d, e, n_ec):
    """dR_s/dtau at x = x(tau), in bits/s/Hz per unit split."""
    k = _k_of_x(x, tau, a, c)
    dest = d / ((tau * (d + e) + 1.0) * (tau * e + 1.0))
    cap = (k + tau * _dk_dtau(x, tau, a, b, c, n_ec)) / (1.0 + tau * k)
    return (dest - cap) / LN2


def rs_of_tau(tau, k, coeffs: EffectiveCoeffs):
    """Secrecy rate log2((tau(d+e)+1) / ((tau*e+1)(1+tau*k))) in bits/s/Hz."""
    return _rate(tau, k, coeffs.d, coeffs.e)


def drs_dtau(tau, coeffs: EffectiveCoeffs, n_ec, epsilon):
    """Derivative of the secrecy rate in tau, using the implicit dk/dtau,
    elementwise over tau and the states (n_ec and epsilon too)."""
    x = _solve_x(tau, coeffs.b, n_ec, per_value(math.log, epsilon))
    return _rate_slope(tau, x, coeffs.a, coeffs.b, coeffs.c, coeffs.d, coeffs.e, n_ec)


class ThroughputCase(enum.Enum):
    CONCAVE_BOUNDARY = "Concave_Boundary"
    CONCAVE_INTERIOR = "Concave_Interior"
    NONCONCAVE_TAU1_VS_1 = "NonConcave_Tau1_vs_1"
    NONCONCAVE_TAU1P_VS_TAU3 = "NonConcave_Tau1p_vs_Tau3"
    SILENT = "Silent"


@dataclass(frozen=True)
class ThroughputResult:
    """Rate-optimal split, rate, case, transmit flag and cap; arrays over the
    states when built by ``optimize_tau_throughput_batch``."""

    tau_star: float
    R_s_star: float
    case_tag: ThroughputCase
    transmit: bool
    k_star: float


# Scan grid of the rate optimizer: 33 log-spaced splits from 1e-6 up to
# 0.1, then 96 linear ones up to 1.0; concavity is probed at 64 of its
# interior points.
_SCAN_GRID = np.concatenate([np.geomspace(1e-6, 0.1, 33, endpoint=False), np.linspace(0.1, 1.0, 96)])
_CONCAVITY_IDX = np.linspace(1, len(_SCAN_GRID) - 2, 64).astype(int)
# states scanned together, which bounds the (states x 129) temporaries
_SCAN_BLOCK_STATES = 256


def bracketed_roots(slope, lo, hi, f_lo, f_hi, *args):
    """Roots of slope(t, *args) bracketed elementwise by [lo, hi] (Illinois false position).

    Both power-split optimizers use it: this module's rate optimizer, on
    the rate slope, and ``opa_sop.minimize_sop_tau``, on the slope of log
    SOP.  ``lo``, ``hi``, ``f_lo`` and ``f_hi`` are 1-d, one entry per
    bracket, with f_lo and f_hi the slopes at the bracket ends, which must
    differ in sign; ``args`` are arrays with one entry per bracket.  Converged elements leave the working set, so each
    root depends only on its own bracket and arguments.  Raises
    ConvergenceError when a bracket is not narrower than 1e-12 after 100
    steps.
    """
    root = np.empty(lo.shape)
    live = np.arange(lo.size)
    for _ in range(_ROOT_MAX_ITERS):
        t = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        f_t = slope(t, *args)
        crossed = (f_t > 0.0) != (f_hi > 0.0)
        lo, f_lo = np.where(crossed, hi, lo), np.where(crossed, f_hi, 0.5 * f_lo)
        hi, f_hi = t, f_t
        done = (np.abs(hi - lo) <= _ROOT_XTOL) | (f_t == 0.0)
        root[live[done]] = t[done]
        if done.all():
            return root
        keep = ~done
        live, lo, hi, f_lo, f_hi = live[keep], lo[keep], hi[keep], f_lo[keep], f_hi[keep]
        args = tuple(x[keep] for x in args)
    raise ConvergenceError(
        f"bracketed root search did not settle in {_ROOT_MAX_ITERS} steps for {live.size} brackets"
    )


def optimize_tau_throughput_batch(coeffs: EffectiveCoeffs, n_ec, epsilon) -> ThroughputResult:
    """Maximize the capped secrecy rate over the power split, per channel state.

    ``coeffs``, ``n_ec`` and ``epsilon`` carry one channel state per
    element (scalars broadcast).  Concavity of the rate in tau is classified
    numerically: central differences of the analytic derivative at 64
    interior points of a fixed 129-point scan grid on [1e-6, 1], scanned
    in blocks of ``_SCAN_BLOCK_STATES`` states.  The concave case follows
    the boundary-or-unique-root rule; otherwise all stationary points found
    by a sign-change scan are compared against the full-power boundary.  A
    channel state whose rate is negative even at the optimum cannot
    transmit: it keeps its split and cap, with rate 0, transmit False and
    the tag Silent.  The stationary points of all states are solved
    together.  The tests and ``mmwsec validate`` check the results against
    dense grids of splits.

    Returns a ThroughputResult of arrays over the states.
    """
    a, b, c, d, e, n_ec, epsilon = np.broadcast_arrays(*(
        np.atleast_1d(np.asarray(x, float)) for x in (coeffs.a, coeffs.b, coeffs.c, coeffs.d, coeffs.e, n_ec, epsilon)
    ))
    grid, idx = _SCAN_GRID, _CONCAVITY_IDX
    # x(tau) on the scan grid depends on a state only through (b, n_ec, eps)
    log_eps = per_value(math.log, epsilon)
    keys, key_of = np.unique(np.column_stack([b, n_ec, log_eps]), axis=0, return_inverse=True)
    x_keys = _solve_x(grid, *keys.T[:, :, None])

    concave, rising, interior = np.empty((3, a.size), bool)
    brackets = []
    for start in range(0, max(a.size, 1), _SCAN_BLOCK_STATES):  # one pass for an empty batch
        rows = slice(start, start + _SCAN_BLOCK_STATES)
        rp = _rate_slope(grid, x_keys[key_of[rows]], *(x[rows, None] for x in (a, b, c, d, e, n_ec)))
        # concavity probe: derivative differences at evenly spread interior points
        second = (rp[:, idx + 1] - rp[:, idx - 1]) / (grid[idx + 1] - grid[idx - 1])
        concave[rows] = cv = np.all(second <= 1e-8, axis=1)
        rising[rows] = up = rp[:, -1] > 0.0  # the rate still climbs at full power
        # stationary points: the first sign change of a concave state that
        # does not rise at full power, every sign change of a non-concave one
        sign = rp > 0.0
        flips = sign[:, :-1] != sign[:, 1:]
        first = flips & (np.cumsum(flips, axis=1) == 1)
        interior[rows] = cv & ~up & flips.any(axis=1)
        i, j = np.nonzero(np.where(cv[:, None], first & ~up[:, None], flips))
        brackets.append((start + i, j, rp[i, j], rp[i, j + 1]))
    owner, left, f_lo, f_hi = (np.concatenate(x) for x in zip(*brackets))
    roots = bracketed_roots(
        lambda t, a, b, c, d, e, n, ln_eps: _rate_slope(t, _solve_x(t, b, n, ln_eps), a, b, c, d, e, n),
        grid[left], grid[left + 1], f_lo, f_hi, *(x[owner] for x in (a, b, c, d, e, n_ec, log_eps)),
    )

    # candidates: full power (unless a concave state has its interior root)
    # and the stationary points; each state keeps its best rate, the larger
    # split on a tie
    cand_state = np.concatenate([np.flatnonzero(~interior), owner])
    cand_tau = np.concatenate([np.ones(int((~interior).sum())), roots])
    cand_k = solve_k_batch(cand_tau, *(x[cand_state] for x in (a, b, c, n_ec, epsilon)))
    cand_rate = _rate(cand_tau, cand_k, d[cand_state], e[cand_state])
    order = np.lexsort((cand_tau, cand_rate, cand_state))
    best = order[np.searchsorted(cand_state[order], np.arange(a.size), side="right") - 1]
    tau_star, k_star, r_star = cand_tau[best], cand_k[best], cand_rate[best]

    # transmission region test at the chosen split
    silent = sndr_destination(tau_star, d, e) + 1e-12 < tau_star * k_star
    cases = np.select(
        [silent, concave & rising, concave, rising],
        [ThroughputCase.SILENT, ThroughputCase.CONCAVE_BOUNDARY, ThroughputCase.CONCAVE_INTERIOR,
         ThroughputCase.NONCONCAVE_TAU1_VS_1],
        ThroughputCase.NONCONCAVE_TAU1P_VS_TAU3,
    )
    rates = np.where(silent, 0.0, np.maximum(r_star, 0.0))
    return ThroughputResult(tau_star, rates, cases, ~silent, k_star)


def optimize_tau_throughput(coeffs: EffectiveCoeffs, solver: KTauSolver) -> ThroughputResult:
    """One-state call of ``optimize_tau_throughput_batch``; returns floats,
    one ThroughputCase and a bool.

    The cap k(tau) uses the solver's a, b, c; the destination side uses
    the coefficients' d, e.
    """
    state = replace(coeffs, a=solver.a, b=solver.b, c=solver.c)
    res = optimize_tau_throughput_batch(state, solver.n_ec, solver.epsilon)
    return ThroughputResult(*(getattr(res, f.name).item() for f in fields(ThroughputResult)))


# ---------------------------------------------------------------------------
# full-power (MRT) closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _MrtScales:
    """Draw-independent constants of the full-power rate of one configuration."""

    a_bar: float
    c_bar: float
    d_bar: float
    e_bar: float
    log_eps: float
    c1: float  # 1 - c_bar*ln(eps)
    c3: float  # 1 - (a_bar + c_bar)*ln(eps)
    ratio: float  # a_bar*e_bar/d_bar
    norm_c: float  # 1/Gamma(N_C), the common-gain pdf normalizer
    norm_dc: float  # 1/Gamma(N_D - N_C), the non-common-gain pdf normalizer

    def rate(self, g_hat, g_check):
        g = g_hat + g_check
        num = (g_check + g_hat * self.c1) * ((self.e_bar + self.d_bar) * g + 1.0)
        den = (self.e_bar * g + 1.0) * (g_check + g_hat * self.c3)
        return np.log2(num / den)

    def threshold(self, g_hat):
        # beta^2 + g(1+u)*beta + g^2*u + g*v = 0 with u = C1 + ratio*ln(eps)
        # and v = (a_bar/d_bar)*ln(eps) <= 0; 1 - u = (c_bar - ratio)*ln(eps)
        # >= 0 is formed without the leading 1, and the discriminant
        # g^2 (1-u)^2 - 4 g v is a sum of non-negative terms
        one_minus_u = (self.c_bar - self.ratio) * self.log_eps
        v = self.a_bar / self.d_bar * self.log_eps
        a1 = g_hat * (2.0 - one_minus_u)
        return 0.5 * (-a1 + np.sqrt((g_hat * one_minus_u) ** 2 - 4.0 * v * g_hat))


def _bar_scales(cfg: SystemConfig) -> _MrtScales:
    """Constants of the full-power rate, built once per configuration."""
    beta_e = cfg.beta_e()
    beta_d = cfg.beta_d()
    a_bar, c_bar, d_bar, e_bar = beta_e, cfg.k_tx**2 * beta_e, beta_d, cfg.k_tot2 * beta_d
    log_eps = math.log(cfg.epsilon)
    return _MrtScales(
        a_bar, c_bar, d_bar, e_bar, log_eps,
        c1=1.0 - c_bar * log_eps,
        c3=1.0 - (a_bar + c_bar) * log_eps,
        ratio=a_bar * e_bar / d_bar,
        norm_c=float(special.rgamma(cfg.N_C)),
        norm_dc=float(special.rgamma(cfg.n_dc)),
    )


def mrt_rate(g_hat, g_check, cfg: SystemConfig):
    """Full-power secrecy rate of a channel state (vectorizes over gains).

    Gain-normalized form: with C1 = 1 - c_bar*ln(eps) and
    C3 = 1 - (a_bar + c_bar)*ln(eps),

        R = log2( (G_check + G_hat*C1) * ((e_bar+d_bar)*G + 1)
                  / ((e_bar*G + 1) * (G_check + G_hat*C3)) ).

    Negative values mean the state is outside the transmission region.
    """
    return _bar_scales(cfg).rate(np.asarray(g_hat, float), np.asarray(g_check, float))


def mrt_rate_direct(coeffs: EffectiveCoeffs, epsilon):
    """Full-power rate from the per-state coefficients, log2((1+Y_D)/(1+k(1))),
    elementwise over the states (epsilon too)."""
    k1 = k_max_tau1(coeffs.a, coeffs.c, epsilon)
    y_d = coeffs.d / (coeffs.e + 1.0)
    return np.log2((1.0 + y_d) / (1.0 + k1))


def mrt_transmit_threshold(g_hat, cfg: SystemConfig):
    """Non-common gain threshold beta: the state transmits iff G_check > beta.

    Root of the quadratic form of the full-power transmission inequality;
    may be negative (always transmit).  Vectorizes over g_hat.
    """
    return _bar_scales(cfg).threshold(np.asarray(g_hat, float))


@lru_cache(maxsize=64)
def _laguerre_rule(order_m: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = special.roots_genlaguerre(160, order_m)
    return nodes, weights / math.gamma(order_m + 1)


def _log_moments(q, m_max: int):
    """E[log2(1 + q*X)] for X ~ Gamma(m+1, 1), for every order m = 0..m_max,
    elementwise over q; the orders lie on a new leading axis.

    With w = 1/q, order m is the sum over j = 0..m of
    (-w)^j/j! * e^w E1(w) + inner_j/j!, where
    inner_j = sum_{n=1..j} (n-1)! (-w)^(j-n), so that
    inner_j/j! = (-w * inner_{j-1}/(j-1)! + 1)/j; each order adds one
    term.  The two parts of a term cancel when w is large; where the
    largest part met so far exceeds the running sum by more digits than
    the sum must keep, or the sum is not finite (w^j/j! overflowing), that
    order is taken from a generalized Gauss-Laguerre rule instead.  q = 0
    gives 0 at every order.
    """
    q = np.asarray(q, float)
    if np.any(q < 0.0):
        raise ValueError("q must be non-negative")
    pos = q > 0.0
    w = np.divide(1.0, q, out=np.ones(q.shape), where=pos)
    a_scaled = _e1_scaled(w)
    out = np.empty((m_max + 1,) + q.shape)
    total = np.zeros(q.shape)
    peak = np.zeros(q.shape)
    pow_w = np.ones(q.shape)  # (-w)^j / j!
    inner = np.zeros(q.shape)  # inner_j / j!
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m_max + 1):
            if j > 0:
                pow_w *= -w / j
                inner = (1.0 - w * inner) / j
            head = pow_w * a_scaled
            total += head + inner
            peak = np.maximum(peak, np.maximum(np.abs(head), np.abs(inner)))
            kept = np.isfinite(total) & (peak * 5e-16 <= 1e-10 * np.maximum(np.abs(total), 1e-12))
            out[j] = np.where(pos, total / LN2, 0.0)
            fallback = pos & ~kept
            if fallback.any():
                nodes, weights = _laguerre_rule(j)
                out[j, ...][fallback] = np.sum(weights * np.log2(1.0 + q[fallback][:, None] * nodes), axis=1)
    return out


def log_moment(q: float, m: int) -> float:
    """E[log2(1 + q*X)] for X ~ Gamma(m+1, 1); order m of ``_log_moments``."""
    return float(_log_moments(q, m)[m])


def _gamma_pdf(x, shape: int, norm: float):
    return np.exp(-x) * x ** (shape - 1) * norm


def _mrt_kernel(y, s: _MrtScales, n_c: int, n_dc: int):
    """Inner closed form of the expected MRT throughput, elementwise over
    the common gains y."""
    beta = np.maximum(0.0, s.threshold(y))
    g = beta + y
    de = s.e_bar + s.d_bar
    qs = np.stack([1.0 / (beta + y * s.c1), de / (de * g + 1.0),
                   1.0 / (beta + y * s.c3), s.e_bar / (s.e_bar * g + 1.0)])
    l1, l2, l3, l4 = np.moveaxis(_log_moments(qs, n_dc - 1), 1, 0)
    # order m carries beta^k/k! with k = n_dc - 1 - m
    k = np.arange(n_dc - 1, -1, -1).reshape((-1,) + (1,) * beta.ndim)
    total = np.sum(beta**k / special.factorial(k) * (l1 + l2 - l3 - l4 + s.rate(y, beta)), axis=0)
    return np.exp(-beta) * _gamma_pdf(y, n_c, s.norm_c) * total


def _gamma_cap(shape: int, tail: float = 1e-10) -> float:
    return float(special.gammainccinv(shape, tail))


def mrt_throughput_closed_form(cfg: SystemConfig) -> float:
    """Expected MRT secrecy throughput via the exponential-integral sum."""
    if cfg.N_C < 1 or cfg.n_dc < 1:
        raise ValueError("closed form needs N_C >= 1 and N_D - N_C >= 1")
    s, n_c, n_dc = _bar_scales(cfg), cfg.N_C, cfg.n_dc
    return float(_gk21(lambda y, _: _mrt_kernel(y, s, n_c, n_dc), 0.0, _gamma_cap(n_c), 1e-12, 1e-9))


def mrt_throughput_quad2d(cfg: SystemConfig) -> float:
    """Reference: direct 2-D quadrature of the rate against both gain laws.

    It integrates the rate itself above the transmission threshold and
    uses neither the exponential integral nor the log moments.  The inner
    integrals over the non-common gain, one per outer node, are solved
    together.
    """
    if cfg.N_C < 1 or cfg.n_dc < 1:
        raise ValueError("2-D quadrature needs N_C >= 1 and N_D - N_C >= 1")
    s = _bar_scales(cfg)
    n_c, n_dc = cfg.N_C, cfg.n_dc
    x_cap = _gamma_cap(n_dc)

    def outer(y, _):
        g_hat = y.ravel()
        beta = np.maximum(0.0, s.threshold(g_hat))
        inner = _gk21(
            lambda x, node: _gamma_pdf(x, n_dc, s.norm_dc) * s.rate(g_hat[node, None], x),
            beta, np.maximum(x_cap, beta * 4.0 + 40.0), 1e-12, 1e-9,
        )
        return _gamma_pdf(y, n_c, s.norm_c) * inner.reshape(y.shape)

    return float(_gk21(outer, 0.0, _gamma_cap(n_c), 1e-12, 1e-8))


def _mrt_throughput_no_common(cfg: SystemConfig) -> float:
    """No common paths: no leakage, full region, rate log2(1 + Y_D(1)).

    That is the full-power rate at G_hat = 0, integrated against the
    gain law of all N_D paths (here N_D - N_C = N_D).
    """
    s, n_d = _bar_scales(cfg), cfg.N_D
    return float(_gk21(
        lambda g, _: _gamma_pdf(g, n_d, s.norm_dc) * s.rate(0.0, g), 0.0, _gamma_cap(n_d), 1e-12, 1e-9
    ))


# relative gap allowed between the closed form and the 2-D quadrature
_MRT_ROUTES_RTOL = 1e-3


def mrt_throughput(cfg: SystemConfig, cross_check: bool = False) -> float:
    """Expected MRT secrecy throughput.

    Without common paths (N_C = 0) there is no leakage and it is one 1-D
    quadrature of log2(1 + Y_D(1)).  Otherwise it is the
    exponential-integral closed form.  ``cross_check`` also runs the
    independent 2-D quadrature of the rate and raises ConvergenceError,
    reporting both estimates, when the two routes disagree by more than
    1e-3 relative.  The sweeps leave it off; the tests and
    ``mmwsec validate`` compare the routes themselves.
    """
    if cfg.N_C == 0:
        return _mrt_throughput_no_common(cfg)
    closed = mrt_throughput_closed_form(cfg)
    if cross_check:
        direct = mrt_throughput_quad2d(cfg)
        gap = abs(closed - direct)
        if gap > _MRT_ROUTES_RTOL * max(abs(closed), abs(direct), 1e-9):
            raise ConvergenceError(
                f"throughput quadratures disagree: closed={closed:.9g}, "
                f"direct={direct:.9g}, gap={gap:.3g}"
            )
    return closed


# ---------------------------------------------------------------------------
# Monte-Carlo averaged throughputs over channel states
# ---------------------------------------------------------------------------

def avg_throughput_mrt(cfg: SystemConfig, trials: int, seed: int) -> McEstimate:
    """Sample mean full-power secrecy rate over ``trials`` drawn states (0
    outside the transmission region)."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    g_hat, g_check, _, _ = sample_gain_scalars(cfg.N_C, cfg.n_dc, cfg.n_ec, trials, as_rng(seed))
    return sample_mean(np.maximum(mrt_rate(g_hat, g_check, cfg), 0.0), seed)


# ---------------------------------------------------------------------------
# high-SNR limits
# ---------------------------------------------------------------------------

def high_snr_k_and_rate(tau, coeffs: EffectiveCoeffs, epsilon, n_ec):
    """Large-power limits (k_inf, rate) at split tau, elementwise over tau
    and the states (epsilon and n_ec too).

    The noise floor drops out of the quantile equation, which then inverts
    algebraically; the destination SNDR sits at its impairment ceiling.
    """
    if not np.all((0.0 < tau) & (tau < 1.0)):
        raise ValueError("tau must lie strictly inside (0, 1)")
    if not np.all((0.0 < epsilon) & (epsilon <= 1.0)):
        raise ValueError("epsilon must lie in (0, 1]")
    if np.any(coeffs.k_tot2 <= 0.0):
        raise InfeasibleError("high-SNR ceiling requires k_tot2 > 0")
    phi_eps = np.power(epsilon, -1.0 / n_ec) - 1.0
    if np.any((coeffs.c * phi_eps >= coeffs.b) & (phi_eps > 0.0)):
        raise InfeasibleError(
            "outside the monotone region: c * (eps^(-1/N)-1) >= b"
        )
    k_inf = phi_eps * coeffs.a / ((1.0 - tau) * coeffs.b + coeffs.c * tau * phi_eps)
    if np.any((coeffs.c > 0.0) & (k_inf * tau * coeffs.c >= coeffs.a)):
        raise InfeasibleError("k_inf lands outside its feasible bracket")
    rate = np.log2((1.0 + high_snr_ceiling(coeffs.k_tot2)) / (1.0 + tau * k_inf))
    return k_inf, rate
