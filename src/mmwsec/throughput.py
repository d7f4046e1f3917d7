"""Throughput-maximizing power allocation under a secrecy outage cap.

The secrecy-rate cap at split tau is set by the (1-eps)-quantile of the
eavesdropper SNDR, expressed through the implicit function k(tau).  In the
variable x = k/(a - c*tau*k) its defining equation Q(k) = 0 turns into an
increasing, concave equation in x that does not involve a or c, which
Newton's method solves from x = 0 without a bracket.  The rate optimizer
works on arrays of channel states: one scan grid for all of them, one
batched false-position search for every local maximum, along the
equation's explicit forms in x and in (1 - tau)*x, and full power
competes with them.  The module also carries the full-power (MRT) closed
forms: the per-state rate, its
transmission threshold, and the expected throughput as an
exponential-integral sum over the common gain, with a direct 2-D
quadrature of the rate as its check.  Both integrate with one adaptive
21-point Gauss-Kronrod rule that works on batches of integrals and
evaluates each integrand on whole arrays of nodes.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .channel import sample_gains
from .config import EffectiveCoeffs, SystemConfig
from .errors import ConvergenceError, InfeasibleError
from .montecarlo import McEstimate, as_rng, sample_mean
from .sndr import high_snr_ceiling, sndr_destination
from .sop import eve_tail, per_value

LN2 = math.log(2.0)

# exp(z)*E1(z) comes from the power series up to z = 1 (Abramowitz &
# Stegun 5.1.11, 18 terms) and above from the continued fraction 5.1.22 cut
# at level 100, the depth 20 + floor(80/z) of E1XB (Zhang & Jin,
# Computation of Special Functions, 1996) at z = 1: its first 10 levels
# run backward from the fraction's tail, levels 11 to 100, taken as one
# sum over the Gauss rule of rows 10 to 100 of the Laguerre Jacobi matrix.
# The 10 levels shrink the sum's rounding by 1e-4 or more.  From z = 30 on
# the tail sum is skipped: the 10 levels started from level 11's
# denominator z + 21 are within 6.6e-21 relative of the fraction there
# (50-digit mpmath), and the cut only shrinks as z grows.  Both sides are
# within 5.5e-16 relative of 40-digit mpmath on [1e-12, 1e7]
_EULER_GAMMA = 0.5772156649015329
_E1_SERIES = [(-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(18, 0, -1)]
_E1_LEVELS = 10
_E1_DEPTH = 100
_E1_TAIL_CUT = 30.0
# arguments per block of the fraction's 91-node tail sum, evaluated in one
# reused (block x 91) array of 1.5 MB, however many arguments a call has
_E1_BLOCK = 2048


# ---------------------------------------------------------------------------
# scaled exponential integral exp(z) * E1(z)
# ---------------------------------------------------------------------------

def _e1_scaled(z):
    """exp(z) * E1(z) elementwise for z > 0, stable for arbitrarily large z.

    Up to z = 1 it is -gamma - ln z + sum (-1)^(k+1) z^k/(k k!), times
    exp(z); above, 1/(z+1 - 1/(z+3 - 4/(z+5 - 9/(z+7 - ...)))) to level
    100 below z = 30 (levels 11 to 100 as one 91-node sum) and to level 10
    from z = 30 on.
    """
    z = np.asarray(z, float)
    out = np.empty(z.shape)
    near = z <= 1.0
    far = ~near
    small = z[near]
    series = np.zeros(small.shape)
    for coef in _E1_SERIES:
        series += coef
        series *= small
    out[near] = (series - _EULER_GAMMA - np.log(small)) * np.exp(small)
    large = z[far]
    t = large + (2.0 * _E1_LEVELS + 1.0)
    tailed = large < _E1_TAIL_CUT
    mid = large[tailed]
    nodes, weights = _laguerre_rule(0, _E1_LEVELS, _E1_DEPTH + 1 - _E1_LEVELS)
    tail = np.empty(mid.shape)
    work = np.empty((min(mid.size, _E1_BLOCK), nodes.size))
    for start in range(0, mid.size, _E1_BLOCK):
        part = mid[start:start + _E1_BLOCK]
        block = work[:part.size]
        np.add(part[:, None], nodes, out=block)
        np.divide(weights, block, out=block)
        np.sum(block, axis=1, out=tail[start:start + part.size])
    t[tailed] = 1.0 / tail
    for i in range(_E1_LEVELS, 0, -1):
        t = large + (2.0 * i - 1.0) - (i * i) / t
    out[far] = 1.0 / t
    return out


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


def _gk21(f, breaks, epsabs: float, epsrel: float):
    """Integrals of f over the ascending breakpoints ``breaks`` (integrals
    x (panels + 1)), elementwise over its leading axes: integral i runs
    from breaks[i, 0] to breaks[i, -1], starting from the panels between
    consecutive breakpoints; a plain [a, b] is one panel, and a repeated
    breakpoint gives no panel.

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
    breaks = np.asarray(breaks, float)
    shape = breaks.shape[:-1]
    breaks = breaks.reshape(-1, breaks.shape[-1])
    n = len(breaks)
    width = breaks[:, -1] - breaks[:, 0]
    value = np.empty(n)
    live = np.ones(n, bool)
    # evaluated panels of the open integrals, and the panels still to evaluate
    lo, hi, own, val, err = np.empty(0), np.empty(0), np.empty(0, int), np.empty(0), np.empty(0)
    nonempty = (breaks[:, 1:] > breaks[:, :-1]).ravel()
    new_lo, new_hi = breaks[:, :-1].ravel()[nonempty], breaks[:, 1:].ravel()[nonempty]
    new_own = np.repeat(np.arange(n), breaks.shape[1] - 1)[nonempty]
    for _ in range(_GK_MAX_ROUNDS):
        half = 0.5 * (new_hi - new_lo)
        fx = f((new_lo + half)[:, None] + half[:, None] * _GK_NODES, new_own)
        lo, hi, own = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi]), np.concatenate([own, new_own])
        val = np.concatenate([val, (fx * _GK_WEIGHTS).sum(axis=1) * half])
        err = np.concatenate([err, np.abs((fx * _GK_GAP).sum(axis=1)) * half])
        total = np.bincount(own, val, n)
        tol = np.maximum(epsabs, epsrel * np.abs(total))
        # written so that a NaN estimate keeps its integral open
        settled = live & (np.bincount(own, err, n) <= tol)
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

# Newton steps allowed for x(tau).  It runs for solve_k_batch, on the rate
# optimizer's scan grid (2-6 steps at the preset states) and once at the
# optimizer's roots from the curve's own x (1 step), never inside a search
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
    broadcastable k, tau, a, b, c, n_ec and epsilon.  a - c*tau*k cancels,
    so x = k/(a - c*tau*k), and Q with it, carry a relative error of about
    1e-16*c*tau*x: at a = 1e11, c = 2e9, b = 1e9 a correct cap read |Q| up
    to 9.4e-9.  A test that holds |Q| <= 1e-12 keeps c*x small, as
    ``test_optimizer_on_both_forms_of_the_cap_curve`` does with a < 1e3.
    """
    rest = a - c * tau * k
    if np.any(rest <= 0.0):
        raise ValueError(f"a - c*tau*k must stay positive (got {np.min(rest):.3g})")
    return eve_tail(k / rest, tau, b, n_ec) - epsilon


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


def _solve_x(tau, b, n_ec, log_eps, start=0.0):
    """x(tau) = k / (a - c*tau*k) elementwise over broadcastable tau, b, n_ec and ln(eps).

    In x, Q(k) = 0 becomes

        h(x) = x + n_ec * log1p((1 - tau)*b*x) + ln(eps) = 0,

    free of a and c.  h is increasing and concave with h(0) = ln(eps) <= 0,
    so Newton started at x = 0 climbs to the root without overshooting.
    From a ``start`` above the root its first step lands below it (the
    tangent of a concave h lies above h), and it climbs from there.
    Each element stops on its own last step, so its value does not depend
    on the rest of the batch; callers take ln(eps) with ``sop.per_value``.
    """
    tau = np.asarray(tau, float)
    s = (1.0 - tau) * np.asarray(b, float)
    ns = n_ec * s
    x = np.zeros(np.broadcast(s, n_ec, log_eps, start).shape) + start
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


def _dk_dtau(x, tau, a, b, c, n_ec, den):
    # dx/dtau = -h_tau / h_x, then differentiate k = a*x / den with
    # den = 1 + c*tau*x; no division by a, so a = 0 gives k = 0 with slope 0
    s = (1.0 - tau) * b
    dx = n_ec * b * x / (1.0 + s * x + n_ec * s)
    return a * (dx - c * x * x) / den ** 2


def dk_dtau(tau, coeffs: EffectiveCoeffs, n_ec, epsilon):
    """Implicit-function derivative of k(tau), elementwise over tau and the
    states (n_ec and epsilon too); x(tau) is solved as the optimizer does."""
    x = _solve_x(tau, coeffs.b, n_ec, per_value(math.log, epsilon))
    return _dk_dtau(x, tau, coeffs.a, coeffs.b, coeffs.c, n_ec, 1.0 + coeffs.c * tau * x)


# ---------------------------------------------------------------------------
# secrecy rate and its optimizer
# ---------------------------------------------------------------------------

def _rate(tau, k, d, e):
    return np.log2((tau * (d + e) + 1.0) / ((tau * e + 1.0) * (1.0 + tau * k)))


def _rate_slope(tau, x, a, b, c, d, e, n_ec):
    """dR_s/dtau at x = x(tau), in bits/s/Hz per unit split."""
    den = 1.0 + c * tau * x
    k = x * a / den  # _k_of_x, whose denominator dk/dtau shares
    dest = d / ((tau * (d + e) + 1.0) * (tau * e + 1.0))
    cap = (k + tau * _dk_dtau(x, tau, a, b, c, n_ec, den)) / (1.0 + tau * k)
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
# Elements of one block of a (states x points) scan: a rate-scan block (127
# states x 129 splits) or SOP-slope block (184 x 89) peaks near 1 MB, inside a
# 2 MiB per-core L2; on 12,000 states both ran 15-20% faster than at twice this
# budget or in blocks of 256 states (2-core Xeon, numpy 2.4.6).
_BLOCK_ELEMENTS = 1 << 14


def state_blocks(n_states: int, n_points: int) -> list[slice]:
    """Consecutive slices of the states, as many as fit in _BLOCK_ELEMENTS at
    ``n_points`` each, at least one; an empty batch gets one empty block.
    Every scan of a grid over states blocks with it; no result depends on it."""
    step = max(1, _BLOCK_ELEMENTS // n_points)
    return [slice(i, i + step) for i in range(0, max(n_states, 1), step)]


def bracketed_roots(slope, lo, hi, f_lo, f_hi, *args, xtol=_ROOT_XTOL, rtol=0.0):
    """Roots of slope(t, *args) bracketed elementwise by [lo, hi] (Illinois false position).

    Both power-split optimizers use it: this module's rate optimizer, on
    the rate slope along the cap's curve, and ``opa_sop.minimize_sop_tau``,
    on the slope of log SOP.  ``lo``, ``hi``, ``f_lo`` and ``f_hi`` are
    1-d, one entry per bracket, with f_lo and f_hi the slopes at the
    bracket ends, which must differ in sign; ``args`` are arrays with one
    entry per bracket.  A root counts as found when its bracket is at most
    xtol + rtol*|t| wide, t the latest iterate: by default 1e-12.
    Converged elements leave the working set, so each root depends only
    on its own bracket and arguments.  Raises ConvergenceError when a
    bracket is still wider than that after 100 steps.
    """
    root = np.empty(lo.shape)
    live = np.arange(lo.size)
    for _ in range(_ROOT_MAX_ITERS):
        t = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        f_t = slope(t, *args)
        crossed = (f_t > 0.0) != (f_hi > 0.0)
        lo, f_lo = np.where(crossed, hi, lo), np.where(crossed, f_hi, 0.5 * f_lo)
        hi, f_hi = t, f_t
        done = (np.abs(hi - lo) <= xtol + rtol * np.abs(t)) | (f_t == 0.0)
        if done.all():
            root[live] = t
            return root
        if done.any():
            root[live[done]] = t[done]
            keep = ~done
            live, lo, hi, f_lo, f_hi = live[keep], lo[keep], hi[keep], f_lo[keep], f_hi[keep]
            args = tuple(x[keep] for x in args)
    raise ConvergenceError(
        f"bracketed root search did not settle in {_ROOT_MAX_ITERS} steps for {live.size} brackets"
    )


def _on_curve(v, on_x, inv_b, b, n_ec, log_eps):
    """(tau, x) on the cap's curve h(x; tau) = 0, elementwise over 1-d arrays.

    h is explicit in x and in w = (1 - tau)*x: w = expm1((-ln(eps) - x)/n_ec)/b
    and x = -ln(eps) - n_ec*log1p(b*w), with tau = 1 - w/x.  v is x where
    ``on_x`` and w elsewhere.  The x form is exact to rounding where
    x <= -ln(eps)/2, where the log1p term holds at least half of
    -ln(eps); the w form where x >= -ln(eps)/2, and at tau = 1 (w = 0).
    ``inv_b`` is 1/b where on_x (b > 0 there) and 0 elsewhere, so the x
    form divides by nothing where np.where drops it.
    """
    x = np.where(on_x, v, -log_eps - n_ec * np.log1p(b * v))
    w = np.where(on_x, np.expm1((-log_eps - v) / n_ec) * inv_b, v)
    return 1.0 - w / x, x


def _rate_peaks(tau_lo, tau_hi, x_lo, x_hi, f_lo, f_hi, a, b, c, d, e, n_ec, log_eps):
    """(tau, x(tau)) at the root of the rate slope in each scan bracket.

    Takes 1-d arrays, one entry per bracket: the bracket's splits, x and
    the slope at its ends, and its state's scalars.  False position runs
    along the cap's curve (``_on_curve``) and never solves for x: on x
    where the bracket lies at x <= -ln(eps)/2, on w = (1 - tau)*x where it
    lies above.  A bracket across that level is first cut there, where
    both forms are exact, and keeps the half that holds the sign change.
    Each search stops once its bracket is 1e-12 of its variable wide,
    relative: tau = 1 - w/x then moves by 1e-12 times a small constant,
    or less, wherever the variable sits.  x at the root is then polished
    by Newton at the stored tau (one step at the preset and test states).
    The arrays of the bracket ends are updated in place.
    """
    half = -0.5 * log_eps
    across = np.flatnonzero((x_lo < half) & (half < x_hi))
    at = (b[across], n_ec[across], log_eps[across])
    t_cut, x_cut = _on_curve(half[across], True, 1.0 / at[0], *at)
    f_cut = _rate_slope(t_cut, x_cut, *(v[across] for v in (a, b, c, d, e, n_ec)))
    rise = f_cut > 0.0  # the slope still rises at the cut, so the root lies above it
    above, below = across[rise], across[~rise]
    tau_lo[above], x_lo[above], f_lo[above] = t_cut[rise], x_cut[rise], f_cut[rise]
    tau_hi[below], x_hi[below], f_hi[below] = t_cut[~rise], x_cut[~rise], f_cut[~rise]

    on_x = x_hi <= half
    inv_b = np.divide(1.0, b, out=np.zeros(b.shape), where=on_x)
    v_lo = np.where(on_x, x_lo, (1.0 - tau_lo) * x_lo)
    v_hi = np.where(on_x, x_hi, (1.0 - tau_hi) * x_hi)

    def slope(v, on_x, inv_b, a, b, c, d, e, n, ln_eps):
        return _rate_slope(*_on_curve(v, on_x, inv_b, b, n, ln_eps), a, b, c, d, e, n)

    root = bracketed_roots(slope, v_lo, v_hi, f_lo, f_hi, on_x, inv_b, a, b, c, d, e, n_ec, log_eps,
                           xtol=0.0, rtol=_ROOT_XTOL)
    tau, x = _on_curve(root, on_x, inv_b, b, n_ec, log_eps)
    # Q(k) = 0 must hold at tau as stored, and 1 - tau keeps few digits near
    # tau = 1, so Newton polishes x at the stored tau
    return tau, _solve_x(tau, b, n_ec, log_eps, x)


def _best_candidates(state, value, tau, n):
    """Index of the smallest-value candidate of each state 0..n-1, the smaller
    tau on a tie; every state must have a candidate.  Both split optimizers
    pick with it, the rate optimizer passing -rate and -tau."""
    order = np.lexsort((tau, value, state))
    return order[np.searchsorted(state[order], np.arange(n))]


def optimize_tau_throughput_batch(coeffs: EffectiveCoeffs, n_ec, epsilon) -> ThroughputResult:
    """Maximize the capped secrecy rate over the power split, per channel state.

    ``coeffs``, ``n_ec`` and ``epsilon`` carry one channel state per
    element (scalars broadcast).  The analytic rate slope is scanned on a
    fixed 129-point grid on [1e-6, 1], in blocks of states
    (``state_blocks``), with x(tau) solved by Newton once per grid point
    and distinct (b, n_ec, eps); every fall of the slope from > 0 to <= 0
    between two grid points brackets a local maximum, and the brackets of
    all states are refined together along the explicit forms of the cap's
    curve (``_rate_peaks``), with no Newton solve inside the search.  The
    cap at a maximum comes from the curve's x there, polished by Newton at
    the stored split; the cap at full power from x(1) = -ln(eps), as
    ``solve_k_batch`` gives it.  Full power and every local maximum compete; each
    state keeps its best rate, the larger split on a tie.  A state whose
    rate is negative even at the optimum cannot transmit: it keeps its
    split and cap, with rate 0, transmit False and the tag Silent.  Any
    other tag names the rate's concavity, probed by central differences
    of the slope at 64 interior grid points, and whether the rate still
    climbs at full power; the probe chooses no candidate.  The tests and
    ``mmwsec validate`` check the results against dense grids of splits.

    Returns a ThroughputResult of arrays over the states.
    """
    a, b, c, d, e, n_ec, epsilon = np.broadcast_arrays(*(
        np.atleast_1d(np.asarray(x, float)) for x in (coeffs.a, coeffs.b, coeffs.c, coeffs.d, coeffs.e, n_ec, epsilon)
    ))
    grid, idx = _SCAN_GRID, _CONCAVITY_IDX
    # x(tau) on the scan grid depends on a state only through (b, n_ec, eps):
    # the states sorted by that key, each run of equal keys is one Newton row
    log_eps = per_value(math.log, epsilon)
    order = np.lexsort((log_eps, n_ec, b))
    keys = np.column_stack([b, n_ec, log_eps])[order]
    fresh = np.ones(a.size, bool)
    fresh[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    key_of = np.empty(a.size, int)
    key_of[order] = np.cumsum(fresh) - 1
    first = order[fresh, None]
    x_keys = _solve_x(grid, b[first], n_ec[first], log_eps[first])

    concave, rising = np.empty((2, a.size), bool)
    brackets = []
    for rows in state_blocks(a.size, grid.size):
        x_rows = x_keys[key_of[rows]]
        rp = _rate_slope(grid, x_rows, *(x[rows, None] for x in (a, b, c, d, e, n_ec)))
        # concavity probe, for the tag: derivative differences at evenly spread interior points
        second = (rp[:, idx + 1] - rp[:, idx - 1]) / (grid[idx + 1] - grid[idx - 1])
        concave[rows] = np.all(second <= 1e-8, axis=1)
        rising[rows] = rp[:, -1] > 0.0  # the rate still climbs at full power
        up = rp > 0.0
        i, j = np.nonzero(up[:, :-1] & ~up[:, 1:])
        brackets.append((rows.start + i, grid[j], grid[j + 1], x_rows[i, j], x_rows[i, j + 1], rp[i, j], rp[i, j + 1]))
    owner, *ends = (np.concatenate(x) for x in zip(*brackets))
    roots, x_roots = _rate_peaks(*ends, *(x[owner] for x in (a, b, c, d, e, n_ec, log_eps)))

    cand_state = np.concatenate([np.arange(a.size), owner])
    cand_tau = np.concatenate([np.ones(a.size), roots])
    # x(1) as Newton's one step from x = 0 forms it: eps = 1 gives +0
    cand_x = np.concatenate([0.0 - log_eps, x_roots])
    cand_k = _k_of_x(cand_x, cand_tau, a[cand_state], c[cand_state])
    cand_rate = _rate(cand_tau, cand_k, d[cand_state], e[cand_state])
    best = _best_candidates(cand_state, -cand_rate, -cand_tau, a.size)
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
    """Draw-independent constants of the full-power rate: floats for one
    configuration, arrays with one entry per configuration for a batch."""

    a_bar: float
    c_bar: float
    d_bar: float
    e_bar: float
    log_eps: float
    c1: float  # 1 - c_bar*ln(eps)
    c3: float  # 1 - (a_bar + c_bar)*ln(eps)
    ratio: float  # a_bar*e_bar/d_bar

    def rows(self, index) -> _MrtScales:
        """The entries ``index`` of a batch's scales as a column, one row
        each, that broadcasts against rows of gains; the floats of one
        configuration serve every row as they are."""
        if isinstance(self.a_bar, float):
            return self
        return _MrtScales(*(getattr(self, f.name)[index, None] for f in fields(self)))

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


def _config_batch(cfg: SystemConfig | Sequence[SystemConfig]) -> tuple[list[SystemConfig], bool]:
    """The configurations of one SystemConfig or of a sequence, and whether
    it was one.  A sequence shares its gain laws: configurations with mixed
    N_C or N_D - N_C raise ValueError."""
    if isinstance(cfg, SystemConfig):
        return [cfg], True
    cfgs = list(cfg)
    if len({(c.N_C, c.n_dc) for c in cfgs}) != 1:
        raise ValueError("a batch of configurations needs one shared N_C and N_D - N_C")
    return cfgs, False


def _bar_scales(cfg: SystemConfig | Sequence[SystemConfig]) -> _MrtScales:
    """Constants of the full-power rate of one configuration, or of each of
    a sequence stacked into arrays; every entry is built with Python floats."""
    cfgs, one = _config_batch(cfg)
    entries = []
    for c in cfgs:
        beta_e = c.beta_e()
        beta_d = c.beta_d()
        a_bar, c_bar, d_bar, e_bar = beta_e, c.k_tx**2 * beta_e, beta_d, c.k_tot2 * beta_d
        log_eps = math.log(c.epsilon)
        entries.append((
            a_bar, c_bar, d_bar, e_bar, log_eps,
            1.0 - c_bar * log_eps,
            1.0 - (a_bar + c_bar) * log_eps,
            a_bar * e_bar / d_bar,
        ))
    return _MrtScales(*entries[0]) if one else _MrtScales(*np.array(entries).T)


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


# nodes of the Gauss rule that the log moments fall back to: log1p(q*x) is
# analytic but for its branch point at x = -1/q, and the fallback only
# takes q below about 0.06 (1/q above 16), where 16 nodes put the rule's
# error below rounding up to q = 0.1 at orders 0 to 40 (30-digit mpmath)
_LOG_MOMENT_NODES = 16


@lru_cache(maxsize=64)
def _laguerre_rule(order_m: int, first: int = 0, count: int = _LOG_MOMENT_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule (Golub & Welsch, Math. Comp. 23, 1969) of rows first to
    first + count - 1 of the Jacobi matrix of the order-m Laguerre
    polynomials: from row 0, the count-point rule of the Gamma(m+1, 1) law
    (by default the log moments' 16 points); from a later row, sum
    w/(z + x) is the tail of the matrix's J-fraction.
    The block is A A^T with A[i, i] = sqrt(k), A[i, i+1] = sqrt(k+m+1),
    k = first + i, so the nodes are A's squared singular values; the
    weights, summing to 1, are the Christoffel numbers 1/sum_j p_j^2 of the
    block's orthonormal polynomials, each sum scaled by its largest term
    so that no square overflows.
    """
    n = count
    k = np.arange(first, first + n + 0.0)
    factor = np.eye(n, n + 1) * np.sqrt(k)[:, None] + np.eye(n, n + 1, 1) * np.sqrt(k + order_m + 1.0)[:, None]
    x = np.linalg.svd(factor, compute_uv=False)[::-1] ** 2
    diag, off = 2.0 * k + order_m + 1.0, np.sqrt(k * (k + order_m))
    # off[j+1] p_{j+1} = (x - diag[j]) p_j - off[j] p_{j-1}; row j + 1 holds p_j, row 0 p_-1 = 0
    p = np.zeros((n + 1, n))
    p[1] = 1.0
    for j in range(n - 1):
        p[j + 2] = ((x - diag[j]) * p[j + 1] - off[j] * p[j]) / off[j + 1]
    scale = np.max(np.abs(p), axis=0)
    return x, (1.0 / scale) ** 2 / np.sum((p / scale) ** 2, axis=0)


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
    order is taken from ``_log_moment_rule`` instead.  That happens only
    below q = 0.06 or so.  q = 0 gives 0 at every order.
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
                out[j, ...][fallback] = _log_moment_rule(q[fallback], j)
    return out


def _log_moment_rule(q, m: int):
    """E[log2(1 + q*X)] for X ~ Gamma(m+1, 1) elementwise over 1-d q >= 0,
    as log1p(q*x)/ln 2 summed over the 16-point generalized Gauss-Laguerre
    rule of order m.  log1p keeps the digits of q*x that 1 + q*x rounds
    away: the sum is within 1e-15 relative of mpmath from q = 1e-300 up
    to 0.065 at the orders 0 to 99, and up to 0.1 at the orders 0 to 40."""
    nodes, weights = _laguerre_rule(m)
    return np.sum(weights * np.log1p(q[:, None] * nodes), axis=1) / LN2


def log_moment(q: float, m: int) -> float:
    """E[log2(1 + q*X)] for X ~ Gamma(m+1, 1); order m of ``_log_moments``."""
    return float(_log_moments(q, m)[m])


@lru_cache(maxsize=64)
def _log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n-1, each from math.lgamma."""
    return np.array([math.lgamma(k + 1.0) for k in range(n)])


def _log_poisson(x, k):
    """log(x^k e^-x / k!), elementwise over x >= 0 and integers k >= 0 with
    0^0 = 1: the log Poisson(x) mass at k, and the log Gamma(k + 1, 1)
    density at x.  It stays finite where x^k or k! overflows."""
    k = np.asarray(k)
    log_fact = _log_factorials(int(k.max()) + 1)[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(k == 0, 0.0, k * np.log(x)) - x - log_fact


def _gamma_pdf(x, shape: int):
    return np.exp(_log_poisson(x, shape - 1))


def _mrt_kernel(y, s: _MrtScales, n_c: int, n_dc: int):
    """Inner closed form of the expected MRT throughput, elementwise over
    the common gains y."""
    beta = np.maximum(0.0, s.threshold(y))
    g = beta + y
    de = s.e_bar + s.d_bar
    qs = np.stack([1.0 / (beta + y * s.c1), de / (de * g + 1.0),
                   1.0 / (beta + y * s.c3), s.e_bar / (s.e_bar * g + 1.0)])
    l1, l2, l3, l4 = np.moveaxis(_log_moments(qs, n_dc - 1), 1, 0)
    # order m carries the Poisson(beta) mass at k = n_dc - 1 - m
    k = np.arange(n_dc - 1, -1, -1).reshape((-1,) + (1,) * beta.ndim)
    total = np.sum(np.exp(_log_poisson(beta, k)) * (l1 + l2 - l3 - l4 + s.rate(y, beta)), axis=0)
    return _gamma_pdf(y, n_c) * total


# the probability mass of a gain law that the MRT integrals leave beyond their cap
_GAMMA_TAIL = 1e-10


@lru_cache(maxsize=64)
def _gamma_cap(shape: int) -> float:
    """The gain x that a Gamma(shape, 1) law exceeds with probability _GAMMA_TAIL.
    For an integer shape Q(n, x) = e^-x sum_{k<n} x^k/k!, whose largest term
    is k = n - 1 for x >= n; ln Q falls from about ln(1/2) at x = n to below
    ln(_GAMMA_TAIL) at x = 2n + 40."""
    k = np.arange(shape)

    def log_q_excess(x):
        terms = _log_poisson(x[:, None], k)
        return terms[:, -1] + np.log(np.sum(np.exp(terms - terms[:, -1:]), axis=1)) - math.log(_GAMMA_TAIL)

    lo, hi = np.array([float(shape)]), np.array([2.0 * shape + 40.0])
    return float(bracketed_roots(log_q_excess, lo, hi, log_q_excess(lo), log_q_excess(hi))[0])


# the first breakpoints of an MRT integral's span as fractions of it: four
# halvings toward its start, so panels grow geometrically from there
_HALVINGS = np.concatenate([[0.0], np.ldexp(1.0, -np.arange(4, -1, -1))])
# the dyadic fractions cap*2^-j, j < _CUT_LEVELS, where the outer cut may fall
_CUT_LEVELS = 128


def _mrt_panels(s: _MrtScales, count: int, n_c: int, n_dc: int) -> np.ndarray:
    """First breakpoints of the MRT integrals over the common gain y, one
    row per configuration: the halvings of [0, y_s], then [y_s, cap].

    The cut y_s is the smallest dyadic fraction cap*2^-j from which on the
    transmit threshold beta(y) exceeds n_dc + 40, so that past it the
    kernel's Poisson(beta) weights at k < n_dc lie deep in their tail;
    y_s = cap where beta(cap) does not.  beta is concave in y with
    beta(0) = 0, so it exceeds the level on one interval, and the cut
    ends the run of fractions from j = 0 inside it.  A kernel that sits near y = 0 at high power then meets
    nodes on its own scale in the first round, where one panel [0, cap]
    put its lowest node past it and settled on zeros."""
    cap = _gamma_cap(n_c)
    fractions = np.ldexp(cap, -np.arange(_CUT_LEVELS))
    above = np.atleast_2d(s.rows(np.arange(count)).threshold(fractions) > n_dc + 40.0)
    run = np.logical_and.accumulate(above, axis=1).sum(axis=1)
    y_s = np.ldexp(cap, -np.maximum(run - 1, 0))
    return np.column_stack([y_s[:, None] * _HALVINGS, np.full(count, cap)])


def mrt_throughput_closed_form(cfg: SystemConfig | Sequence[SystemConfig]) -> float | np.ndarray:
    """Expected MRT secrecy throughput via the exponential-integral sum, of
    one configuration (a float) or of each of a sequence sharing N_C and
    N_D - N_C (an array).  The sequence is one batch of integrals whose
    kernel reads each panel's scales by its owner; every integral settles
    on its own panels, so a configuration gets the bits of its one-config
    call.  Without common paths (N_C = 0) there is no leakage and no
    threshold, and the sum is the kernel's own log-moment pair at
    G_hat = beta = 0: E[log2(1 + (d_bar + e_bar)G)] - E[log2(1 + e_bar G)]
    with G ~ Gamma(N_D), elementwise over the batch."""
    cfgs, one = _config_batch(cfg)
    n_c, n_dc = cfgs[0].N_C, cfgs[0].n_dc
    if n_dc < 1:
        raise ValueError("closed form needs N_D - N_C >= 1")
    s = _bar_scales(cfg)
    if n_c == 0:
        l2, l4 = _log_moments(np.array([s.d_bar + s.e_bar, s.e_bar]), n_dc - 1)[-1]
        values = np.atleast_1d(l2 - l4)
    else:
        values = _gk21(lambda y, owner: _mrt_kernel(y, s.rows(owner), n_c, n_dc),
                       _mrt_panels(s, len(cfgs), n_c, n_dc), 1e-12, 1e-9)
    return float(values[0]) if one else values


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
        span = np.maximum(x_cap, beta * 4.0 + 40.0) - beta
        inner = _gk21(
            lambda x, node: _gamma_pdf(x, n_dc) * s.rate(g_hat[node, None], x),
            beta[:, None] + span[:, None] * _HALVINGS, 1e-12, 1e-9,
        )
        return _gamma_pdf(y, n_c) * inner.reshape(y.shape)

    return float(_gk21(outer, _mrt_panels(s, 1, n_c, n_dc), 1e-12, 1e-8)[0])


# relative gap allowed between the closed form and the 2-D quadrature
_MRT_ROUTES_RTOL = 1e-3


def mrt_throughput(cfg: SystemConfig | Sequence[SystemConfig], cross_check: bool = False) -> float | np.ndarray:
    """Expected MRT secrecy throughput of one configuration (a float) or of
    each of a sequence sharing N_C and N_D - N_C (an array): the
    exponential-integral closed form, which at N_C = 0 is a log-moment
    pair.  ``cross_check`` also runs the independent 2-D quadrature of the
    rate per configuration (which needs N_C >= 1 and raises ValueError at
    N_C = 0) and raises ConvergenceError, reporting both estimates, when
    the two routes disagree by more than 1e-3 relative; only the benchmark
    probe in ``perfbench/probes.py`` turns it on (ROADMAP item 4 removes
    it).  The tests and ``mmwsec validate`` use
    ``checks.mrt_throughput_dual_quadrature``.
    """
    cfgs, _ = _config_batch(cfg)
    closed = mrt_throughput_closed_form(cfg)
    if cross_check:
        for c, value in zip(cfgs, np.atleast_1d(closed)):
            direct = mrt_throughput_quad2d(c)
            gap = abs(value - direct)
            if gap > _MRT_ROUTES_RTOL * max(abs(value), abs(direct), 1e-9):
                raise ConvergenceError(
                    f"throughput quadratures disagree: closed={value:.9g}, "
                    f"direct={direct:.9g}, gap={gap:.3g}"
                )
    return closed


# ---------------------------------------------------------------------------
# Monte-Carlo averaged throughputs over channel states
# ---------------------------------------------------------------------------

def avg_throughput_mrt(
    cfg: SystemConfig | Sequence[SystemConfig], trials: int, seed: int
) -> McEstimate | list[McEstimate]:
    """Sample mean full-power secrecy rate over ``trials`` drawn states (0
    outside the transmission region): one McEstimate for one configuration,
    a list of one per configuration for a sequence sharing N_C and
    N_D - N_C.  The sequence shares one draw of the gains, the numbers each
    configuration draws alone from ``seed``."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    cfgs, one = _config_batch(cfg)
    g_hat, g_check = sample_gains(cfgs[0].N_C, cfgs[0].n_dc, trials, as_rng(seed))
    # a row of rates at a time: a (configs x trials) block would raise the peak memory
    estimates = [sample_mean(np.maximum(mrt_rate(g_hat, g_check, c), 0.0), seed) for c in cfgs]
    return estimates[0] if one else estimates


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
    phi_eps = np.expm1(-per_value(math.log, epsilon) / n_ec)  # eps^(-1/N) - 1 without cancellation
    if np.any((coeffs.c * phi_eps >= coeffs.b) & (phi_eps > 0.0)):
        raise InfeasibleError(
            "outside the monotone region: c * (eps^(-1/N)-1) >= b"
        )
    k_inf = phi_eps * coeffs.a / ((1.0 - tau) * coeffs.b + coeffs.c * tau * phi_eps)
    if np.any((coeffs.c > 0.0) & (k_inf * tau * coeffs.c >= coeffs.a)):
        raise InfeasibleError("k_inf lands outside its feasible bracket")
    rate = np.log2((1.0 + high_snr_ceiling(coeffs.k_tot2)) / (1.0 + tau * k_inf))
    return k_inf, rate
