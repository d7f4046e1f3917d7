"""Numerical rules shared by the closed forms and the power-split optimizers.

The scaled exponential integral exp(z)*E1(z); an adaptive 21-point
Gauss-Kronrod rule that works on batches of integrals and evaluates each
integrand on whole arrays of nodes; Gauss-Laguerre rules and the
logarithmic moments E[log2(1 + q*X)] of Gamma laws built on them; the
log Poisson mass and the Gamma(n, 1) density and tail cap; a batched
Illinois false-position root search; and the blocking of (states x
points) scans with the per-state pick among candidates that both split
optimizers share.  It imports numpy and ``errors`` alone, so every other
module can reach it without a cycle.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError

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

def e1_scaled(z):
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
# bisection rounds, and panels of one integral, after which gk21 gives up
_GK_MAX_ROUNDS = 50
_GK_MAX_PANELS = 500


def gk21(f, breaks, epsabs: float, epsrel: float):
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
# batched root search, blocks of states and the per-state pick
# ---------------------------------------------------------------------------

# bracket width at which a root of bracketed_roots counts as found, and the
# false-position steps allowed to get there
ROOT_XTOL = 1e-12
_ROOT_MAX_ITERS = 100
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


def bracketed_roots(slope, lo, hi, f_lo, f_hi, *args, xtol=ROOT_XTOL, rtol=0.0):
    """Roots of slope(t, *args) bracketed elementwise by [lo, hi] (Illinois false position).

    Both power-split optimizers use it: ``throughput``'s rate optimizer, on
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


def best_candidates(state, value, tau, n):
    """Index of the smallest-value candidate of each state 0..n-1, the smaller
    tau on a tie; every state must have a candidate.  Both split optimizers
    pick with it, the rate optimizer passing -rate and -tau."""
    order = np.lexsort((tau, value, state))
    return order[np.searchsorted(state[order], np.arange(n))]


# ---------------------------------------------------------------------------
# Gauss-Laguerre rules, logarithmic moments and Gamma laws
# ---------------------------------------------------------------------------

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


def log_moments(q, m_max: int):
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
    a_scaled = e1_scaled(w)
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


@lru_cache(maxsize=64)
def _log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n-1, each from math.lgamma."""
    return np.array([math.lgamma(k + 1.0) for k in range(n)])


def log_poisson(x, k):
    """log(x^k e^-x / k!), elementwise over x >= 0 and integers k >= 0 with
    0^0 = 1: the log Poisson(x) mass at k, and the log Gamma(k + 1, 1)
    density at x.  It stays finite where x^k or k! overflows."""
    k = np.asarray(k)
    log_fact = _log_factorials(int(k.max()) + 1)[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(k == 0, 0.0, k * np.log(x)) - x - log_fact


def gamma_pdf(x, shape: int):
    return np.exp(log_poisson(x, shape - 1))


# the probability mass of a gain law that the MRT integrals leave beyond their cap
_GAMMA_TAIL = 1e-10


@lru_cache(maxsize=64)
def gamma_cap(shape: int) -> float:
    """The gain x that a Gamma(shape, 1) law exceeds with probability _GAMMA_TAIL.
    For an integer shape Q(n, x) = e^-x sum_{k<n} x^k/k!, whose largest term
    is k = n - 1 for x >= n; ln Q falls from about ln(1/2) at x = n to below
    ln(_GAMMA_TAIL) at x = 2n + 40."""
    k = np.arange(shape)

    def log_q_excess(x):
        terms = log_poisson(x[:, None], k)
        return terms[:, -1] + np.log(np.sum(np.exp(terms - terms[:, -1:]), axis=1)) - math.log(_GAMMA_TAIL)

    lo, hi = np.array([float(shape)]), np.array([2.0 * shape + 40.0])
    return float(bracketed_roots(log_q_excess, lo, hi, log_q_excess(lo), log_q_excess(hi))[0])
