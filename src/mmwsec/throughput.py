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
exponential-integral sum.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np
from scipy import integrate, special

from .channel import sample_gain_scalars
from .config import EffectiveCoeffs, SystemConfig
from .errors import ConvergenceError, InfeasibleError
from .montecarlo import McEstimate, as_rng, sample_mean
from .sndr import sndr_destination

LN2 = math.log(2.0)

# z above which exp(z)*E1(z) comes from the continued fraction instead of
# scipy's exp1: there the fraction settles in few steps, while exp1(z)
# underflows and exp(z) overflows for large z.
_E1_CF_CUTOFF = 5.0


# ---------------------------------------------------------------------------
# scaled exponential integral exp(z) * E1(z)
# ---------------------------------------------------------------------------

def _e1_scaled(z: float) -> float:
    """exp(z) * E1(z) for z > 0, stable for arbitrarily large z."""
    if z <= _E1_CF_CUTOFF:
        return float(special.exp1(z)) * math.exp(z)
    # modified Lentz on the standard continued fraction
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 400):
        an = -float(i * i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ConvergenceError(f"continued fraction for E1({z}) did not settle")


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


def q_of_k(
    k: float, tau: float, a: float, b: float, c: float, n_ec: int, epsilon: float
) -> float:
    """Survival gap Q(k): eavesdropper outage survival at level tau*k, minus eps.

    Zero at k = k(tau); positive below, negative above (Q is strictly
    decreasing in k on the feasible bracket).
    """
    rest = a - c * tau * k
    if rest <= 0.0:
        raise ValueError(f"a - c*tau*k must stay positive (got {rest:.3g})")
    bracket = 1.0 + (1.0 - tau) * b * k / rest
    return math.exp(-k / rest) * bracket ** (-n_ec) - epsilon


def k_max_tau1(a: float, c: float, epsilon: float) -> float:
    """Closed-form k(1): the cap at full power, -a*ln(eps) / (1 - c*ln(eps))."""
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    if a < 0.0 or c < 0.0:
        raise ValueError("a and c must be non-negative")
    log_eps = math.log(epsilon)
    return -a * log_eps / (1.0 - c * log_eps)


def _solve_x(tau, b, n_ec: int, epsilon: float):
    """x(tau) = k / (a - c*tau*k) elementwise over broadcastable tau/b arrays.

    In x, Q(k) = 0 becomes

        h(x) = x + n_ec * log1p((1 - tau)*b*x) + ln(eps) = 0,

    free of a and c.  h is increasing and concave with h(0) = ln(eps) <= 0,
    so Newton started at x = 0 climbs to the root without overshooting.
    Each element stops on its own last step, so its value does not depend
    on the rest of the batch.
    """
    tau = np.asarray(tau, float)
    log_eps = math.log(epsilon)
    s = (1.0 - tau) * np.asarray(b, float)
    ns = n_ec * s
    x = np.zeros(s.shape)
    live = np.ones(s.shape, bool)
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


def solve_k_batch(tau, a, b, c, n_ec: int, epsilon: float):
    """k(tau) elementwise over broadcastable tau/a/b/c arrays.

    x(tau) is solved over the broadcast of tau and b alone; then
    k = x*a / (1 + c*tau*x), which keeps a - c*tau*k > 0 and reduces to
    ``k_max_tau1`` at tau = 1.
    """
    return _k_of_x(_solve_x(tau, b, n_ec, epsilon), tau, a, c)


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


def dk_dtau(tau, coeffs: EffectiveCoeffs, n_ec: int, epsilon: float):
    """Implicit-function derivative of k(tau), elementwise over tau and the
    states; x(tau) is solved as the optimizer solves it."""
    x = _solve_x(tau, coeffs.b, n_ec, epsilon)
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


def drs_dtau(tau, coeffs: EffectiveCoeffs, n_ec: int, epsilon: float):
    """Derivative of the secrecy rate in tau, using the implicit dk/dtau,
    elementwise over tau and the states."""
    x = _solve_x(tau, coeffs.b, n_ec, epsilon)
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


def optimize_tau_throughput_batch(coeffs: EffectiveCoeffs, n_ec: int, epsilon: float) -> ThroughputResult:
    """Maximize the capped secrecy rate over the power split, per channel state.

    ``coeffs`` carries one channel state per element of its a..e fields
    (scalars broadcast).  Concavity of the rate in tau is classified
    numerically: central differences of the analytic derivative at 64
    interior points of a fixed 129-point scan grid on [1e-6, 1].  The
    concave case follows the boundary-or-unique-root rule; otherwise all
    stationary points found by a sign-change scan are compared against the
    full-power boundary.  A channel state whose rate is negative even at
    the optimum cannot transmit: it keeps its split and cap, with rate 0,
    transmit False and the tag Silent.  The stationary points of all
    states are solved together.  The tests and ``mmwsec validate`` check
    the results against dense grids of splits.

    Returns a ThroughputResult of arrays over the states.
    """
    a, b, c, d, e = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, float)) for x in (coeffs.a, coeffs.b, coeffs.c, coeffs.d, coeffs.e))
    )
    states = np.arange(a.size)
    grid = _SCAN_GRID
    # b stays unbroadcast here: a b shared by all states (as derive_coeffs
    # builds it) costs one Newton solve per grid point, not one per state
    col = (a[:, None], np.asarray(coeffs.b, float)[..., None], c[:, None])
    x_grid = _solve_x(grid, col[1], n_ec, epsilon)
    rp = _rate_slope(grid, x_grid, *col, d[:, None], e[:, None], n_ec)

    # concavity probe: derivative differences at evenly spread interior points
    idx = _CONCAVITY_IDX
    second = (rp[:, idx + 1] - rp[:, idx - 1]) / (grid[idx + 1] - grid[idx - 1])
    concave = np.all(second <= 1e-8, axis=1)
    rising = rp[:, -1] > 0.0  # the rate still climbs at full power

    # stationary points: the first sign change of a concave state that does
    # not rise at full power, every sign change of a non-concave one
    sign = rp > 0.0
    flips = sign[:, :-1] != sign[:, 1:]
    first = flips & (np.cumsum(flips, axis=1) == 1)
    brackets = np.where(concave[:, None], first & ~rising[:, None], flips)
    owner, left = np.nonzero(brackets)
    roots = bracketed_roots(
        lambda t, a, b, c, d, e: _rate_slope(t, _solve_x(t, b, n_ec, epsilon), a, b, c, d, e, n_ec),
        grid[left], grid[left + 1], rp[owner, left], rp[owner, left + 1],
        a[owner], b[owner], c[owner], d[owner], e[owner],
    )

    # candidates: full power (unless a concave state has its interior root)
    # and the stationary points; each state keeps its best rate, the larger
    # split on a tie
    interior = concave & ~rising & flips.any(axis=1)
    cand_state = np.concatenate([states[~interior], owner])
    cand_tau = np.concatenate([np.ones(int((~interior).sum())), roots])
    cand_k = solve_k_batch(cand_tau, a[cand_state], b[cand_state], c[cand_state], n_ec, epsilon)
    cand_rate = _rate(cand_tau, cand_k, d[cand_state], e[cand_state])
    order = np.lexsort((cand_tau, cand_rate, cand_state))
    best = order[np.searchsorted(cand_state[order], states, side="right") - 1]
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
    """Draw-independent constants of the full-power rate of one configuration.

    ``rate`` and ``threshold`` take the log2/sqrt to apply: numpy's for the
    array callers, math's (the default) for the scalar quadrature
    callbacks, so both evaluate the same expressions.
    """

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

    def rate(self, g_hat, g_check, log2=math.log2):
        g = g_hat + g_check
        num = (g_check + g_hat * self.c1) * ((self.e_bar + self.d_bar) * g + 1.0)
        den = (self.e_bar * g + 1.0) * (g_check + g_hat * self.c3)
        return log2(num / den)

    def threshold(self, g_hat, sqrt=math.sqrt):
        # beta^2 + g(1+u)*beta + g^2*u + g*v = 0 with u = C1 + ratio*ln(eps)
        # and v = (a_bar/d_bar)*ln(eps) <= 0; 1 - u = (c_bar - ratio)*ln(eps)
        # >= 0 is formed without the leading 1, and the discriminant
        # g^2 (1-u)^2 - 4 g v is a sum of non-negative terms
        one_minus_u = (self.c_bar - self.ratio) * self.log_eps
        v = self.a_bar / self.d_bar * self.log_eps
        a1 = g_hat * (2.0 - one_minus_u)
        return 0.5 * (-a1 + sqrt((g_hat * one_minus_u) ** 2 - 4.0 * v * g_hat))


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
    out = _bar_scales(cfg).rate(np.asarray(g_hat, float), np.asarray(g_check, float), np.log2)
    return float(out) if out.ndim == 0 else out


def mrt_rate_direct(coeffs: EffectiveCoeffs, epsilon: float) -> float:
    """Full-power rate from the per-state coefficients, log2((1+Y_D)/(1+k(1)))."""
    k1 = k_max_tau1(coeffs.a, coeffs.c, epsilon)
    y_d = coeffs.d / (coeffs.e + 1.0)
    return math.log2((1.0 + y_d) / (1.0 + k1))


def mrt_transmit_threshold(g_hat, cfg: SystemConfig):
    """Non-common gain threshold beta: the state transmits iff G_check > beta.

    Root of the quadratic form of the full-power transmission inequality;
    may be negative (always transmit).  Vectorizes over g_hat.
    """
    out = _bar_scales(cfg).threshold(np.asarray(g_hat, float), np.sqrt)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=64)
def _laguerre_rule(order_m: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = special.roots_genlaguerre(160, order_m)
    return nodes, weights / math.gamma(order_m + 1)


def _log_moments(q: float, m_max: int) -> list[float]:
    """E[log2(1 + q*X)] for X ~ Gamma(m+1, 1), for every order m = 0..m_max.

    With w = 1/q, order m is the sum over j = 0..m of
    (-w)^j/j! * e^w E1(w) + inner_j/j!, where
    inner_j = sum_{n=1..j} (n-1)! (-w)^(j-n), so that
    inner_j/j! = (-w * inner_{j-1}/(j-1)! + 1)/j; each order adds one
    term.  The two parts of a term cancel when w is large; where the
    largest part met so far exceeds the running sum by more digits than
    the sum must keep, that order is taken from a generalized
    Gauss-Laguerre rule instead.
    """
    if q < 0.0:
        raise ValueError("q must be non-negative")
    if q == 0.0:
        return [0.0] * (m_max + 1)
    w = 1.0 / q
    a_scaled = _e1_scaled(w)
    out = []
    total = 0.0
    peak = 0.0
    pow_w = 1.0  # (-w)^j / j!
    inner = 0.0  # inner_j / j!
    for j in range(m_max + 1):
        if j > 0:
            pow_w *= -w / j
            inner = (1.0 - w * inner) / j
        head = pow_w * a_scaled
        total += head + inner
        peak = max(peak, abs(head), abs(inner))
        # written so that a NaN sum (w^j/j! overflowing) also falls back
        if not peak * 5e-16 <= 1e-10 * max(abs(total), 1e-12):
            nodes, weights = _laguerre_rule(j)
            out.append(float(np.sum(weights * np.log2(1.0 + q * nodes))))
        else:
            out.append(total / LN2)
    return out


def log_moment(q: float, m: int) -> float:
    """E[log2(1 + q*X)] for X ~ Gamma(m+1, 1); order m of ``_log_moments``."""
    return _log_moments(q, m)[m]


def _gamma_pdf(x: float, shape: int, norm: float) -> float:
    return math.exp(-x) * x ** (shape - 1) * norm


def _mrt_kernel(y: float, s: _MrtScales, n_c: int, n_dc: int) -> float:
    """Inner closed form of the expected MRT throughput at common gain y."""
    beta = max(0.0, s.threshold(y))
    g = beta + y
    de = s.e_bar + s.d_bar
    q1 = 1.0 / (beta + y * s.c1)
    q2 = de / (de * g + 1.0)
    q3 = 1.0 / (beta + y * s.c3)
    q4 = s.e_bar / (s.e_bar * g + 1.0)
    q5 = s.rate(y, beta)
    moments = zip(*(_log_moments(q, n_dc - 1) for q in (q1, q2, q3, q4)))
    total = 0.0
    for m, (l1, l2, l3, l4) in enumerate(moments):
        k = n_dc - 1 - m
        total += beta**k / math.factorial(k) * (l1 + l2 - l3 - l4 + q5)
    return math.exp(-beta) * _gamma_pdf(y, n_c, s.norm_c) * total


def _gamma_cap(shape: int, tail: float = 1e-10) -> float:
    return float(special.gammainccinv(shape, tail))


def mrt_throughput_closed_form(cfg: SystemConfig) -> float:
    """Expected MRT secrecy throughput via the exponential-integral sum."""
    if cfg.N_C < 1 or cfg.n_dc < 1:
        raise ValueError("closed form needs N_C >= 1 and N_D - N_C >= 1")
    value, _ = integrate.quad(
        _mrt_kernel, 0.0, _gamma_cap(cfg.N_C), args=(_bar_scales(cfg), cfg.N_C, cfg.n_dc),
        limit=300, epsabs=1e-12, epsrel=1e-9,
    )
    return value


def mrt_throughput_quad2d(cfg: SystemConfig) -> float:
    """Reference: direct 2-D quadrature of the rate against both gain laws.

    It integrates the rate itself above the transmission threshold and
    uses neither the exponential integral nor the log moments.
    """
    if cfg.N_C < 1 or cfg.n_dc < 1:
        raise ValueError("2-D quadrature needs N_C >= 1 and N_D - N_C >= 1")
    s = _bar_scales(cfg)
    n_c, n_dc = cfg.N_C, cfg.n_dc
    y_cap = _gamma_cap(n_c)
    x_cap = _gamma_cap(n_dc)

    def inner(x: float, y: float) -> float:
        return _gamma_pdf(x, n_dc, s.norm_dc) * s.rate(y, x)

    def outer(y: float) -> float:
        beta = max(0.0, s.threshold(y))
        val, _ = integrate.quad(
            inner, beta, max(x_cap, beta * 4.0 + 40.0), args=(y,),
            limit=300, epsabs=1e-12, epsrel=1e-9,
        )
        return _gamma_pdf(y, n_c, s.norm_c) * val

    value, _ = integrate.quad(outer, 0.0, y_cap, limit=300, epsabs=1e-12, epsrel=1e-8)
    return value


def _mrt_throughput_no_common(cfg: SystemConfig) -> float:
    """No common paths: no leakage, full region, rate log2(1 + Y_D(1)).

    That is the full-power rate at G_hat = 0, integrated against the
    gain law of all N_D paths (here N_D - N_C = N_D).
    """
    s = _bar_scales(cfg)
    n_d = cfg.N_D

    def f(g: float) -> float:
        return _gamma_pdf(g, n_d, s.norm_dc) * s.rate(0.0, g)

    value, _ = integrate.quad(f, 0.0, _gamma_cap(n_d), limit=200, epsabs=1e-12, epsrel=1e-9)
    return value


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

def high_snr_k_and_rate(
    tau: float, coeffs: EffectiveCoeffs, epsilon: float, n_ec: int
) -> tuple[float, float]:
    """Large-power limits (k_inf, rate) at split tau.

    The noise floor drops out of the quantile equation, which then inverts
    algebraically; the destination SNDR sits at its impairment ceiling.
    """
    if not (0.0 < tau < 1.0):
        raise ValueError("tau must lie strictly inside (0, 1)")
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    if coeffs.k_tot2 <= 0.0:
        raise InfeasibleError("high-SNR ceiling requires k_tot2 > 0")
    phi_eps = epsilon ** (-1.0 / n_ec) - 1.0
    if coeffs.c * phi_eps >= coeffs.b and phi_eps > 0.0:
        raise InfeasibleError(
            "outside the monotone region: c * (eps^(-1/N)-1) >= b"
        )
    k_inf = phi_eps * coeffs.a / ((1.0 - tau) * coeffs.b + coeffs.c * tau * phi_eps)
    if coeffs.c > 0.0 and k_inf * tau * coeffs.c >= coeffs.a:
        raise InfeasibleError("k_inf lands outside its feasible bracket")
    ceiling = 1.0 / coeffs.k_tot2
    rate = math.log2((1.0 + ceiling) / (1.0 + tau * k_inf))
    return k_inf, rate
