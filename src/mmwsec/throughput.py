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
forms: the per-state rate, its transmission threshold, and the expected
throughput as an exponential-integral sum over the common gain, with a
direct 2-D quadrature of the rate as its check.  The quadrature, the log
moments and the root search they use live in ``numerics``.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import sample_gains
from .config import EffectiveCoeffs, SystemConfig
from .errors import ConvergenceError, InfeasibleError
from .montecarlo import McEstimate, as_rng, sample_mean
from .numerics import (
    LN2, ROOT_XTOL, best_candidates, bracketed_roots, gamma_cap, gamma_pdf, gk21, log_moments, log_poisson,
    state_blocks,
)
from .sndr import high_snr_ceiling, sndr_destination
from .sop import eve_tail, per_value


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

def rs_of_tau(tau, k, d, e):
    """Secrecy rate log2((tau(d+e)+1) / ((tau*e+1)(1+tau*k))) in bits/s/Hz at
    cap k, elementwise over broadcastable tau, k and the states' d and e."""
    return np.log2((tau * (d + e) + 1.0) / ((tau * e + 1.0) * (1.0 + tau * k)))


def _rate_slope(tau, x, a, b, c, d, e, n_ec):
    """dR_s/dtau at x = x(tau), in bits/s/Hz per unit split."""
    den = 1.0 + c * tau * x
    k = x * a / den  # _k_of_x, whose denominator dk/dtau shares
    dest = d / ((tau * (d + e) + 1.0) * (tau * e + 1.0))
    cap = (k + tau * _dk_dtau(x, tau, a, b, c, n_ec, den)) / (1.0 + tau * k)
    return (dest - cap) / LN2


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
                           xtol=0.0, rtol=ROOT_XTOL)
    tau, x = _on_curve(root, on_x, inv_b, b, n_ec, log_eps)
    # Q(k) = 0 must hold at tau as stored, and 1 - tau keeps few digits near
    # tau = 1, so Newton polishes x at the stored tau
    return tau, _solve_x(tau, b, n_ec, log_eps, x)


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
    cand_rate = rs_of_tau(cand_tau, cand_k, d[cand_state], e[cand_state])
    best = best_candidates(cand_state, -cand_rate, -cand_tau, a.size)
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


def log_moment(q: float, m: int) -> float:
    """E[log2(1 + q*X)] for X ~ Gamma(m+1, 1); order m of ``log_moments``."""
    return float(log_moments(q, m)[m])


def _mrt_kernel(y, s: _MrtScales, n_c: int, n_dc: int):
    """Inner closed form of the expected MRT throughput, elementwise over
    the common gains y."""
    beta = np.maximum(0.0, s.threshold(y))
    g = beta + y
    de = s.e_bar + s.d_bar
    qs = np.stack([1.0 / (beta + y * s.c1), de / (de * g + 1.0),
                   1.0 / (beta + y * s.c3), s.e_bar / (s.e_bar * g + 1.0)])
    l1, l2, l3, l4 = np.moveaxis(log_moments(qs, n_dc - 1), 1, 0)
    # order m carries the Poisson(beta) mass at k = n_dc - 1 - m
    k = np.arange(n_dc - 1, -1, -1).reshape((-1,) + (1,) * beta.ndim)
    total = np.sum(np.exp(log_poisson(beta, k)) * (l1 + l2 - l3 - l4 + s.rate(y, beta)), axis=0)
    return gamma_pdf(y, n_c) * total


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
    cap = gamma_cap(n_c)
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
        l2, l4 = log_moments(np.array([s.d_bar + s.e_bar, s.e_bar]), n_dc - 1)[-1]
        values = np.atleast_1d(l2 - l4)
    else:
        values = gk21(lambda y, owner: _mrt_kernel(y, s.rows(owner), n_c, n_dc),
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
    x_cap = gamma_cap(n_dc)

    def outer(y, _):
        g_hat = y.ravel()
        beta = np.maximum(0.0, s.threshold(g_hat))
        span = np.maximum(x_cap, beta * 4.0 + 40.0) - beta
        inner = gk21(
            lambda x, node: gamma_pdf(x, n_dc) * s.rate(g_hat[node, None], x),
            beta[:, None] + span[:, None] * _HALVINGS, 1e-12, 1e-9,
        )
        return gamma_pdf(y, n_c) * inner.reshape(y.shape)

    return float(gk21(outer, _mrt_panels(s, 1, n_c, n_dc), 1e-12, 1e-8)[0])


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
