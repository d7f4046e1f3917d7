"""Power allocation minimizing the secrecy outage probability.

Minimizing the conditional SOP over the power split is equivalent to
maximizing the capacity ratio phi(tau) = (1 + Y_D)/(1 + Y_E), a rational
quadratic whose derivative sign is a plain quadratic Omega(tau).  The
optimizer compares phi at the feasible-set endpoints and at the zeros of
Omega between them, for a whole batch of channel states at once
(``optimize_tau_sop_batch``; ``optimize_tau_sop`` is its one-state call).

The split minimizing the closed-form conditional SOP itself is found for
a whole batch of channel states at once (``minimize_sop_tau``; scalar
coefficients are one state and give 0-d results) from the sign of the
analytic slope of log SOP: one (states x grid) array of slopes brackets
every falling-to-rising sign change, and one Illinois false-position
loop (``throughput.bracketed_roots``, shared with the throughput
optimizer) refines all brackets together, each stopping on its own.  No
SOP value is scanned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

from .config import EffectiveCoeffs
from .errors import SilentSourceError
from .sndr import sndr_destination, sndr_eve
from .sop import SecrecyTarget, per_state, sop_conditional, tau_min
from .throughput import bracketed_roots

# Relative epsilon-1 magnitude below which Omega is treated as linear.
_LINEAR_RTOL = 1e-12
# Offset used when the open tau_min endpoint wins the candidate comparison.
_ENDPOINT_NUDGE = 1e-9
# Relative margin by which the optimize_tau_sop grid audit must beat the
# analytic split before the grid point replaces it.
_GRID_AUDIT_RTOL = 1e-6
# States per block of the (states x grid) audit in optimize_tau_sop_batch.
# It bounds the audit's working set: at a 2048-point grid, 8 states add
# about 1.3 MB of peak memory, 64 states about 9 MB.
_SCAN_BLOCK_STATES = 8
# Relative offsets s of the slope grid tau = t_min + s*(1 - t_min) in
# minimize_sop_tau, 89 per state: 25 geometric steps from 1e-12 up to
# 1/64, where the SOP falls steeply from 1 at tau_min, then 64 even steps
# up to 1.  Each falling-to-rising sign change of the slope between two
# neighbours brackets a local minimum; the first point is also the
# candidate split of a state whose SOP rises from tau_min (R_s = 0).
_SLOPE_GRID = np.concatenate([np.geomspace(1e-12, 1.0 / 64.0, 25, endpoint=False), np.arange(1, 65) / 64.0])
# minimize_sop_tau scans its slope grid in blocks of this many states,
# which bounds its working set: a block's (states x grid) temporaries take
# about 0.7 MB each, and the slope makes about fifteen of them.
_SLOPE_BLOCK_STATES = 1024


@dataclass(frozen=True)
class PhiCoeffs:
    """Quadratic-over-quadratic coefficients of phi and of its derivative sign.

    c3 == c6 structurally; eps1..eps3 define Omega(tau), whose sign equals
    the sign of dphi/dtau.
    """

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    eps1: float
    eps2: float
    eps3: float


class OpaCase(enum.Enum):
    BOTH_SIGN = "BothPositiveOrBothNegative"
    CONVEX_ENDPOINTS = "ConvexEndpoints"
    CONCAVE_INTERIOR = "ConcaveInterior"
    DEGENERATE_LINEAR = "DegenerateLinear"
    GRID_FALLBACK = "GridFallback"


@dataclass(frozen=True)
class OpaResult:
    """Chosen split, case and phi value; arrays over the states when built
    by ``optimize_tau_sop_batch`` (``case_tag`` then holds OpaCase objects)."""

    tau_star: float
    case_tag: OpaCase
    objective_value: float


def phi(tau: float, u: float, v: float, coeffs: EffectiveCoeffs) -> float:
    """Capacity ratio (1 + Y_D(tau)) / (1 + Y_E(tau)), evaluated via the SNDRs."""
    y_d = sndr_destination(tau, coeffs.d, coeffs.e)
    return (1.0 + y_d) / (1.0 + sndr_eve(tau, u, v, coeffs.a, coeffs.b, coeffs.c))


def phi_coeffs(u: float, v: float, coeffs: EffectiveCoeffs) -> PhiCoeffs:
    """Expand phi into its rational-quadratic coefficients for given (u, v)."""
    a, b, c, d, e = coeffs.a, coeffs.b, coeffs.c, coeffs.d, coeffs.e
    bv = b * v
    cu = c * u
    au = a * u
    c1 = (e + d) * (cu - bv)
    c2 = (e + d) * (bv + 1.0) + cu - bv
    c3 = bv + 1.0
    c4 = e * (cu + au - bv)
    c5 = e * (bv + 1.0) + cu + au - bv
    c6 = c3
    eps1 = c1 * c5 - c2 * c4
    eps2 = 2.0 * c3 * (c1 - c4)
    eps3 = c3 * (c2 - c5)
    return PhiCoeffs(c1, c2, c3, c4, c5, c6, eps1, eps2, eps3)


def phi_rational(tau, pc: PhiCoeffs):
    """phi via the expanded rational form; accepts scalar or array tau."""
    num = (pc.c1 * tau + pc.c2) * tau + pc.c3
    den = (pc.c4 * tau + pc.c5) * tau + pc.c6
    return num / den


def omega(tau, pc: PhiCoeffs):
    """Derivative-sign quadratic eps1*tau^2 + eps2*tau + eps3."""
    return (pc.eps1 * tau + pc.eps2) * tau + pc.eps3


def omega_roots(pc: PhiCoeffs) -> np.ndarray:
    """Real zero crossings of Omega as a (..., 2) array, ascending.

    Uses the cancellation-safe quadratic formula.  Where the leading
    coefficient vanishes the linear root takes the first slot; missing
    roots (a complex pair, or a constant Omega) are NaN.
    """
    e1, e2, e3 = pc.eps1, pc.eps2, pc.eps3
    linear = np.abs(e1) <= _LINEAR_RTOL * np.maximum(np.maximum(np.abs(e1), np.abs(e2)), np.abs(e3))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sq = np.sqrt(e2 * e2 - 4.0 * e1 * e3)  # NaN for a complex pair
        q = -0.5 * (e2 + np.copysign(sq, e2))
        half = 0.5 * sq / np.abs(e1)  # the roots are +-half where e2 == 0
        r1 = np.where(e2 == 0.0, -half, q / e1)
        r2 = np.where(e2 == 0.0, half, e3 / q)
        lo = np.where(linear, -e3 / np.where(e2 == 0.0, np.nan, e2), np.minimum(r1, r2))
    hi = np.where(linear, np.nan, np.maximum(r1, r2))
    return np.stack([lo, hi], axis=-1)


def _feasible_tau_min(target: SecrecyTarget, coeffs: EffectiveCoeffs) -> np.ndarray:
    """tau_min of every state; raises SilentSourceError when any state has
    no feasible split (tau_min >= 1, inf when silent)."""
    t_min = tau_min(target, coeffs)
    empty = t_min >= 1.0
    if empty.any():
        raise SilentSourceError(
            f"feasible set empty for {int(empty.sum())} of {empty.size} states "
            "(tau_min >= 1); source suspends"
        )
    return t_min


def optimize_tau_sop_batch(
    target: SecrecyTarget, coeffs: EffectiveCoeffs, n_ec: int, u=1.0, v=None, grid_points: int = 0
) -> OpaResult:
    """Choose the power split maximizing phi over (tau_min, 1], per state.

    phi is a rational quadratic, so its maximum lies at tau_min, at 1, or
    at a zero of Omega between them.  Each state compares those candidates
    and keeps the first maximum; a maximum on the open end tau_min steps
    just inside it.  The case tag names the sign pattern of Omega at the
    two ends, or DegenerateLinear when its leading coefficient vanishes.

    phi is built at the mean eavesdropper variables u = 1 and v = N_EC
    (``v`` None), since the source cannot observe the eavesdropper's
    channel, unless a realized (u, v) is passed, as the tests do.  ``u``,
    ``v``, ``n_ec``, the target's R_s and the coefficient b may be
    per-state arrays.

    When ``grid_points`` > 0 the analytic result is audited against a
    uniform grid of that many splits, in blocks of states; where the grid
    beats it by more than 1e-6 relative, the grid maximizer is returned
    tagged GridFallback instead.  The tests turn it on.

    Returns an OpaResult of arrays over the states; scalar coefficients
    count as one state.  Raises SilentSourceError when any state has no
    feasible split (tau_min >= 1).
    """
    t_min = np.atleast_1d(_feasible_tau_min(target, coeffs))
    # a v of the states' shape gives every coefficient of phi that shape
    pc = phi_coeffs(np.asarray(u, float), np.broadcast_to(n_ec if v is None else v, t_min.shape), coeffs)

    roots = omega_roots(pc)
    inside = (t_min[:, None] < roots) & (roots < 1.0)
    candidates = np.column_stack([t_min, np.ones(t_min.shape), np.where(inside, roots, np.nan)])
    best = np.nanargmax(phi_rational(candidates.T, pc), axis=0)
    tau_star = candidates[np.arange(t_min.size), best]
    tau_star = np.where(tau_star <= t_min, t_min + _ENDPOINT_NUDGE * (1.0 - t_min), tau_star)
    objective = phi_rational(tau_star, pc)

    om_lo, om_hi = omega(t_min, pc), omega(1.0, pc)
    scale = np.maximum(np.maximum(np.abs(pc.eps1), np.abs(pc.eps2)), np.maximum(np.abs(pc.eps3), 1.0))
    case = np.select(
        [np.abs(pc.eps1) <= _LINEAR_RTOL * scale, (om_lo > 0.0) & (om_hi < 0.0), (om_lo < 0.0) & (om_hi > 0.0)],
        [OpaCase.DEGENERATE_LINEAR, OpaCase.CONCAVE_INTERIOR, OpaCase.CONVEX_ENDPOINTS],
        OpaCase.BOTH_SIGN,
    )

    if grid_points > 0:
        steps = np.arange(1, grid_points + 1) / grid_points
        for start in range(0, t_min.size, _SCAN_BLOCK_STATES):
            block = slice(start, start + _SCAN_BLOCK_STATES)
            t0 = t_min[block, None]
            grid = t0 + steps * (1.0 - t0)
            vals = phi_rational(grid, PhiCoeffs(*(getattr(pc, f.name)[block, None] for f in fields(PhiCoeffs))))
            k = np.argmax(vals, axis=1)
            at = np.arange(k.size)
            phi_star = objective[block]  # views: the fallbacks are written in place
            moved = vals[at, k] - phi_star > _GRID_AUDIT_RTOL * np.maximum(1.0, np.abs(phi_star))
            tau_star[block][moved] = grid[at, k][moved]
            phi_star[moved] = vals[at, k][moved]
            case[block][moved] = OpaCase.GRID_FALLBACK
    return OpaResult(tau_star, case, objective)


def optimize_tau_sop(
    target: SecrecyTarget, coeffs: EffectiveCoeffs, n_ec: int, u: float = 1.0, v: float | None = None,
    grid_points: int = 0,
) -> OpaResult:
    """The one-state call of ``optimize_tau_sop_batch``; returns floats and
    one OpaCase.  Raises SilentSourceError when no feasible split exists."""
    res = optimize_tau_sop_batch(target, coeffs, n_ec, u, v, grid_points)
    return OpaResult(res.tau_star.item(), res.case_tag.item(), res.objective_value.item())


def _log_sop_slope(tau, a, b, c, d, e, t, n_ec):
    """d log SOP / d tau times the positive factor 1 + (1 - tau)*b*r.

    r = (alpha*tau - (T-1)) / (tau*(beta*tau + gamma)) is the ratio inside
    ``sop_conditional``, with alpha = d - e(T-1), beta = eTa - c*alpha and
    gamma = Ta + c(T-1), and T = ``t`` = 2^R_s; r' is its derivative.  The
    result has the sign of the SOP's slope: negative just above tau_min
    when R_s > 0, where r' = (T-1)/(tau^2 (beta*tau + gamma)) > 0.
    """
    t_bar = t - 1.0
    alpha = d - e * t_bar
    beta = e * t * a - c * alpha
    gamma = t * a + c * t_bar
    den = tau * (beta * tau + gamma)
    r = (alpha * tau - t_bar) / den
    r_prime = ((2.0 * t_bar - alpha * tau) * beta * tau + gamma * t_bar) / (den * den)
    nb = n_ec * b
    return nb * r - r_prime * (1.0 + (1.0 - tau) * (b * r + nb))


def minimize_sop_tau(
    target: SecrecyTarget, coeffs: EffectiveCoeffs, n_ec: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split minimizing the closed-form conditional SOP of every state.

    The capacity-ratio proxy above substitutes a fixed (u, v) into phi and
    can land far from the minimum of the (u, v)-averaged SOP; this routine
    minimizes that averaged closed form directly and is what figure-level
    sweeps use.  The analytic slope of log SOP is evaluated on one fixed
    relative grid t_min + s*(1 - t_min) per state (``_SLOPE_GRID``); every
    change of its sign from falling to rising brackets a local minimum,
    and one Illinois false-position loop refines the brackets of a block
    of states (``_SLOPE_BLOCK_STATES``) together, each stopping on its
    own.  No unimodality is assumed: every local minimum competes with
    the full power split tau = 1, and with the grid's first split where
    the SOP rises from tau_min (at R_s = 0, where the infimum lies at the
    open end).  Each state keeps its smallest SOP,
    the smaller split on a tie.  States without leakage (a = 0) are
    outage-free at any feasible split and get (1, 0).  ``n_ec``, the
    target's R_s and the coefficient b may be per-state arrays.

    Returns arrays (tau_star, sop value) shaped like the states (0-d for
    scalar coefficients).  Raises SilentSourceError when any state has no
    feasible split.
    """
    t_min = _feasible_tau_min(target, coeffs)
    shape, t_min = t_min.shape, t_min.ravel()
    tau_star = np.ones(t_min.shape)
    value = np.zeros(t_min.shape)
    leak = np.flatnonzero(np.atleast_1d(coeffs.a) != 0.0)
    for start in range(0, leak.size, _SLOPE_BLOCK_STATES):
        rows = leak[start:start + _SLOPE_BLOCK_STATES]
        tau_star[rows], value[rows] = _minimize_leaking(
            target.take(rows), coeffs.take(rows), per_state(n_ec, rows), t_min[rows]
        )
    return tau_star.reshape(shape), value.reshape(shape)


def _minimize_leaking(target, coeffs, n_ec, t_min):
    """``minimize_sop_tau`` on states that all leak (a > 0)."""
    # the slope's arguments a..e, T and n_ec, one entry per state
    args = [np.broadcast_to(np.asarray(x, float), t_min.shape) for x in (
        coeffs.a, coeffs.b, coeffs.c, coeffs.d, coeffs.e, target.T, n_ec
    )]
    grid = t_min[:, None] + _SLOPE_GRID * (1.0 - t_min[:, None])
    g = _log_sop_slope(grid, *(x[:, None] for x in args))
    rising = g > 0.0
    owner, left = np.nonzero(~rising[:, :-1] & rising[:, 1:])
    roots = bracketed_roots(
        _log_sop_slope, grid[owner, left], grid[owner, left + 1], g[owner, left], g[owner, left + 1],
        *(x[owner] for x in args),
    )

    rows = np.arange(t_min.size)
    lower = np.flatnonzero(rising[:, 0])
    cand_state = np.concatenate([owner, rows, lower])
    cand_tau = np.concatenate([roots, np.ones(t_min.size), grid[lower, 0]])
    # a shared n_ec stays a scalar: x ** -1 is then a reciprocal, while an
    # array exponent goes through numpy's power, which can round differently
    cand_value = sop_conditional(
        cand_tau, target.take(cand_state), coeffs.take(cand_state), per_state(n_ec, cand_state)
    )
    order = np.lexsort((cand_tau, cand_value, cand_state))
    best = order[np.searchsorted(cand_state[order], rows)]
    return cand_tau[best], cand_value[best]
