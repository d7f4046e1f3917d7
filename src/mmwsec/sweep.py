"""Sweep engine: the cells of a parameter sweep, their Monte-Carlo gate,
the CSV, and the fig3..fig7 presets.

A sweep (``SweepSpec``) crosses a swept configuration key with per-curve
overrides; ``run_sweep`` gives one row per (value, variant, scheme) cell,
whose analytic column sits next to a Monte-Carlo sibling and a declared
tolerance (``check_rows``).

Streams.  A cell's draws depend only on (seed, N_C, n_dc, n_ec, trials,
uv_samples).  Its channel gains come from the Philox stream
``montecarlo.as_rng(seed)``, shared by the cells of one draw key
(N_C, n_dc).  Its u/v blocks come from the seed's walk streams
``montecarlo.walk_rng(seed, level)``: level ``None`` draws u ~ Exp(1),
and level b the canonical G_b ~ Gamma(2^b) (``standard_gamma(1.0)``
draws the exponential's numbers).  A cell with n_ec = n meets v = the
sum of G_b over the set bits b of n, added in ascending b, which is
Gamma(n) by Gamma additivity.  Every stream draws one chunk of
``uv_samples`` per block from block 0, and block j meets the j-th state
of every cell that has one, so a cell meets the numbers it meets alone,
and the cells of one spec share u and the levels of their v whatever
their N_C: common random numbers, so the rows of one run are correlated
by design.

Stages.  A walked mode runs in three.  Stage 1 draws each draw key's
gains once.  Stage 2 takes all SOP or all throughput cells of the spec as
one stacked batch (``_stack_cells``), each state with its own gains and
n_ec, and turns them into each cell's per-state event columns
(alpha, beta, thr) of y_E above a per-state threshold, plus a ``finish``
that builds the row from the walk's per-state hit rates (``_sop_cells``,
``_throughput_cells``); ``_gate`` alone turns those rates into the row's
value and tolerance.  Stage 3 walks the spec's u/v streams once
(``_walk_uv``), evaluating every cell block by block.  A throughput_mrt
spec instead evaluates each draw key's cells as one batch
(``_mrt_cells``): one closed-form call and one estimator call that draws
the key's gains once, at its own oversampled budget; MRT rows have no
outage event, so no u/v stream is walked.

Events.  The denominator (1-tau)*b*v + tau*c*u + 1 of y_E is positive,
so y_E > thr is the linear event alpha*u - beta*v > thr with
alpha = tau*(a - thr*c) and beta = thr*(1-tau)*b, over u, v >= 0.  IEEE
products and differences keep the signs of their operands, up to the
sign of a zero, so signs alone decide an event for every draw: it never
hits when alpha <= 0, beta >= 0 and thr >= 0, and it always hits when
alpha >= 0, beta <= 0 and thr < 0 with alpha and beta finite.  Such an
event gets 0 or ``uv_samples`` hits before the walk.  Without common
paths a = c = 0, so alpha = tau*(0 - thr*0) = +0 and beta has the sign
of thr: every event of an N_C = 0 cell is decided, and the cell adds
nothing to the walk.  Open events take one of two tests.  At tau = 1
beta*v is a zero and the event is alpha*u > thr.  Rounding to nearest is
monotone, so with finite alpha > 0 the product fl(alpha*u) never falls
as u grows: for the cutoff t with
fl(alpha*t) <= thr < fl(alpha*nextafter(t, inf)), u <= t gives
fl(alpha*u) <= thr and u > t gives fl(alpha*u) > thr, and the event is
exactly u > t (``_tau1_cutoffs``).  Events without a cutoff (alpha < 0,
non-finite values, beta != 0, or products that underflow) take the
product test; a zero beta*v changes no comparison there.

Walk.  A block tests its open events in segments: those with a cutoff,
which compare u with it, then the products alpha*u - beta*v > thr of
each n_ec in turn, in buffers of one segment's size; it counts hits over
the mask's bytes.  The walk draws u, and each level that some product
adds, up to the last block with an open event, so a spec without an
open event draws nothing.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import pairwise

import numpy as np

from . import montecarlo, opa_sop, sop, throughput
from .channel import sample_gains
from .config import SystemConfig, coeffs_from_gains, coerce_overrides, stack_coeffs

SCHEMA_TAG = "mmwsec-sweep-csv v1"

MODES = (
    "sop_fixed_rate",
    "sop_opa",
    "throughput_opa",
    "throughput_mrt",
    "throughput_equal_power",
)

_MODE_SCHEMES = {
    "sop_fixed_rate": ("mrt", "an_opa"),
    "sop_opa": ("an_opa",),
    "throughput_opa": ("opa",),
    "throughput_mrt": ("mrt",),
    "throughput_equal_power": ("equal",),
}

COLUMNS = (
    "preset",
    "mode",
    "scheme",
    "variant",
    "swept_key",
    "swept_value",
    "P_dBm",
    "N_C",
    "R_s",
    "k_tx",
    "k_rx",
    "epsilon",
    "analytic",
    "mc_value",
    "mc_target",
    "mc_stderr",
    "tol",
    "tau_star_mean",
    "accept_rate",
    "tags",
    "trials",
    "uv_samples",
    "seed",
)


@dataclass
class SweepSpec:
    """One sweep: a swept config key, per-curve overrides, and MC budgets."""

    mode: str
    swept_key: str
    values: list
    base: SystemConfig = field(default_factory=SystemConfig)
    variants: list = field(default_factory=lambda: [{}])
    trials: int = 1000
    uv_samples: int = 2000
    seed: int = 20240801
    preset: str = "custom"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if not self.values:
            raise ValueError("sweep needs a non-empty value list")
        if self.trials < 1 or self.uv_samples < 1:
            raise ValueError(
                f"trials and uv_samples must be at least 1 (got {self.trials}, {self.uv_samples})"
            )
        cells = self.cells()  # builds, and so checks, every cell's configuration and the swept key
        # with common paths the MRT closed form integrates over the non-common
        # gain too; every other mode aims artificial noise at the
        # eavesdropper-only paths
        if self.mode == "throughput_mrt":
            bad = [value for value, _, _, cfg in cells if cfg.N_C >= 1 and cfg.n_dc < 1]
            need = "N_D - N_C >= 1 where N_C >= 1, not N_C = N_D"
        else:
            bad = [value for value, _, _, cfg in cells if cfg.n_ec < 1]
            need = "N_E - N_C >= 1 for artificial noise, not N_C = N_E"
        if bad:
            raise ValueError(f"{self.mode} needs {need} at {self.swept_key}={bad[0]}")

    def cells(self) -> list[tuple]:
        """(swept value, overrides, scheme, config) of every cell, in row order."""
        cells = []
        for value in self.values:
            for overrides in self.variants:
                cfg = self.base.with_overrides(**coerce_overrides({**overrides, self.swept_key: value}))
                cells.extend((value, overrides, scheme, cfg) for scheme in _MODE_SCHEMES[self.mode])
        return cells


def _with_budgets(spec: SweepSpec, trials=None, uv_samples=None, seed=None) -> SweepSpec:
    """Copy of ``spec`` with the given budgets replaced and validated again."""
    given = dict(trials=trials, uv_samples=uv_samples, seed=seed)
    return replace(spec, **{k: v for k, v in given.items() if v is not None})


def _variant_label(overrides: dict) -> str:
    if not overrides:
        return "base"
    return ";".join(f"{k}={overrides[k]}" for k in sorted(overrides))


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _event_columns(tau, a, b, c, thr) -> np.ndarray:
    """(alpha, beta, thr) rows of the event y_E > thr at the given states."""
    return np.array((tau * (a - thr * c), thr * (1.0 - tau) * b, thr))


def _tallies(tags: np.ndarray, members) -> str:
    """``value:count`` of each enum member present in ``tags``, sorted."""
    counts = {m.value: np.count_nonzero(tags == m) for m in members}
    return ";".join(f"{k}:{n}" for k, n in sorted(counts.items()) if n)


def _stack_cells(cells: list[tuple], keys: tuple[str, ...]):
    """Per-cell state counts, their offsets, the stacked coefficients of
    every (scheme, config, g_hat, g_check) cell's gains, and per state the
    named fields of its cell's configuration."""
    sizes = [len(g_hat) for _, _, g_hat, _ in cells]
    coeffs = stack_coeffs([coeffs_from_gains(cfg, g_hat, g_check) for _, cfg, g_hat, g_check in cells])
    columns = [np.repeat([getattr(cfg, key) for _, cfg, _, _ in cells], sizes) for key in keys]
    return sizes, np.cumsum([0, *sizes]), coeffs, columns


def _gate(p_hat: np.ndarray, uv_samples: int) -> tuple[float, float]:
    """(mc_value, tol) of a walked row from its states' hit rates: their
    mean, and the larger of 0.005 and 4 se, with se from the binomial
    variances summed left to right in state order; (NaN, inf) for a row
    without a state."""
    if not len(p_hat):
        return math.nan, math.inf
    pair_var = np.cumsum(p_hat * (1.0 - p_hat) / uv_samples)[-1]
    se = math.sqrt(pair_var) / len(p_hat)
    return float(np.mean(p_hat)), max(0.005, 4.0 * se)


def _sop_cells(cells: list[tuple], split_policy: str):
    """Per (scheme, config, g_hat, g_check) cell: the average SOP over the
    accepted states of the cell's gains, paired with the event-level
    secrecy outage at each accepted state.  Returns one (event columns,
    finish) pair per cell.

    The cells' states form one stacked batch with a per-state R_s and
    n_ec, whatever draw key each cell has: one split-optimizer
    call over the an_opa cells' states with tau_min < 1 and one
    ``sop_overall`` call at the chosen splits.  Every step is
    elementwise, so a cell gets the numbers it would get alone.  The
    an_opa split ``split_policy`` is ``min_sop`` (minimize the closed-form
    conditional SOP; the SOP curves) or ``phi_mean`` (the capacity-ratio
    optimizer at mean eavesdropper variables; when the split is reported).
    """
    sizes, offsets, coeffs, (r_s, n_ec) = _stack_cells(cells, ("R_s", "n_ec"))
    target = sop.SecrecyTarget(r_s)
    tau = np.ones(offsets[-1])
    opa = np.repeat([scheme == "an_opa" for scheme, *_ in cells], sizes)
    split = np.flatnonzero(opa & (sop.tau_min(target, coeffs) < 1.0))
    states, split_target = coeffs.take(split), target.take(split)
    if split_policy == "min_sop":
        tau[split], _ = opa_sop.minimize_sop_tau(split_target, states, n_ec[split])
    else:
        tau[split] = opa_sop.optimize_tau_sop_batch(split_target, states, n_ec[split]).tau_star
    breakdown = sop.sop_overall(tau, target, coeffs, n_ec)
    accepted = np.flatnonzero(breakdown.branch != sop.SopBranch.SOURCE_SILENT)
    tau, values = tau[accepted], breakdown.value[accepted]
    # secrecy outage, log2((1 + y_D) / (1 + y_E)) < R_s, is y_E above this level
    thr = sop.outage_threshold(tau, target.take(accepted), coeffs.take(accepted))
    cols = _event_columns(tau, coeffs.a[accepted], coeffs.b[accepted], coeffs.c[accepted], thr)
    bounds = np.searchsorted(accepted, offsets)
    branch = breakdown.branch[accepted]

    def finish(n: int, lo: int, hi: int, p_hat: np.ndarray, uv_samples: int, seed: int) -> dict:
        mc_value, tol = _gate(p_hat, uv_samples)
        if hi == lo:
            return dict(
                analytic=math.nan, mc_value=mc_value, mc_target=math.nan,
                mc_stderr=0.0, tol=tol, tau_star_mean=math.nan,
                accept_rate=0.0, tags="all_silent",
            )
        analytic = float(np.mean(values[lo:hi]))
        return dict(
            analytic=analytic,
            mc_value=mc_value,
            mc_target=analytic,
            mc_stderr=montecarlo.sample_mean(p_hat, seed).std_error,
            tol=tol,
            tau_star_mean=float(np.mean(tau[lo:hi])),
            accept_rate=int(hi - lo) / n,
            tags=_tallies(branch[lo:hi], sop.SopBranch),
        )

    return [(cols[:, lo:hi], partial(finish, n, lo, hi)) for n, (lo, hi) in zip(sizes, pairwise(bounds))]


def _throughput_cells(cells: list[tuple]):
    """Per (scheme, config, g_hat, g_check) cell: the average secrecy
    throughput of the opa or equal-power split over the cell's gains,
    paired with the realized outage at the designed rate, as one (event
    columns, finish) pair.  The cells form one stacked batch with a
    per-state n_ec and epsilon, whatever draw key each cell has
    (at most one optimizer call, one k(1/2) solve), elementwise like a cell alone."""
    sizes, offsets, coeffs, (n_ec, eps) = _stack_cells(cells, ("n_ec", "epsilon"))
    opa = np.repeat([scheme == "opa" for scheme, *_ in cells], sizes)
    tau, k, case = np.full(opa.size, 0.5), np.zeros(opa.size), np.empty(opa.size, object)
    k[~opa] = throughput.solve_k_batch(0.5, coeffs.a[~opa], coeffs.b[~opa], coeffs.c[~opa], n_ec[~opa], eps[~opa])
    rates = throughput.rs_of_tau(tau, k, coeffs)  # the equal-power rates; opa states take the optimizer's
    transmit, rates = rates >= 0.0, np.maximum(rates, 0.0)
    if opa.any():  # an equal-power batch skips the optimizer
        res = throughput.optimize_tau_throughput_batch(coeffs.take(opa), n_ec[opa], eps[opa])
        tau[opa], k[opa], case[opa] = res.tau_star, res.k_star, res.case_tag
        rates[opa], transmit[opa] = res.R_s_star, res.transmit
    checked = np.flatnonzero(transmit & (coeffs.a > 0.0) & (k > 0.0))
    # rate outage: y_E above the designed margin tau * k
    cols = _event_columns(*(x[checked] for x in (tau, coeffs.a, coeffs.b, coeffs.c, tau * k)))
    bounds = np.searchsorted(checked, offsets)

    def finish(i: int, p_hat: np.ndarray, uv_samples: int, seed: int) -> dict:
        scheme, cfg, *_ = cells[i]
        n, rows = sizes[i], slice(offsets[i], offsets[i + 1])
        sent = transmit[rows]
        est = montecarlo.sample_mean(rates[rows], seed)
        mc_value, tol = _gate(p_hat, uv_samples)
        return dict(
            analytic=est.value,
            mc_value=mc_value,
            mc_target=cfg.epsilon if len(p_hat) else math.nan,
            mc_stderr=est.std_error,
            tol=tol,
            tau_star_mean=float(np.mean(tau[rows][sent])) if sent.any() else math.nan,
            accept_rate=int(sent.sum()) / n,
            tags=_tallies(case[rows], throughput.ThroughputCase) if scheme == "opa" else "fixed_tau",
        )

    return [(cols[:, lo:hi], partial(finish, i)) for i, (lo, hi) in enumerate(pairwise(bounds))]


def _mrt_cells(cells: list[tuple[str, SystemConfig]], trials: int, seed: int) -> list[dict]:
    """Per (scheme, config) cell of one draw key: the average MRT secrecy
    throughput by quadrature, checked against its own Monte-Carlo
    estimator.  One closed-form call integrates every cell as one batch
    and one estimator call draws the gains once for all of them; a cell
    gets the numbers it would get alone."""
    cfgs = [cfg for _, cfg in cells]
    analytic = throughput.mrt_throughput(cfgs).tolist()
    # the full-power region can be a rare event at high power under
    # impairments; the vectorized estimator is cheap, so oversample
    n_mrt = min(max(80 * trials, 20_000), 200_000)
    return [
        dict(
            analytic=value,
            mc_value=est.value,
            mc_target=value,
            mc_stderr=est.std_error,
            tol=5.0 * est.std_error + 2e-3 * abs(value) + 2e-6,
            tau_star_mean=1.0,
            accept_rate=1.0,
            tags="quadrature_vs_mc",
        )
        for value, est in zip(analytic, throughput.avg_throughput_mrt(cfgs, n_mrt, seed), strict=True)
    ]


def _tau1_cutoffs(alpha: np.ndarray, beta: np.ndarray, thr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which events alpha*u - beta*v > thr the walk tests as u > t, and
    each event's bound: its cutoff t where it has one, thr elsewhere.

    An event at tau = 1 (beta a zero) with finite alpha > 0 gets the t with
    fl(alpha*t) <= thr < fl(alpha*nextafter(t, inf)), reached from the
    quotient thr/alpha in one step down and one up.  Where the products
    underflow (a zero or subnormal thr) the two steps can fall short, and
    the event keeps its product test.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = thr / alpha
        t = np.where(alpha * t > thr, np.nextafter(t, -np.inf), t)
        up = np.nextafter(t, np.inf)
        t = np.where(alpha * up <= thr, up, t)
        pinned = (alpha * t <= thr) & (alpha * np.nextafter(t, np.inf) > thr)
    cut = pinned & (beta == 0.0) & (alpha > 0.0) & np.isfinite(alpha)
    return cut, np.where(cut, t, thr)


def _walk_uv(stream, uv_samples: int, cells: list[np.ndarray], n_ec: list[int]) -> list[np.ndarray]:
    """Walk a spec's u/v streams once, over the events their draws can
    change, and return each cell's per-state hit rates (the module
    docstring's streams, events and walk).

    ``cells`` holds each cell's (3 x states) event columns (alpha, beta,
    thr) from ``_event_columns``, and ``n_ec`` each cell's N_E - N_C.
    ``stream(level)`` is a stream's numpy Generator; a sweep passes its
    seed's ``montecarlo.walk_rng``.
    """
    offsets = np.cumsum([0, *(cols.shape[1] for cols in cells)])
    alpha, beta, thr = np.concatenate([np.empty((3, 0)), *cells], axis=1)
    never = (alpha <= 0.0) & (beta >= 0.0) & (thr >= 0.0)
    always = (alpha >= 0.0) & np.isfinite(alpha) & np.isfinite(beta) & (beta <= 0.0) & (thr < 0.0)
    hits = np.where(always, uv_samples, 0)
    events = np.flatnonzero(~(never | always))
    cut, bound = _tau1_cutoffs(alpha[events], beta[events], thr[events])
    # open events block by block, each block in segments of one n_ec: its
    # events tested on u alone (n = 0), then the products of each n_ec
    cell = np.searchsorted(offsets[1:], events, side="right")
    width = max(n_ec, default=0) + 1
    key = (events - offsets[cell]) * width + np.where(cut, 0, np.asarray(n_ec, int)[cell])
    order = np.argsort(key, kind="stable")
    events, key = events[order], key[order]
    alpha, beta, bound = alpha[events, None], beta[events, None], bound[order, None]
    # each segment's first row, then the end
    edges = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist(), len(key)] if len(key) else [0]
    seg_block, seg_n = np.divmod(key[edges[:-1]], width)
    depth = int(seg_block[-1]) + 1 if len(key) else 0
    block_edges = np.searchsorted(key, width * np.arange(depth + 1)).tolist()
    used = int(np.bitwise_or.reduce(seg_n, initial=0))  # bit b set: some product adds level b
    level = {b: np.empty(uv_samples) for b in range(used.bit_length()) if used >> b & 1}
    draws = [(stream(b), 2.0**b, g) for b, g in level.items()]
    # per segment the level rows its v adds, in ascending b; none for u alone
    adds = {n: tuple(g for b, g in level.items() if n >> b & 1) for n in set(seg_n.tolist())}
    segments = [[] for _ in range(depth)]
    for j, n, lo, hi in zip(seg_block.tolist(), seg_n.tolist(), edges, edges[1:]):
        segments[j].append((lo, hi, adds[n]))
    u_rng, (u, v) = stream(None), np.empty((2, uv_samples))
    au, bv = np.empty((2, np.diff(edges)[seg_n > 0].max(initial=0), uv_samples))
    hit = np.empty((np.diff(block_edges).max(initial=0), uv_samples), bool)
    open_hits = np.empty(len(key), np.uint32)  # uv_samples < 2**32: a longer sample vector takes 32 GiB
    for j, (lo, hi) in enumerate(pairwise(block_edges)):
        u_rng.standard_exponential(out=u)
        for rng, shape, g in draws:
            rng.standard_gamma(shape, out=g)
        for s_lo, s_hi, rows_v in segments[j]:
            rows = hit[s_lo - lo : s_hi - lo]
            if not rows_v:
                np.greater(u, bound[s_lo:s_hi], out=rows)
                continue
            sum_v = rows_v[0]
            for g in rows_v[1:]:
                sum_v = np.add(sum_v, g, out=v)
            lhs = np.multiply(alpha[s_lo:s_hi], u, out=au[: s_hi - s_lo])
            np.subtract(lhs, np.multiply(beta[s_lo:s_hi], sum_v, out=bv[: s_hi - s_lo]), out=lhs)
            np.greater(lhs, bound[s_lo:s_hi], out=rows)
        hit[: hi - lo].view(np.uint8).sum(axis=1, dtype=np.uint32, out=open_hits[lo:hi])
    hits[events] = open_hits
    p_hat = hits / uv_samples
    return [p_hat[lo:hi] for lo, hi in pairwise(offsets.tolist())]


def run_sweep(spec: SweepSpec, *, workers: int = 1) -> list[dict]:
    """Evaluate every (value, variant, scheme) cell of a sweep on the
    calling thread, in the module docstring's stages.  ``workers`` is
    ignored: the benchmark in ``perfbench/workloads.py`` still passes it.
    """
    jobs = spec.cells()
    groups: dict[tuple, list[int]] = {}
    for i, (_, _, _, cfg) in enumerate(jobs):
        groups.setdefault((cfg.N_C, cfg.n_dc), []).append(i)

    if spec.mode == "throughput_mrt":
        cells = {}
        for members in groups.values():
            cells.update(zip(members, _mrt_cells([jobs[i][2:] for i in members], spec.trials, spec.seed)))
    else:
        gains = {}
        for (n_c, n_dc), members in groups.items():
            gains.update(dict.fromkeys(members, sample_gains(n_c, n_dc, spec.trials, montecarlo.as_rng(spec.seed))))
        batch = [(scheme, cfg, *gains[i]) for i, (_, _, scheme, cfg) in enumerate(jobs)]
        if spec.mode in ("sop_fixed_rate", "sop_opa"):
            made = _sop_cells(batch, "min_sop" if spec.mode == "sop_fixed_rate" else "phi_mean")
        else:
            made = _throughput_cells(batch)
        walked = _walk_uv(partial(montecarlo.walk_rng, spec.seed), spec.uv_samples,
                          [cols for cols, _ in made], [cfg.n_ec for *_, cfg in jobs])
        cells = [finish(p_hat, spec.uv_samples, spec.seed) for (_, finish), p_hat in zip(made, walked)]

    rows = []
    for i, (value, overrides, scheme, cfg) in enumerate(jobs):
        row = dict(
            preset=spec.preset,
            mode=spec.mode,
            scheme=scheme,
            variant=_variant_label(overrides),
            swept_key=spec.swept_key,
            swept_value=value,
            P_dBm=cfg.P_dBm,
            N_C=cfg.N_C,
            R_s=cfg.R_s,
            k_tx=cfg.k_tx,
            k_rx=cfg.k_rx,
            epsilon=cfg.epsilon,
            trials=spec.trials,
            uv_samples=spec.uv_samples,
            seed=spec.seed,
        )
        row.update(cells[i])
        rows.append(row)
    return rows


def _unchecked(row: dict) -> bool:
    """True when a row has no Monte-Carlo value or target to compare."""
    return math.isnan(row["mc_value"]) or math.isnan(row["mc_target"])


def check_rows(rows: list[dict]) -> list[str]:
    """Return a failure message per row whose MC column misses its target.

    Rows without a Monte-Carlo value or target are skipped.
    """
    failures = []
    for row in rows:
        if _unchecked(row):
            continue
        mc, target, tol = row["mc_value"], row["mc_target"], row["tol"]
        if abs(mc - target) > tol:
            failures.append(
                f"{row['preset']}/{row['mode']}/{row['scheme']} {row['swept_key']}="
                f"{row['swept_value']} variant={row['variant']}: "
                f"|{mc:.6g} - {target:.6g}| > tol {tol:.3g}"
            )
    return failures


def render_csv(specs: list[SweepSpec], rows: list[dict]) -> str:
    """Schema-tagged CSV with all run parameters echoed in header comments."""
    buf = io.StringIO()
    buf.write(f"# {SCHEMA_TAG}\n")
    for spec in specs:
        base = ",".join(f"{f.name}={getattr(spec.base, f.name)!r}" for f in fields(SystemConfig))
        buf.write(
            f"# sweep preset={spec.preset} mode={spec.mode} swept_key={spec.swept_key} "
            f"values={spec.values!r} variants={spec.variants!r} trials={spec.trials} "
            f"uv_samples={spec.uv_samples} seed={spec.seed}\n"
        )
        buf.write(f"# base {base}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in COLUMNS])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# presets
#
# Each preset keeps the measured 28 GHz path-loss model, the -50 dBm noise
# floor, d = 100 m and the stated antenna/path counts; transmit power spans
# the decades where the link actually sustains the target rates, printed in
# the CSV header for transparency.
# ---------------------------------------------------------------------------

def preset_specs(name: str, trials=None, uv_samples=None, seed=None) -> list[SweepSpec]:
    if name == "fig3":
        specs = [SweepSpec(
            mode="sop_fixed_rate",
            swept_key="N_C",
            values=[0, 2, 4, 6, 8, 10, 12, 14, 16, 18],
            base=SystemConfig(M=100, N_D=20, N_C=0, P_dBm=55.0, R_s=5.0),
            variants=[
                {"k_tx": 0.0, "k_rx": 0.0},
                {"k_tx": 0.05, "k_rx": 0.05},
                {"k_tx": 0.1, "k_rx": 0.1},
            ],
            trials=800,
            uv_samples=1500,
            preset="fig3",
        )]
    elif name == "fig4":
        specs = [SweepSpec(
            mode="sop_fixed_rate",
            swept_key="N_C",
            values=[0, 2, 4, 6, 8, 10, 12, 14, 16, 18],
            base=SystemConfig(M=100, N_D=20, N_C=0, P_dBm=55.0),
            variants=[
                {"R_s": 4.0, "k_tx": 0.1, "k_rx": 0.1},
                {"R_s": 5.0, "k_tx": 0.1, "k_rx": 0.1},
                {"R_s": 6.0, "k_tx": 0.1, "k_rx": 0.1},
                {"R_s": 4.0, "k_tx": 0.0, "k_rx": 0.0},
                {"R_s": 5.0, "k_tx": 0.0, "k_rx": 0.0},
                {"R_s": 6.0, "k_tx": 0.0, "k_rx": 0.0},
            ],
            trials=800,
            uv_samples=1500,
            preset="fig4",
        )]
    elif name == "fig5":
        specs = [SweepSpec(
            mode="sop_opa",
            swept_key="P_dBm",
            values=[56.0, 59.0, 62.0, 65.0, 68.0],
            base=SystemConfig(M=150, N_D=20, N_C=16, R_s=5.0),
            variants=[
                {"k_tx": 0.0, "k_rx": 0.0},
                {"k_tx": 0.05, "k_rx": 0.05},
                {"k_tx": 0.1, "k_rx": 0.1},
            ],
            trials=600,
            uv_samples=1200,
            preset="fig5",
        )]
    elif name == "fig6":
        base = SystemConfig(M=100, N_D=20, N_C=16, epsilon=0.01)
        variants = [{"k_tx": 0.0, "k_rx": 0.0}, {"k_tx": 0.1, "k_rx": 0.1}]
        values = [40.0, 45.0, 50.0, 55.0, 60.0, 65.0]
        specs = [
            SweepSpec(mode=m, swept_key="P_dBm", values=values, base=base,
                      variants=variants, trials=400, uv_samples=1000,
                      preset="fig6")
            for m in ("throughput_opa", "throughput_equal_power", "throughput_mrt")
        ]
    elif name == "fig7":
        specs = [SweepSpec(
            mode="throughput_opa",
            swept_key="P_dBm",
            values=[35.0, 40.0, 45.0, 50.0, 55.0, 60.0, 65.0, 70.0, 75.0],
            base=SystemConfig(M=100, N_D=20, N_C=16, epsilon=0.01),
            variants=[{"k_tx": 0.0, "k_rx": 0.0}, {"k_tx": 0.1, "k_rx": 0.1}],
            trials=400,
            uv_samples=1000,
            preset="fig7",
        )]
    else:
        raise ValueError(f"unknown preset {name!r}; expected fig3..fig7")
    return [_with_budgets(spec, trials, uv_samples, seed) for spec in specs]
