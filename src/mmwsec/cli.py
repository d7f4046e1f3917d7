"""Batch front-end: parameter sweeps with paired Monte-Carlo columns.

Every analytic column in the emitted CSV sits next to a Monte-Carlo
sibling and a declared tolerance; the process exits nonzero if any pair
disagrees.  Output is byte-identical for a given seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import pairwise

import numpy as np

from . import montecarlo, opa_sop, sop, throughput
from .channel import sample_gain_scalars
from .config import SystemConfig, coeffs_from_gains, coerce_overrides, key_value_lines, load_config, stack_coeffs
from .sndr import sndr_destination, sndr_eve

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
        known = {f.name for f in fields(SystemConfig)}
        if self.swept_key not in known:
            raise ValueError(f"swept key {self.swept_key!r} is not a config field")
        if self.trials < 1 or self.uv_samples < 1:
            raise ValueError(
                f"trials and uv_samples must be at least 1 (got {self.trials}, {self.uv_samples})"
            )


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


# ---------------------------------------------------------------------------
# sweep cells
#
# A cell's draws depend only on (seed, N_C, n_dc, n_ec, trials, uv_samples):
# its channel gains come first, then one u/v block per state that carries a
# Monte-Carlo event, so the j-th such state of every cell meets the j-th
# block.  Cells that share a draw key therefore share one gain draw and one
# walk of the u/v stream.  ``_sop_cells`` and ``_throughput_cells`` take
# all SOP or all throughput cells of a group as one stacked batch and turn
# the shared gains into each cell's per-state columns (alpha, beta, thr)
# of its event, y_E above a per-state threshold, plus a ``finish`` that
# builds the row from the walk's per-state hit rates, their summed
# binomial variance and the draws' seed.
# The denominator (1-tau)*b*v + tau*c*u + 1 of y_E is positive, so
# y_E > thr is the linear event alpha*u - beta*v > thr with
# alpha = tau*(a - thr*c) and beta = thr*(1-tau)*b.
# ---------------------------------------------------------------------------

def _event_columns(tau, a, b, c, thr) -> np.ndarray:
    """(alpha, beta, thr) rows of the event y_E > thr at the given states."""
    return np.array((tau * (a - thr * c), thr * (1.0 - tau) * b, thr))


def _tallies(tags: np.ndarray, members) -> str:
    """``value:count`` of each enum member present in ``tags``, sorted."""
    counts = {m.value: np.count_nonzero(tags == m) for m in members}
    return ";".join(f"{k}:{n}" for k, n in sorted(counts.items()) if n)


def _sop_cells(cells: list[tuple[str, SystemConfig]], g_hat: np.ndarray, g_check: np.ndarray, split_policy: str):
    """Per (scheme, config) cell of one draw group: the average SOP over the
    accepted states of the shared gains, paired with the event-level
    secrecy outage at each accepted state.  Returns one (event columns,
    finish) pair per cell.

    The cells' states form one stacked batch with a per-state R_s: one gate
    call at tau = 1, one split-optimizer call over the Conditional states
    of the an_opa cells and one gate call at the chosen splits.  Every step
    is elementwise, so a cell gets the numbers it would get alone.  The
    an_opa split ``split_policy`` is ``min_sop`` (minimize the closed-form
    conditional SOP; the SOP curves) or ``phi_mean`` (the capacity-ratio
    optimizer at mean eavesdropper variables; when the split is reported).
    """
    n = len(g_hat)
    n_ec = cells[0][1].n_ec
    coeffs = stack_coeffs([coeffs_from_gains(cfg, g_hat, g_check) for _, cfg in cells])
    target = sop.SecrecyTarget(np.repeat([cfg.R_s for _, cfg in cells], n))

    breakdown = sop.sop_overall(1.0, target, coeffs, n_ec)
    tau = np.ones(n * len(cells))
    opa = np.repeat([scheme == "an_opa" for scheme, _ in cells], n)
    split = np.flatnonzero(opa & (breakdown.branch == sop.SopBranch.CONDITIONAL))
    states, split_target = coeffs.take(split), target.take(split)
    if split_policy == "min_sop":
        tau[split], _ = opa_sop.minimize_sop_tau(split_target, states, n_ec)
    else:
        tau[split] = opa_sop.optimize_tau_sop_batch(split_target, states, n_ec).tau_star
    breakdown = sop.sop_overall(tau, target, coeffs, n_ec)
    accepted = np.flatnonzero(breakdown.branch != sop.SopBranch.SOURCE_SILENT)
    tau, values = tau[accepted], breakdown.value[accepted]
    y_d = sndr_destination(tau, coeffs.d[accepted], coeffs.e[accepted])
    # secrecy outage, log2((1 + y_D) / (1 + y_E)) < R_s, solved for y_E
    thr = (1.0 + y_d) / target.T[accepted] - 1.0
    cols = _event_columns(tau, coeffs.a[accepted], coeffs.b[accepted], coeffs.c[accepted], thr)
    bounds = np.searchsorted(accepted, n * np.arange(len(cells) + 1))
    branch = breakdown.branch[accepted]

    def finish(lo: int, hi: int, empirical_vals: np.ndarray, pair_var: float, seed: int) -> dict:
        m = int(hi - lo)
        if m == 0:
            return dict(
                analytic=math.nan, mc_value=math.nan, mc_target=math.nan,
                mc_stderr=0.0, tol=math.inf, tau_star_mean=math.nan,
                accept_rate=0.0, tags="all_silent",
            )
        analytic = float(np.mean(values[lo:hi]))
        se_pair = math.sqrt(pair_var) / m
        est = montecarlo.sample_mean(empirical_vals, seed)
        return dict(
            analytic=analytic,
            mc_value=est.value,
            mc_target=analytic,
            mc_stderr=est.std_error,
            tol=max(0.005, 4.0 * se_pair),
            tau_star_mean=float(np.mean(tau[lo:hi])),
            accept_rate=m / n,
            tags=_tallies(branch[lo:hi], sop.SopBranch),
        )

    return [(cols[:, lo:hi], partial(finish, lo, hi)) for lo, hi in pairwise(bounds)]


def _throughput_cells(cells: list[tuple[str, SystemConfig]], g_hat: np.ndarray, g_check: np.ndarray):
    """Per (scheme, config) cell of one draw group: the average secrecy
    throughput of the opa or equal-power split over the shared gains, paired
    with the realized outage at the designed rate, as one (event columns,
    finish) pair.  The cells form one stacked batch with a per-state epsilon
    (one optimizer call, one k(1/2) solve), elementwise like a cell alone."""
    n = len(g_hat)
    n_ec = cells[0][1].n_ec
    coeffs = stack_coeffs([coeffs_from_gains(cfg, g_hat, g_check) for _, cfg in cells])
    eps = np.repeat([cfg.epsilon for _, cfg in cells], n)
    opa = np.repeat([scheme == "opa" for scheme, _ in cells], n)
    res = throughput.optimize_tau_throughput_batch(coeffs.take(opa), n_ec, eps[opa])
    tau, k, case = np.full(opa.size, 0.5), np.empty(opa.size), np.empty(opa.size, object)
    tau[opa], k[opa], case[opa] = res.tau_star, res.k_star, res.case_tag
    k[~opa] = throughput.solve_k_batch(0.5, coeffs.a[~opa], coeffs.b[~opa], coeffs.c[~opa], n_ec, eps[~opa])
    rates = throughput.rs_of_tau(tau, k, coeffs)  # the equal-power rates; opa states take the optimizer's
    transmit, rates = rates >= 0.0, np.maximum(rates, 0.0)
    rates[opa], transmit[opa] = res.R_s_star, res.transmit
    checked = np.flatnonzero(transmit & (coeffs.a > 0.0) & (k > 0.0))
    # rate outage: y_E above the designed margin tau * k
    cols = _event_columns(*(x[checked] for x in (tau, coeffs.a, coeffs.b, coeffs.c, tau * k)))
    bounds = np.searchsorted(checked, n * np.arange(len(cells) + 1))

    def finish(i: int, outage_hats: np.ndarray, pair_var: float, seed: int) -> dict:
        scheme, cfg = cells[i]
        rows = slice(i * n, (i + 1) * n)
        sent = transmit[rows]
        est = montecarlo.sample_mean(rates[rows], seed)
        if len(outage_hats):
            mc_value = float(np.mean(outage_hats))
            se_pair = math.sqrt(pair_var) / len(outage_hats)
            tol = max(0.005, 4.0 * se_pair)
            target = cfg.epsilon
        else:
            mc_value, tol, target = math.nan, math.inf, math.nan
        return dict(
            analytic=est.value,
            mc_value=mc_value,
            mc_target=target,
            mc_stderr=est.std_error,
            tol=tol,
            tau_star_mean=float(np.mean(tau[rows][sent])) if sent.any() else math.nan,
            accept_rate=int(sent.sum()) / n,
            tags=_tallies(case[rows], throughput.ThroughputCase) if scheme == "opa" else "fixed_tau",
        )

    return [(cols[:, lo:hi], partial(finish, i)) for i, (lo, hi) in enumerate(pairwise(bounds))]


def _mrt_point(cfg: SystemConfig, trials: int, seed: int) -> dict:
    """Average MRT secrecy throughput by quadrature, checked against its own
    Monte-Carlo estimator."""
    analytic = throughput.mrt_throughput(cfg, cross_check=False)
    # the full-power region can be a rare event at high power under
    # impairments; the vectorized estimator is cheap, so oversample
    n_mrt = min(max(80 * trials, 20_000), 200_000)
    est = throughput.avg_throughput_mrt(cfg, n_mrt, seed)
    return dict(
        analytic=analytic,
        mc_value=est.value,
        mc_target=analytic,
        mc_stderr=est.std_error,
        tol=5.0 * est.std_error + 2e-3 * abs(analytic) + 2e-6,
        tau_star_mean=1.0,
        accept_rate=1.0,
        tags="quadrature_vs_mc",
    )


def _walk_uv(rng, n_c: int, n_ec: int, uv_samples: int, cells: list[np.ndarray]) -> list:
    """Walk one draw group's u/v stream once.

    ``cells`` holds each cell's (3 x states) event columns (alpha, beta,
    thr) from ``_event_columns``.  Block j meets the j-th state of every
    cell that has one, and all those states are evaluated as one
    (cells x uv) array.  Since the denominator of y_E is positive, the hit
    y_E > thr is tested as alpha*u - beta*v > thr, without a division.
    The walk allocates its sample vectors, products and hit mask once and
    writes each block into the rows of the cells still walking;
    ``standard_exponential`` and ``standard_gamma`` draw the same numbers
    as ``exponential(1.0)`` and ``gamma(n_ec, 1.0)``.  Returns per cell its
    per-state hit rates and their binomial variances summed in state order.
    """
    counts = np.array([cols.shape[1] for cols in cells])
    order = np.argsort(-counts, kind="stable")  # the cells still walking form a prefix
    depth = int(counts.max())
    stacked = np.zeros((3, len(cells), depth))
    for row, i in enumerate(order):
        stacked[:, row, : counts[i]] = cells[i]
    walking = np.count_nonzero(counts[:, None] > np.arange(depth), axis=0)
    hits = np.zeros((len(cells), depth))
    pair_var = np.zeros(len(cells))
    u, v = np.zeros(uv_samples), np.empty(uv_samples)  # u stays 0 without common paths
    au, bv = np.empty((2, len(cells), uv_samples))
    hit = np.empty((len(cells), uv_samples), bool)
    for j in range(depth):
        if n_c > 0:
            rng.standard_exponential(out=u)
        rng.standard_gamma(n_ec, out=v)
        live = walking[j]
        alpha, beta, thr = stacked[:, :live, j, None]
        lhs = np.multiply(alpha, u, out=au[:live])
        np.subtract(lhs, np.multiply(beta, v, out=bv[:live]), out=lhs)
        p_hat = np.count_nonzero(np.greater(lhs, thr, out=hit[:live]), axis=1) / uv_samples
        hits[:live, j] = p_hat
        pair_var[:live] += p_hat * (1.0 - p_hat) / uv_samples
    walked = [None] * len(cells)
    for row, i in enumerate(order):
        walked[i] = (hits[row, : counts[i]], float(pair_var[row]))
    return walked


def _evaluate_group(spec: SweepSpec, cells: list[tuple[str, SystemConfig]]) -> list[dict]:
    """Result columns of the (scheme, config) cells that share one draw key."""
    if spec.mode == "throughput_mrt":
        return [_mrt_point(cfg, spec.trials, spec.seed) for _, cfg in cells]
    first = cells[0][1]
    rng = montecarlo.as_rng(spec.seed)
    g_hat, g_check, _, _ = sample_gain_scalars(first.N_C, first.n_dc, first.n_ec, spec.trials, rng)
    if spec.mode in ("sop_fixed_rate", "sop_opa"):
        policy = "min_sop" if spec.mode == "sop_fixed_rate" else "phi_mean"
        made = _sop_cells(cells, g_hat, g_check, policy)
    else:
        made = _throughput_cells(cells, g_hat, g_check)
    walked = _walk_uv(rng, first.N_C, first.n_ec, spec.uv_samples, [cols for cols, _ in made])
    return [finish(*w, spec.seed) for (_, finish), w in zip(made, walked)]


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[dict]:
    """Evaluate every (value, variant, scheme) cell of a sweep.

    Cells are grouped by their draw key (N_C, n_dc, n_ec; the seed and
    budgets are the spec's).  Each group draws its channel gains once from
    ``spec.seed`` and walks its u/v stream once, evaluating every cell of
    the group block by block as one array; a cell gets exactly the numbers
    it would draw alone, so sweeps share common random numbers.  MRT
    throughput cells each re-seed their own estimator.  ``workers`` threads
    evaluate groups in parallel; rows come back in cell order and their
    bytes do not depend on the worker count.
    """
    jobs = []
    for value in spec.values:
        for overrides in spec.variants:
            cfg = spec.base.with_overrides(**coerce_overrides({**overrides, spec.swept_key: value}))
            for scheme in _MODE_SCHEMES[spec.mode]:
                jobs.append((value, overrides, scheme, cfg))
    groups: dict[tuple, list[int]] = {}
    for i, (_, _, _, cfg) in enumerate(jobs):
        groups.setdefault((cfg.N_C, cfg.n_dc, cfg.n_ec), []).append(i)

    def work(members):
        return _evaluate_group(spec, [jobs[i][2:] for i in members])

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            evaluated = list(pool.map(work, groups.values()))
    else:
        evaluated = [work(members) for members in groups.values()]
    cells = {}
    for members, results in zip(groups.values(), evaluated):
        cells.update(zip(members, results))

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
    common = dict(seed=20240801)
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
            **common,
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
            **common,
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
            **common,
        )]
    elif name == "fig6":
        base = SystemConfig(M=100, N_D=20, N_C=16, epsilon=0.01)
        variants = [{"k_tx": 0.0, "k_rx": 0.0}, {"k_tx": 0.1, "k_rx": 0.1}]
        values = [40.0, 45.0, 50.0, 55.0, 60.0, 65.0]
        specs = [
            SweepSpec(mode=m, swept_key="P_dBm", values=values, base=base,
                      variants=variants, trials=400, uv_samples=1000,
                      preset="fig6", **common)
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
            **common,
        )]
    else:
        raise ValueError(f"unknown preset {name!r}; expected fig3..fig7")
    return [_with_budgets(spec, trials, uv_samples, seed) for spec in specs]


# ---------------------------------------------------------------------------
# validate: condensed oracle suite
# ---------------------------------------------------------------------------

def run_validation(trials: int = 200_000, seed: int = 4242, verbose: bool = True) -> list[tuple[str, bool, str]]:
    """Run formula-vs-oracle spot checks; returns (name, ok, detail) triples."""
    from scipy import special as sp

    results = []

    def record(name: str, ok: bool, detail: str):
        results.append((name, bool(ok), detail))
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")

    rng = np.random.Generator(np.random.Philox(seed))
    target = sop.SecrecyTarget(3.0)

    # conditional SOP closed form vs event-level MC
    worst = 0.0
    for trial in range(3):
        cfg = SystemConfig(
            M=100, N_D=20, N_C=int(rng.integers(4, 17)), P_dBm=float(rng.uniform(48, 62)),
            R_s=3.0, k_tx=0.08, k_rx=0.08,
        )
        g_hat, g_check, _, _ = sample_gain_scalars(cfg.N_C, cfg.n_dc, cfg.n_ec, 1, rng)
        coeffs = coeffs_from_gains(cfg, float(g_hat[0]), float(g_check[0]))
        t_min = sop.tau_min(target, coeffs)
        if t_min >= 1.0:  # inf when the source is silent
            continue
        tau = 0.5 * (t_min + 1.0)
        analytic = sop.sop_conditional(tau, target, coeffs, cfg.n_ec)
        est = montecarlo.empirical_sop_conditional(
            coeffs, tau, target, cfg.n_ec, trials, int(seed + trial)
        )
        gap = abs(analytic - est.value)
        tol = max(0.01, 4.0 * est.std_error)
        worst = max(worst, gap / tol)
    record("sop_conditional_vs_mc", worst <= 1.0, f"worst gap/tol = {worst:.3f}")

    # CDF closed form vs empirical CDF
    cfg = SystemConfig(M=100, N_D=20, N_C=10, P_dBm=55.0)
    g_hat, g_check, _, _ = sample_gain_scalars(cfg.N_C, cfg.n_dc, cfg.n_ec, 1, rng)
    coeffs = coeffs_from_gains(cfg, float(g_hat[0]), float(g_check[0]))
    tau = 0.6
    probe = sndr_eve(tau, rng.exponential(1.0, 4000), rng.gamma(cfg.n_ec, 1.0, 4000), coeffs.a, coeffs.b, coeffs.c)
    grid = np.quantile(probe, np.linspace(0.05, 0.95, 10)).tolist()  # ascending: one sample's quantiles
    ests = montecarlo.empirical_cdf_Y_E(coeffs, tau, grid, trials, int(seed + 10), cfg.n_ec)
    gap = float(np.max(np.abs(sop.cdf_Y_E(grid, tau, coeffs, cfg.n_ec) - [e.value for e in ests])))
    record("cdf_Y_E_vs_mc", gap <= 0.01, f"max pointwise gap = {gap:.4f}")

    # SOP power-split optimizer vs dense grid, over the drawn states that
    # can transmit, in one batch (each state has its own R_s, b and N_EC)
    drawn = []
    for _ in range(100):
        cfg_i = SystemConfig(
            M=100, N_D=20, N_C=int(rng.integers(2, 19)), P_dBm=float(rng.uniform(50, 65)),
            R_s=float(rng.uniform(1, 5)), k_tx=float(rng.uniform(0, 0.15)),
            k_rx=float(rng.uniform(0, 0.15)),
        )
        g_hat, g_check, _, _ = sample_gain_scalars(cfg_i.N_C, cfg_i.n_dc, cfg_i.n_ec, 1, rng)
        drawn.append((cfg_i, coeffs_from_gains(cfg_i, float(g_hat[0]), float(g_check[0]))))
    tgt = sop.SecrecyTarget(np.array([cfg_i.R_s for cfg_i, _ in drawn]))
    states = stack_coeffs([co for _, co in drawn])
    t_min = sop.tau_min(tgt, states)
    ok = t_min < 1.0
    tgt = tgt.take(ok)
    states = states.take(ok)
    n_ec, t_min = np.array([cfg_i.n_ec for cfg_i, _ in drawn], float)[ok], t_min[ok]
    res = opa_sop.optimize_tau_sop_batch(tgt, states, n_ec)
    taus = t_min + (np.arange(1, 4001)[:, None] / 4000.0) * (1.0 - t_min)  # a column per state
    best = np.max(opa_sop.phi_rational(taus, opa_sop.phi_coeffs(1.0, n_ec, states)), axis=0)
    worst_rel = max(0.0, float(np.max((best - res.objective_value) / np.maximum(best, 1e-12))))
    record("opa_sop_vs_grid", worst_rel <= 1e-6, f"worst relative shortfall = {worst_rel:.2e}")

    # throughput optimizer vs dense grid, in one batch (per-state b, N_EC, epsilon)
    drawn = []
    for _ in range(30):
        cfg_i = SystemConfig(
            M=100, N_D=20, N_C=int(rng.integers(2, 19)), P_dBm=float(rng.uniform(45, 70)),
            epsilon=float(rng.uniform(0.005, 0.2)), k_tx=float(rng.uniform(0, 0.15)),
            k_rx=float(rng.uniform(0, 0.15)),
        )
        g_hat, g_check, _, _ = sample_gain_scalars(cfg_i.N_C, cfg_i.n_dc, cfg_i.n_ec, 1, rng)
        drawn.append((cfg_i, coeffs_from_gains(cfg_i, float(g_hat[0]), float(g_check[0]))))
    states = stack_coeffs([co for _, co in drawn])
    n_ec, eps = (np.array([getattr(cfg_i, key) for cfg_i, _ in drawn]) for key in ("n_ec", "epsilon"))
    res = throughput.optimize_tau_throughput_batch(states, n_ec, eps)
    taus = np.linspace(1.0 / 2000, 1.0, 2000)  # a row per state
    a, b, c, d, e, n_ec, eps = (x[:, None] for x in (states.a, states.b, states.c, states.d, states.e, n_ec, eps))
    ks = throughput.solve_k_batch(taus, a, b, c, n_ec, eps)
    best = np.max(np.log2((taus * (d + e) + 1.0) / ((taus * e + 1.0) * (1.0 + taus * ks))), axis=1)
    worst_bits = max(0.0, float(np.max(best - res.R_s_star)))  # R_s_star is 0 where it cannot transmit
    record("throughput_opt_vs_grid", worst_bits <= 1e-5, f"worst shortfall = {worst_bits:.2e} bits")

    # MRT throughput: exponential-integral sum vs 2-D quadrature
    cfg6 = SystemConfig(M=100, N_D=20, N_C=16, P_dBm=55.0, epsilon=0.01)
    closed = throughput.mrt_throughput_closed_form(cfg6)
    direct = throughput.mrt_throughput_quad2d(cfg6)
    rel = abs(closed - direct) / max(abs(direct), 1e-12)
    record("mrt_throughput_dual_quadrature", rel <= 1e-3,
           f"closed={closed:.6g} direct={direct:.6g} rel={rel:.2e}")

    # distortion-level SNDR synthesis vs closed forms
    recon = montecarlo.empirical_sndr_from_distortion(
        SystemConfig(M=64, N_D=12, N_C=6, P_dBm=55.0), 0.6, min(trials, 100_000), int(seed + 77)
    )
    ok_d = abs(recon.y_d.value - recon.y_d_formula) <= 4.0 * recon.y_d.std_error
    ok_e = abs(recon.y_e.value - recon.y_e_formula) <= 4.0 * recon.y_e.std_error
    record("sndr_reconstruction", ok_d and ok_e,
           f"y_D {recon.y_d.value:.4g}~{recon.y_d_formula:.4g}, "
           f"y_E {recon.y_e.value:.4g}~{recon.y_e_formula:.4g}")

    # scaled exponential integral exp(z)*E1(z) against scipy, on the
    # continued-fraction branch (z > 5), where the library does not call scipy
    zs = np.geomspace(5.01, 600.0, 200)
    ref = sp.exp1(zs) * np.exp(zs)
    worst_e1 = float(np.max(np.abs(throughput._e1_scaled(zs) - ref) / ref))
    record("e1_scaled", worst_e1 <= 1e-12, f"worst relative error = {worst_e1:.2e}")

    return results


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(SystemConfig):
        parser.add_argument(f"--{f.name}", dest=f"cfg_{f.name}", default=None,
                            help=f"override config field {f.name}")


def _collect_overrides(args) -> dict:
    overrides = {}
    for f in fields(SystemConfig):
        val = getattr(args, f"cfg_{f.name}", None)
        if val is not None:
            overrides[f.name] = val
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        overrides[key.strip()] = val
    return coerce_overrides(overrides)


def _parse_spec_file(path: str, base: SystemConfig) -> SweepSpec:
    config_keys = {f.name for f in fields(SystemConfig)}
    keys = {}
    for lineno, key, val in key_value_lines(path):
        if key not in config_keys | {"mode", "swept_key", "values", "trials", "uv_samples", "seed"}:
            raise ValueError(f"{path}:{lineno}: unknown sweep key {key!r}")
        keys[key] = val
    base = base.with_overrides(**coerce_overrides({k: v for k, v in keys.items() if k in config_keys}))
    swept_key = keys.get("swept_key")
    if swept_key is None or "values" not in keys or "mode" not in keys:
        raise ValueError(f"{path}: spec needs mode, swept_key and values entries")
    values = [coerce_overrides({swept_key: v})[swept_key] for v in keys["values"].split(",") if v.strip()]
    budgets = {k: int(keys[k]) for k in ("trials", "uv_samples", "seed") if k in keys}
    return SweepSpec(mode=keys["mode"], swept_key=swept_key, values=values, base=base, **budgets)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmwsec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a parameter sweep and emit CSV")
    which = sweep.add_mutually_exclusive_group(required=True)
    which.add_argument("--preset", choices=["fig3", "fig4", "fig5", "fig6", "fig7"])
    which.add_argument("--spec", help="sweep specification file (key=value lines)")
    sweep.add_argument("--config", help="base configuration file (key=value lines)")
    sweep.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one configuration key (repeatable)")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--trials", type=int, default=None, help="channel draws per sweep point")
    sweep.add_argument("--uv-samples", type=int, default=None,
                       help="eavesdropper samples per draw for the MC columns")
    sweep.add_argument("--workers", type=int, default=1, help="draw groups evaluated in parallel")
    sweep.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    _add_config_flags(sweep)
    sweep.set_defaults(parser=sweep)

    validate = sub.add_parser("validate", help="run the formula-vs-oracle suite")
    validate.add_argument("--trials", type=int, default=200_000)
    validate.add_argument("--seed", type=int, default=4242)

    return parser


def _sweep_specs(args) -> list[SweepSpec]:
    """The sweeps a ``sweep`` command asks for: overrides, then the preset
    or spec file, then the budgets.  Raises ValueError on bad input."""
    overrides = _collect_overrides(args)
    if args.config:
        base = load_config(args.config, overrides)
    else:
        base = SystemConfig().with_overrides(**overrides)

    if args.preset:
        specs = preset_specs(args.preset, trials=args.trials,
                             uv_samples=args.uv_samples, seed=args.seed)
        if overrides:
            for spec in specs:
                spec.base = spec.base.with_overrides(**overrides)
        return specs
    spec = _parse_spec_file(args.spec, base)
    return [_with_budgets(spec, args.trials, args.uv_samples, args.seed)]


def cmd_sweep(args, specs: list[SweepSpec], out) -> int:
    rows: list[dict] = []
    for spec in specs:
        rows.extend(run_sweep(spec, workers=args.workers))
    out.write(render_csv(specs, rows))

    failures = check_rows(rows)
    for failure in failures:
        print(f"MC mismatch: {failure}", file=sys.stderr)
    unchecked = sum(_unchecked(row) for row in rows)
    if unchecked:
        print(f"unchecked: {unchecked} of {len(rows)} rows have no Monte-Carlo value or target",
              file=sys.stderr)
    return 1 if failures else 0


def cmd_validate(args) -> int:
    results = run_validation(trials=args.trials, seed=args.seed)
    return 0 if all(ok for _, ok, _ in results) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args)
    try:
        specs = _sweep_specs(args)
    except ValueError as exc:  # bad input ends as argparse errors do: usage, one line, exit 2
        args.parser.error(str(exc))
    except OSError as exc:  # an unreadable --spec or --config file is bad input too
        args.parser.error(f"cannot read {exc.filename}: {exc.strerror}")
    if args.out is None:
        return cmd_sweep(args, specs, sys.stdout)
    try:  # so is an --out path that cannot be written, found before the sweep runs
        out = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        args.parser.error(f"cannot write {exc.filename}: {exc.strerror}")
    with out:
        return cmd_sweep(args, specs, out)


if __name__ == "__main__":
    sys.exit(main())
