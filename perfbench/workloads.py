"""The three benchmark workloads: inputs, one timed run, and its correctness gate.

``sop_sweep`` and ``throughput_sweep`` follow the ``mmwsec sweep`` path
(``preset_specs`` -> ``run_sweep`` -> ``render_csv`` -> ``check_rows``) over
two presets each; ``oracle`` runs the ``mmwsec validate`` suite and both MRT
throughput routes at the twelve fig6 points.  The seed reaches the program
only through ``preset_specs(seed=...)`` and ``run_validation(seed=...)``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from mmwsec import cli, throughput

SOP_TRIALS = 100
THROUGHPUT_TRIALS = 30

# u/v draws per channel state on sop_sweep.  check_rows allows each row
# max(0.005, 4 standard errors); at the presets' own budgets the 0.005 floor
# always governs.  With few trials and the presets' 1,200-1,500 draws, about
# a sixth of the rows fall on the 4-sigma branch instead, where a correct
# program fails a row about once in 16,000, and a benchmark that runs
# hundreds of seeds meets such a false alarm.  100 trials x 3,000 draws keep
# every row on the floor, at least 5.2 standard errors wide.
SOP_UV_SAMPLES = 3000
VALIDATION_TRIALS = 200_000
TINY_TRIALS = 4

# relative gap allowed between the two MRT throughput routes; the same bound
# as acceptance criterion 5 and the default of mrt_throughput(rel_tol=...)
MRT_REL_TOL = 1e-3

# channel states run_validation hands to a solver: 3 conditional-SOP, 1 CDF,
# 100 SOP-split and 30 throughput-optimizer checks
VALIDATION_STATES = 3 + 1 + 100 + 30


@dataclass(frozen=True)
class Outcome:
    """Gate verdict on one run's output."""

    digest: str        # sha256 of the rendered CSV (sweeps) or check record (oracle)
    checks: int        # rows or checks gated
    failed: int
    unchecked: int     # rows whose Monte-Carlo value or target is NaN
    margin: float      # max |mc - target| / tol over the gated rows


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def gate_rows(rows: list[dict], failures: list[str], text: str) -> Outcome:
    """Gate sweep rows; re-derives check_rows' verdict and takes the worse."""
    failed = unchecked = 0
    margin = 0.0
    for row in rows:
        mc, target, tol = row["mc_value"], row["mc_target"], row["tol"]
        if math.isnan(mc) or math.isnan(target):
            unchecked += 1
            continue
        gap = abs(mc - target)
        failed += gap > tol
        if math.isfinite(tol) and tol > 0.0:
            margin = max(margin, gap / tol)
    return Outcome(_digest(text), len(rows), max(failed, len(failures)), unchecked, margin)


class Sweep:
    """Two figure presets through the ``mmwsec sweep`` path."""

    def __init__(self, presets: tuple[str, ...], trials: int, default_seed: int,
                 uv_samples: int | None = None):
        self.presets = presets
        self.trials = trials
        self.uv_samples = uv_samples  # None: each preset's own count
        self.default_seed = default_seed

    def prepare(self, seed: int, tiny: bool = False) -> list:
        trials = TINY_TRIALS if tiny else self.trials
        return [
            spec
            for preset in self.presets
            for spec in cli.preset_specs(preset, trials=trials, uv_samples=self.uv_samples, seed=seed)
        ]

    def run(self, specs: list, workers: int = 1):
        rows = [row for spec in specs for row in cli.run_sweep(spec, workers=workers)]
        text = cli.render_csv(specs, rows)
        return rows, text, cli.check_rows(rows)

    def gate(self, output) -> Outcome:
        rows, text, failures = output
        return gate_rows(rows, failures, text)

    def states(self, specs: list, output) -> int:
        """Channel states handed to a per-state solver: trials summed over
        the rows, leaving out throughput_mrt rows."""
        return sum(row["trials"] for row in output[0] if row["mode"] != "throughput_mrt")

    def same_bytes_across_workers(self, seed: int) -> bool:
        specs = self.prepare(seed, tiny=True)
        return self.run(specs, workers=1)[1] == self.run(specs, workers=2)[1]


@dataclass(frozen=True)
class OracleInputs:
    seed: int
    mrt_configs: list


class Oracle:
    """``mmwsec validate`` plus both MRT throughput routes at the fig6 points."""

    trials = VALIDATION_TRIALS
    default_seed = 4242

    def prepare(self, seed: int, tiny: bool = False) -> OracleInputs:
        (spec,) = [s for s in cli.preset_specs("fig6", seed=seed) if s.mode == "throughput_mrt"]
        configs = [
            spec.base.with_overrides(**variant, **{spec.swept_key: value})
            for value in spec.values
            for variant in spec.variants
        ]
        return OracleInputs(seed, configs[:2] if tiny else configs)

    def run(self, inputs: OracleInputs):
        checks = cli.run_validation(trials=self.trials, seed=inputs.seed, verbose=False)
        routes = [
            (throughput.mrt_throughput_closed_form(cfg), throughput.mrt_throughput_quad2d(cfg))
            for cfg in inputs.mrt_configs
        ]
        return checks, routes

    def gate(self, output) -> Outcome:
        checks, routes = output
        failed = sum(not ok for _, ok, _ in checks)
        unchecked = 0
        margin = 0.0
        for closed, direct in routes:
            rel = abs(closed - direct) / max(abs(closed), abs(direct), 1e-9)
            if math.isnan(rel):
                unchecked += 1
                continue
            failed += rel > MRT_REL_TOL
            margin = max(margin, rel / MRT_REL_TOL)
        return Outcome(_digest(repr(output)), len(checks) + len(routes), failed, unchecked, margin)

    def states(self, inputs: OracleInputs, output) -> int:
        return VALIDATION_STATES + len(inputs.mrt_configs)

    def same_bytes_across_workers(self, seed: int) -> bool:
        """run_validation has no worker count; check the fig6 sweep that
        carries the same MRT points instead."""
        return FIG6.same_bytes_across_workers(seed)


FIG6 = Sweep(("fig6",), TINY_TRIALS, 20240801)

WORKLOADS = {
    "sop_sweep": Sweep(("fig4", "fig5"), SOP_TRIALS, 20240801, SOP_UV_SAMPLES),
    "throughput_sweep": Sweep(("fig7", "fig6"), THROUGHPUT_TRIALS, 20240801),
    "oracle": Oracle(),
}
