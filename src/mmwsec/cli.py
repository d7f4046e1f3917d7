"""Batch front-end: parameter sweeps with paired Monte-Carlo columns.

Every analytic column in the emitted CSV sits next to a Monte-Carlo
sibling and a declared tolerance; the process exits nonzero if any pair
disagrees.  Output is byte-identical for a given seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

import numpy as np

from . import checks, montecarlo, sop
from .channel import sample_gain_scalars
from .config import SystemConfig, coeffs_from_gains, coerce_overrides, parse_value, read_key_values, stack_coeffs
from .sndr import sndr_eve
from .sweep import SweepSpec, _unchecked, _with_budgets, check_rows, preset_specs, render_csv, run_sweep


# ---------------------------------------------------------------------------
# validate: condensed oracle suite
# ---------------------------------------------------------------------------

def run_validation(trials: int = 200_000, seed: int = 4242, verbose: bool = True) -> list[tuple[str, bool, str]]:
    """Run the formula-vs-oracle checks of ``mmwsec.checks`` on states of
    its own drawing; returns (name, ok, detail) triples.  Needs numpy alone,
    and ``trials`` >= 2."""
    results = []

    def record(check, *args):
        result = check(*args)
        ok = result.margin <= 1.0
        results.append((check.__name__, ok, result.detail))
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {check.__name__}: {result.detail}")

    rng = montecarlo.as_rng(seed)

    def gains(cfg: SystemConfig):
        g_hat, g_check, _, _ = sample_gain_scalars(cfg.N_C, cfg.n_dc, cfg.n_ec, 1, rng)
        return float(g_hat[0]), float(g_check[0])

    # conditional SOP at the middle of each feasible set
    target = sop.SecrecyTarget(3.0)
    cases = []
    for trial in range(3):
        cfg = SystemConfig(
            M=100, N_D=20, N_C=int(rng.integers(4, 17)), P_dBm=float(rng.uniform(48, 62)),
            R_s=3.0, k_tx=0.08, k_rx=0.08,
        )
        coeffs = coeffs_from_gains(cfg, *gains(cfg))
        t_min = sop.tau_min(target, coeffs)
        if t_min < 1.0:  # >= 1 (inf past the impairment ceiling) when no split is feasible
            cases.append((coeffs, 0.5 * (t_min + 1.0), target, cfg.n_ec, seed + trial))
    record(checks.sop_conditional_vs_mc, cases, trials, 0.01, 4.0)

    # CDF at ten quantiles of one sample of the eavesdropper SNDR
    cfg = SystemConfig(M=100, N_D=20, N_C=10, P_dBm=55.0)
    coeffs = coeffs_from_gains(cfg, *gains(cfg))
    tau = 0.6
    probe = sndr_eve(tau, rng.exponential(1.0, 4000), rng.gamma(cfg.n_ec, 1.0, 4000), coeffs.a, coeffs.b, coeffs.c)
    levels = np.quantile(probe, np.linspace(0.05, 0.95, 10)).tolist()  # ascending: one sample's quantiles
    record(checks.cdf_Y_E_vs_mc, [(coeffs, tau, levels, cfg.n_ec, seed + 10)], trials, 0.01, 0.0)

    # SOP power-split optimizer over the drawn states that can transmit,
    # in one batch (each state has its own R_s, b and N_EC)
    drawn = []
    for _ in range(100):
        cfg_i = SystemConfig(
            M=100, N_D=20, N_C=int(rng.integers(2, 19)), P_dBm=float(rng.uniform(50, 65)),
            R_s=float(rng.uniform(1, 5)), k_tx=float(rng.uniform(0, 0.15)),
            k_rx=float(rng.uniform(0, 0.15)),
        )
        drawn.append((cfg_i, coeffs_from_gains(cfg_i, *gains(cfg_i))))
    tgt = sop.SecrecyTarget(np.array([cfg_i.R_s for cfg_i, _ in drawn]))
    states = stack_coeffs([co for _, co in drawn])
    ok = sop.tau_min(tgt, states) < 1.0
    n_ec = np.array([cfg_i.n_ec for cfg_i, _ in drawn], float)[ok]
    record(checks.opa_sop_vs_grid, tgt.take(ok), states.take(ok), n_ec, 1.0, n_ec, 4000, 1e-6)

    # throughput optimizer, in one batch (per-state b, N_EC, epsilon)
    drawn = []
    for _ in range(30):
        cfg_i = SystemConfig(
            M=100, N_D=20, N_C=int(rng.integers(2, 19)), P_dBm=float(rng.uniform(45, 70)),
            epsilon=float(rng.uniform(0.005, 0.2)), k_tx=float(rng.uniform(0, 0.15)),
            k_rx=float(rng.uniform(0, 0.15)),
        )
        drawn.append((cfg_i, coeffs_from_gains(cfg_i, *gains(cfg_i))))
    n_ec, eps = (np.array([getattr(cfg_i, key) for cfg_i, _ in drawn]) for key in ("n_ec", "epsilon"))
    record(checks.throughput_opt_vs_grid, stack_coeffs([co for _, co in drawn]), n_ec, eps,
           np.linspace(1.0 / 2000, 1.0, 2000), 1e-5)

    record(checks.mrt_throughput_dual_quadrature, [SystemConfig(M=100, N_D=20, N_C=16, P_dBm=55.0, epsilon=0.01)], 1e-3)
    record(checks.sndr_reconstruction, SystemConfig(M=64, N_D=12, N_C=6, P_dBm=55.0), 0.6,
           min(trials, 100_000), seed + 77, 4.0)
    # both sides of exp(z)*E1(z): the power series (z <= 1) and the continued fraction
    record(checks.e1_scaled, np.geomspace(1e-8, 600.0, 200), 1e-12)

    # high-SNR ceiling at 40 impaired states, 100 to 140 dBm
    states = []
    for _ in range(40):
        cfg_i = SystemConfig(
            M=100, N_D=20, N_C=int(rng.integers(0, 20)), k_tx=float(rng.uniform(0.0, 0.2)),
            k_rx=float(rng.uniform(0.01, 0.2)), d_D_m=float(rng.uniform(20.0, 200.0)),
        )
        states.append((cfg_i, *gains(cfg_i), float(rng.uniform(0.05, 1.0))))
    record(checks.high_snr_ceiling, states, (100.0, 120.0, 140.0), 5.5e-5, 1e-6)
    return results


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_SPEC_KEYS = ("mode", "swept_key", "values", "trials", "uv_samples", "seed")


def _collect_overrides(items: list[str]) -> dict:
    """The ``--set KEY=VALUE`` items as configuration values; a later item wins."""
    for item in items:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
    return coerce_overrides(dict(map(str.strip, item.split("=", 1)) for item in items))


def _refuse_cell_keys(overrides: dict, swept_key: str, variants: list) -> None:
    """A ``--set`` of a key that every cell sets itself would change no row: ValueError."""
    for key in overrides:
        if key == swept_key or any(key in variant for variant in variants):
            role = "the swept key" if key == swept_key else "a variant key"
            raise ValueError(f"--set {key}: {key} is {role}, which every cell of the sweep sets itself")


def _parse_spec_file(path: str, config: dict, overrides: dict) -> SweepSpec:
    """The sweep of a spec file.  Its base is SystemConfig() under
    ``config`` (the coerced values of a --config file), then the spec
    file's own configuration keys, then ``overrides``, built once."""
    keys = read_key_values(path, _SPEC_KEYS)
    if not {"mode", "swept_key", "values"} <= keys.keys():
        raise ValueError(f"{path}: spec needs mode, swept_key and values entries")
    swept_key = keys["swept_key"]
    if swept_key not in {f.name for f in fields(SystemConfig)}:
        raise ValueError(f"{path}: swept_key: unknown configuration key {swept_key!r}")
    _refuse_cell_keys(overrides, swept_key, [])
    own = coerce_overrides({k: keys[k] for k in keys.keys() - _SPEC_KEYS}, path)
    base = SystemConfig(**{**config, **own, **overrides})
    values = [coerce_overrides({swept_key: v}, f"{path}: values")[swept_key]
              for v in keys["values"].split(",") if v.strip()]
    budgets = {k: parse_value(k, keys[k], int, path) for k in ("trials", "uv_samples", "seed") if k in keys}
    return SweepSpec(mode=keys["mode"], swept_key=swept_key, values=values, base=base, **budgets)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmwsec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a parameter sweep and emit CSV")
    which = sweep.add_mutually_exclusive_group(required=True)
    which.add_argument("--preset", choices=["fig3", "fig4", "fig5", "fig6", "fig7"])
    which.add_argument("--spec", help="sweep specification file (key=value lines)")
    sweep.add_argument("--config", help="base configuration file (key=value lines) under the --spec "
                       "file's own keys; not with --preset, which has its own base")
    sweep.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="set one configuration key of the sweep's base, after every file (repeatable); "
                       "not the swept key or a variant key, which every cell sets itself")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--trials", type=int, default=None, help="channel draws per sweep point")
    sweep.add_argument("--uv-samples", type=int, default=None,
                       help="eavesdropper samples per draw for the MC columns")
    sweep.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    sweep.set_defaults(parser=sweep)

    validate = sub.add_parser("validate", help="run the formula-vs-oracle suite")
    validate.add_argument("--trials", type=int, default=200_000)
    validate.add_argument("--seed", type=int, default=4242)
    validate.set_defaults(parser=validate)

    return parser


def _sweep_specs(args) -> list[SweepSpec]:
    """The sweeps a ``sweep`` command asks for, each over its own base.

    A preset's base is its own; ``--config`` does not go with it.  A spec
    file's base is SystemConfig() under the ``--config`` file's keys, then
    the spec file's configuration keys.  ``--set`` is applied once, last,
    to that base, and may not name the swept key or a variant key.  Then
    ``--trials``, ``--uv-samples`` and ``--seed`` replace the budgets.
    Raises ValueError on bad input and OSError on an unreadable file.
    """
    overrides = _collect_overrides(args.set)
    if args.preset:
        if args.config:
            raise ValueError("--config goes with --spec only; a preset has its own base, which --set changes")
        specs = preset_specs(args.preset)
        for spec in specs:
            _refuse_cell_keys(overrides, spec.swept_key, spec.variants)
        specs = [replace(spec, base=spec.base.with_overrides(**overrides)) for spec in specs]
    else:
        config = coerce_overrides(read_key_values(args.config), args.config) if args.config else {}
        specs = [_parse_spec_file(args.spec, config, overrides)]
    return [_with_budgets(spec, args.trials, args.uv_samples, args.seed) for spec in specs]


def cmd_sweep(args, specs: list[SweepSpec], out) -> int:
    rows = [row for spec in specs for row in run_sweep(spec)]
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
    if args.trials < 2:  # a standard error needs two samples
        args.parser.error(f"--trials must be at least 2 (got {args.trials})")
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
