import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from mmwsec import sweep
from mmwsec.config import SystemConfig


def test_sweep_imports_no_command_line():
    # the engine is a library module: a fresh interpreter that imports it
    # loads neither argparse nor the command line that drives it, and of the
    # package exactly these modules, so that a new cycle or stray import shows
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, mmwsec.sweep\nprint('argparse' in sys.modules)\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'mmwsec')))\n")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = ["mmwsec"] + [f"mmwsec.{name}" for name in (
        "channel", "config", "errors", "montecarlo", "numerics", "opa_sop", "sndr", "sop", "sweep", "throughput"
    )]
    assert proc.stdout.splitlines() == ["False", " ".join(loaded)]


def test_grouped_sweep_matches_one_cell_sweeps():
    # a sweep draws once per path-count pair and walks its u/v streams once;
    # a one-value, one-variant sweep walks its cell alone, so the grouped
    # rows must equal the concatenated one-cell rows byte for byte.  The
    # fifth spec's n_ec 7, 6, 3 and 2 share the levels G_0, G_1 and G_2;
    # the MRT spec evaluates its four draw keys one after another
    sop_base = SystemConfig(P_dBm=55.0, R_s=4.0)
    sop_variants = [{"k_tx": 0.1, "k_rx": 0.1}, {"P_dBm": 44.0}, {"R_s": 6.0}, {"P_dBm": 30.0}]
    rate_base = SystemConfig(P_dBm=55.0, epsilon=0.01)
    rate_variants = [{"P_dBm": 28.0, "d_E_m": 5.0}, {"P_dBm": 32.0, "d_E_m": 20.0},
                     {"P_dBm": 40.0, "d_E_m": 20.0}, {"k_tx": 0.1, "k_rx": 0.1}]
    cases = (
        ("sop_fixed_rate", sop_base, [0, 4, 10], sop_variants),
        ("sop_opa", sop_base, [0, 4, 10], sop_variants),
        ("throughput_opa", rate_base, [0, 8, 16], rate_variants),
        ("throughput_equal_power", rate_base, [0, 8, 16], rate_variants),
        ("sop_fixed_rate", sop_base, [13, 14, 17, 18], [{}, {"k_tx": 0.1, "k_rx": 0.1}]),
        ("throughput_mrt", rate_base, [4, 8, 12, 16], [{"k_tx": 0.0, "k_rx": 0.0}, {"k_tx": 0.1, "k_rx": 0.1}]),
    )
    for mode, base, values, variants in cases:
        spec = sweep.SweepSpec(mode=mode, swept_key="N_C", values=values, base=base,
                               variants=variants, trials=40, uv_samples=200, seed=12)
        grouped = sweep.run_sweep(spec)
        one_cell = [
            row
            for value in values
            for overrides in variants
            for row in sweep.run_sweep(replace(spec, values=[value], variants=[overrides]))
        ]
        assert sweep.render_csv([spec], grouped) == sweep.render_csv([spec], one_cell), mode
        if mode == "throughput_mrt":
            continue  # an MRT mc_value is a rate in bits/s/Hz, not a hit rate
        if values[0] != 0:
            assert {row["N_C"] for row in grouped if 0.0 < row["mc_value"] < 1.0} == set(values)
            continue
        # the groups hold N_C = 0, cells with no Monte-Carlo state, and cells
        # whose states leave the walk at different blocks
        assert any(row["N_C"] == 0 for row in grouped)
        assert any(math.isnan(row["mc_value"]) for row in grouped if row["N_C"] > 0)
        for value in values[1:]:
            rates = {row["accept_rate"] for row in grouped if row["N_C"] == value}
            assert len(rates) >= 3, (mode, value, rates)
