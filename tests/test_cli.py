import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from mmwsec import cli, throughput
from mmwsec.channel import sample_gain_scalars
from mmwsec.config import SystemConfig
from mmwsec.sndr import sndr_eve


def _tiny_spec(**overrides):
    params = dict(
        mode="sop_fixed_rate",
        swept_key="N_C",
        values=[4, 10],
        base=SystemConfig(P_dBm=55.0, N_C=0, R_s=4.0),
        variants=[{"k_tx": 0.1, "k_rx": 0.1}],
        trials=60,
        uv_samples=200,
        seed=12,
    )
    params.update(overrides)
    return cli.SweepSpec(**params)


def test_spec_validation():
    with pytest.raises(ValueError):
        _tiny_spec(mode="bogus")
    with pytest.raises(ValueError):
        _tiny_spec(swept_key="nonsense")
    with pytest.raises(ValueError):
        _tiny_spec(values=[])
    for budgets in ({"trials": 0}, {"uv_samples": 0}, {"trials": -3}):
        with pytest.raises(ValueError):
            _tiny_spec(**budgets)
    with pytest.raises(ValueError):
        cli.preset_specs("fig6", trials=0)


def _usage_error(argv, capsys) -> str:
    """The one error line ``cli.main`` prints before exiting 2 on bad input."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("mmwsec sweep: error: ")
    return errors[0]


def test_sweep_rejects_non_finite_config_values(capsys):
    # a NaN distance used to give a sweep of NaN rows that exited 0; bad
    # input ends in one usage error, not a traceback
    assert "d_E_m" in _usage_error(["sweep", "--preset", "fig7", "--trials", "20", "--set", "d_E_m=nan"], capsys)
    assert "uv_samples" in _usage_error(["sweep", "--preset", "fig7", "--uv-samples", "0"], capsys)


def test_sweep_reports_unchecked_rows(tmp_path, capsys):
    # at 28 dBm with the eavesdropper at 5 m no state can transmit, so that
    # row has no realized outage to check; the 55 dBm row is checked
    spec_path = tmp_path / "silent.spec"
    spec_path.write_text(
        "mode=throughput_opa\nswept_key=P_dBm\nvalues=28,55\ntrials=20\nuv_samples=100\n"
        "seed=3\nN_C=16\nd_D_m=300\nd_E_m=5\n"
    )
    rc = cli.main(["sweep", "--spec", str(spec_path)])
    out, err = capsys.readouterr()
    assert rc == 0
    assert ",nan,nan," in out
    assert "unchecked: 1 of 2 rows" in err


def test_mrt_sweep_away_from_preset_common_paths(tmp_path, capsys):
    # N_C = 8 puts log moments of order up to 11 at small q through the
    # closed form; a cancellation there once gave analytic = -5150 at 60 dBm
    spec_path = tmp_path / "mrt8.spec"
    spec_path.write_text(
        "mode=throughput_mrt\nswept_key=P_dBm\nvalues=50,60\ntrials=20\nseed=5\n"
        "N_C=8\nk_tx=0.1\nk_rx=0.1\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        rc = cli.main(["sweep", "--spec", str(spec_path)])
    out, _ = capsys.readouterr()
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines() if line.startswith("custom,")]
    for row, p_dbm in zip(rows, (50.0, 60.0), strict=True):
        cfg = SystemConfig(N_C=8, P_dBm=p_dbm, k_tx=0.1, k_rx=0.1)
        assert float(row[12]) == pytest.approx(throughput.mrt_throughput_quad2d(cfg), rel=1e-6)


def test_module_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "mmwsec", "validate", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "--trials" in proc.stdout


def test_sweep_rows_and_mc_pairing():
    rows = cli.run_sweep(_tiny_spec())
    assert len(rows) == 4  # 2 values x {mrt, an_opa}
    for row in rows:
        assert 0.0 <= row["analytic"] <= 1.0
        assert abs(row["mc_value"] - row["mc_target"]) <= row["tol"]
    assert cli.check_rows(rows) == []


def test_sweep_workers_do_not_change_rows():
    sequential = cli.run_sweep(_tiny_spec())
    threaded = cli.run_sweep(_tiny_spec(), workers=4)
    assert sequential == threaded


def test_grouped_sweep_matches_one_cell_sweeps():
    # a sweep draws once per path-count group and walks the group's u/v
    # stream once; a one-value, one-variant sweep is a group of its own, so
    # the grouped rows must equal the concatenated one-cell rows byte for byte
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
    )
    for mode, base, values, variants in cases:
        spec = cli.SweepSpec(mode=mode, swept_key="N_C", values=values, base=base,
                             variants=variants, trials=40, uv_samples=200, seed=12)
        grouped = cli.run_sweep(spec)
        one_cell = [
            row
            for value in values
            for overrides in variants
            for row in cli.run_sweep(replace(spec, values=[value], variants=[overrides]))
        ]
        text = cli.render_csv([spec], grouped)
        assert text == cli.render_csv([spec], one_cell), mode
        assert text == cli.render_csv([spec], cli.run_sweep(spec, workers=2)), mode
        # the groups hold N_C = 0, cells with no Monte-Carlo state, and cells
        # whose states leave the walk at different blocks
        assert any(row["N_C"] == 0 for row in grouped)
        assert any(math.isnan(row["mc_value"]) for row in grouped if row["N_C"] > 0)
        for value in values[1:]:
            rates = {row["accept_rate"] for row in grouped if row["N_C"] == value}
            assert len(rates) >= 3, (mode, value, rates)


@pytest.mark.parametrize("n_c", [16, 0])
def test_walk_counts_the_sndr_event(n_c):
    # the walk tests y_E > thr as alpha*u - beta*v > thr; the two may differ
    # only by rounding, for samples within 1e-14*|thr| of the boundary.  The
    # states cover tau = 1, a = 0, c = 0, thr < 0 and thr = 0 (u = 0 at
    # N_C = 0); the other thresholds sit within 1e-12 relative of one
    # sampled y_E, and the cells leave the walk at different blocks.
    depth, uv, n_ec = 1500, 40, 5
    rng = np.random.Generator(np.random.Philox(4711))
    ahead = np.random.Generator(np.random.Philox(4712))  # the walk's blocks, in its draw order
    blocks = [(ahead.exponential(1.0, uv) if n_c > 0 else np.zeros(uv), ahead.gamma(n_ec, 1.0, uv))
              for _ in range(depth)]
    u, v = (np.array(x) for x in zip(*blocks))
    cells, refs = [], []
    for m in (depth, depth - 300, 700, 1, 0, depth):
        tau = rng.uniform(0.0, 1.0, m)
        a, b = 10.0 ** rng.uniform(-3, 5, m), 10.0 ** rng.uniform(-2, 5, m)
        c = rng.uniform(0.0, 0.05, m) * a
        kind = rng.integers(0, 8, m)
        tau[kind == 0], a[kind == 1], c[kind == 2] = 1.0, 0.0, 0.0
        y_e = sndr_eve(tau[:, None], u[:m], v[:m], a[:, None], b[:, None], c[:, None])
        thr = y_e[np.arange(m), rng.integers(0, uv, m)]
        thr *= 1.0 + rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-17, -12, m)
        thr[kind == 3] = -(10.0 ** rng.uniform(-3, 3, np.count_nonzero(kind == 3)))
        thr[kind == 4] = 0.0
        cells.append(cli._event_columns(tau, a, b, c, thr))
        refs.append((y_e, thr[:, None]))
    walked = cli._walk_uv(np.random.Generator(np.random.Philox(4712)), n_c, n_ec, uv, cells)
    near_total = 0
    for (p_hat, _), (y_e, thr) in zip(walked, refs):
        hits = np.rint(p_hat * uv)
        near = np.count_nonzero(np.abs(y_e - thr) < 1e-14 * np.abs(thr), axis=1)
        assert np.all(np.abs(hits - np.count_nonzero(y_e > thr, axis=1)) <= near)
        near_total += near.sum()
    if n_c:  # without common paths y_E = 0: no sample is near, and every count is exact
        assert near_total > 1000


def test_stacked_sop_group_equals_its_cells_alone():
    # _sop_cells stacks a draw group's cells into one batch; each cell must
    # get the event columns (bitwise) and the row it gets when run alone
    fig4 = SystemConfig(M=100, N_D=20, N_C=8, P_dBm=55.0)
    fig5 = SystemConfig(M=150, N_D=20, N_C=16, R_s=5.0, k_tx=0.05, k_rx=0.05)
    groups = (
        ([(scheme, fig4.with_overrides(R_s=r_s, k_tx=k, k_rx=k))
          for r_s in (4.0, 5.0, 6.0) for k in (0.0, 0.1) for scheme in ("mrt", "an_opa")], "min_sop"),
        ([("an_opa", fig5.with_overrides(P_dBm=p)) for p in (56.0, 62.0, 68.0)], "phi_mean"),
        # all silent; past the impairment ceiling (no Conditional state);
        # two cells where some states are silent
        ([("an_opa", fig4.with_overrides(P_dBm=0.0)), ("an_opa", fig4.with_overrides(k_tx=0.3, k_rx=0.3)),
          ("mrt", fig4.with_overrides(R_s=4.0, P_dBm=44.0)), ("an_opa", fig4.with_overrides(R_s=4.0, P_dBm=46.0))],
         "min_sop"),
    )
    tags, widths = [], set()
    for cells, policy in groups:
        first = cells[0][1]
        rng = np.random.Generator(np.random.Philox(31))
        g_hat, g_check, _, _ = sample_gain_scalars(first.N_C, first.n_dc, first.n_ec, 120, rng)
        stacked = cli._sop_cells(cells, g_hat, g_check, policy)
        for cell, (cols, finish) in zip(cells, stacked, strict=True):
            ((alone_cols, alone_finish),) = cli._sop_cells([cell], g_hat, g_check, policy)
            assert cols.shape == alone_cols.shape and cols.tobytes() == alone_cols.tobytes()
            hits = np.linspace(0.0, 1.0, cols.shape[1])
            row = {k: cli._fmt(v) for k, v in finish(hits, 0.3, 5).items()}
            assert row == {k: cli._fmt(v) for k, v in alone_finish(hits, 0.3, 5).items()}
            tags.append(row["tags"])
            widths.add(cols.shape[1])
            if cell[0] == "mrt" and cols.shape[1]:
                assert row["tau_star_mean"] == "1.0"  # only an_opa cells choose a split
    assert "all_silent" in tags and "AlwaysOutage:120" in tags
    assert len(widths) >= 4  # cells leave the stack with different state counts


def test_csv_is_deterministic():
    spec = _tiny_spec()
    text1 = cli.render_csv([spec], cli.run_sweep(spec))
    text2 = cli.render_csv([spec], cli.run_sweep(_tiny_spec()))
    assert text1 == text2
    assert text1.startswith(f"# {cli.SCHEMA_TAG}\n")
    header = [l for l in text1.splitlines() if not l.startswith("#")][0]
    assert header.split(",") == list(cli.COLUMNS)


def test_check_rows_flags_mismatch():
    rows = cli.run_sweep(_tiny_spec())
    rows[0]["mc_value"] = rows[0]["mc_target"] + 10 * rows[0]["tol"]
    failures = cli.check_rows(rows)
    assert len(failures) == 1


def test_spec_file_round_trip(tmp_path):
    spec_path = tmp_path / "sweep.spec"
    spec_path.write_text(
        "# demo sweep\nmode=sop_fixed_rate\nswept_key=N_C\nvalues=2,6\n"
        "trials=40\nuv_samples=150\nseed=9\nP_dBm=55\nR_s=4\n"
    )
    out_path = tmp_path / "out.csv"
    rc = cli.main(["sweep", "--spec", str(spec_path), "--out", str(out_path)])
    assert rc == 0
    text = out_path.read_text()
    assert cli.SCHEMA_TAG in text
    rc2 = cli.main(["sweep", "--spec", str(spec_path), "--out", str(out_path)])
    assert rc2 == 0
    assert out_path.read_text() == text  # byte-identical rerun


def test_cli_config_overrides(tmp_path):
    cfg_path = tmp_path / "base.cfg"
    cfg_path.write_text("M=64\nN_D=10\nN_C=4\nP_dBm=55\nR_s=3\n")
    spec_path = tmp_path / "sweep.spec"
    spec_path.write_text("mode=sop_fixed_rate\nswept_key=N_C\nvalues=2\ntrials=30\nuv_samples=100\n")
    out_path = tmp_path / "o.csv"
    rc = cli.main([
        "sweep", "--spec", str(spec_path), "--config", str(cfg_path),
        "--set", "P_dBm=56", "--out", str(out_path),
    ])
    assert rc == 0
    assert "P_dBm=56.0" in out_path.read_text()


def test_cli_rejects_unknown_override(tmp_path, capsys):
    spec_path = tmp_path / "sweep.spec"
    spec_path.write_text("mode=sop_fixed_rate\nswept_key=N_C\nvalues=2\n")
    assert "bogus" in _usage_error(["sweep", "--spec", str(spec_path), "--set", "bogus=1"], capsys)


def test_sweep_rejects_unreadable_input_files(tmp_path, capsys):
    # a --spec or --config file that cannot be read (missing, a directory)
    # is bad input: one usage error that names the path, exit 2
    missing = str(tmp_path / "missing.spec")
    assert missing in _usage_error(["sweep", "--spec", missing], capsys)
    missing = str(tmp_path / "missing.cfg")
    assert missing in _usage_error(["sweep", "--preset", "fig3", "--config", missing], capsys)
    assert str(tmp_path) in _usage_error(["sweep", "--spec", str(tmp_path)], capsys)  # a directory


def test_preset_specs_exist():
    for name in ("fig3", "fig4", "fig5", "fig6", "fig7"):
        specs = cli.preset_specs(name, trials=5, uv_samples=10, seed=1)
        assert specs and all(s.preset == name for s in specs)
    with pytest.raises(ValueError):
        cli.preset_specs("fig9")


def test_throughput_sweep_modes_smoke():
    base = SystemConfig(M=100, N_D=20, N_C=16, epsilon=0.01, k_tx=0.1, k_rx=0.1)
    for mode in ("throughput_opa", "throughput_equal_power", "throughput_mrt"):
        spec = cli.SweepSpec(mode=mode, swept_key="P_dBm", values=[55.0], base=base,
                             variants=[{}], trials=40, uv_samples=200, seed=2)
        rows = cli.run_sweep(spec)
        assert len(rows) == 1
        assert rows[0]["analytic"] >= 0.0
        assert cli.check_rows(rows) == []


def test_validate_suite_passes():
    results = cli.run_validation(trials=30_000, seed=4242, verbose=False)
    assert results
    failing = [name for name, ok, _ in results if not ok]
    assert failing == []
