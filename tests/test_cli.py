import csv
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from conftest import philox_streams, walk_uv_reference
from mmwsec import cli, montecarlo, sweep, throughput
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
    return sweep.SweepSpec(**params)


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
        sweep.preset_specs("fig6", trials=0)


def _usage_error(argv, capsys) -> str:
    """The one error line ``cli.main`` prints before exiting 2 on bad input."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith(f"mmwsec {argv[0]}: error: ")
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


def test_sop_walk_threshold_at_zero_rate(tmp_path, capsys):
    # at R_s = 0 the an_opa split is the slope grid's first point, 1e-12,
    # and y_D is about 4e-17: a threshold formed as (1 + y_D)/T - 1 rounded
    # to 0, so every walked event hit (mc_value 1 against 4.3e-9) and the
    # sweep exited 1.  sop.outage_threshold keeps the positive level
    spec_path = tmp_path / "zero_rate.spec"
    spec_path.write_text(
        "mode=sop_fixed_rate\nswept_key=P_dBm\nvalues=-10\ntrials=40\nuv_samples=300\n"
        "seed=20240801\nR_s=0\n"
    )
    rc = cli.main(["sweep", "--spec", str(spec_path)])
    out, err = capsys.readouterr()
    assert rc == 0, err
    rows = {row["scheme"]: row for row in csv.DictReader(line for line in out.splitlines() if not line.startswith("#"))}
    assert float(rows["an_opa"]["tau_star_mean"]) == 1e-12
    assert float(rows["an_opa"]["analytic"]) < 1e-8 and float(rows["an_opa"]["mc_value"]) == 0.0


def test_mrt_sweep_away_from_preset_common_paths(tmp_path, capsys):
    # N_C = 8 puts log moments of order up to 11 at small q through the
    # closed form; a cancellation there once gave analytic = -5150 at 60 dBm
    spec_path = tmp_path / "mrt8.spec"
    spec_path.write_text(
        "mode=throughput_mrt\nswept_key=P_dBm\nvalues=50,60\ntrials=20\nseed=5\n"
        "N_C=8\nk_tx=0.1\nk_rx=0.1\n"
    )
    # a quadrature that does not settle raises ConvergenceError, which
    # fails the test by itself
    rc = cli.main(["sweep", "--spec", str(spec_path)])
    out, _ = capsys.readouterr()
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines() if line.startswith("custom,")]
    for row, p_dbm in zip(rows, (50.0, 60.0), strict=True):
        cfg = SystemConfig(N_C=8, P_dBm=p_dbm, k_tx=0.1, k_rx=0.1)
        assert float(row[12]) == pytest.approx(throughput.mrt_throughput_quad2d(cfg), rel=1e-6)


def test_mrt_rows_equal_the_one_config_calls():
    # _mrt_cells evaluates a draw key's MRT cells as one batch; each fig6
    # row carries exactly the one-config closed form and estimate
    (spec,) = [s for s in sweep.preset_specs("fig6", trials=5, seed=11) if s.mode == "throughput_mrt"]
    rows = sweep.run_sweep(spec)
    assert len(rows) == 12
    for row, (_, _, _, cfg) in zip(rows, spec.cells(), strict=True):
        assert row["analytic"] == row["mc_target"] == throughput.mrt_throughput(cfg)
        assert row["mc_value"] == throughput.avg_throughput_mrt(cfg, 20_000, 11).value


def test_sweep_rejects_bad_cells_before_running(tmp_path, capsys, monkeypatch):
    # N_C = N_D = 20 leaves the MRT closed form no non-common gain; the spec
    # is rejected when it is built, before any group runs
    def no_sweep(*args, **kwargs):
        raise AssertionError("run_sweep called on a spec with an N_C = N_D cell")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    spec_path = tmp_path / "mrt_nc20.spec"
    spec_path.write_text("mode=throughput_mrt\nswept_key=N_C\nvalues=0,16,20\ntrials=20\n")
    line = _usage_error(["sweep", "--spec", str(spec_path)], capsys)
    assert "N_C=20" in line and "N_D - N_C >= 1" in line
    # the same cell reached through a preset override (N_E stays at 20, so
    # the throughput_opa cells keep their artificial-noise direction)
    assert "N_D - N_C >= 1" in _usage_error(["sweep", "--preset", "fig6", "--set", "N_D=16", "--set", "N_E=20"], capsys)
    with pytest.raises(ValueError):
        sweep.SweepSpec(mode="throughput_mrt", swept_key="N_C", values=[20])
    # N_C = N_E leaves the artificial noise no eavesdropper-only path in
    # every mode but throughput_mrt, which carries none and still runs
    spec_path.write_text("mode=sop_fixed_rate\nswept_key=N_C\nvalues=18,20\ntrials=20\n")
    line = _usage_error(["sweep", "--spec", str(spec_path)], capsys)
    assert "N_C=20" in line and "N_E - N_C >= 1" in line
    for mode in ("sop_opa", "throughput_opa", "throughput_equal_power"):
        with pytest.raises(ValueError, match="N_E - N_C >= 1"):
            sweep.SweepSpec(mode=mode, swept_key="N_C", values=[16, 20])
    # a cell whose configuration cannot be built is rejected at build in every mode
    spec_path.write_text("mode=throughput_opa\nswept_key=N_C\nvalues=16,21\ntrials=20\n")
    assert "N_C must satisfy" in _usage_error(["sweep", "--spec", str(spec_path)], capsys)
    # so is a base whose path counts the model cannot place: N_D = 0 leaves
    # beta_D undefined, and fig3's 20 + 20 - 0 paths do not fit in 30 bins
    spec_path.write_text("mode=throughput_mrt\nswept_key=P_dBm\nvalues=30,40\ntrials=20\nN_D=0\nN_E=5\nN_C=0\n")
    assert "1 <= N_D, N_E < M (got N_D=0, N_E=5," in _usage_error(["sweep", "--spec", str(spec_path)], capsys)
    line = _usage_error(["sweep", "--preset", "fig3", "--set", "M=30"], capsys)
    assert "N_D + N_E - N_C <= M" in line and "M=30" in line
    mrt = sweep.SweepSpec(mode="throughput_mrt", swept_key="N_C", values=[16], base=SystemConfig(N_E=16), trials=20)
    monkeypatch.undo()
    assert sweep.check_rows(sweep.run_sweep(mrt)) == []


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
    rows = sweep.run_sweep(_tiny_spec())
    assert len(rows) == 4  # 2 values x {mrt, an_opa}
    for row in rows:
        assert 0.0 <= row["analytic"] <= 1.0
        assert abs(row["mc_value"] - row["mc_target"]) <= row["tol"]
    assert sweep.check_rows(rows) == []


def test_walk_counts_the_sndr_event():
    # the walk tests y_E > thr as alpha*u - beta*v > thr; the two may differ
    # only by rounding, for samples within 1e-14*|thr| of the boundary.  The
    # states cover tau = 1, a = 0, c = 0, thr < 0 and thr = 0; the other
    # thresholds sit within 1e-12 relative of one sampled y_E, and the
    # cells leave the walk at different blocks.  An N_C = 0 group never
    # walks (test_walk_without_open_events_draws_nothing).  n_ec = 5 meets
    # v = G_0 + G_2, the levels Gamma(1) and Gamma(4)
    depth, uv, n_ec = 1500, 40, 5
    rng = np.random.Generator(np.random.Philox(4711))
    ahead = philox_streams(4712)  # the walk's streams, drawn block by block
    u_rng, g_0, g_2 = ahead(None), ahead(0), ahead(2)
    blocks = [(u_rng.exponential(1.0, uv), g_0.gamma(1.0, 1.0, uv) + g_2.gamma(4.0, 1.0, uv)) for _ in range(depth)]
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
        cells.append(sweep._event_columns(tau, a, b, c, thr))
        refs.append((y_e, thr[:, None]))
    walked = sweep._walk_uv(philox_streams(4712), uv, cells, [n_ec] * len(cells))
    near_total = 0
    for p_hat, (y_e, thr) in zip(walked, refs):
        hits = np.rint(p_hat * uv)
        near = np.count_nonzero(np.abs(y_e - thr) < 1e-14 * np.abs(thr), axis=1)
        assert np.all(np.abs(hits - np.count_nonzero(y_e > thr, axis=1)) <= near)
        near_total += near.sum()
    assert near_total > 1000


def _mixed_events(rng, m: int, n_open: int) -> np.ndarray:
    """(alpha, beta, thr) of m events: open ones, events whose signs say
    never (alpha <= 0, beta >= 0, thr >= 0) or always (alpha >= 0, beta <= 0,
    thr < 0), signed zeros in alpha, beta and thr, and tau = 1 rows (beta a
    zero).  Signs decide every event from state n_open on."""
    alpha, beta, thr = rng.normal(size=(3, m))
    kind = rng.integers(0, 6, m)
    kind[n_open:] = rng.integers(1, 4, max(m - n_open, 0))
    never, always, signed_zero, tau_1, thr_0 = (kind == k for k in range(1, 6))

    def zeros(mask):
        return rng.choice([0.0, -0.0], np.count_nonzero(mask))

    alpha[never], beta[never], thr[never] = -np.abs(alpha[never]), np.abs(beta[never]), np.abs(thr[never])
    alpha[always], beta[always], thr[always] = np.abs(alpha[always]), -np.abs(beta[always]), -np.abs(thr[always])
    alpha[signed_zero], beta[signed_zero] = zeros(signed_zero), zeros(signed_zero)
    thr[signed_zero & (rng.random(m) < 0.3)] = 0.0
    beta[tau_1] = zeros(tau_1)
    thr[thr_0] = zeros(thr_0)
    return np.array((alpha, beta, thr))


class _NoDraws:
    """A generator stand-in whose draw methods raise."""

    def standard_exponential(self, *args, **kwargs):
        raise AssertionError("the walk drew a u/v block")

    standard_gamma = standard_exponential


def _no_draws(level):
    return _NoDraws()


def test_walk_matches_the_full_walk():
    # the walk decides events by their signs, tests tau = 1 events with a
    # cutoff on u alone, sums each cell's v from the levels of its n_ec's
    # bits and draws no block after its last open event; it must return
    # what the full walk returns, bit for bit.  Every state from 250 on,
    # and every state of block 100, is decided; block 249 has an open
    # event, so u and the levels G_0 to G_3 draw 250 chunks.  The n_ec
    # share bits: 3 = 1 + 2, 6 = 2 + 4, 5 = 1 + 4, 12 = 4 + 8.
    uv, n_ec = 64, [3, 6, 5, 1, 3, 12]
    rng = np.random.Generator(np.random.Philox(97))
    cells = [_mixed_events(rng, m, 250) for m in (300, 0, 120, 1, 300, 45)]
    for cols in cells:
        cols[:, 100:101] = np.array([[-1.0], [1.0], [1.0]])
    cells[0][:, 249] = (1.0, -1.0, 0.5)
    handed = {}

    def stream(level):
        handed[level] = philox_streams(5)(level)
        return handed[level]

    walked = sweep._walk_uv(stream, uv, cells, n_ec)
    full = walk_uv_reference(philox_streams(5), uv, cells, n_ec)
    assert [p.tobytes() for p in walked] == [p.tobytes() for p in full]
    rates = np.concatenate(walked)
    assert {0.0, 1.0} < set(rates.tolist()) and np.count_nonzero((rates > 0.0) & (rates < 1.0)) > 20
    assert set(handed) == {None, 0, 1, 2, 3}
    # the streams stop after block 249; standard_gamma(1.0) draws the
    # numbers of standard_exponential, which draws u
    for level in handed:
        drawn = philox_streams(5)(level)
        for _ in range(250):
            drawn.standard_gamma(1.0 if level is None else 2.0**level, uv)
        assert np.array_equal(handed[level].random(4), drawn.random(4)), level


def _tau1_ties(rng, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta, thr) of tau = 1 events (beta a zero) whose state j
    meets the samples u[j], and each event's kind: 0, thr at the product
    fl(alpha*u_s) of a drawn sample or at one of its two neighbours, alpha
    from 1e-300 to 1e300; 1, thr +0 or -0; 2, thr subnormal; 3, alpha < 0
    at a tie as in 0, so thr < 0; 4, inf or NaN in alpha, beta or thr."""
    m, uv = u.shape
    kind = rng.integers(0, 5, m)
    alpha = 10.0 ** rng.uniform(-300.0, 300.0, m)
    alpha[kind == 3] *= -1.0
    beta = rng.choice([0.0, -0.0], m)
    tie = alpha * u[np.arange(m), rng.integers(0, uv, m)]
    thr = np.choose(rng.integers(0, 3, m), [np.nextafter(tie, -np.inf), tie, np.nextafter(tie, np.inf)])
    thr[kind == 1] = rng.choice([0.0, -0.0], np.count_nonzero(kind == 1))
    thr[kind == 2] = 5e-324 * rng.integers(1, 2**52, np.count_nonzero(kind == 2))
    special = np.flatnonzero(kind == 4)
    where = rng.integers(0, 3, special.size)
    value = rng.choice([np.inf, np.nan], special.size)
    for row, (i, x) in zip((alpha, beta, thr), ((special[where == k], value[where == k]) for k in range(3))):
        row[i] = x
    return np.array((alpha, beta, thr)), kind


@pytest.mark.parametrize(("uv", "depth"), [(64, 400), (70_000, 12)])
def test_walk_tau1_cutoff_at_its_ties(uv, depth):
    # an event at tau = 1 with finite alpha > 0 is tested as u > t, the
    # cutoff t of fl(alpha*t) <= thr < fl(alpha*nextafter(t, inf)); at
    # thresholds on and next to a drawn product, at zero and subnormal
    # thresholds (whose products can underflow, and the event keeps its
    # product test), next to negative alpha and non-finite values, the walk
    # must return what the full walk returns, bit for bit.  At 70,000
    # samples a count past 65,535 would wrap in 16 bits.
    n_ec = [3, 4, 3]
    u = philox_streams(7)(None).standard_exponential((depth, uv))  # the walk's u, block by block
    rng = np.random.Generator(np.random.Philox(8))
    made = [_tau1_ties(rng, u[:m]) for m in (depth, depth // 2, 1)]
    cells = [cols for cols, _ in made]
    walked = sweep._walk_uv(philox_streams(7), uv, cells, n_ec)
    full = walk_uv_reference(philox_streams(7), uv, cells, n_ec)
    assert [p.tobytes() for p in walked] == [p.tobytes() for p in full]
    cols, kind = (np.concatenate(x, axis=-1) for x in zip(*made))
    cut, _ = sweep._tau1_cutoffs(*cols)
    assert np.all(cut[kind == 0]) and not np.any(cut[(kind == 3) | (kind == 4)])
    assert 0 < np.count_nonzero(cut[(kind == 1) | (kind == 2)]) < np.count_nonzero((kind == 1) | (kind == 2))
    hits = np.concatenate(walked) * uv
    assert np.count_nonzero((hits > 0) & (hits < uv)) > hits.size // 4
    if uv > 2**16:
        assert hits.max() > 2**16


def test_walk_without_open_events_draws_nothing():
    # events that signs decide are counted without a u/v draw, and every
    # event of an N_C = 0 group is one of them: a = c = 0 makes alpha +0
    rng = np.random.Generator(np.random.Philox(98))
    decided = [_mixed_events(rng, m, 0) for m in (40, 0, 7)]
    walked = sweep._walk_uv(_no_draws, 50, decided, [8, 3, 5])
    full = walk_uv_reference(philox_streams(6), 50, decided, [8, 3, 5])
    assert [p.tobytes() for p in walked] == [p.tobytes() for p in full]
    # each walked preset's cells without common paths: fig3's and fig4's
    # N_C = 0 group, the others moved to N_C = 0
    for spec in [spec for name in ("fig3", "fig4", "fig5", "fig6", "fig7")
                 for spec in sweep.preset_specs(name, trials=60) if spec.mode != "throughput_mrt"]:
        group = [(scheme, cfg.with_overrides(N_C=0)) for _, _, scheme, cfg in spec.cells() if cfg.N_C == spec.base.N_C]
        first = group[0][1]
        g_hat, g_check, _, _ = sample_gain_scalars(0, first.n_dc, first.n_ec, spec.trials,
                                                   montecarlo.as_rng(spec.seed))
        batch = [(*cell, g_hat, g_check) for cell in group]
        sop_mode = spec.mode.startswith("sop")
        for made in ([sweep._sop_cells(batch, policy) for policy in ("min_sop", "phi_mean")] if sop_mode
                     else [sweep._throughput_cells(batch)]):
            walked = sweep._walk_uv(_no_draws, spec.uv_samples, [cols for cols, _ in made], [first.n_ec] * len(made))
            rows = [finish(p_hat, spec.uv_samples, spec.seed) for (_, finish), p_hat in zip(made, walked)]
            if sop_mode:  # events that the walk decides by their signs
                assert sum(len(p) for p in walked) > 0, spec.preset
            else:  # the throughput builder leaves out a = 0 states, and these transmit
                assert sum(len(p) for p in walked) == 0 and any(row["accept_rate"] > 0 for row in rows), spec.preset


@pytest.mark.parametrize("n_ec", [1, 3, 6, 7, 20, 98])
def test_walk_level_sum_is_gamma_of_n_ec(n_ec):
    # a cell with n_ec = n meets v = sum of the levels G_b ~ Gamma(2^b) over
    # the set bits b of n (98 = 2 + 32 + 64).  One-state cells with the
    # event v > t_k (alpha = 0, beta = -1) at the Gamma(n) quantiles
    # t_k = F^-1(k / 201) count the walk's first block of v; the largest
    # |F_emp(t_k) - F(t_k)| is at most the KS distance of that sample, so
    # the Kolmogorov sf at 2,000 samples is a p-value with a false-alarm
    # rate of at most 1e-3 per n_ec (six n_ec: at most 0.6% for the test)
    uv, n_thr = 2000, 200
    levels = stats.gamma(n_ec).ppf(np.arange(1, n_thr + 1) / (n_thr + 1))
    cells = [np.array([[0.0], [-1.0], [t]]) for t in levels]
    walked = sweep._walk_uv(partial(montecarlo.walk_rng, 35117), uv, cells, [n_ec] * n_thr)
    below = 1.0 - np.concatenate(walked)  # F_emp(t_k)
    distance = np.max(np.abs(below - np.arange(1, n_thr + 1) / (n_thr + 1)))
    assert stats.kstwo(uv).sf(distance) > 1e-3, distance


def test_spec_walk_memory_stays_near_one_group():
    # the walk's (events x uv) arithmetic buffers take the size of one
    # (block, n_ec) segment, not of a whole block: a walk of 10 groups of 4
    # cells (n_ec 1..10) peaks no higher than its largest one-group walk
    # plus a margin that holds the larger hit mask (one byte per event and
    # sample of a block), a sample row per level and the sum, and 64 kB of
    # index arrays.  One float64 buffer of a whole block is 1.15 MB more.
    import tracemalloc

    uv, depth = 4000, 20
    rng = np.random.Generator(np.random.Philox(33))
    alpha, beta = rng.uniform(0.5, 1.0, (2, 40, depth))
    cells = list(np.stack((alpha, -beta, np.full((40, depth), 3.0)), axis=1))
    n_ec = [n for n in range(1, 11) for _ in range(4)]

    def peak(members):
        tracemalloc.start()
        sweep._walk_uv(partial(montecarlo.walk_rng, 5), uv, [cells[i] for i in members], [n_ec[i] for i in members])
        top = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return top

    one_group = max(peak(range(4 * g, 4 * g + 4)) for g in range(10))
    margin = 40 * uv + 6 * 8 * uv + 64_000
    assert peak(range(40)) <= one_group + margin


def test_gate_scores_a_walked_row():
    # _gate is the one rule of a walked row: the mean hit rate, and
    # max(0.005, 4 se) with se from the binomial variances summed left to
    # right in state order; a row without a walked state is unchecked
    value, tol = sweep._gate(np.empty(0), 100)
    assert math.isnan(value) and tol == math.inf
    floor = np.full(400, 0.01)  # 4 se = 6.3e-4
    assert sweep._gate(floor, 1000) == (float(np.mean(floor)), 0.005)
    uv = 50
    p_hat = np.random.Generator(np.random.Philox(41)).integers(0, uv + 1, 1000) / uv
    pair_var = 0.0
    for p in p_hat.tolist():
        pair_var += p * (1.0 - p) / uv
    assert np.sum(p_hat * (1.0 - p_hat) / uv) != pair_var  # numpy's pairwise order differs here
    value, tol = sweep._gate(p_hat, uv)
    assert value == float(np.mean(p_hat)) and tol == 4.0 * (math.sqrt(pair_var) / len(p_hat)) > 0.005


def _with_group_gains(groups, trials: int) -> list[tuple]:
    """(scheme, config, g_hat, g_check) of every cell, each group's cells
    with the gains of the group's first configuration."""
    batch = []
    for cells in groups:
        first = cells[0][1]
        rng = np.random.Generator(np.random.Philox(31))
        g_hat, g_check, _, _ = sample_gain_scalars(first.N_C, first.n_dc, first.n_ec, trials, rng)
        batch += [(*cell, g_hat, g_check) for cell in cells]
    return batch


def test_stacked_sop_group_equals_its_cells_alone():
    # _sop_cells stacks the cells of several draw groups (N_C, n_ec and R_s
    # differ) into one batch; each cell must get the event columns
    # (bitwise) and the row it gets when run alone
    fig4 = SystemConfig(M=100, N_D=20, N_C=8, P_dBm=55.0)
    fig5 = SystemConfig(M=150, N_D=20, N_C=16, R_s=5.0, k_tx=0.05, k_rx=0.05)
    other = fig4.with_overrides(N_C=12, N_E=30)
    batch = _with_group_gains((
        [(scheme, fig4.with_overrides(R_s=r_s, k_tx=k, k_rx=k))
         for r_s in (4.0, 5.0, 6.0) for k in (0.0, 0.1) for scheme in ("mrt", "an_opa")],
        [("an_opa", fig5.with_overrides(P_dBm=p)) for p in (56.0, 62.0, 68.0)],
        # all silent; past the impairment ceiling (no Conditional state);
        # two cells where some states are silent
        [("an_opa", other.with_overrides(P_dBm=0.0)), ("an_opa", other.with_overrides(k_tx=0.3, k_rx=0.3)),
         ("mrt", other.with_overrides(R_s=4.0, P_dBm=44.0)), ("an_opa", other.with_overrides(R_s=4.0, P_dBm=46.0))],
    ), 120)
    assert len({(cfg.N_C, cfg.n_ec) for _, cfg, _, _ in batch}) == 3
    for policy in ("min_sop", "phi_mean"):
        tags, widths = [], set()
        stacked = sweep._sop_cells(batch, policy)
        for cell, (cols, finish) in zip(batch, stacked, strict=True):
            ((alone_cols, alone_finish),) = sweep._sop_cells([cell], policy)
            assert cols.shape == alone_cols.shape and cols.tobytes() == alone_cols.tobytes()
            hits = np.linspace(0.0, 1.0, cols.shape[1])
            row = {k: sweep._fmt(v) for k, v in finish(hits, 40, 5).items()}
            assert row == {k: sweep._fmt(v) for k, v in alone_finish(hits, 40, 5).items()}
            tags.append(row["tags"])
            widths.add(cols.shape[1])
            if cell[0] == "mrt" and cols.shape[1]:
                assert row["tau_star_mean"] == "1.0"  # only an_opa cells choose a split
        assert "all_silent" in tags and "AlwaysOutage:120" in tags, policy
        assert len(widths) >= 4, policy  # cells leave the stack with different state counts


def test_stacked_throughput_group_equals_its_cells_alone():
    # _throughput_cells stacks the cells of several draw groups (N_C, n_ec
    # and epsilon differ) into one batch with a per-state n_ec and epsilon;
    # each cell must get the event columns (bitwise) and the row it gets
    # when run alone
    fig7 = SystemConfig(M=100, N_D=20, N_C=16, epsilon=0.01)
    dominated = fig7.with_overrides(P_dBm=28.0, d_D_m=300.0, d_E_m=5.0, k_tx=0.1, k_rx=0.1, N_E=30)
    partly = dominated.with_overrides(P_dBm=45.0, d_E_m=80.0)  # some states transmit
    no_common = SystemConfig(M=100, N_D=20, N_C=0, epsilon=0.01)
    batch = _with_group_gains((
        [("opa", fig7.with_overrides(P_dBm=p, k_tx=k, k_rx=k)) for p in (35.0, 50.0, 65.0, 75.0) for k in (0.0, 0.1)],
        [("equal", fig7.with_overrides(N_C=8, P_dBm=55.0, epsilon=eps)) for eps in (1e-4, 0.01, 0.3)],
        # silent cells of both schemes next to cells that transmit in part or in full
        [("opa", dominated), ("equal", dominated), ("opa", partly), ("equal", partly),
         ("equal", fig7.with_overrides(P_dBm=45.0, epsilon=0.05, N_E=30))],
        # no common path: a = 0, so no state has an outage event to check
        [("opa", no_common.with_overrides(P_dBm=p)) for p in (40.0, 60.0)] + [("equal", no_common)],
    ), 120)
    assert len({(cfg.N_C, cfg.n_ec) for _, cfg, _, _ in batch}) == 4
    rows, widths = [], set()
    stacked = sweep._throughput_cells(batch)
    for cell, (cols, finish) in zip(batch, stacked, strict=True):
        ((alone_cols, alone_finish),) = sweep._throughput_cells([cell])
        assert cols.shape == alone_cols.shape and cols.tobytes() == alone_cols.tobytes()
        hits = np.linspace(0.0, 0.02, cols.shape[1])
        row = {k: sweep._fmt(v) for k, v in finish(hits, 40, 5).items()}
        assert row == {k: sweep._fmt(v) for k, v in alone_finish(hits, 40, 5).items()}
        rows.append(row)
        widths.add(cols.shape[1])
    tags = [row["tags"] for row in rows]
    assert "fixed_tau" in tags and "Silent:120" in tags and any(";Silent:" in t for t in tags)
    assert sum(row["accept_rate"] == "0.0" for row in rows) == 2  # the dominated cells
    assert sum(row["mc_value"] == "nan" for row in rows) >= 3  # the N_C = 0 cells check no state
    assert len(widths) >= 4  # cells leave the stack with different state counts


def test_walk_draws_the_level_streams_of_the_seed(monkeypatch):
    # a sweep walks its seed's streams montecarlo.walk_rng(seed, level):
    # SFC64 of SeedSequence(seed mod 2^64, spawn_key=(0, 0)) for u and
    # spawn_key=(0, b + 1) for the level G_b, apart from the Philox stream
    # of its gains.  fig4's n_ec 2..18 have bits 1 to 4.
    (spec,) = sweep.preset_specs("fig4", trials=40, seed=-7)
    handed, walk = [], sweep._walk_uv

    def spy(stream, *args):
        handed.append(stream)
        return walk(stream, *args)

    monkeypatch.setattr(sweep, "_walk_uv", spy)
    sweep.run_sweep(spec)
    (stream,) = handed
    for level, key in ((None, (0, 0)), (0, (0, 1)), (1, (0, 2)), (4, (0, 5))):
        defined = np.random.Generator(np.random.SFC64(np.random.SeedSequence(2**64 - 7, spawn_key=key)))
        assert stream(level).standard_gamma(3.0, 100).tobytes() == defined.standard_gamma(3.0, 100).tobytes()
    monkeypatch.undo()

    # the gain generator's end position reaches no row
    rows, gains, extra = sweep.run_sweep(spec), sweep.sample_gains, []

    def gains_then_more(n_c, n_dc, n, rng):
        drawn = gains(n_c, n_dc, n, rng)
        extra.append((rng.standard_exponential(1000), rng.standard_gamma(3.0, 1000)))
        return drawn

    monkeypatch.setattr(sweep, "sample_gains", gains_then_more)
    moved = sweep.run_sweep(spec)
    assert len(extra) == 10  # one per draw key
    assert [sweep._fmt(r["mc_value"]) for r in moved] == [sweep._fmt(r["mc_value"]) for r in rows]
    assert sum(0.0 < r["mc_value"] < 1.0 for r in rows) > 20  # rows with open events


def test_seed_is_taken_modulo_2_64(tmp_path):
    # --seed -7 and --seed 2**64 - 7 name the same gain and walk streams
    outs = []
    for seed in ("-7", str(2**64 - 7)):
        out = tmp_path / f"seed{seed}.csv"
        assert cli.main(["sweep", "--preset", "fig4", "--trials", "20", "--seed", seed, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            outs.append([row for row in csv.DictReader(line for line in fh if not line.startswith("#"))])
    neg, pos = outs
    assert len(neg) == len(pos) == 120
    for a, b in zip(neg, pos):
        assert (a.pop("seed"), b.pop("seed")) == ("-7", str(2**64 - 7))
        assert a == b


def test_csv_is_deterministic():
    spec = _tiny_spec()
    text1 = sweep.render_csv([spec], sweep.run_sweep(spec))
    text2 = sweep.render_csv([spec], sweep.run_sweep(_tiny_spec()))
    assert text1 == text2
    assert text1.startswith(f"# {sweep.SCHEMA_TAG}\n")
    header = [l for l in text1.splitlines() if not l.startswith("#")][0]
    assert header.split(",") == list(sweep.COLUMNS)


def test_check_rows_flags_mismatch():
    rows = sweep.run_sweep(_tiny_spec())
    rows[0]["mc_value"] = rows[0]["mc_target"] + 10 * rows[0]["tol"]
    failures = sweep.check_rows(rows)
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
    assert sweep.SCHEMA_TAG in text
    rc2 = cli.main(["sweep", "--spec", str(spec_path), "--out", str(out_path)])
    assert rc2 == 0
    assert out_path.read_text() == text  # byte-identical rerun


def _csv_rows(text: str) -> list[dict]:
    """The data rows of a sweep CSV, column name -> field."""
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


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
    assert [row["P_dBm"] for row in _csv_rows(out_path.read_text())] == ["56.0", "56.0"]  # mrt, an_opa


def test_set_is_applied_last_over_the_sweep_base(tmp_path, capsys, monkeypatch):
    # --set wins over a spec file's key (P_dBm=50 in the file, every row at 60)
    spec_path = tmp_path / "p50.spec"
    spec_path.write_text("mode=sop_fixed_rate\nswept_key=N_C\nvalues=2,4\ntrials=20\nuv_samples=100\nP_dBm=50.0\n")
    cfg_path = tmp_path / "base.cfg"
    cfg_path.write_text("P_dBm=40.0\nR_s=3.0\n")
    assert cli.main(["sweep", "--spec", str(spec_path), "--config", str(cfg_path), "--set", "P_dBm=60"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 4 and {row["P_dBm"] for row in rows} == {"60.0"}
    assert {row["R_s"] for row in rows} == {"3.0"}  # the --config file's key, under the spec file's
    # a --set on a preset is checked against the preset's own base: fig5
    # has M = 150, so N_D = 70 (N_E follows it, 124 bins with N_C = 16) is
    # a valid path count there, and not under the default M = 100
    seen = []
    monkeypatch.setattr(cli, "run_sweep", lambda spec: seen.append(spec) or [])
    assert cli.main(["sweep", "--preset", "fig5", "--trials", "5", "--set", "N_D=70"]) == 0
    assert [cfg.N_D for spec in seen for *_, cfg in spec.cells()] == [70] * 15
    bases = [line for line in capsys.readouterr().out.splitlines() if line.startswith("# base ")]
    assert len(bases) == 1 and "M=150,N_D=70,N_E=70," in bases[0]
    with pytest.raises(ValueError, match="N_D \\+ N_E - N_C <= M"):
        SystemConfig(N_D=70)


def test_sweep_refuses_inputs_it_would_ignore(tmp_path, capsys, monkeypatch):
    # a --config next to a preset, and a --set of a key that every cell
    # sets itself, would be read and then ignored: each is one usage
    # error, found before any group runs
    def no_sweep(*args, **kwargs):
        raise AssertionError("run_sweep called on ignored input")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    cfg_path = tmp_path / "base.cfg"
    cfg_path.write_text("P_dBm=70.0\nk_tx=0.0\n")
    line = _usage_error(["sweep", "--preset", "fig7", "--trials", "5", "--config", str(cfg_path)], capsys)
    assert "--config goes with --spec only" in line
    assert "k_tx is a variant key" in _usage_error(["sweep", "--preset", "fig7", "--trials", "5", "--set", "k_tx=0.3"], capsys)
    assert "P_dBm is the swept key" in _usage_error(["sweep", "--preset", "fig6", "--set", "P_dBm=50"], capsys)
    spec_path = tmp_path / "sweep.spec"
    spec_path.write_text("mode=sop_fixed_rate\nswept_key=N_C\nvalues=2\n")
    assert "N_C is the swept key" in _usage_error(["sweep", "--spec", str(spec_path), "--set", "N_C=4"], capsys)


def test_cli_rejects_unknown_override(tmp_path, capsys):
    spec_path = tmp_path / "sweep.spec"
    spec_path.write_text("mode=sop_fixed_rate\nswept_key=N_C\nvalues=2\n")
    assert "bogus" in _usage_error(["sweep", "--spec", str(spec_path), "--set", "bogus=1"], capsys)


def test_spec_file_names_an_unknown_swept_key(tmp_path, capsys):
    spec_path = tmp_path / "s.spec"
    spec_path.write_text("mode=sop_fixed_rate\nswept_key=bogus\nvalues=1\n")
    line = _usage_error(["sweep", "--spec", str(spec_path)], capsys)
    assert line == f"mmwsec sweep: error: {spec_path}: swept_key: unknown configuration key 'bogus'"


def test_value_parse_errors_name_the_key(tmp_path, capsys):
    # a --set or --config value that does not parse is one usage line that
    # names the key, the expected type and the value (and the file)
    line = _usage_error(["sweep", "--preset", "fig4", "--set", "M=1e2"], capsys)
    assert line == "mmwsec sweep: error: M: expected int, got '1e2'"
    spec_path, cfg_path = tmp_path / "sweep.spec", tmp_path / "base.cfg"
    spec_path.write_text("mode=sop_fixed_rate\nswept_key=P_dBm\nvalues=56\n")
    cfg_path.write_text("N_C=4.5\n")
    line = _usage_error(["sweep", "--spec", str(spec_path), "--config", str(cfg_path)], capsys)
    assert line == f"mmwsec sweep: error: {cfg_path}: N_C: expected int, got '4.5'"


def test_sweep_rejects_unreadable_input_files(tmp_path, capsys):
    # a --spec or --config file that cannot be read (missing, a directory)
    # is bad input: one usage error that names the path, exit 2
    missing = str(tmp_path / "missing.spec")
    assert missing in _usage_error(["sweep", "--spec", missing], capsys)
    spec_path = tmp_path / "sweep.spec"
    spec_path.write_text("mode=sop_fixed_rate\nswept_key=N_C\nvalues=2\n")
    missing = str(tmp_path / "missing.cfg")
    assert missing in _usage_error(["sweep", "--spec", str(spec_path), "--config", missing], capsys)
    assert str(tmp_path) in _usage_error(["sweep", "--spec", str(tmp_path)], capsys)  # a directory


def test_sweep_rejects_unwritable_out_before_running(tmp_path, capsys, monkeypatch):
    # an --out path in a missing directory is bad input, found before the
    # sweep is run: one usage error that names the path, exit 2
    def no_sweep(*args, **kwargs):
        raise AssertionError("run_sweep called before the output path was checked")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    out = str(tmp_path / "missing" / "x.csv")
    line = _usage_error(["sweep", "--preset", "fig7", "--trials", "5", "--out", out], capsys)
    assert line.startswith(f"mmwsec sweep: error: cannot write {out}: ")
    assert not (tmp_path / "missing").exists()


def test_preset_specs_exist():
    for name in ("fig3", "fig4", "fig5", "fig6", "fig7"):
        specs = sweep.preset_specs(name, trials=5, uv_samples=10, seed=1)
        assert specs and all(s.preset == name for s in specs)
    with pytest.raises(ValueError):
        sweep.preset_specs("fig9")


def test_throughput_sweep_modes_smoke():
    base = SystemConfig(M=100, N_D=20, N_C=16, epsilon=0.01, k_tx=0.1, k_rx=0.1)
    for mode in ("throughput_opa", "throughput_equal_power", "throughput_mrt"):
        spec = sweep.SweepSpec(mode=mode, swept_key="P_dBm", values=[55.0], base=base,
                             variants=[{}], trials=40, uv_samples=200, seed=2)
        rows = sweep.run_sweep(spec)
        assert len(rows) == 1
        assert rows[0]["analytic"] >= 0.0
        assert sweep.check_rows(rows) == []


def test_validate_runs_without_scipy():
    # only the test extra installs scipy; validate needs numpy alone.  At
    # 2,000 trials the CDF check's fixed 0.01 tolerance is at most two of
    # its standard errors, so the suite runs at 20,000, as CI does
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from mmwsec import cli\n"
            "sys.exit(cli.main(['validate', '--trials', '20000']))\n")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8 and all(line.startswith("[PASS] ") for line in lines), proc.stdout


def test_validate_rejects_fewer_than_two_trials(capsys):
    # one sample has no standard error; no samples ended in a traceback
    for trials in ("1", "0", "-3"):
        assert "--trials must be at least 2" in _usage_error(["validate", "--trials", trials], capsys)


def test_validate_takes_its_seed_modulo_2_64():
    # SeedSequence rejects negative entropy, so the estimator streams mask the seed
    assert cli.run_validation(trials=2000, seed=-7, verbose=False) == \
        cli.run_validation(trials=2000, seed=2**64 - 7, verbose=False)


@pytest.mark.parametrize("seed", [4242, -1])  # negative seeds run, as in sweep
def test_validate_suite_passes(seed):
    results = cli.run_validation(trials=30_000, seed=seed, verbose=False)
    assert results
    failing = [name for name, ok, _ in results if not ok]
    assert failing == []
