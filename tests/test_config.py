import math

import numpy as np
import pytest

from conftest import make_coeffs
from mmwsec.channel import ChannelDraw
from mmwsec.config import (
    SystemConfig,
    coeffs_from_gains,
    dbm_to_watt,
    derive_coeffs,
    load_config,
    path_loss_linear,
    save_config,
    watt_to_dbm,
)
from mmwsec.errors import InfeasibleError
from mmwsec.throughput import _bar_scales


def test_path_loss_measured_point():
    # 61.4 + 2*10*log10(100) = 101.4 dB
    alpha = path_loss_linear(100.0, 61.4, 2.0)
    assert math.isclose(alpha, 10.0 ** (-10.14), rel_tol=1e-12)
    assert math.isclose(alpha, 7.244e-11, rel_tol=1e-3)


def test_path_loss_trivial_points():
    assert path_loss_linear(1.0, 0.0, 2.0) == 1.0
    assert math.isclose(path_loss_linear(10.0, 0.0, 2.0), 0.01, rel_tol=1e-12)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss_linear(0.0, 61.4, 2.0)
    with pytest.raises(ValueError):
        path_loss_linear(-5.0, 61.4, 2.0)


def test_dbm_round_trip():
    for p in [-50.0, -10.0, 0.0, 5.0, 23.0, 46.0]:
        assert math.isclose(watt_to_dbm(dbm_to_watt(p)), p, rel_tol=1e-12, abs_tol=1e-12)
    for w in [1e-12, 1e-3, 1.0, 250.0]:
        assert math.isclose(dbm_to_watt(watt_to_dbm(w)), w, rel_tol=1e-12)


def test_beta_d_against_hand_arithmetic():
    cfg = SystemConfig(M=100, N_D=20, P_dBm=5.0, sigma_n2_dBm=-50.0, d_D_m=100.0)
    expected = (10.0 ** ((5.0 - 30.0) / 10.0) * 100 * 10.0 ** (-10.14)) / (
        20 * 10.0 ** ((-50.0 - 30.0) / 10.0)
    )
    assert math.isclose(cfg.beta_d(), expected, rel_tol=1e-12)
    coeffs = make_coeffs(cfg, 16.0, 4.0)
    assert math.isclose(coeffs.d, 20.0 * expected, rel_tol=1e-12)


def test_ideal_hardware_zeroes_distortion_terms():
    cfg = SystemConfig(k_tx=0.0, k_rx=0.0)
    coeffs = make_coeffs(cfg, 10.0, 5.0)
    assert coeffs.k_tot2 == 0.0
    assert coeffs.c == 0.0
    assert coeffs.e == 0.0


def test_no_common_paths_means_no_leakage_scale():
    cfg = SystemConfig(N_C=0)
    coeffs = make_coeffs(cfg, 0.0, 20.0)
    assert coeffs.a == 0.0
    assert coeffs.c == 0.0


def test_coefficient_identities(rng):
    cfg = SystemConfig(k_tx=0.13, k_rx=0.07)
    coeffs = make_coeffs(cfg, 11.0, 6.0)
    assert math.isclose(coeffs.c / coeffs.a, cfg.k_tx**2, rel_tol=1e-15)
    assert math.isclose(coeffs.e / coeffs.d, cfg.k_tot2, rel_tol=1e-15)
    assert isinstance(coeffs.a, np.float64)  # a 0-d state, still a float
    # one call over a batch of gains equals its 0-d calls, field by field,
    # and one non-positive total gain in a batch raises
    g_hat, g_check = rng.gamma(16.0, 1.0, 50), rng.gamma(4.0, 1.0, 50)
    batch = coeffs_from_gains(cfg, g_hat, g_check)
    for i in range(50):
        assert batch.take(i) == coeffs_from_gains(cfg, float(g_hat[i]), float(g_check[i]))
    with pytest.raises(ValueError, match="positive"):
        coeffs_from_gains(cfg, np.array([11.0, 0.0]), np.array([6.0, 0.0]))


def test_bar_variants_reconstruct_draw_coefficients():
    cfg = SystemConfig(k_tx=0.1, k_rx=0.05)
    g_hat, g_check = 9.0, 7.0
    coeffs = make_coeffs(cfg, g_hat, g_check)
    g = g_hat + g_check
    # the gain-normalized constants of the MRT closed forms
    bar = _bar_scales(cfg)
    assert math.isclose(coeffs.a, bar.a_bar * g_hat / g, rel_tol=1e-14)
    assert math.isclose(coeffs.c, bar.c_bar * g_hat / g, rel_tol=1e-14)
    assert math.isclose(coeffs.d, bar.d_bar * g, rel_tol=1e-14)
    assert math.isclose(coeffs.e, bar.e_bar * g, rel_tol=1e-14)


def test_coefficients_scale_linearly_with_power():
    lo = SystemConfig(P_dBm=40.0)
    hi = SystemConfig(P_dBm=50.0)
    c_lo = make_coeffs(lo, 12.0, 8.0)
    c_hi = make_coeffs(hi, 12.0, 8.0)
    for name in ("a", "b", "c", "d", "e"):
        assert math.isclose(getattr(c_hi, name), 10.0 * getattr(c_lo, name), rel_tol=1e-12)
    assert math.isclose(hi.beta_e(), 10.0 * lo.beta_e(), rel_tol=1e-12)


def test_no_an_direction_is_infeasible():
    cfg = SystemConfig(N_D=20, N_E=16, N_C=16)
    with pytest.raises(InfeasibleError):
        derive_coeffs(cfg, ChannelDraw(G_hat=10.0, G_check=5.0, u=0.0, v=0.0))


def test_n_e_defaults_to_n_d():
    cfg = SystemConfig(N_D=18)
    assert cfg.N_E == 18


def test_n_e_follows_an_n_d_override():
    # an N_E equal to N_D follows an N_D override, as it does when the
    # configuration is built; an N_E of its own, or one overridden too, stays
    assert SystemConfig().with_overrides(N_D=30) == SystemConfig(N_D=30)
    assert SystemConfig(N_E=24).with_overrides(N_D=30).N_E == 24
    assert SystemConfig().with_overrides(N_D=30, N_E=25).N_E == 25


@pytest.mark.parametrize(
    "bad",
    [
        dict(M=0),
        dict(N_D=100),          # N_D < M violated
        dict(N_E=120),
        dict(N_C=25),           # exceeds min(N_D, N_E)
        dict(k_tx=1.0),
        dict(k_rx=-0.1),
        dict(d_D_m=0.0),
        dict(R_s=-1.0),
        dict(epsilon=0.0),
        dict(epsilon=1.5),
        dict(P_dBm=math.nan),
        dict(P_dBm=math.inf),
        dict(sigma_n2_dBm=-math.inf),
        dict(d_D_m=math.inf),
        dict(d_E_m=math.nan),
        dict(pl_a=math.nan),
        dict(pl_b=-math.inf),
        dict(R_s=math.nan),
        dict(R_s=math.inf),
        dict(N_D=0),            # every closed form needs beta_D and beta_E
        dict(N_E=0),
        dict(M=30, N_D=20, N_C=0),  # 40 paths in 30 bins
        # finite values whose linear scales leave the doubles: 2^R_s and
        # 10^(x/10) overflow, the noise and beta_D underflow to 0.0
        dict(R_s=1100.0),
        dict(P_dBm=4000.0),
        dict(sigma_n2_dBm=-4000.0),
        dict(pl_a=-4000.0),
        dict(d_E_m=1e-300),
        dict(pl_b=1000.0),
    ],
)
def test_config_validation(bad):
    with pytest.raises(ValueError) as err:
        SystemConfig(**bad)
    for key, value in bad.items():
        assert key in str(err.value)
        if str(err.value).startswith("path counts"):  # the error names the counts
            assert f"{key}={value}" in str(err.value)


def test_path_counts_must_be_integers():
    # a float path count was accepted: N_C = 2.5 gave n_ec = 17.5, sweep
    # rows of NaN and a TypeError in the MRT closed form
    from mmwsec import sweep

    for key in ("M", "N_D", "N_E", "N_C"):
        for value in (2.5, 16.0, "16"):
            with pytest.raises(ValueError, match=f"{key} must be an integer, got {value!r}"):
                SystemConfig(**{key: value})
    cfg = SystemConfig(M=np.int64(100), N_D=np.int32(20), N_E=np.uint8(18), N_C=np.int64(16))
    assert cfg.n_ec == 2 and cfg.n_dc == 4
    with pytest.raises(ValueError, match="N_C must be an integer"):
        sweep.SweepSpec(mode="sop_fixed_rate", swept_key="N_C", values=[2.5])


def test_config_file_round_trip(tmp_path):
    cfg = SystemConfig(M=64, N_D=10, N_E=12, N_C=4, P_dBm=37.5, k_tx=0.08)
    path = tmp_path / "scenario.cfg"
    save_config(cfg, str(path))
    loaded = load_config(str(path))
    assert loaded == cfg


def test_config_file_overrides_and_comments(tmp_path):
    # comments and blank lines are skipped, and a later line overrides an earlier one
    path = tmp_path / "scenario.cfg"
    path.write_text("# comment line\nM=64\nN_D=10\nN_C=4\n\nP_dBm=40\n k_tx = 0.05 \nP_dBm=55\n")
    loaded = load_config(str(path))
    assert loaded.M == 64 and loaded.P_dBm == 55.0 and loaded.k_tx == 0.05


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("M=64\nbogus=1\n")
    with pytest.raises(ValueError, match="bad.cfg:2: unknown configuration key 'bogus'"):
        load_config(str(path))


def test_key_value_files_name_the_bad_line(tmp_path):
    # configuration and sweep-spec files share one reader
    from mmwsec import cli

    def read_spec(path):
        return cli._parse_spec_file(path, {}, {})

    cases = [
        ("bad.cfg", load_config, "no equals sign", "expected key=value"),
        ("bad.spec", read_spec, "no equals sign", "expected key=value"),
        ("typo.spec", read_spec, "trails=3", "unknown sweep key 'trails'"),
        ("variants.spec", read_spec, "variants=k_tx=0.2", "unknown sweep key 'variants'"),
    ]
    for name, read, line, message in cases:
        path = tmp_path / name
        path.write_text(f"# header\nM=64\n\n{line}\n")
        with pytest.raises(ValueError, match=f"{name}:4: {message}"):
            read(str(path))


def test_key_value_files_name_the_bad_value(tmp_path):
    # a value that does not parse names its file, its key, the expected
    # type and the value, not only the value
    from mmwsec import cli

    def read_spec(path):
        return cli._parse_spec_file(path, {}, {})

    spec = "mode=sop_fixed_rate\nswept_key=P_dBm\n"
    cases = [
        ("bad.cfg", load_config, "M=64\nN_C=4.5\n", "N_C: expected int, got '4.5'"),
        ("p.spec", read_spec, spec + "values=56,58\nP_dBm=x\n", "P_dBm: expected float, got 'x'"),
        ("values.spec", read_spec, spec + "values=56,x\n", "values: P_dBm: expected float, got 'x'"),
        ("seed.spec", read_spec, spec + "values=56\nseed=1.5\n", "seed: expected int, got '1.5'"),
        ("trials.spec", read_spec, spec + "values=56\ntrials=1e3\n", "trials: expected int, got '1e3'"),
    ]
    for name, read, text, message in cases:
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            read(str(path))
        assert str(exc.value) == f"{path}: {message}"
