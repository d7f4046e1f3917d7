import copy
import math
import tracemalloc

import numpy as np
import pytest

from conftest import make_coeffs, ratio_estimate_reference, sndr_synthesis_reference, workable_cfg
from mmwsec import checks, montecarlo
from mmwsec.channel import sample_gain_scalars
from mmwsec.config import SystemConfig
from mmwsec.montecarlo import (
    empirical_cdf_Y_E, empirical_sndr_from_distortion, empirical_sop, empirical_sop_conditional,
)
from mmwsec.sndr import sndr_destination, sndr_eve
from mmwsec.sop import SecrecyTarget, SopBranch, outage_threshold, sop_overall


def test_conditional_estimates_are_reproducible():
    cfg = workable_cfg()
    co = make_coeffs(cfg, 10.0, 8.0)
    target = SecrecyTarget(cfg.R_s)
    a = empirical_sop_conditional(co, 0.6, target, cfg.n_ec, 250_000, 42)
    b = empirical_sop_conditional(co, 0.6, target, cfg.n_ec, 250_000, 42)
    c = empirical_sop_conditional(co, 0.6, target, cfg.n_ec, 250_000, np.int64(42))
    d = empirical_sop_conditional(co, 0.6, target, cfg.n_ec, 250_000, 43)
    assert a.value == b.value == c.value
    assert a.value != d.value
    assert a.seed == 42 and a.n == 250_000


def test_chunks_draw_their_own_stream_of_the_seed():
    # chunk i draws from SFC64(SeedSequence(seed mod 2^64, spawn_key=(i,)))
    handed = []

    def spy(stream, m):
        handed.append(copy.deepcopy(stream))
        return np.zeros(1)

    montecarlo._chunk_sums(2 * montecarlo._CHUNK + 5, -7, spy, width=1)
    assert len(handed) == 3
    firsts = []
    for i, stream in enumerate(handed):
        defined = np.random.Generator(np.random.SFC64(np.random.SeedSequence(2**64 - 7, spawn_key=(i,))))
        firsts.append(stream.standard_normal(8).tobytes())
        assert firsts[-1] == defined.standard_normal(8).tobytes()
    assert firsts[0] != firsts[1]


def test_walk_streams_and_chunk_streams_are_pairwise_distinct():
    # the sweep walk's u stream, its level streams G_b and the estimator
    # chunks are SFC64 streams of one seed under different spawn keys:
    # (0, 0), (0, b + 1) and (i,); no two may meet
    for seed in (4242, 2**64 - 7):
        streams = [montecarlo.walk_rng(seed, level) for level in (None, *range(8))]
        streams += [montecarlo._chunk_rng(seed, i) for i in range(8)]
        firsts = {stream.bit_generator.random_raw(4).tobytes() for stream in streams}
        assert len(firsts) == len(streams) == 17


def test_full_sop_estimator_matches_analytic_average():
    cfg = workable_cfg(N_C=10, P_dBm=56.0)
    target = SecrecyTarget(cfg.R_s)
    tau = 0.7
    est = empirical_sop(cfg, tau, target, 400_000, 7)
    # analytic reference: average the closed form over accepted states
    rng = np.random.Generator(np.random.Philox(1234))
    vals = []
    for _ in range(4000):
        g_hat = float(rng.gamma(cfg.N_C, 1.0))
        g_check = float(rng.gamma(cfg.n_dc, 1.0))
        co = make_coeffs(cfg, g_hat, g_check)
        bd = sop_overall(tau, target, co, cfg.n_ec)
        if bd.branch != SopBranch.SOURCE_SILENT:
            vals.append(bd.value)
    ref = float(np.mean(vals))
    se = math.sqrt(np.var(vals) / len(vals)) + est.std_error
    assert abs(est.value - ref) <= max(0.01, 4.0 * se)
    assert 0.0 < est.accept_rate <= 1.0


def test_full_sop_no_common_paths_is_outage_free():
    cfg = workable_cfg(N_C=0, R_s=2.0)
    est = empirical_sop(cfg, 1.0, SecrecyTarget(2.0), 100_000, 3)
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_full_sop_certain_outage_past_ceiling():
    # R_s = 6 with k = 0.1 sits above the impairment ceiling log2(51); the
    # outage event is certain for every state, at any power
    for p_dbm in (5.0, 55.0, 95.0):
        cfg = workable_cfg(P_dBm=p_dbm, R_s=6.0, k_tx=0.1, k_rx=0.1)
        with pytest.warns(UserWarning, match="ceiling"):
            est = empirical_sop(cfg, 1.0, SecrecyTarget(6.0), 10_000, 21)
        assert est.value == 1.0
        assert est.accept_rate == 0.0


def test_full_sop_warns_on_empty_region():
    cfg = workable_cfg(P_dBm=20.0, R_s=5.0)  # link far below the target rate
    with pytest.warns(UserWarning, match="nearly empty"):
        est = empirical_sop(cfg, 1.0, SecrecyTarget(5.0), 50_000, 11)
    assert est.accept_rate < 1e-4


def test_empirical_cdf_limits_and_agreement():
    cfg = workable_cfg(N_C=8)
    co = make_coeffs(cfg, 8.0, 12.0)
    tau = 0.55
    grid = [0.0, 0.05, 0.2, 0.8, 2.0, 1e9]
    ests = empirical_cdf_Y_E(co, tau, grid, 200_000, 17, cfg.n_ec)
    assert ests[0].value == 0.0
    assert ests[-1].value == 1.0
    check = checks.cdf_Y_E_vs_mc([(co, tau, grid, cfg.n_ec, 17)], 200_000, 0.005, 4.0)
    assert check.margin <= 1.0, check.detail


def test_conditional_sop_and_cdf_count_the_same_draws():
    # both oracles count y_E <= level over the same chunked (u, v) draws,
    # so at the outage threshold the SOP hits are the draws the CDF leaves
    # out; n spans two chunks and ties the threshold to no sample
    cfg = workable_cfg(N_C=8)
    co = make_coeffs(cfg, 8.0, 12.0)
    tau, target, n = 0.55, SecrecyTarget(cfg.R_s), montecarlo._CHUNK + 999
    x_th = float(outage_threshold(tau, target, co))
    sop_est = empirical_sop_conditional(co, tau, target, cfg.n_ec, n, 23)
    (cdf_est,) = empirical_cdf_Y_E(co, tau, [x_th], n, 23, cfg.n_ec)
    hits, at_most = round(sop_est.value * n), round(cdf_est.value * n)
    assert hits + at_most == n and 0 < hits < n
    assert sop_est.value == hits / n and cdf_est.value == at_most / n


# two whole chunks and a partial one, whose one block of 999 draws is partial
_BLOCKED_N = 2 * montecarlo._CHUNK + 999


def _whole_chunks(seed: int, n: int, draw, counts) -> np.ndarray:
    """counts(*draw(stream, m)) summed over each whole chunk of n trials:
    the estimators' arithmetic before it ran in blocks."""
    total = 0
    for i, start in enumerate(range(0, n, montecarlo._CHUNK)):
        total = total + counts(*draw(montecarlo._chunk_rng(seed, i), min(montecarlo._CHUNK, n - start)))
    return total


def test_y_e_counts_in_blocks_are_the_whole_chunk_counts():
    # each chunk draws its u and then its v whole; y_E and the per-level
    # counts then run in blocks, and the exact counts add up to the ones
    # the whole chunk gave
    cfg = workable_cfg(N_C=8)
    co = make_coeffs(cfg, 8.0, 12.0)
    tau, seed = 0.55, 31

    def draw(stream, m):
        return stream.exponential(1.0, size=m), stream.gamma(cfg.n_ec, 1.0, size=m)

    probe = np.random.default_rng(5)
    levels = np.quantile(sndr_eve(tau, *draw(probe, 4000), co.a, co.b, co.c), np.linspace(0.05, 0.95, 10))
    expected = _whole_chunks(seed, _BLOCKED_N, draw,
                             lambda u, v: np.sum(sndr_eve(tau, u, v, co.a, co.b, co.c)[:, None] <= levels, axis=0))
    got = montecarlo._count_y_e_at_most(co, tau, levels, cfg.n_ec, _BLOCKED_N, seed)
    assert got.tolist() == expected.tolist()


def test_full_sop_counts_in_blocks_are_the_whole_chunk_counts():
    # sample_gain_scalars draws each chunk whole; the arithmetic then runs
    # in blocks, so the outage and acceptance counts keep their bits; at
    # 42 dBm a part of the draws is rejected
    cfg = workable_cfg(N_C=10, P_dBm=42.0)
    tau, target = 0.7, SecrecyTarget(cfg.R_s)
    beta_d, beta_e, k_tx2 = cfg.beta_d(), cfg.beta_e(), cfg.k_tx**2

    def counts(g_hat, g_check, u, v):
        d = beta_d * (g_hat + g_check)
        e = cfg.k_tot2 * d
        a = beta_e * g_hat / (g_hat + g_check)
        y_e = sndr_eve(tau, u, v, a, beta_e * (1.0 + k_tx2) / cfg.n_ec, k_tx2 * a)
        accepted = d > (e + 1.0) * target.T_bar
        outage = accepted & (np.log2((1.0 + sndr_destination(tau, d, e)) / (1.0 + y_e)) < target.R_s)
        return np.array([np.count_nonzero(outage), np.count_nonzero(accepted)])

    for seed in (7, -3):
        outage_n, accept_n = _whole_chunks(
            seed, _BLOCKED_N, lambda stream, m: sample_gain_scalars(cfg.N_C, cfg.n_dc, cfg.n_ec, m, stream), counts)
        est = empirical_sop(cfg, tau, target, _BLOCKED_N, seed)
        assert 0 < outage_n < accept_n < _BLOCKED_N
        assert (est.value, est.n, est.accept_rate) == (outage_n / accept_n, accept_n, accept_n / _BLOCKED_N)


def test_count_memory_does_not_grow_with_the_chunk():
    # numpy reports its buffers to tracemalloc; over whole 131,072-draw
    # chunks the full SOP oracle peaked at 13.8-14.5 MB and the y_E count
    # at 5.2 MB for n = 200,000, in blocks at 4.5-5.2 and 2.2 MB
    cfg = workable_cfg(N_C=10, P_dBm=56.0)
    co = make_coeffs(cfg, 8.0, 12.0)
    for run, bound in ((lambda: empirical_sop(cfg, 0.7, SecrecyTarget(cfg.R_s), 200_000, 7), 7e6),
                       (lambda: empirical_cdf_Y_E(co, 0.6, np.linspace(0.1, 2.0, 10), 200_000, 7, cfg.n_ec), 3.5e6)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, peak


def test_empirical_cdf_rejects_unsorted():
    cfg = workable_cfg()
    co = make_coeffs(cfg, 10.0, 6.0)
    with pytest.raises(ValueError):
        empirical_cdf_Y_E(co, 0.5, [1.0, 0.5], 1000, 5, cfg.n_ec)


# ideal hardware: the formulas collapse to the no-distortion SNRs
@pytest.mark.parametrize("k_tx, k_rx, tau, seed", [(0.1, 0.1, 0.5, 2024), (0.0, 0.0, 0.5, 99), (0.1, 0.05, 1.0, 500)],
                         ids=["impaired", "ideal_hardware", "full_power"])
def test_sndr_reconstruction(k_tx, k_rx, tau, seed):
    cfg = SystemConfig(M=64, N_D=12, N_C=6, P_dBm=55.0, k_tx=k_tx, k_rx=k_rx)
    check = checks.sndr_reconstruction(cfg, tau, 100_000, seed, 3.0)
    assert check.margin <= 1.0, check.detail


def test_sndr_reconstruction_needs_a_common_path():
    # at N_C = 0 y_E's formula is exactly 0 and the synthesized y_E is rounding
    # (3.5e-30 here): the relative gap divided by 0
    cfg = SystemConfig(M=64, N_D=12, N_E=8, N_C=0, P_dBm=55.0)
    with pytest.raises(ValueError, match="N_C"):
        checks.sndr_reconstruction(cfg, 0.6, 20_000, 5, 3.0)


_SYNTH_CFG = SystemConfig(M=64, N_D=12, N_C=6, P_dBm=55.0)  # validate's sndr_reconstruction state


@pytest.mark.parametrize("cfg, tau", [
    (SystemConfig(M=64, N_D=12, N_E=7, N_C=6, P_dBm=55.0), 0.6),
    (_SYNTH_CFG, 0.6),
    (SystemConfig(M=128, N_D=12, N_E=60, N_C=6, P_dBm=55.0), 0.6),
    (_SYNTH_CFG, 1.0),
], ids=["n_ec_1_rank_1", "n_ec_6", "n_ec_54", "tau_1_no_an"])
def test_synthesis_z_scores_are_standard_normal(cfg, tau):
    # the synthesis's law, not one seed's draw: over 40 seeds of one chunk
    # each, (estimate - formula) / standard error of y_D and of y_E must have
    # a mean within 5/sqrt(40) of 0 and a standard deviation within
    # 5/sqrt(80) of 1, 5 standard errors of a standard normal sample's.  Over
    # seeds 0-1999 the scores read means -0.03 to -0.06, SDs 0.95 to 0.99
    # and kurtosis 2.9 to 3.2 at each state, and over seeds 10000-17999 at
    # validate's state means -0.02 to -0.01 and SDs 1.00 to 1.02, so each
    # band fails a correct synthesis with probability below 1.6e-6 (the
    # chi-square tail of the SD), and the 16 bands of the four states below
    # 3e-5 together.  Scaling the AN power by 1.1 moves the mean y_E score
    # by -3 to -3.6.
    z = np.array([
        [(est.value - formula) / est.std_error for est, formula in ((rec.y_d, rec.y_d_formula), (rec.y_e, rec.y_e_formula))]
        for rec in (empirical_sndr_from_distortion(cfg, tau, montecarlo._SYNTH_CHUNK, seed) for seed in range(40))
    ])
    assert np.all(np.abs(z.mean(axis=0)) <= 5.0 / math.sqrt(40)), z.mean(axis=0)
    assert np.all(np.abs(z.std(axis=0, ddof=1) - 1.0) <= 5.0 / math.sqrt(80)), z.std(axis=0, ddof=1)


@pytest.mark.parametrize("n", [2, 1000, montecarlo._SYNTH_CHUNK])
def test_synthesis_within_one_chunk_is_the_one_shot_synthesis(n):
    # up to one chunk the chunked synthesis draws and sums as the
    # whole-vector one did, so its estimates keep their bits
    for seed in (77, -7):
        rec = empirical_sndr_from_distortion(_SYNTH_CFG, 0.6, n, seed)
        (powers,) = sndr_synthesis_reference(_SYNTH_CFG, 0.6, [n], seed)
        for est, (num, den) in ((rec.y_d, powers[:2]), (rec.y_e, powers[2:])):
            assert (est.value, est.std_error) == ratio_estimate_reference(num, den)
            assert est.n == n and est.seed == seed


def test_synthesis_adds_its_chunks_in_order():
    # 2.5 chunks: the power sums are the per-chunk sums of the one stream
    # added in chunk order, and the pooled variance is the whole sample's
    chunk = montecarlo._SYNTH_CHUNK
    n = 2 * chunk + chunk // 2
    rec = empirical_sndr_from_distortion(_SYNTH_CFG, 0.6, n, 4242)
    batches = sndr_synthesis_reference(_SYNTH_CFG, 0.6, [chunk, chunk, chunk // 2], 4242)
    sums = np.zeros(4)
    for powers in batches:
        sums += powers.sum(axis=1)
    whole = np.concatenate(batches, axis=1)
    for est, (num, den) in ((rec.y_d, (0, 1)), (rec.y_e, (2, 3))):
        assert est.value == (sums[num] / n) / (sums[den] / n)
        _, std_error = ratio_estimate_reference(whole[num], whole[den])
        assert math.isclose(est.std_error, std_error, rel_tol=1e-12)
        assert est.n == n


def test_synthesis_builds_the_basis_once_per_m(monkeypatch):
    # the synthesis reads the angular basis from a read-only cache, one
    # build per M with the bits of a fresh one; build_basis itself still
    # returns a new writable array
    real = montecarlo.build_basis
    builds = []
    monkeypatch.setattr(montecarlo, "build_basis", lambda m: builds.append(m) or real(m))
    montecarlo._read_only_basis.cache_clear()
    first = empirical_sndr_from_distortion(_SYNTH_CFG, 0.6, 1000, 9)
    assert empirical_sndr_from_distortion(_SYNTH_CFG, 0.6, 1000, 9) == first
    assert builds == [_SYNTH_CFG.M]
    cached = montecarlo._read_only_basis(_SYNTH_CFG.M)
    assert not cached.flags.writeable and np.array_equal(cached, real(_SYNTH_CFG.M))
    assert real(_SYNTH_CFG.M).flags.writeable


def test_synthesis_memory_does_not_grow_with_n():
    # numpy reports its buffers to tracemalloc; the whole-vector synthesis
    # peaked at 40 MB for n = 100,000
    peaks = []
    for n in (100_000, 400_000):
        tracemalloc.start()
        try:
            empirical_sndr_from_distortion(_SYNTH_CFG, 0.6, n, 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 4e6, peaks


@pytest.mark.parametrize("tau, n, match", [(0.6, 1, "n must be at least 2"), (0.0, 1000, "tau must be in"),
                                           (1.5, 1000, "tau must be in"), (math.nan, 1000, "tau must be in")])
def test_synthesis_rejects_n_below_2_and_tau_outside_the_unit_interval(tau, n, match):
    with pytest.raises(ValueError, match=match):
        empirical_sndr_from_distortion(_SYNTH_CFG, tau, n, 3)
