import numpy as np
import pytest

import math
import warnings

from mmwsec import montecarlo
from mmwsec.channel import (
    ChannelDraw, an_beamformer, build_basis, channel_row, sample_channel, sample_gain_scalars,
    sample_path_sets,
)
from mmwsec.config import SystemConfig, coeffs_from_gains, derive_coeffs
from mmwsec.sop import SopBranch


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Let a failing ``hypothesis`` property report its example.  The
    hypothesis plugin's report hook then imports ``libcst`` to write a
    patch, and libcst's import raises a DeprecationWarning that the
    warnings-as-errors filter turns into a pytest INTERNALERROR, which
    hides the falsifying example.  This outermost wrapper ignores that one
    warning while the report is made."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
        yield


def make_coeffs(cfg: SystemConfig, g_hat: float, g_check: float, u: float = 0.0, v: float = 0.0):
    return derive_coeffs(cfg, ChannelDraw(G_hat=g_hat, G_check=g_check, u=u, v=v))


def workable_cfg(**overrides) -> SystemConfig:
    """A configuration whose transmission region is comfortably non-empty."""
    base = dict(M=100, N_D=20, N_C=12, P_dBm=55.0, R_s=3.0, k_tx=0.1, k_rx=0.1)
    base.update(overrides)
    return SystemConfig(**base)


_FUZZ_EDGES = (
    {}, {"N_C": 0}, {"R_s": 0.0}, {"k_tx": 0.0, "k_rx": 0.0}, {"R_s": 6.0, "k_tx": 0.15, "k_rx": 0.15},
)


def fuzz_states(rng, n_configs: int, n_states: int):
    """(cfg, coeffs) pairs over the SystemConfig space, n_states channel
    states each: N_C in [0, 19], P in [30, 80] dBm, R_s in [0, 6] and
    k_tx, k_rx in [0, 0.15].  Four of every five configurations have, in
    turn, no common path, R_s = 0, ideal hardware, or R_s = 6 past the
    impairment ceiling of k_tx = k_rx = 0.15."""
    for i in range(n_configs):
        params = dict(
            M=100, N_D=20, N_C=int(rng.integers(0, 20)), P_dBm=float(rng.uniform(30, 80)),
            R_s=float(rng.uniform(0, 6)), k_tx=float(rng.uniform(0, 0.15)),
            k_rx=float(rng.uniform(0, 0.15)),
        )
        params.update(_FUZZ_EDGES[i % len(_FUZZ_EDGES)])
        cfg = SystemConfig(**params)
        g_hat, g_check, _, _ = sample_gain_scalars(cfg.N_C, cfg.n_dc, cfg.n_ec, n_states, rng)
        yield cfg, coeffs_from_gains(cfg, g_hat, g_check)


def thresholds(tau, coeffs, k_tx2):
    """The paper's gate values (gamma1, gamma2, gamma3) of the piecewise SOP,
    the reference that ``sop_overall``'s tau_min branch rule is held to.

    gamma1(tau): largest rate factor whose outage threshold exceeds the
    eavesdropper SNDR ceiling (outage impossible below it).
    gamma2(tau): rate factor reachable by the destination at split tau.
    gamma3: large-power limit of gamma2 (infinite for ideal hardware).
    Elementwise over tau, the states and k_tx2 = k_tx^2.
    """
    k_tot2 = coeffs.k_tot2
    k1 = k_tx2 * (1.0 + k_tot2)
    k2 = k_tot2 * (1.0 + k_tx2)
    k3 = 1.0 + k_tot2
    td = tau * coeffs.d
    gamma1 = (td * k1 + k_tx2) / (td * k2 + k_tx2 + 1.0)
    gamma2 = (td * k3 + 1.0) / (td * k_tot2 + 1.0)
    with np.errstate(divide="ignore"):
        gamma3 = np.divide(k3, k_tot2)  # inf for ideal hardware
    return gamma1, gamma2, gamma3


def gate_ge(t, gate):
    """T >= gate with ties (to 1e-12 relative) counted as crossing."""
    return t >= gate * (1.0 - 1e-12)


def gate_branch(target, coeffs, k_tx2):
    """The paper's SOP branch of each state through the gates: T past the
    impairment ceiling gamma3 is a certain outage, T past gamma2(1) means
    the source suspends, and the rest is conditional (gamma1 < 1 <= T, so
    the zero-outage gate never opens)."""
    _, gamma2_full, gamma3 = thresholds(1.0, coeffs, k_tx2)
    always = np.broadcast_to(gate_ge(target.T, gamma3), np.shape(gamma2_full))
    silent = gate_ge(target.T, gamma2_full)
    return np.select([always, silent], [SopBranch.ALWAYS_OUTAGE, SopBranch.SOURCE_SILENT], SopBranch.CONDITIONAL)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240801))


def walk_uv_reference(stream, uv_samples: int, cells, n_ec):
    """The u/v walk that evaluates every event of every block in full:
    block j draws chunk j of u from ``stream(None)`` and of every level
    G_b ~ Gamma(2^b) in the union of the cells' n_ec bits from
    ``stream(b)``, a cell with n_ec = n meets the sum of G_b over the set
    bits b of n in ascending b, and alpha*u - beta*v > thr is tested over
    all states, with a block for every state index up to the deepest cell.
    ``sweep._walk_uv`` must return the same per-state hit rates per cell,
    bit for bit, while it skips what its draws cannot change."""
    counts = [cols.shape[1] for cols in cells]
    bits = [[b for b in range(n.bit_length()) if n >> b & 1] for n in n_ec]
    levels = {b: stream(b) for b in sorted(set().union(*bits))}
    u_rng = stream(None)
    hits = [np.zeros(m) for m in counts]
    for j in range(max(counts)):
        u = u_rng.standard_exponential(uv_samples)
        g = {b: rng.standard_gamma(2.0**b, uv_samples) for b, rng in levels.items()}
        for cols, cell_bits, cell_hits in zip(cells, bits, hits):
            if j < cols.shape[1]:
                v = g[cell_bits[0]]
                for b in cell_bits[1:]:
                    v = v + g[b]
                alpha, beta, thr = cols[:, j, None]
                cell_hits[j] = np.count_nonzero(alpha * u - beta * v > thr) / uv_samples
    return hits


def philox_streams(seed: int):
    """A ``stream(level)`` for ``sweep._walk_uv`` of Philox generators, each
    level its own seed (u at ``seed``, level b at ``seed + b + 1``)."""
    return lambda level: np.random.Generator(np.random.Philox(seed + (0 if level is None else level + 1)))


def sndr_synthesis_reference(cfg: SystemConfig, tau: float, sizes, seed: int) -> list[np.ndarray]:
    """The whole-vector distortion-level synthesis that
    ``montecarlo.empirical_sndr_from_distortion`` streams in chunks.  From
    the seed's chunk-0 stream it draws the path sets and the channel, then,
    for each size in ``sizes``, that many transmissions as whole vectors of
    complex normals, real parts then imaginary parts: s, s_dist, eta_rx,
    noise_d, noise_e, and the artificial noise and its distortion in the
    span the receivers observe, w and w_dist, with A z = R^H w for A =
    [h_E F; h_D F] = R^H Q^H.  It returns each batch's powers as a (4,
    size) array: signal and impairment plus noise at D, then at E.
    ``sizes=[n]`` is the one-shot synthesis."""
    gen = montecarlo._chunk_rng(seed, 0)
    sets = sample_path_sets(cfg.M, cfg.N_D, cfg.N_E, cfg.N_C, gen)
    g_d, g_e, _ = sample_channel(sets, 1, gen)
    basis = build_basis(cfg.M)
    h_d = channel_row(basis, sets.xi_d, g_d[0], cfg.alpha_d())
    h_e = channel_row(basis, sets.xi_e, g_e[0], cfg.alpha_e())
    f1, f_an = an_beamformer(basis, sets, h_d)
    sig_amp = math.sqrt(tau * cfg.power_watt)
    an_amp = math.sqrt((1.0 - tau) * cfg.power_watt / cfg.n_ec)
    _, r = np.linalg.qr(np.array([h_e @ f_an, h_d @ f_an]).conj().T)
    l_d, l_e = an_amp * r.conj().T[::-1]
    sig_d, sig_e = sig_amp * (h_d @ f1), sig_amp * (h_e @ f1)
    rx_amp, noise_amp, k_tx = cfg.k_rx * sig_amp * np.linalg.norm(h_d), math.sqrt(cfg.noise_watt), cfg.k_tx
    none = [0.0] * (2 * len(l_d))
    field_map = np.array([  # columns s, s_dist, eta_rx, noise_d, noise_e, w, w_dist
        [sig_d, 0.0, 0.0, 0.0, 0.0, *none],
        [0.0, k_tx * sig_d, rx_amp, noise_amp, 0.0, *l_d, *(k_tx * l_d)],
        [sig_e, 0.0, 0.0, 0.0, 0.0, *none],
        [0.0, k_tx * sig_e, 0.0, 0.0, noise_amp, *l_e, *(k_tx * l_e)],
    ])
    real_map = np.block([[field_map.real, -field_map.imag], [field_map.imag, field_map.real]]) / math.sqrt(2.0)
    batches = []
    for n in sizes:
        parts = real_map @ gen.standard_normal((real_map.shape[1], n))  # real parts, then imaginary parts
        batches.append(parts[:4] ** 2 + parts[4:] ** 2)
    return batches


def ratio_estimate_reference(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """The ratio of the sample means of num and den and its delta-method
    standard error, from whole vectors with numpy's two-pass variance."""
    n = len(num)
    num_mean, den_mean = float(np.mean(num)), float(np.mean(den))
    ratio = num_mean / den_mean
    rel_var = np.var(num, ddof=1) / (n * num_mean**2) + np.var(den, ddof=1) / (n * den_mean**2)
    return ratio, abs(ratio) * math.sqrt(rel_var)
