"""Stochastic oracles for every closed form in the package.

Every estimator takes an integer seed, taken modulo 2^64.  Estimates are
reproducible by construction: trials are split into fixed-size chunks,
chunk i draws from its own SFC64 stream of (seed, i) (``_chunk_rng``), and
the chunk sums are added in chunk order.  A chunk's draws are made whole,
and its arithmetic then runs over blocks of ``_SYNTH_CHUNK`` draws whose
exact counts add up (``_block_sums``).  The distortion-level synthesis
draws from the seed's chunk-0 stream alone: the path sets and the channel
first, then ``_SYNTH_CHUNK`` transmissions at a time, so its working set
does not grow with its sample count.  Per transmission it draws s, s_dist,
eta_rx, noise_d and noise_e, then the artificial noise and its distortion
in the span of rank min(N_E - N_C, 2) that the two receivers observe: at
most 9 complex normals at any N_E - N_C.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import (
    an_beamformer, build_basis, channel_row, sample_channel, sample_gain_scalars, sample_path_sets,
)
from .config import EffectiveCoeffs, SystemConfig, derive_coeffs
from .sndr import sndr_destination, sndr_eve
from .sop import SecrecyTarget, outage_threshold

_CHUNK = 1 << 17
# transmissions per chunk of the distortion-level synthesis: a chunk's
# draws and temporaries (a 1.3 MB peak at any N_E - N_C) stay within one
# core's L2 cache at any sample count; 8,192 took the same time with twice
# the memory.
# It is also the block of the estimators' counting arithmetic: at 200,000
# draws (2-core Xeon, numpy 2.4.6) the full SOP oracle peaks at 4.5 MB
# (5.5 MB in blocks of 16,384, 13.8 MB over whole chunks) at one speed, and
# the y_E count at 2.3 MB (2.8, 5.2 MB), 7% slower than in blocks of 16,384
_SYNTH_CHUNK = 1 << 12
_ACCEPT_WARN = 1e-4


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo estimate with its standard error and provenance."""

    value: float
    std_error: float
    n: int
    seed: int
    accept_rate: float = 1.0


def as_rng(seed: int) -> np.random.Generator:
    """The Philox generator of a 64-bit integer seed."""
    return np.random.Generator(np.random.Philox(int(seed) & 0xFFFFFFFFFFFFFFFF))


def _sfc64(entropy, spawn_key: tuple = ()) -> np.random.Generator:
    """The SFC64 generator of ``SeedSequence(entropy, spawn_key=spawn_key)``."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy, spawn_key=spawn_key)))


def walk_rng(seed: int, level: int | None) -> np.random.Generator:
    """The SFC64 generator of one stream of a sweep's u/v walk:
    ``SeedSequence(seed mod 2^64, spawn_key=(0, 0))`` draws u ~ Exp(1) for
    ``level=None``, and ``spawn_key=(0, b + 1)`` the canonical level
    G_b ~ Gamma(2^b) for ``level=b``.  Its two-word spawn key keeps it
    apart from every estimator chunk's one-word key and from the sweep's
    ``as_rng(seed)`` gains."""
    return _sfc64(int(seed) & 0xFFFFFFFFFFFFFFFF, (0, 0 if level is None else level + 1))


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    """The SFC64 generator of an estimator's chunk: ``SeedSequence(seed
    mod 2^64, spawn_key=(chunk,))``."""
    return _sfc64(int(seed) & 0xFFFFFFFFFFFFFFFF, (chunk,))


def _chunk_sums(n: int, seed: int, chunk_fn, width: int) -> np.ndarray:
    """Sum chunk_fn(stream, size) -> length-``width`` arrays over n trials.

    Chunk i draws from ``_chunk_rng(seed, i)`` and the sums are added in
    chunk order.
    """
    total = np.zeros(width)
    for i, start in enumerate(range(0, n, _CHUNK)):
        total += chunk_fn(_chunk_rng(seed, i), min(_CHUNK, n - start))
    return total


def _block_sums(count_fn, *draws) -> np.ndarray:
    """The sum of count_fn(*block) over consecutive blocks of
    ``_SYNTH_CHUNK`` entries of the equal-length ``draws``.  count_fn
    returns exact counts, so the sum does not depend on the block size."""
    step = _SYNTH_CHUNK
    return sum(count_fn(*(x[i:i + step] for x in draws)) for i in range(0, len(draws[0]), step))


def _binomial_se(p: float, n: int) -> float:
    if n <= 0:
        return 0.0
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def sample_mean(values: np.ndarray, seed: int) -> McEstimate:
    """Sample mean of the values and its standard error (0 for one value)."""
    n = len(values)
    std_error = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(value=float(np.mean(values)), std_error=std_error, n=n, seed=seed)


# ---------------------------------------------------------------------------
# conditional SOP oracle (destination state fixed, eavesdropper random)
# ---------------------------------------------------------------------------

def _count_y_e_at_most(coeffs: EffectiveCoeffs, tau: float, levels, n_ec: int, n: int, seed: int) -> np.ndarray:
    """Per level, how many of n eavesdropper draws (u, v) at a fixed state
    have an SNDR y_E at most the level, counted chunk by chunk through the
    SNDR expressions, independently of the closed-form algebra."""

    def counts(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        y_e = sndr_eve(tau, u, v, coeffs.a, coeffs.b, coeffs.c)
        return np.array([np.count_nonzero(y_e <= level) for level in levels])

    def chunk(stream: np.random.Generator, m: int) -> np.ndarray:
        u = stream.exponential(1.0, size=m)
        v = stream.gamma(n_ec, 1.0, size=m) if n_ec > 0 else np.zeros(m)
        return _block_sums(counts, u, v)

    return _chunk_sums(n, seed, chunk, width=len(levels))


def empirical_sop_conditional(
    coeffs: EffectiveCoeffs,
    tau: float,
    target: SecrecyTarget,
    n_ec: int,
    n: int,
    seed: int,
) -> McEstimate:
    """Frequency of the outage event y_E > x_th over the eavesdropper
    randomness (u, v)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    (at_most,) = _count_y_e_at_most(coeffs, tau, [outage_threshold(tau, target, coeffs)], n_ec, n, seed)
    p = (n - at_most) / n
    return McEstimate(value=p, std_error=_binomial_se(p, n), n=n, seed=seed)


# ---------------------------------------------------------------------------
# full SOP oracle (channel state random, conditioned on the on-off region)
# ---------------------------------------------------------------------------

def empirical_sop(
    cfg: SystemConfig,
    tau: float,
    target: SecrecyTarget,
    n: int,
    seed: int,
) -> McEstimate:
    """Outage frequency over full channel randomness, given transmission.

    Conditioning on the on-off region (the destination gain supports the
    target rate at full power) is by rejection; the acceptance rate is
    reported and a near-empty region raises a warning.  A rate factor at or
    past the impairment ceiling makes the outage event certain for every
    channel state, so the estimate is 1 by convention even though the
    protocol never transmits there.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    # the per-state coefficients a..e are built here from the config on
    # purpose, not through coeffs_from_gains: the oracle stays independent
    # of the coefficient code that the closed forms it checks rely on
    beta_d, beta_e = cfg.beta_d(), cfg.beta_e()
    k_tx2, k_tot2 = cfg.k_tx**2, cfg.k_tot2
    b = beta_e * (1.0 + k_tx2) / cfg.n_ec
    t_bar = target.T_bar
    if k_tot2 * t_bar >= 1.0:  # destination SNDR ceiling below the target rate
        warnings.warn(
            "target rate exceeds the impairment ceiling: outage is certain",
            stacklevel=2,
        )
        return McEstimate(value=1.0, std_error=0.0, n=0, seed=seed, accept_rate=0.0)

    def counts(g_hat, g_check, u, v) -> np.ndarray:
        g = g_hat + g_check
        d = beta_d * g
        e = k_tot2 * d
        # on-off region: the full-power destination SNDR clears the target
        accepted = d > (e + 1.0) * t_bar
        a = np.where(g > 0.0, beta_e * g_hat / np.maximum(g, 1e-300), 0.0)
        y_d = sndr_destination(tau, d, e)
        y_e = sndr_eve(tau, u, v, a, b, k_tx2 * a)
        outage = accepted & (np.log2((1.0 + y_d) / (1.0 + y_e)) < target.R_s)
        return np.array(
            [float(np.count_nonzero(outage)), float(np.count_nonzero(accepted))]
        )

    def chunk(stream: np.random.Generator, m: int) -> np.ndarray:
        return _block_sums(counts, *sample_gain_scalars(cfg.N_C, cfg.n_dc, cfg.n_ec, m, stream))

    outage_n, accept_n = _chunk_sums(n, seed, chunk, width=2)
    accept_rate = accept_n / n
    if accept_rate < _ACCEPT_WARN:
        warnings.warn(
            f"transmission region nearly empty: acceptance rate {accept_rate:.2e}",
            stacklevel=2,
        )
    p = outage_n / accept_n if accept_n > 0 else 0.0
    return McEstimate(
        value=p,
        std_error=_binomial_se(p, int(accept_n)),
        n=int(accept_n),
        seed=seed,
        accept_rate=accept_rate,
    )


# ---------------------------------------------------------------------------
# eavesdropper SNDR CDF oracle
# ---------------------------------------------------------------------------

def empirical_cdf_Y_E(
    coeffs: EffectiveCoeffs,
    tau: float,
    x_grid,
    n: int,
    seed: int,
    n_ec: int,
) -> list[McEstimate]:
    """Pointwise empirical CDF of the eavesdropper SNDR at a fixed state."""
    x_grid = np.asarray(x_grid, float)
    if np.any(np.diff(x_grid) < 0):
        raise ValueError("x_grid must be sorted ascending")
    counts = _count_y_e_at_most(coeffs, tau, x_grid, n_ec, n, seed)
    return [
        McEstimate(value=c / n, std_error=_binomial_se(c / n, n), n=n, seed=seed)
        for c in counts
    ]


# ---------------------------------------------------------------------------
# distortion-level SNDR reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SndrReconstruction:
    """Sample SNDR ratios rebuilt from synthesized distortion noise."""

    y_d: McEstimate
    y_e: McEstimate
    y_d_formula: float
    y_e_formula: float


def _pooled(total, chunk):
    """(count, sums, squared deviations from the mean) of two batches pooled
    by Chan, Golub and LeVeque's update; the sums add in order."""
    n_a, s_a, m2_a = total
    n_b, s_b, m2_b = chunk
    if n_a == 0:
        return chunk
    delta = s_a / n_a - s_b / n_b
    return n_a + n_b, s_a + s_b, m2_a + m2_b + delta**2 * (n_a * n_b / (n_a + n_b))


def _ratio_estimate(n: int, sums, m2, seed: int) -> McEstimate:
    """The ratio of two sample means with its delta-method standard error,
    from the samples' pooled (sum, squared deviations) of numerator and
    denominator."""
    (num_mean, den_mean), (num_var, den_var) = (sums / n).tolist(), (m2 / (n - 1)).tolist()
    ratio = num_mean / den_mean
    rel_var = num_var / (n * num_mean**2) + den_var / (n * den_mean**2)
    return McEstimate(value=ratio, std_error=abs(ratio) * math.sqrt(rel_var), n=n, seed=seed)


@lru_cache(maxsize=16)
def _read_only_basis(m: int) -> np.ndarray:
    """``build_basis(m)``, built once per M and shared read-only: the
    synthesis only reads it, and rebuilding it cost 8-22% of a one-chunk
    call at M 64-128."""
    basis = build_basis(m)
    basis.flags.writeable = False
    return basis


def empirical_sndr_from_distortion(
    cfg: SystemConfig, tau: float, n: int, seed: int
) -> SndrReconstruction:
    """Rebuild both SNDRs from signal-level synthesis of the distortion model.

    Draws one full-vector channel state, then synthesizes n >= 2
    transmissions at a split tau in (0, 1] with transmit distortion
    distributed like the transmit signal (scaled by k_tx) and receive
    distortion scaled to the received signal power.  The sample power
    ratios must land on the closed-form SNDRs, which validates the algebra
    collapsing the received-signal expressions.

    The artificial noise z ~ CN(0, I) and its transmit distortion reach
    the receivers only through A z, with A the 2 x (N_E - N_C) matrix of
    rows h_E F and h_D F.  With A^H = QR (Q with orthonormal columns), A z
    = R^H (Q^H z), and Q^H z is again CN(0, I) (Tse and Viswanath, 2005,
    App. A), of rank min(N_E - N_C, 2).  So both AN streams are drawn in
    that span, as w and w_dist, and a transmission costs at most 9 complex
    normals at any N_E - N_C.  The E row comes first, so E's AN is fixed by
    its own channel, not by the rounding noise of the D row, which the
    masking makes about 0.

    Every draw comes from the seed's chunk-0 stream, ``_chunk_rng(seed,
    0)``: the path sets and the channel, then, for each chunk of
    ``_SYNTH_CHUNK`` transmissions (the last one partial), one
    ``standard_normal`` call that draws what ``complex_normal`` would for
    5 + 2 rank rows of complex normals, their real parts and then their
    imaginary parts: s, s_dist, eta_rx, noise_d, noise_e, then the rank
    rows of w and those of w_dist.  The four received fields (signal and
    impairment plus noise, at D and at E) are one real matrix times those
    parts, and their powers re^2 + im^2 add their sums and squared
    deviations to the totals in chunk order, so n up to one chunk draws
    and sums as one whole-vector synthesis would.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2 (a standard error needs two samples), got {n}")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    gen = _chunk_rng(seed, 0)
    sets = sample_path_sets(cfg.M, cfg.N_D, cfg.N_E, cfg.N_C, gen)
    g_d, g_e, draw = sample_channel(sets, 1, gen)
    coeffs = derive_coeffs(cfg, draw).take(0)

    basis = _read_only_basis(cfg.M)
    h_d = channel_row(basis, sets.xi_d, g_d[0], cfg.alpha_d())
    h_e = channel_row(basis, sets.xi_e, g_e[0], cfg.alpha_e())
    f1, f_an = an_beamformer(basis, sets, h_d)

    sig_amp = math.sqrt(tau * cfg.power_watt)
    an_amp = math.sqrt((1.0 - tau) * cfg.power_watt / cfg.n_ec)
    _, r = np.linalg.qr(np.array([h_e @ f_an, h_d @ f_an]).conj().T)
    span = an_amp * r.conj().T[::-1]  # rows D, E: an_amp * A z ~ span @ w
    rank = span.shape[1]

    # the received fields are one linear map of the drawn columns: rows
    # signal and impairment plus noise at D, then the same at E
    gains = sig_amp * np.array([h_d @ f1, h_e @ f1])
    field_map = np.zeros((4, 5 + 2 * rank), complex)
    field_map[0::2, 0] = gains
    field_map[1::2, 1] = cfg.k_tx * gains
    field_map[1, 2:4] = cfg.k_rx * sig_amp * np.linalg.norm(h_d), math.sqrt(cfg.noise_watt)
    field_map[3, 4] = math.sqrt(cfg.noise_watt)
    field_map[1::2, 5:] = np.hstack([span, cfg.k_tx * span])
    # the same map on real and imaginary parts, with complex_normal's 1/sqrt(2)
    field_map = np.block([[field_map.real, -field_map.imag], [field_map.imag, field_map.real]]) / math.sqrt(2.0)

    total = (0, np.zeros(4), np.zeros(4))
    for start in range(0, n, _SYNTH_CHUNK):
        m = min(_SYNTH_CHUNK, n - start)
        fields = field_map @ gen.standard_normal((field_map.shape[1], m))
        powers = fields[:4] ** 2 + fields[4:] ** 2
        sums = np.sum(powers, axis=1)
        total = _pooled(total, (m, sums, np.sum((powers - (sums / m)[:, None]) ** 2, axis=1)))

    _, sums, m2 = total
    return SndrReconstruction(
        y_d=_ratio_estimate(n, sums[:2], m2[:2], seed),
        y_e=_ratio_estimate(n, sums[2:], m2[2:], seed),
        y_d_formula=float(sndr_destination(tau, coeffs.d, coeffs.e)),
        y_e_formula=float(sndr_eve(tau, draw.u[0], draw.v[0], coeffs.a, coeffs.b, coeffs.c)),
    )
