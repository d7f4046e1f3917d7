"""Discrete angular-domain channel: basis, path index sets, realizations.

The transmit array is a uniform linear array with half-wavelength spacing.
Its angular domain is sampled on the M-point grid that renders the steering
matrix unitary, so resolvable paths live in disjoint orthogonal bins and
masking the destination's bins is exact.

Realizations come in batches: ``sample_channel`` draws n states' gain
vectors in index-set order together with their reductions (G_hat,
G_check, u, v), and ``sample_gain_scalars`` draws those reductions from
their known laws without the vectors.

Index sets use 1-based column indices throughout, matching the selection
operator convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateChannelError


def build_basis(m: int) -> np.ndarray:
    """Unitary M x M steering-vector basis of the angular domain.

    Column i (1-based) is the normalized steering vector at direction
    cosine phi_i = (2i - M - 1)/M; with half-wavelength element spacing the
    columns are exactly orthonormal.
    """
    if m < 1:
        raise ValueError(f"M must be a positive integer, got {m}")
    ant = np.arange(m)[:, None]
    phi = (2.0 * np.arange(1, m + 1)[None, :] - m - 1) / m
    return np.exp(-1j * np.pi * ant * phi) / np.sqrt(m)


def select_columns(b: np.ndarray, xi: Sequence[int]) -> np.ndarray:
    """Sub-matrix of the columns of ``b`` named by the 1-based index set ``xi``.

    Indices must be strictly increasing and within [1, columns(b)].
    """
    b = np.atleast_2d(b)
    n_cols = b.shape[1]
    xi = list(xi)
    for prev, cur in zip(xi, xi[1:]):
        if cur <= prev:
            raise ValueError(f"index set must be strictly increasing, got {xi}")
    if xi and (xi[0] < 1 or xi[-1] > n_cols):
        raise ValueError(f"index set {xi} out of range [1, {n_cols}]")
    return b[:, [i - 1 for i in xi]]


@dataclass(frozen=True)
class PathSets:
    """Resolvable-path index sets of destination and eavesdropper.

    xi_c/xi_a/xi_p are the common, eavesdropper-only and destination-only
    partitions derived from xi_d and xi_e.
    """

    xi_d: tuple
    xi_e: tuple
    xi_c: tuple = field(init=False)
    xi_a: tuple = field(init=False)
    xi_p: tuple = field(init=False)

    def __post_init__(self):
        xi_d = tuple(sorted(set(self.xi_d)))
        xi_e = tuple(sorted(set(self.xi_e)))
        if xi_d != tuple(self.xi_d) or xi_e != tuple(self.xi_e):
            raise ValueError("index sets must be strictly increasing and duplicate-free")
        common = set(xi_d) & set(xi_e)
        object.__setattr__(self, "xi_c", tuple(sorted(common)))
        object.__setattr__(self, "xi_a", tuple(sorted(set(xi_e) - common)))
        object.__setattr__(self, "xi_p", tuple(sorted(set(xi_d) - common)))

    @property
    def n_d(self) -> int:
        return len(self.xi_d)

    @property
    def n_e(self) -> int:
        return len(self.xi_e)

    @property
    def n_c(self) -> int:
        return len(self.xi_c)


def sample_path_sets(
    m: int, n_d: int, n_e: int, n_c: int, rng: np.random.Generator
) -> PathSets:
    """Draw destination/eavesdropper bin sets sharing exactly n_c bins.

    xi_d is uniform among size-n_d subsets of [1, m]; xi_e reuses a uniform
    size-n_c subset of xi_d and fills the rest outside xi_d.  This realizes
    an eavesdropper whose angular position is unknown a priori.
    """
    if not (0 <= n_c <= min(n_d, n_e)):
        raise ValueError("need 0 <= n_c <= min(n_d, n_e)")
    if max(n_d, n_e) >= m or n_d + n_e - n_c > m:
        raise ValueError(
            f"cannot place n_d={n_d}, n_e={n_e}, n_c={n_c} paths in {m} bins"
        )
    all_bins = np.arange(1, m + 1)
    xi_d = rng.choice(all_bins, size=n_d, replace=False)
    common = rng.choice(xi_d, size=n_c, replace=False)
    outside = np.setdiff1d(all_bins, xi_d, assume_unique=False)
    extra = rng.choice(outside, size=n_e - n_c, replace=False)
    return PathSets(
        xi_d=tuple(sorted(int(i) for i in xi_d)),
        xi_e=tuple(sorted(int(i) for i in np.concatenate([common, extra]))),
    )


@dataclass(frozen=True)
class ChannelDraw:
    """Gain reductions of channel states: floats for one state, or
    equal-length arrays for a batch, as ``sample_channel`` returns them.

    G_hat and G_check are the destination's gains on the common and the
    destination-only bins, u the eavesdropper's leakage along the
    destination's common-bin beam (0 without a common bin) and v its gain
    on the eavesdropper-only bins, which carry the artificial noise.
    """

    G_hat: float | np.ndarray
    G_check: float | np.ndarray
    u: float | np.ndarray
    v: float | np.ndarray


def complex_normal(shape, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. circularly-symmetric complex Gaussians of unit variance.

    The real parts are drawn before the imaginary parts, in one
    ``standard_normal((2,) + shape)`` call, and each is scaled by 1/sqrt(2)
    into a float (..., 2) buffer viewed as complex: the bits of
    ``(re + 1j * im) / sqrt(2)``, whose complex-by-real division multiplies
    by 1/sqrt(2), without its complex temporaries.
    """
    shape = tuple(shape) if np.iterable(shape) else (shape,)
    out = np.empty((*shape, 2))
    np.multiply(rng.standard_normal((2, *shape)), 1.0 / np.sqrt(2.0), out=np.moveaxis(out, -1, 0))
    return out.view(complex)[..., 0]


def sample_channel(
    sets: PathSets, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, ChannelDraw]:
    """n i.i.d. channel states: CN(0,1) gains on the in-set bins and their reductions.

    Returns (g_d, g_e, draw).  g_d is (n x N_D) and g_e is (n x N_E);
    column j holds the gain of bin xi_d[j] or xi_e[j].  ``draw`` holds the
    length-n arrays G_hat, G_check, u and v.  Their laws, Gamma(N_C),
    Gamma(N_D - N_C), Exp(1) and Gamma(N_E - N_C), are what
    ``sample_gain_scalars`` draws directly, so this vector sampler is
    their independent oracle.

    The generator draws four blocks in turn, the destination's gains on
    xi_c and on xi_p, then the eavesdropper's on xi_c and on xi_a, each
    as (n x size) real parts then imaginary parts.  At n = 1 that is the
    order in which one state's gains are drawn vector by vector.
    """
    hat_d, check_d, hat_e, check_e = [
        complex_normal((n, len(xi)), rng) for xi in (sets.xi_c, sets.xi_p, sets.xi_c, sets.xi_a)
    ]
    g_d = np.empty((n, sets.n_d), dtype=complex)
    g_d[:, np.searchsorted(sets.xi_d, sets.xi_c)] = hat_d
    g_d[:, np.searchsorted(sets.xi_d, sets.xi_p)] = check_d
    g_e = np.empty((n, sets.n_e), dtype=complex)
    g_e[:, np.searchsorted(sets.xi_e, sets.xi_c)] = hat_e
    g_e[:, np.searchsorted(sets.xi_e, sets.xi_a)] = check_e

    g_hat = np.sum(np.abs(hat_d) ** 2, axis=1)
    u = np.abs(np.vecdot(hat_d, hat_e)) ** 2 / g_hat if sets.n_c else np.zeros(n)
    draw = ChannelDraw(
        G_hat=g_hat,
        G_check=np.sum(np.abs(check_d) ** 2, axis=1),
        u=u,
        v=np.sum(np.abs(check_e) ** 2, axis=1),
    )
    return g_d, g_e, draw


def sample_gains(n_c: int, n_dc: int, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n draws of (G_hat, G_check), the first draws of ``sample_gain_scalars``."""
    # a zero shape draws +0.0 and consumes nothing from the stream
    return rng.gamma(n_c, 1.0, size=n), rng.gamma(n_dc, 1.0, size=n)


def sample_gain_scalars(
    n_c: int, n_dc: int, n_ec: int, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized fast path: n draws of (G_hat, G_check, u, v).

    Exploits the known laws of the scalar reductions: G_hat ~ Gamma(n_c,1),
    G_check ~ Gamma(n_dc,1), u ~ Exp(1) (0 if no common path),
    v ~ Gamma(n_ec,1).  ``sample_channel`` is the oracle of these laws.
    """
    g_hat, g_check = sample_gains(n_c, n_dc, n, rng)
    u = rng.exponential(1.0, size=n) if n_c > 0 else np.zeros(n)
    return g_hat, g_check, u, rng.gamma(n_ec, 1.0, size=n)


def channel_row(
    basis: np.ndarray, xi: Sequence[int], gains: np.ndarray, alpha: float
) -> np.ndarray:
    """Assemble a 1 x M channel row vector sqrt(M*alpha/N) * g * W_sel^H."""
    m = basis.shape[0]
    n = len(xi)
    if n == 0:
        return np.zeros(m, dtype=complex)
    if len(gains) != n:
        raise ValueError("gain vector length must match the index set size")
    w_sel = select_columns(basis, xi)
    return np.sqrt(m * alpha / n) * (gains @ w_sel.conj().T)


def an_beamformer(
    basis: np.ndarray, sets: PathSets, h_d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Masked beamforming pair (f1, F) for a destination channel row h_d.

    f1 carries the information signal along h_d; F spans the eavesdropper-
    only bins, which are orthogonal to every destination bin, so the
    artificial noise is invisible at the destination by construction.
    """
    norm = np.linalg.norm(h_d)
    if norm == 0.0:
        raise DegenerateChannelError("h_d has zero norm; no beamforming direction")
    f1 = h_d.conj() / norm
    f_an = select_columns(basis, sets.xi_a)
    return f1, f_an
