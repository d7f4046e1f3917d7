"""System parameters, unit conversions and the derived scalar coefficients.

Everything downstream of this module works in linear units (watts,
dimensionless SNRs); dB/dBm appear only at the configuration boundary.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import InfeasibleError


def dbm_to_watt(p_dbm: float) -> float:
    """Convert a power in dBm to watts."""
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watt_to_dbm(p_watt: float) -> float:
    """Convert a power in watts to dBm."""
    if p_watt <= 0.0:
        raise ValueError(f"power must be positive, got {p_watt}")
    return 10.0 * math.log10(p_watt) + 30.0


def path_loss_linear(d_m: float, pl_a: float, pl_b: float) -> float:
    """Linear attenuation of the log-distance path loss model.

    The loss in dB is ``pl_a + pl_b * 10 * log10(d_m)``; the returned value
    is the corresponding linear power attenuation in (0, 1].
    """
    if d_m <= 0.0:
        raise ValueError(f"distance must be positive, got {d_m}")
    alpha_db = pl_a + pl_b * 10.0 * math.log10(d_m)
    return 10.0 ** (-alpha_db / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """All physical and protocol parameters of one scenario.

    Resolvable-path counts follow the single-cluster angular-domain model:
    the destination and eavesdropper occupy N_D and N_E angular bins of
    which N_C are shared, so N_D + N_E - N_C of the M bins.
    """

    M: int = 100              # transmit antennas (uniform linear array, half-wavelength spacing)
    N_D: int = 20             # destination resolvable paths, 1 <= N_D < M
    N_E: int | None = None    # eavesdropper resolvable paths; defaults to N_D
    N_C: int = 16             # common paths, N_C <= min(N_D, N_E)
    P_dBm: float = 5.0        # total transmit power
    sigma_n2_dBm: float = -50.0   # receiver noise power
    k_tx: float = 0.1         # transmitter error vector magnitude, [0, 1)
    k_rx: float = 0.1         # receiver error vector magnitude, [0, 1)
    d_D_m: float = 100.0      # source->destination distance, meters
    d_E_m: float = 100.0      # source->eavesdropper distance, meters
    pl_a: float = 61.4        # path loss intercept, dB (28 GHz measurement)
    pl_b: float = 2.0         # path loss slope
    R_s: float = 5.0          # target secrecy rate, bits/s/Hz
    epsilon: float = 0.01     # maximum tolerable secrecy outage probability

    def __post_init__(self):
        if self.N_E is None:
            object.__setattr__(self, "N_E", self.N_D)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _INT_FIELDS:
                if not isinstance(value, numbers.Integral):  # numpy integers are Integral too
                    raise ValueError(f"{f.name} must be an integer, got {value!r}")
            elif not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.M < 1:
            raise ValueError("M must be a positive integer")
        counts = f"N_D={self.N_D}, N_E={self.N_E}, N_C={self.N_C}, M={self.M}"
        if not (1 <= self.N_D < self.M and 1 <= self.N_E < self.M):
            raise ValueError(f"path counts must satisfy 1 <= N_D, N_E < M (got {counts})")
        if not (0 <= self.N_C <= min(self.N_D, self.N_E)):
            raise ValueError("N_C must satisfy 0 <= N_C <= min(N_D, N_E)")
        if self.N_D + self.N_E - self.N_C > self.M:
            raise ValueError(f"path counts must satisfy N_D + N_E - N_C <= M bins (got {counts})")
        if not (0.0 <= self.k_tx < 1.0 and 0.0 <= self.k_rx < 1.0):
            raise ValueError("EVMs k_tx, k_rx must lie in [0, 1)")
        if self.d_D_m <= 0.0 or self.d_E_m <= 0.0:
            raise ValueError("distances must be positive")
        if self.R_s < 0.0:
            raise ValueError("R_s must be non-negative")
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")

    # -- derived scalars ---------------------------------------------------

    @property
    def n_ec(self) -> int:
        """Eavesdropper-only path count N_E - N_C."""
        return self.N_E - self.N_C

    @property
    def n_dc(self) -> int:
        """Destination-only path count N_D - N_C."""
        return self.N_D - self.N_C

    @property
    def k_tot2(self) -> float:
        """Aggregate impairment level k_tx^2 + k_rx^2."""
        return self.k_tx**2 + self.k_rx**2

    @property
    def power_watt(self) -> float:
        return dbm_to_watt(self.P_dBm)

    @property
    def noise_watt(self) -> float:
        return dbm_to_watt(self.sigma_n2_dBm)

    def alpha_d(self) -> float:
        """Linear path attenuation of the destination link."""
        return path_loss_linear(self.d_D_m, self.pl_a, self.pl_b)

    def alpha_e(self) -> float:
        """Linear path attenuation of the eavesdropper link."""
        return path_loss_linear(self.d_E_m, self.pl_a, self.pl_b)

    def beta_d(self) -> float:
        """Per-link SNR scale of the destination, P*M*alpha_D/(N_D*sigma_n^2)."""
        return self.power_watt * self.M * self.alpha_d() / (self.N_D * self.noise_watt)

    def beta_e(self) -> float:
        """Per-link SNR scale of the eavesdropper, P*M*alpha_E/(N_E*sigma_n^2)."""
        return self.power_watt * self.M * self.alpha_e() / (self.N_E * self.noise_watt)

    def with_overrides(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given fields replaced.  An N_E equal to
        N_D follows an N_D override unless N_E is overridden too, as N_E
        defaults to N_D when the configuration is built."""
        if "N_D" in kwargs and self.N_E == self.N_D:
            kwargs.setdefault("N_E", kwargs["N_D"])
        return replace(self, **kwargs)


@dataclass(frozen=True)
class EffectiveCoeffs:
    """The five scalars feeding every closed form, plus the impairment level.

    For a channel state with common/non-common destination gains
    (G_hat, G_check), G = G_hat + G_check:

        a = beta_E * G_hat / G        leakage scale along the beam
        b = beta_E * (1 + k_tx^2) / N_EC   AN-plus-distortion scale at E
        c = k_tx^2 * a                transmit-distortion scale at E
        d = beta_D * G                destination SNR scale
        e = k_tot^2 * d               aggregate-distortion scale at D

    For a batch of states of one configuration a, c, d and e are arrays
    over the states; a batch stacked from several configurations holds
    every field as such an array.
    """

    k_tot2: float
    a: float
    b: float
    c: float
    d: float
    e: float

    def take(self, index) -> "EffectiveCoeffs":
        """The states a numpy index picks.

        a, c, d and e are per-state, and scalar ones count as one state.
        Every other field that is an array is per-state too; a scalar one
        is shared by all states and carries over unchanged.
        """
        picked = {}
        for f in fields(self):
            x = getattr(self, f.name)
            if f.name in ("a", "c", "d", "e") or np.ndim(x):
                picked[f.name] = np.atleast_1d(x)[index]
        return replace(self, **picked)


def stack_coeffs(records) -> EffectiveCoeffs:
    """One batch of the states of several records, in record order.

    a, c, d and e are concatenated, and every field a record shares by
    its states (b, k_tot2) is repeated once per state, so
    each state keeps its own; a record of scalars counts as one state.
    """
    sizes = [np.size(r.d) for r in records]
    return EffectiveCoeffs(*(
        np.concatenate([np.full(n, getattr(r, f.name)) for r, n in zip(records, sizes)])
        for f in fields(EffectiveCoeffs)
    ))


def coeffs_from_gains(cfg: SystemConfig, g_hat, g_check) -> EffectiveCoeffs:
    """Build the effective coefficients of the states with the given gains.

    Args:
        cfg: system parameters.
        g_hat, g_check: common and non-common destination gains, floats
            for one state or equal-shape arrays for a batch of states;
            a, c, d and e are then shaped like the gains (np.float64 for
            one state) and b stays a scalar.

    Raises:
        InfeasibleError: if N_E == N_C, which leaves no eavesdropper-only
            direction to carry artificial noise (b would divide by zero).
    """
    if cfg.n_ec <= 0:
        raise InfeasibleError(
            f"N_E - N_C must be positive to aim artificial noise (got {cfg.n_ec})"
        )
    g_hat = np.asarray(g_hat, float)
    g_tot = g_hat + np.asarray(g_check, float)
    if np.any(g_tot <= 0.0):
        raise ValueError("G = G_hat + G_check must be positive")

    beta_d = cfg.beta_d()
    beta_e = cfg.beta_e()
    k_tx2 = cfg.k_tx**2
    k_tot2 = cfg.k_tot2

    a = beta_e * g_hat / g_tot
    b = beta_e * (1.0 + k_tx2) / cfg.n_ec
    c = k_tx2 * a
    d = beta_d * g_tot
    e = k_tot2 * d
    return EffectiveCoeffs(k_tot2=k_tot2, a=a, b=b, c=c, d=d, e=e)


def derive_coeffs(cfg: SystemConfig, draw) -> EffectiveCoeffs:
    """Effective coefficients of one channel state or a batch of them.

    ``draw`` is any object with ``G_hat`` and ``G_check`` attributes: a
    ChannelDraw of floats, or of the length-n arrays that
    ``sample_channel`` returns; see ``coeffs_from_gains``.
    """
    return coeffs_from_gains(cfg, draw.G_hat, draw.G_check)


# -- flat key=value configuration files ------------------------------------

_INT_FIELDS = {"M", "N_D", "N_E", "N_C"}


def read_key_values(path: str, sweep_keys=()) -> dict:
    """The ``key=value`` lines of a text file as key -> value strings.

    Blank and ``#`` lines are skipped, key and value are stripped, and a
    later line wins.  A line without ``=`` or with a key that is neither a
    SystemConfig field nor one of ``sweep_keys`` raises ValueError naming
    ``path:lineno``."""
    known = {f.name for f in fields(SystemConfig)} | set(sweep_keys)
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown {'sweep' if sweep_keys else 'configuration'} key {key!r}")
            values[key] = value
    return values


def load_config(path: str) -> SystemConfig:
    """Read a flat ``key=value`` configuration file (see ``read_key_values``)."""
    return SystemConfig(**coerce_overrides(read_key_values(path), path))


def parse_value(key: str, text: str, kind: type, source: str = ""):
    """``kind(text)``; text that does not parse raises ValueError naming
    ``key``, ``kind`` and the text, after ``source: `` (a file) when given."""
    try:
        return kind(text)
    except ValueError:
        where = f"{source}: " if source else ""
        raise ValueError(f"{where}{key}: expected {kind.__name__}, got {text!r}") from None


def coerce_overrides(overrides: dict, source: str = "") -> dict:
    """Normalize a key->value mapping onto SystemConfig field types: a
    string is read as an int or a float, as its field is (``parse_value``;
    ``source`` names the file the strings came from)."""
    known = {f.name for f in fields(SystemConfig)}
    out: dict = {}
    for key, value in overrides.items():
        if key not in known:
            raise ValueError(f"unknown configuration key {key!r}")
        if isinstance(value, str):
            value = parse_value(key, value, int if key in _INT_FIELDS else float, source)
        out[key] = value
    return out


def save_config(cfg: SystemConfig, path: str) -> None:
    """Write a configuration in the flat key=value format."""
    with open(path, "w", encoding="utf-8") as fh:
        for f in fields(SystemConfig):
            fh.write(f"{f.name}={getattr(cfg, f.name)!r}\n")
