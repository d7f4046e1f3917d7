"""Secrecy analysis of artificial-noise masked beamforming on mm-wave
ray-cluster channels with transceiver hardware impairments.

Closed-form secrecy outage probability, two optimal power-allocation
solvers, secrecy throughput (including an exponential-integral closed
form), and Monte-Carlo oracles for every formula.
"""

from .channel import (
    ChannelDraw,
    PathSets,
    an_beamformer,
    build_basis,
    sample_channel,
    sample_gain_scalars,
    sample_path_sets,
    select_columns,
)
from .config import (
    EffectiveCoeffs,
    SystemConfig,
    coeffs_from_gains,
    dbm_to_watt,
    derive_coeffs,
    path_loss_linear,
)
from .errors import (
    ConvergenceError,
    DegenerateChannelError,
    InfeasibleError,
    SilentSourceError,
)
from .montecarlo import (
    McEstimate,
    empirical_cdf_Y_E,
    empirical_sndr_from_distortion,
    empirical_sop,
    empirical_sop_conditional,
)
from .opa_sop import (
    OpaCase,
    OpaResult,
    PhiCoeffs,
    minimize_sop_tau,
    omega,
    optimize_tau_sop,
    optimize_tau_sop_batch,
    phi,
    phi_coeffs,
    phi_rational,
)
from .sndr import high_snr_ceiling, sndr_destination, sndr_eve
from .sop import (
    SecrecyTarget,
    SopBranch,
    SopBreakdown,
    cdf_Y_E,
    sop_conditional,
    sop_overall,
    tau_min,
)
from .throughput import (
    KTauSolver,
    ThroughputCase,
    ThroughputResult,
    avg_throughput_mrt,
    dk_dtau,
    drs_dtau,
    high_snr_k_and_rate,
    k_max_tau1,
    mrt_rate,
    mrt_throughput,
    optimize_tau_throughput,
    optimize_tau_throughput_batch,
    q_of_k,
    rs_of_tau,
    solve_k,
)

__version__ = "0.1.0"
