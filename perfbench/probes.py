"""Fixed-input layer probes: per-call cost of single solver calls.

All probes run on one channel state of the baseline configuration
(M=100, N_D=20, N_C=16, P_dBm=55, mean gains G_hat=N_C, G_check=N_D-N_C),
so they isolate one layer from the sweep around it.  Each reports the
median and the interquartile range over repeated timings.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from mmwsec import montecarlo, opa_sop, sop, throughput
from mmwsec.channel import ChannelDraw
from mmwsec.config import SystemConfig, derive_coeffs

PROBE_SEED = 20240801
MC_SAMPLES = 200_000


def _median_iqr(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def per_call_ms(fn, budget_s: float) -> tuple[float, float]:
    """Median and IQR of the per-call time, in ms, over batched timings."""
    start = perf_counter()
    fn()
    first = perf_counter() - start
    samples = 3 if first > 0.05 else 7
    batch = max(1, int(budget_s / samples / max(first, 1e-9)))
    times = []
    for _ in range(samples):
        start = perf_counter()
        for _ in range(batch):
            fn()
        times.append((perf_counter() - start) / batch * 1e3)
    return _median_iqr(times)


def samples_per_s(fn, n: int, repeats: int = 3) -> tuple[float, float]:
    """Median and IQR of Monte-Carlo samples drawn per second."""
    rates = []
    for _ in range(repeats + 1):
        start = perf_counter()
        fn(n)
        rates.append(n / (perf_counter() - start))
    return _median_iqr(rates[1:])


def run_probes(budget_s: float = 0.25, mc_samples: int = MC_SAMPLES) -> dict[str, float]:
    cfg = SystemConfig(M=100, N_D=20, N_C=16, P_dBm=55.0)
    draw = ChannelDraw(G_hat=float(cfg.N_C), G_check=float(cfg.n_dc), u=1.0, v=float(cfg.n_ec))
    coeffs = derive_coeffs(cfg, draw)
    target = sop.SecrecyTarget(cfg.R_s)
    solver = throughput.KTauSolver(coeffs.a, coeffs.b, coeffs.c, cfg.n_ec, cfg.epsilon)
    tau = 0.5 * (sop.tau_min(target, coeffs) + 1.0)

    calls = {
        "solve_k": lambda: throughput.solve_k(0.5, solver),
        "optimize_tau_throughput": lambda: throughput.optimize_tau_throughput(coeffs, solver),
        "minimize_sop_tau": lambda: opa_sop.minimize_sop_tau(target, coeffs, cfg.n_ec),
        "optimize_tau_sop.grid_default": lambda: opa_sop.optimize_tau_sop(target, coeffs, cfg.n_ec),
        "optimize_tau_sop.grid_0": lambda: opa_sop.optimize_tau_sop(
            target, coeffs, cfg.n_ec, grid_points=0
        ),
        "mrt_throughput.cross_check_true": lambda: throughput.mrt_throughput(cfg, cross_check=True),
        "mrt_throughput.cross_check_false": lambda: throughput.mrt_throughput(cfg, cross_check=False),
        "log_moment": lambda: throughput.log_moment(0.1, cfg.n_dc - 1),
    }
    out: dict[str, float] = {}
    for name, fn in calls.items():
        out[f"probe.{name}.ms"], out[f"probe.{name}.ms_iqr"] = per_call_ms(fn, budget_s)

    oracles = {
        "empirical_sop": lambda n: montecarlo.empirical_sop(cfg, tau, target, n, PROBE_SEED),
        "empirical_sop_conditional": lambda n: montecarlo.empirical_sop_conditional(
            coeffs, tau, target, cfg.n_ec, n, PROBE_SEED
        ),
    }
    for name, fn in oracles.items():
        rate, iqr = samples_per_s(fn, mc_samples)
        out[f"probe.{name}.samples_per_s"], out[f"probe.{name}.samples_per_s_iqr"] = rate, iqr
    return out
