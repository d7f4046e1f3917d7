"""Out-of-program tracing of the mmwsec layers.

The traced run replaces each public function in the namespace where its
caller looks it up (``cli`` binds ``optimize_tau_throughput`` by name,
``throughput`` binds ``derive_coeffs``, ``opa_sop`` binds
``sop_conditional`` ...), records a span per call with its parent span, and
puts every original back on exit.  The innermost, hottest functions are
counted only: a span per ``q_of_k`` call would dominate the run it measures.

A layer is the module prefix of a key (``throughput.solve_k`` belongs to
``throughput``); its self time is the time inside its spans not covered by
child spans, so the self times of all layers add up to the traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "config", "channel", "sndr", "sop", "opa_sop", "throughput", "montecarlo")

THROUGHPUT_CASES = (
    "Concave_Boundary",
    "Concave_Interior",
    "NonConcave_Tau1_vs_1",
    "NonConcave_Tau1p_vs_Tau3",
    "Silent",
)


def _opa_tag(result) -> str:
    return f"opa_sop.case.{result.case_tag.value}"


def _throughput_tag(result) -> str:
    return f"throughput.case.{result.case_tag.value}"


# (module under mmwsec, attribute, key, span?, sample-count parameter, result tagger)
SITES = (
    ("cli", "run_sweep", "cli.run_sweep", True, None, None),
    ("cli", "render_csv", "cli.render_csv", True, None, None),
    ("cli", "check_rows", "cli.check_rows", True, None, None),
    ("cli", "run_validation", "cli.run_validation", True, None, None),
    ("throughput", "derive_coeffs", "config.derive_coeffs", True, None, None),
    ("montecarlo", "derive_coeffs", "config.derive_coeffs", True, None, None),
    ("cli", "sample_gain_scalars", "channel.sample_gain_scalars", True, None, None),
    ("throughput", "sample_gain_scalars", "channel.sample_gain_scalars", True, None, None),
    ("cli", "sndr_eve", "sndr.sndr_eve", True, None, None),
    ("montecarlo", "sndr_eve", "sndr.sndr_eve", True, None, None),
    ("opa_sop", "sndr_eve", "sndr.sndr_eve", True, None, None),
    ("sop", "sop_overall", "sop.sop_overall", True, None, None),
    ("opa_sop", "sop_conditional", "sop.sop_conditional", False, None, None),
    ("opa_sop", "sop_conditional_grid", "sop.sop_conditional_grid", True, None, None),
    ("opa_sop", "minimize_sop_tau", "opa_sop.minimize_sop_tau", True, None, None),
    ("opa_sop", "optimize_tau_sop", "opa_sop.optimize_tau_sop", True, None, _opa_tag),
    ("cli", "optimize_tau_throughput", "throughput.optimize_tau_throughput", True, None, _throughput_tag),
    ("throughput", "optimize_tau_throughput", "throughput.optimize_tau_throughput", True, None, _throughput_tag),
    ("cli", "solve_k", "throughput.solve_k", False, None, None),
    ("throughput", "solve_k", "throughput.solve_k", False, None, None),
    ("throughput", "q_of_k", "throughput.q_of_k", False, None, None),
    ("throughput", "drs_dtau", "throughput.drs_dtau", False, None, None),
    ("throughput", "solve_k_batch", "throughput.solve_k_batch", True, None, None),
    ("throughput", "mrt_throughput_closed_form", "throughput.mrt_throughput_closed_form", True, None, None),
    ("throughput", "mrt_throughput_quad2d", "throughput.mrt_throughput_quad2d", True, None, None),
    ("throughput", "log_moment", "throughput.log_moment", False, None, None),
    ("throughput", "avg_throughput_mrt", "throughput.avg_throughput_mrt", True, "trials", None),
    ("montecarlo", "empirical_sop_conditional", "montecarlo.empirical_sop_conditional", True, "n", None),
    ("montecarlo", "empirical_cdf_Y_E", "montecarlo.empirical_cdf_Y_E", True, "n", None),
    ("montecarlo", "empirical_sndr_from_distortion", "montecarlo.empirical_sndr_from_distortion",
     True, None, None),
)


class Tracer:
    """Context manager that wraps every site in SITES for its duration.

    ``spans`` holds ``[key, start, end, parent index]`` lists (parent -1 at
    the top); ``counts`` holds the calls of count-only sites, ``samples``
    the Monte-Carlo sample counts and ``tags`` the solver cases returned.
    Sites whose attribute no longer exists are listed in ``missing``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples: Counter = Counter()
        self.tags: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for mod_name, attr, key, span, samples, tagger in SITES:
            module = importlib.import_module(f"mmwsec.{mod_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = (
                self._span(original, key, samples, tagger) if span else self._count(original, key)
            )
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every wrapped name is its original function object again."""
        return all(getattr(module, attr) is original for module, attr, original in self._saved)

    def _count(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, fn, key, samples, tagger):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if samples else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [key, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                record[1] = start
                stack.pop()
            if signature is not None:
                self.samples[key] += int(signature.bind(*args, **kwargs).arguments[samples])
            if tagger is not None:
                self.tags[tagger(result)] += 1
            return result

        return wrapper

    def totals(self) -> tuple[dict, dict, Counter]:
        """Inclusive seconds per key, self seconds per layer, and calls per key."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        calls = Counter(self.counts)
        for i, (key, start, end, _) in enumerate(self.spans):
            inclusive[key] = inclusive.get(key, 0.0) + (end - start)
            layer = key.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + (end - start) - child[i]
            calls[key] += 1
        return inclusive, layer_self, calls


def layer_metrics(tracer: Tracer, wall_s: float, states: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run: (timed values, exact counts).

    Times are shares of the traced wall time, so a layer the workload never
    enters reads 0 rather than a constant number of seconds.
    """
    inclusive, layer_self, calls = tracer.totals()

    def share(key: str) -> float:
        return inclusive.get(key, 0.0) / wall_s

    def rate(key: str) -> float:
        seconds = inclusive.get(key, 0.0)
        return tracer.samples[key] / seconds if seconds > 0.0 else 0.0

    timed = {
        "cli.self.s": layer_self["cli"],
        "trace.accounted_share": sum(layer_self.values()) / wall_s,
        "montecarlo.empirical_sop_conditional.samples_per_s": rate("montecarlo.empirical_sop_conditional"),
        "montecarlo.empirical_cdf_Y_E.samples_per_s": rate("montecarlo.empirical_cdf_Y_E"),
        "throughput.avg_throughput_mrt.samples_per_s": rate("throughput.avg_throughput_mrt"),
    }
    for layer in LAYERS:
        timed[f"{layer}.self.share"] = layer_self[layer] / wall_s
    for key in (
        "cli.run_sweep", "cli.run_validation", "config.derive_coeffs",
        "channel.sample_gain_scalars", "sndr.sndr_eve", "sop.sop_overall",
        "opa_sop.minimize_sop_tau", "opa_sop.optimize_tau_sop",
        "throughput.optimize_tau_throughput", "throughput.solve_k_batch",
        "throughput.mrt_throughput_closed_form", "throughput.mrt_throughput_quad2d",
        "montecarlo.empirical_sndr_from_distortion",
    ):
        timed[f"{key}.share"] = share(key)

    splits = calls["opa_sop.minimize_sop_tau"]
    sop_calls = calls["opa_sop.optimize_tau_sop"]
    optimized = calls["throughput.optimize_tau_throughput"]
    fallbacks = tracer.tags["opa_sop.case.GridFallback"]
    counts = {
        "opa_sop.grid_fallback.share": fallbacks / sop_calls if sop_calls else 0.0,
        "sop.sop_conditional.calls_per_split": calls["sop.sop_conditional"] / splits if splits else 0.0,
    }
    for key in (
        "config.derive_coeffs", "channel.sample_gain_scalars", "sndr.sndr_eve",
        "sop.sop_overall", "sop.sop_conditional", "sop.sop_conditional_grid",
        "opa_sop.minimize_sop_tau", "opa_sop.optimize_tau_sop",
        "throughput.optimize_tau_throughput", "throughput.solve_k_batch", "throughput.log_moment",
    ):
        counts[f"{key}.calls"] = calls[key]
    for key in ("throughput.solve_k", "throughput.q_of_k", "throughput.drs_dtau"):
        counts[f"{key}.calls_per_state"] = calls[key] / states
    for case in THROUGHPUT_CASES:
        hits = tracer.tags[f"throughput.case.{case}"]
        counts[f"throughput.case.{case}.share"] = hits / optimized if optimized else 0.0
    return timed, counts
