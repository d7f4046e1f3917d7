"""Benchmark of the mmwsec sweeps, end to end and layer by layer.

    python3 perfbench/run.py --workload sop_sweep --seed 7 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each
    python3 perfbench/run.py --self-test         # harness checks at a tiny budget

Each invocation is a closed loop in one fresh process with ``workers=1``:
it runs the workload back to back for ``--seconds``.
Run ``i`` uses seed ``seed + 1000 * (i mod 4)``, so the result spans several
channel-draw sets while every set still repeats and its output bytes can be
compared.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced runs of the base seed and prints the
per-layer metrics, the tracing overhead and the fixed-input probes.

The speed of a shared host drifts by tens of percent over minutes, and a
fixed pure-Python loop drifts with it.  So every run sits between two
timings of a fixed reference kernel, and the gated run time ``wall_norm`` is
the mean run wall time in units of the mean kernel time (``ref``).  Means,
not medians: the host's speed also swings from one second to the next, and
only the totals of both series average that out.  The raw seconds go into
the provenance record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the provenance record of the run.  The exit code is nonzero when any
correctness check fails.  The program is imported from ``src/`` of the
checkout holding this file; without it the run stops with exit code 2.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark starts no more threads than the cores it measures
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from layertrace import LAYERS, THROUGHPUT_CASES, Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("sop_sweep", "throughput_sweep", "oracle")
SUB_SEEDS = 4
SEED_STRIDE = 1000
SETUP_REPEATS = 5
MIN_REPS = 3
REF_LOOPS = 300_000
REF_DRAWS = 80
REF_DRAW_SIZE = 1 << 14

END_TO_END = {
    "wall_norm": "ref",
    "states_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "ratio",
    "checked_share": "ratio",
}

_PROBES = (
    "solve_k", "optimize_tau_throughput", "minimize_sop_tau",
    "optimize_tau_sop.grid_default", "optimize_tau_sop.grid_0",
    "mrt_throughput.cross_check_true", "mrt_throughput.cross_check_false", "log_moment",
)
PER_LAYER = {
    "cli.self.s": "s",
    "cli.run_sweep.share": "ratio",
    "cli.run_validation.share": "ratio",
    "cli.check_margin.max": "ratio",
    "config.derive_coeffs.calls": "count",
    "config.derive_coeffs.share": "ratio",
    "channel.sample_gain_scalars.calls": "count",
    "channel.sample_gain_scalars.share": "ratio",
    "sndr.sndr_eve.calls": "count",
    "sndr.sndr_eve.share": "ratio",
    "sop.sop_overall.calls": "count",
    "sop.sop_overall.share": "ratio",
    "sop.sop_conditional.calls": "count",
    "sop.sop_conditional.calls_per_split": "count",
    "sop.sop_conditional_grid.calls": "count",
    "opa_sop.minimize_sop_tau.calls": "count",
    "opa_sop.minimize_sop_tau.share": "ratio",
    "opa_sop.optimize_tau_sop.calls": "count",
    "opa_sop.optimize_tau_sop.share": "ratio",
    "opa_sop.grid_fallback.share": "ratio",
    "throughput.optimize_tau_throughput.calls": "count",
    "throughput.optimize_tau_throughput.share": "ratio",
    "throughput.solve_k.calls_per_state": "count",
    "throughput.q_of_k.calls_per_state": "count",
    "throughput.drs_dtau.calls_per_state": "count",
    "throughput.solve_k_batch.calls": "count",
    "throughput.solve_k_batch.share": "ratio",
    **{f"throughput.case.{case}.share": "ratio" for case in THROUGHPUT_CASES},
    "throughput.mrt_throughput_closed_form.share": "ratio",
    "throughput.mrt_throughput_quad2d.share": "ratio",
    "throughput.log_moment.calls": "count",
    "throughput.avg_throughput_mrt.samples_per_s": "1/s",
    "montecarlo.empirical_sop_conditional.samples_per_s": "1/s",
    "montecarlo.empirical_cdf_Y_E.samples_per_s": "1/s",
    "montecarlo.empirical_sndr_from_distortion.share": "ratio",
    **{f"{layer}.self.share": "ratio" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
    "failed_share": "ratio",
    "unchecked_share": "ratio",
    **{f"probe.{name}.{kind}": "ms" for name in _PROBES for kind in ("ms", "ms_iqr")},
    **{f"probe.{name}.{kind}": "1/s" for name in ("empirical_sop", "empirical_sop_conditional")
       for kind in ("samples_per_s", "samples_per_s_iqr")},
}

SETUP_CHILD = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import mmwsec, workloads
workloads.WORKLOADS[{name!r}].prepare({seed!r})
print(mmwsec.__file__, flush=True)
"""


class HarnessError(Exception):
    """The benchmark itself cannot produce a valid result."""


def load_program() -> Path:
    """Import mmwsec from this checkout's src/ and return its package dir."""
    package = SRC / "mmwsec"
    if not (package / "__init__.py").is_file():
        raise HarnessError(f"no mmwsec sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mmwsec

    if Path(mmwsec.__file__).resolve().parent != package:
        raise HarnessError(f"mmwsec imported from {mmwsec.__file__}, not {package}")
    return package


class Ledger:
    """Correctness tally of one invocation: gated rows plus harness checks."""

    def __init__(self):
        self.rows = self.row_failures = self.unchecked = 0
        self.checks = self.check_failures = 0
        self.margin = 0.0
        self.digests: dict[int, str] = {}

    def add(self, key: int, outcome) -> None:
        """Count one run's gate outcome; a repeated input must give the same bytes."""
        self.rows += outcome.checks
        self.row_failures += outcome.failed
        self.unchecked += outcome.unchecked
        self.margin = max(self.margin, outcome.margin)
        if key in self.digests:
            self.check(self.digests[key] == outcome.digest)
        else:
            self.digests[key] = outcome.digest

    def check(self, ok: bool) -> None:
        self.checks += 1
        self.check_failures += not ok

    @property
    def attempted(self) -> int:
        return self.rows + self.checks

    @property
    def failed(self) -> int:
        return self.row_failures + self.check_failures


def time_setup(name: str, seed: int, package: Path) -> float:
    """Seconds from launching a fresh interpreter to mmwsec imported and specs built."""
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed)
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or Path(line.strip()).resolve().parent != package:
        raise HarnessError(f"set-up child failed (exit {child.returncode}): {line.strip()!r}")
    return elapsed


def reference_s() -> float:
    """Seconds for a fixed kernel of scalar float math and small numpy calls,
    the kind of work the per-state solvers do, then of random draws on
    mid-sized arrays, the kind of work the Monte-Carlo samplers do.  A
    scalar loop alone follows the host's speed on the solver-bound sweeps
    but not on the draw-bound ones."""
    grid = np.linspace(0.0, 1.0, 64)
    rng = np.random.Generator(np.random.Philox(0))
    acc = 0.0
    start = perf_counter()
    for i in range(REF_LOOPS):
        acc += math.exp(-i * 1e-6) / (1.0 + (i & 15))
        if i % 64 == 0:
            acc += float(np.sum(np.exp(-grid * (i & 7))))
    for _ in range(REF_DRAWS):
        u = rng.exponential(1.0, size=REF_DRAW_SIZE)
        v = rng.gamma(4.0, 1.0, size=REF_DRAW_SIZE)
        acc += float(np.mean(np.log2((1.0 + v) / (1.0 + u))))
    return perf_counter() - start


def sub_seed(base: int, index: int) -> int:
    return base + SEED_STRIDE * (index % SUB_SEEDS)


def timed_runs(workload, base: int, seconds: float, tiny: bool, ledger: Ledger,
               setup, setup_repeats: int):
    """Untraced runs for ``seconds``: (end-to-end metrics, raw walls, raw extras).

    Each run is bracketed by reference-kernel timings; the run times are
    normalized by the mean of all of them.  The set-up samples are spread
    over the run (before every other run) so that they see the same host
    periods as the runs.
    """
    prepared: dict[int, object] = {}
    walls, states, setups = [], [], []
    refs = [reference_s()]
    deadline = perf_counter() + seconds
    while len(walls) < MIN_REPS or perf_counter() < deadline:
        key = len(walls) % SUB_SEEDS
        if key not in prepared:
            prepared[key] = workload.prepare(sub_seed(base, key), tiny)
        if len(setups) < setup_repeats and len(walls) % 2 == 0:
            setups.append(setup())
        start = perf_counter()
        output = workload.run(prepared[key])
        walls.append(perf_counter() - start)
        refs.append(reference_s())
        states.append(workload.states(prepared[key], output))
        ledger.add(key, workload.gate(output))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < setup_repeats:
        setups.append(setup())
    if len(walls) <= SUB_SEEDS:  # no input ran twice yet: repeat one, untimed
        ledger.add(0, workload.gate(workload.run(prepared[0])))
    ref = statistics.fmean(refs)
    metrics = {
        "wall_norm": statistics.fmean(walls) / ref,
        "states_per_ref": sum(states) / sum(walls) * ref,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "pass_share": 1.0 - ledger.row_failures / ledger.rows,
        "checked_share": 1.0 - ledger.unchecked / ledger.rows,
    }
    raw = {
        "wall_s": statistics.median(walls),
        "states_per_s": statistics.median(n / w for n, w in zip(states, walls)),
        "reference_s": refs,
        "setup_samples_s": setups,
    }
    return metrics, walls, raw


def traced_runs(workload, base: int, seconds: float, tiny: bool, ledger: Ledger):
    """Alternate untraced and traced runs of the base seed:
    (per-layer metrics, untraced run walls, trace sites missing)."""
    from probes import run_probes  # imports mmwsec, so only after load_program

    inputs = workload.prepare(base, tiny)
    plain, traced, timed, counts, missing = [], [], [], None, []
    deadline = perf_counter() + seconds
    while len(traced) < MIN_REPS or perf_counter() < deadline:
        start = perf_counter()
        output = workload.run(inputs)
        plain.append(perf_counter() - start)
        ledger.add(0, workload.gate(output))

        tracer = Tracer()
        with tracer:
            start = perf_counter()
            output = workload.run(inputs)
            wall = perf_counter() - start
        if not tracer.restored():
            raise HarnessError("a traced name still points at its wrapper")
        ledger.add(0, workload.gate(output))
        values, exact = layer_metrics(tracer, wall, workload.states(inputs, output))
        if counts is None:
            counts, missing = exact, tracer.missing
        else:
            ledger.check(exact == counts)  # counts repeat exactly on the same input
        traced.append(wall)
        timed.append(values)

    metrics = {name: statistics.median(v[name] for v in timed) for name in timed[0]}
    metrics.update(counts)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["cli.check_margin.max"] = ledger.margin
    metrics["failed_share"] = ledger.row_failures / ledger.rows
    metrics["unchecked_share"] = ledger.unchecked / ledger.rows
    metrics.update(run_probes(budget_s=0.02, mc_samples=20_000) if tiny else run_probes())
    return metrics, plain, missing


def check_metrics(metrics: dict, declared: dict) -> None:
    """Every declared metric is present and finite, and nothing else is."""
    missing = sorted(set(declared) - set(metrics))
    extra = sorted(set(metrics) - set(declared))
    if missing or extra:
        raise HarnessError(f"metrics missing {missing}, undeclared {extra}")
    bad = sorted(name for name in declared if not math.isfinite(metrics[name]))
    if bad:
        raise HarnessError(f"metrics not finite: {bad}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(name: str, trace: int, base: int, seconds: float, workload, package: Path,
               ledger: Ledger, walls: list, extra: dict) -> dict:
    import numpy
    import scipy

    sources = sorted(package.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(package).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": name,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_mmwsec_lines": lines,
        "seed": base,
        "budgets": {"trials": workload.trials, "uv_samples": getattr(workload, "uv_samples", None),
                    "seconds": seconds, "runs": len(walls)},
        "run_walls_s": walls,
        "output_sha256": {str(sub_seed(base, k)): d for k, d in sorted(ledger.digests.items())},
        **extra,
    }


def run_workload(name: str, seed: int | None, seconds: float, trace: int, tiny: bool = False,
                 setup_repeats: int = SETUP_REPEATS):
    """One benchmark invocation: (result object, provenance record)."""
    package = load_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    base = workload.default_seed if seed is None else seed
    ledger = Ledger()
    if trace:
        metrics, walls, missing = traced_runs(workload, base, seconds, tiny, ledger)
        declared = PER_LAYER
        extra = {"trace_sites_missing": missing}
    else:
        metrics, walls, extra = timed_runs(
            workload, base, seconds, tiny, ledger,
            lambda: time_setup(name, base, package), setup_repeats,
        )
        declared = END_TO_END
    ledger.check(workload.same_bytes_across_workers(base))
    check_metrics(metrics, declared)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": metrics[n], "unit": unit} for n, unit in declared.items()},
    }
    record = provenance(name, trace, base, seconds, workload, package, ledger, walls, extra)
    return result, record


def print_result(result: dict, record: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{record['workload']:<17} {name:<52} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"provenance": record}))
    print(json.dumps(result), flush=True)


def run_all(args) -> int:
    """Every workload in its own fresh process; nonzero exit if any fails."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode == 0:  # a passing run ends with its result line
            results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({"workloads": results}), flush=True)
    return 0 if len(results) == len(WORKLOAD_NAMES) else 1


def self_test() -> int:
    """Harness checks at a tiny budget; prints one PASS/FAIL line each."""
    package = load_program()
    from mmwsec import cli
    from workloads import WORKLOADS, Oracle

    failures = 0

    def report(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {label}{': ' + detail if detail else ''}", flush=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, declared in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[section]}
        report(f"BENCHMARK.json {section} matches the harness", listed == declared)
    report("BENCHMARK.json workloads match the harness",
           [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES) == list(WORKLOADS))

    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            try:
                result, _ = run_workload(name, None, 0.0, trace, tiny=True, setup_repeats=1)
            except HarnessError as exc:
                report(f"{name} trace={trace} emits every metric", False, str(exc))
                continue
            declared = PER_LAYER if trace else END_TO_END
            units_ok = all(result["metrics"][n]["unit"] == u for n, u in declared.items())
            report(f"{name} trace={trace} emits every metric with its unit",
                   units_ok and len(result["metrics"]) == len(declared))
            report(f"{name} trace={trace} passes its correctness gate", result["correct"],
                   f"{result['failed']} of {result['attempted']} checks failed")

    sweep = WORKLOADS["sop_sweep"]
    rows, text, failures_found = sweep.run(sweep.prepare(sweep.default_seed, tiny=True))
    baseline = sweep.gate((rows, text, failures_found)).failed
    moved = [dict(row) for row in rows]
    victim = next(r for r in moved if math.isfinite(r["tol"]) and abs(r["mc_value"] - r["mc_target"]) <= r["tol"])
    victim["mc_value"] = victim["mc_target"] + 1.5 * victim["tol"]
    tripped = sweep.gate((moved, text, cli.check_rows(moved))).failed
    report("a row moved past its tol trips the sweep gate", tripped == baseline + 1,
           f"{baseline} -> {tripped} failed rows")
    oracle_failed = Oracle().gate(([("stub", True, "")], [(1.0, 1.0 + 2e-3)])).failed
    report("an MRT route gap above 1e-3 trips the oracle gate", oracle_failed == 1)

    try:
        check_metrics({n: 1.0 for n in list(END_TO_END)[1:]}, END_TO_END)
        report("a missing metric fails the harness", False)
    except HarnessError:
        report("a missing metric fails the harness", True)

    print(f"self-test: {failures} failure(s) using {package}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the preset and validate seeds)")
    parser.add_argument("--seconds", type=float, default=34.0, help="measured time per invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--self-test", action="store_true", help="run the harness checks")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_result(result, record)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
