"""Run one benchmark workload and print its metrics; the last line is JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tpcds_static --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same passes untraced and then traced, and reports the per-layer
metrics.  A run is a closed loop with one caller: workload sequences derived
from ``--seed`` are built (timed as ``setup_s``) and stepped round by round,
cycling through the workload's sequences until ``--seconds`` of loop-round
time have been measured, stopping at a cycle boundary.  The warm-up pass
repeats sequence 0, so at least one decision digest is always checked for
a repeat.

Metric names and units come from ``BENCHMARK.json``; the human-readable
lines, a host block and the result file (``perfbench/out/``) precede the
final JSON line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"

#: BLAS threads per process.  One keeps the single-caller loop within any
#: ``nproc`` and its timings free of BLAS thread scheduling.
BLAS_THREADS = 1
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Loop-round samples a run takes at least, so ``round_ms_p90`` has ten
#: or more samples beyond it.
MIN_ROUND_SAMPLES = 100
#: No new cycle starts after this much run wall time (seconds).
MAX_RUN_WALL = 120.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def host_block() -> dict[str, Any]:
    """Where the run happened; results from different fingerprints are not comparable."""
    import numpy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    block: dict[str, Any] = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
    }
    block["fingerprint"] = hashlib.sha256(
        json.dumps(block, sort_keys=True).encode()
    ).hexdigest()[:16]
    return block


@dataclass
class Phase:
    """Timings accumulated over the passes of one phase of a run.

    ``samples`` and ``setups`` are in reference-host seconds (see
    :mod:`perfbench.calibration`); the ``wall_`` lists keep the raw wall times.
    """

    samples: list[float] = field(default_factory=list)
    wall_samples: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    wall_setups: list[float] = field(default_factory=list)
    kernels: list[float] = field(default_factory=list)
    queries: int = 0
    cycles: int = 0

    @property
    def loop_wall(self) -> float:
        return sum(self.wall_samples)

    @property
    def loop_reference(self) -> float:
        return sum(self.samples)


class Runner:
    """Builds and steps passes, runs the output checks, keeps the tallies."""

    def __init__(self, workload: str, seed: int) -> None:
        from perfbench import calibration, suite

        self.calibration = calibration
        self.suite = suite
        self.workload = suite.WORKLOADS[workload]
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracebacks: list[str] = []
        self.digests: dict[int, str] = {}
        self.comparison = suite.Comparison()
        self.compared: set[int] = set()
        #: ``(sequence seed, outcome, compare, parity)`` of passes whose
        #: replay checks wait for :meth:`finish`.
        self.deferred: list[tuple[int, Any, bool, bool]] = []
        self.tracer: Any = None
        #: Per-sequence boundary counts of each traced pass.
        self.pass_counts: dict[int, list[dict[str, int]]] = {}

    def run_pass(self, sequence: int, phase: Phase | None, compare: bool = False, parity: bool = False) -> None:
        """Build and step one pass; ``phase=None`` is a warm-up (untimed)."""
        seed = self.suite.sequence_seed(self.seed, sequence)
        kernel_seconds = self.calibration.kernel_seconds
        reference = self.calibration.REFERENCE_SECONDS
        gc.collect()
        before = kernel_seconds()
        started = time.perf_counter()
        run = self.workload.build(seed)
        setup = time.perf_counter() - started
        after = kernel_seconds()
        if phase is not None:
            phase.setups.append(setup * 2 * reference / (before + after))
            phase.wall_setups.append(setup)
        gc.collect()
        before = kernel_seconds()
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_pass()
            counts_before = tracer.snapshot()
        failed_rounds: set[int] = set()
        for i in range(run.n_rounds):
            self.attempted += 1
            if tracer is not None:
                tracer.round_id += 1
                tracer.recording = True
            started = time.perf_counter()
            try:
                run.step(i)
            except Exception as exc:  # a failing round is a measured outcome
                self.problems.append(f"sequence {seed} round {i}: raised {exc!r}")
                self.tracebacks.append(traceback.format_exc())
                self.attempted += run.n_rounds - i - 1
                failed_rounds.update(range(i, run.n_rounds))
                break
            finally:
                elapsed = time.perf_counter() - started
                if tracer is not None:
                    tracer.recording = False
            # The host's speed is taken as the mean of the kernel timed just
            # before and just after the round.
            after = kernel_seconds()
            if phase is not None:
                phase.samples.append(elapsed * 2 * reference / (before + after))
                phase.wall_samples.append(elapsed)
                phase.kernels.append(after)
                phase.queries += run.queries_in_round(i)
            before = after
            round_problems = run.check_round(i)
            if round_problems:
                self.problems.extend(f"sequence {seed} {p}" for p in round_problems)
                failed_rounds.add(i)
        else:
            pass_problems = run.check_pass()
            digest = run.digest()
            if self.digests.setdefault(sequence, digest) != digest:
                pass_problems.append("decision digest differs from an earlier pass")
            if pass_problems:
                self.problems.extend(f"sequence {seed}: {p}" for p in pass_problems)
                failed_rounds.update(range(run.n_rounds))
            compare = compare and sequence not in self.compared
            if compare:
                self.compared.add(sequence)
            if compare or parity:
                self.deferred.append((seed, run.outcome(), compare, parity))
        self.failed += len(failed_rounds)
        if tracer is not None:
            counts = _delta(tracer.snapshot(), counts_before)
            if run.fleet is not None:
                counts["fleet.interner_hits"] = run.fleet.interner.hits
                counts["fleet.interner_lookups"] = run.fleet.interner.hits + run.fleet.interner.misses
            self.pass_counts.setdefault(sequence, []).append(counts)

    def finish(self) -> None:
        """Run the deferred replay checks: the comparison and fleet parity.

        They build sessions of their own, so they run after the loop, once
        its peak memory has been read.
        """
        for seed, outcome, compare, parity in self.deferred:
            problems = []
            try:
                if compare:
                    self.comparison.extend(self.suite.compare(outcome))
                if parity:
                    tenant = sorted(outcome.reports)[seed % len(outcome.reports)]
                    problems = self.suite.fleet_parity(outcome, tenant)
            except Exception as exc:
                problems = [f"replay check raised {exc!r}"]
                self.tracebacks.append(traceback.format_exc())
            if problems:
                self.problems.extend(f"sequence {seed}: {p}" for p in problems)
                self.failed += max(report.n_rounds for report in outcome.reports.values())
        self.deferred.clear()

    def run_cycles(self, phase: Phase, enough: Callable[[Phase], bool], compare: bool = False) -> None:
        """Cycle through every sequence until ``enough(phase)`` holds.

        With ``compare`` the first successful pass of each sequence also
        feeds the model-side comparison (see :func:`perfbench.suite.compare`).
        A run that reaches ``MAX_RUN_WALL`` first is cut there and reported
        as a problem, so a short measurement (say, fewer than
        ``MIN_ROUND_SAMPLES`` round samples) never passes as a complete one.
        """
        run_started = time.perf_counter()
        while True:
            for sequence in range(self.workload.n_sequences):
                self.run_pass(sequence, phase, compare=compare)
            phase.cycles += 1
            if enough(phase):
                return
            if time.perf_counter() - run_started > MAX_RUN_WALL:
                self.problems.append(
                    f"cut after {MAX_RUN_WALL:.0f} s of run wall time with {phase.loop_wall:.1f} s "
                    f"of loop rounds and {len(phase.samples)} round samples measured"
                )
                return


def _delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {key: after.get(key, 0) - before.get(key, 0) for key in sorted(set(after) | set(before))}


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` with ``n=100``)."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(runner: Runner, seconds: float) -> tuple[dict[str, float], dict[str, Any]]:
    phase = Phase()
    runner.run_cycles(
        phase,
        lambda p: p.loop_wall >= seconds and len(p.samples) >= MIN_ROUND_SAMPLES,
        compare=True,
    )
    # Read before the deferred replays build their own databases.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.finish()
    metrics = {
        "setup_s": statistics.median(phase.setups),
        "queries_per_s": phase.queries / phase.loop_reference,
        "round_ms_p50": statistics.median(phase.samples) * 1e3,
        "round_ms_p90": _quantile(phase.samples, 90) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        **runner.comparison.metrics(),
    }
    extra = {
        "round_samples": len(phase.samples),
        "setup_samples": len(phase.setups),
        "cycles": phase.cycles,
        "queries": phase.queries,
        "loop_wall_s": phase.loop_wall,
        "wall_setup_s": statistics.median(phase.wall_setups),
        "wall_queries_per_s": phase.queries / phase.loop_wall,
        "wall_round_ms_p50": statistics.median(phase.wall_samples) * 1e3,
        "wall_round_ms_p90": _quantile(phase.wall_samples, 90) * 1e3,
        "calibration_kernel_ms_p50": statistics.median(phase.kernels) * 1e3,
    }
    return metrics, extra


def per_layer(runner: Runner, seconds: float, spans_path: Path, host: dict[str, Any]) -> tuple[dict[str, float], dict[str, Any]]:
    from perfbench.tracing import LAYER_NAMES, Tracer

    untraced = Phase()
    runner.run_cycles(untraced, lambda p: p.loop_wall >= seconds / 2)
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    traced = Phase()
    try:
        # Two traced cycles at least, so every sequence's counts repeat.
        while traced.cycles < max(2, untraced.cycles):
            tracer.keep_spans = traced.cycles == 0
            for sequence in range(runner.workload.n_sequences):
                runner.run_pass(sequence, traced)
            traced.cycles += 1
    finally:
        tracer.uninstall()
        runner.tracer = None
    runner.finish()

    for sequence, counts in runner.pass_counts.items():
        if any(other != counts[0] for other in counts[1:]):
            runner.problems.append(f"sequence {sequence}: traced counts differ between repeats")
            runner.failed += 1
    # Counts of one cycle (each sequence once); identical across cycles.
    counts: dict[str, int] = {}
    for per_pass in runner.pass_counts.values():
        for key, value in per_pass[0].items():
            counts[key] = counts.get(key, 0) + value

    wall = traced.loop_wall
    self_total = sum(tracer.self_seconds.values())
    unattributed = wall - self_total
    if unattributed < -1e-9:
        raise RuntimeError(f"span self time {self_total} s exceeds the loop wall {wall} s")
    cycles = traced.cycles

    def ratio(numerator: float, base: float) -> float:
        return numerator / base if base else 0.0

    metrics: dict[str, float] = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = counts.get(layer, 0)
        metrics[f"{layer}.self_ms"] = tracer.self_seconds[layer] / cycles * 1e3
        metrics[f"{layer}.share"] = tracer.self_seconds[layer] / wall
    metrics["unattributed.self_ms"] = unattributed / cycles * 1e3
    metrics["unattributed.share"] = unattributed / wall
    metrics["trace.loop_ms"] = wall / cycles * 1e3
    metrics["trace.overhead_ratio"] = (traced.loop_reference / traced.cycles) / (
        untraced.loop_reference / untraced.cycles
    )
    metrics["engine.storage.repeat_ratio"] = ratio(
        counts.get("engine.storage.repeats", 0), counts.get("engine.storage", 0)
    )
    arms_returned = counts.get("core.arms.returned", 0)
    metrics["core.arms.arms_returned"] = arms_returned
    metrics["core.arms.arms_per_call"] = ratio(arms_returned, counts.get("core.arms", 0))
    metrics["core.arms.repeat_ratio"] = ratio(counts.get("core.arms.repeats", 0), arms_returned)
    candidates = counts.get("core.oracle.candidates", 0)
    metrics["core.oracle.candidates"] = candidates
    metrics["core.oracle.candidates_per_call"] = ratio(candidates, counts.get("core.oracle", 0))
    metrics["core.oracle.selected_ratio"] = ratio(counts.get("core.oracle.selected", 0), candidates)
    metrics["optimizer.planner.whatif_calls"] = counts.get("optimizer.planner.whatif", 0)
    lookups = counts.get("fleet.interner_lookups", 0)
    metrics["fleet.interner_lookups"] = lookups
    metrics["fleet.interner_hit_ratio"] = ratio(counts.get("fleet.interner_hits", 0), lookups)
    recommended = counts.get("fleet.tenants_recommended", 0)
    metrics["fleet.tenants_recommended"] = recommended
    metrics["fleet.batched_ratio"] = ratio(counts.get("fleet.tenants_batched", 0), recommended)

    tracer.write_spans(
        str(spans_path),
        {"workload": runner.workload.name, "seed": runner.seed, "host": host, "cycle": 0},
    )
    extra = {
        "cycles": cycles,
        "round_samples": len(traced.samples),
        "untraced_loop_wall_s": untraced.loop_wall,
        "traced_loop_wall_s": wall,
        "spans_kept": sum(1 for span in tracer.spans if span is not None),
        "counts_per_cycle": counts,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, extra


def _declared(kind: str) -> dict[str, str]:
    """``{metric name: unit}`` declared in ``BENCHMARK.json`` for ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    for variable in BLAS_ENV:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import suite

    if args.workload not in suite.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(suite.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    declared = _declared("per_layer" if args.trace else "end_to_end")
    host = host_block()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    runner = Runner(args.workload, args.seed)
    runner.run_pass(0, None, parity=args.workload == "ssb_fleet_growth")  # warm-up
    if args.trace:
        metrics, extra = per_layer(runner, args.seconds, OUT_DIR / f"{stem}.spans.jsonl", host)
    else:
        metrics, extra = end_to_end(runner, args.seconds)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"BENCHMARK.json declares metrics this run did not measure: {missing}")

    correct = runner.failed == 0 and not runner.problems
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "error_rate": runner.failed / runner.attempted,
        "digests": {str(k): v for k, v in sorted(runner.digests.items())},
        "problems": runner.problems,
        "tracebacks": runner.tracebacks,
        **extra,
        **result,
        "all_metrics": metrics,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# host {json.dumps(host, sort_keys=True)}")
    for problem in runner.problems[:20]:
        print(f"! {problem}")
    for key, value in extra.items():
        if not isinstance(value, dict):
            print(f"  {key:<34} {value}")
    print(f"  {'error_rate':<34} {record['error_rate']} ({runner.failed}/{runner.attempted} loop rounds)")
    for name, value in metrics.items():
        print(f"{args.workload:<18} {name:<34} {value:>14.6g} {declared.get(name, '(not declared)')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
