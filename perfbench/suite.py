"""The benchmark's three workloads, built and stepped through the public API.

Each workload turns a sequence seed into a :class:`Pass`: the databases,
generated workload rounds, tuners and sessions (or fleet) for one pass over
one workload sequence.  Building a pass is the set-up that ``setup_s``
times; :meth:`Pass.step` is one loop round of the timed closed loop (one
caller, the next round starts when the previous one returned).

Every loop round is checked after it returns, outside its timing:

* each session's round reports the generated query count and one result per
  query, every query has finite, positive model seconds, and the
  materialised configuration fits ``memory_budget_bytes``;
* per-round configuration ids and model seconds feed the pass's decision
  digest, which must repeat exactly whenever the same sequence runs again.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from typing import Callable

from repro.api import (
    DatabaseSpec,
    FleetConfig,
    RunReport,
    SafetyReport,
    SimulationOptions,
    TenantSpec,
    TunerSpec,
    TuningFleet,
    TuningSession,
    create_tuner,
)
from repro.harness.experiments import ExperimentSettings, build_workload_rounds
from repro.workloads import get_benchmark, get_stressor, round_fingerprint
from repro.workloads.generator import WorkloadRound

#: The ``ExperimentSettings.quick()`` database profile (SF 10, 2000-row samples).
QUICK = ExperimentSettings.quick()

#: ``tpch_adhoc_race`` sequence length: the paper's 25 random rounds, so the
#: PDTool invocation rounds (every 4th) are about a quarter of all rounds and
#: ``round_ms_p90`` sits inside them rather than on the edge between the two.
RACE_ROUNDS = 25

#: ``ssb_fleet_growth`` shape.  Queries per round step from 3 to 6 to 13 as
#: tables arrive; 20 rounds put ``round_ms_p50`` inside the 6-query rounds
#: rather than on a step.
FLEET_SPEC = DatabaseSpec("ssb", scale_factor=1.0, sample_rows=400, seed=7)
FLEET_TENANTS = 16
FLEET_ROUNDS = 20

@dataclass
class Pass:
    """One pass over one generated workload sequence."""

    #: Sessions checked and digested each round, in the order they step.
    sessions: dict[str, TuningSession]
    #: Each session's round stream (shared lists where sessions share one).
    rounds: dict[str, list[WorkloadRound]]
    #: Runs loop round ``i`` (the timed call).
    step: Callable[[int], None]
    #: ``(report, results)`` per session round, filled by the sessions'
    #: ``on_round`` hook during :attr:`step`.
    captured: list
    #: Generates :attr:`rounds` again, identically, from the sequence seed.
    streams: Callable[[], dict[str, list[WorkloadRound]]]
    fleet: TuningFleet | None = None
    #: Database and tuner spec to replay the MAB sessions' rounds through
    #: PDTool and NoIndex with; ``None`` when the pass races them itself.
    baselines: tuple[DatabaseSpec, TunerSpec | None] | None = None
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    @property
    def n_rounds(self) -> int:
        return len(next(iter(self.rounds.values())))

    def queries_in_round(self, i: int) -> int:
        return sum(len(rounds[i].queries) for rounds in self.rounds.values())

    def check_round(self, i: int) -> list[str]:
        """Output checks for loop round ``i``; also extends the digest."""
        problems: list[str] = []
        captured = list(self.captured)
        self.captured.clear()
        if len(captured) != len(self.sessions):
            return [f"round {i}: {len(captured)} session reports, expected {len(self.sessions)}"]
        for (name, session), (report, results) in zip(self.sessions.items(), captured):
            expected = len(self.rounds[name][i].queries)
            if report.n_queries != expected or len(results) != expected:
                problems.append(
                    f"{name} round {i}: {report.n_queries} queries reported, "
                    f"{len(results)} results, {expected} generated"
                )
            bad = [r.total_seconds for r in results if not (math.isfinite(r.total_seconds) and r.total_seconds > 0)]
            if bad:
                problems.append(f"{name} round {i}: non-positive or non-finite query seconds {bad[:3]}")
            budget = session.database.memory_budget_bytes
            if budget is not None and report.configuration_bytes > budget:
                problems.append(
                    f"{name} round {i}: configuration {report.configuration_bytes} B over budget {budget} B"
                )
            entry = (
                name,
                report.round_number,
                tuple(sorted(session.database.materialised_index_ids)),
                report.creation_seconds.hex(),
                report.execution_seconds.hex(),
            )
            self._digest.update(repr(entry).encode())
        return problems

    def check_pass(self) -> list[str]:
        """Round counts of every session against its generated sequence."""
        problems = []
        for name, session in self.sessions.items():
            if session.report.n_rounds != len(self.rounds[name]):
                problems.append(
                    f"{name}: {session.report.n_rounds} rounds reported, "
                    f"{len(self.rounds[name])} generated"
                )
        return problems

    def digest(self) -> str:
        return self._digest.hexdigest()

    def outcome(self) -> "Outcome":
        """The finished pass's reports, without its databases or rounds."""
        return Outcome(
            {name: session.report for name, session in self.sessions.items()},
            {name: frozenset(session.database.materialised_index_ids) for name, session in self.sessions.items()},
            {name: _fingerprint(rounds) for name, rounds in self.rounds.items()},
            self.streams,
            self.baselines,
        )


def _fingerprint(rounds: list[WorkloadRound]) -> str:
    digest = hashlib.sha256()
    for workload_round in rounds:
        digest.update(repr(round_fingerprint(workload_round)).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class Outcome:
    """What the checks after the timed loop need from one finished pass.

    The comparison replays and the fleet parity check build sessions of their
    own.  They run on outcomes once the loop's peak memory has been read, so
    their databases never count towards ``peak_rss_mb``; an outcome keeps no
    databases and no rounds either, and generates the rounds again when a
    check needs them.
    """

    reports: dict[str, RunReport]
    #: Materialised index ids of each session after its last round.
    configurations: dict[str, frozenset[str]]
    #: Digest of each session's round stream as the pass ran it.
    fingerprints: dict[str, str]
    streams: Callable[[], dict[str, list[WorkloadRound]]]
    baselines: tuple[DatabaseSpec, TunerSpec | None] | None

    def rounds(self) -> dict[str, list[WorkloadRound]]:
        """The pass's round streams, generated again and checked against it."""
        streams = self.streams()
        changed = sorted(name for name, fp in self.fingerprints.items() if _fingerprint(streams[name]) != fp)
        if changed:
            raise RuntimeError(f"regenerated round streams differ from the pass's: {changed}")
        return streams


def _options(captured: list, benchmark: str, regime: str, settings: ExperimentSettings) -> SimulationOptions:
    return SimulationOptions(
        noise_sigma=settings.noise_sigma,
        benchmark_name=benchmark,
        workload_type=regime,
        on_round=lambda report, results: captured.append((report, results)),
    )


def _session(name: str, spec: DatabaseSpec, tuner_spec: TunerSpec | None, options: SimulationOptions) -> TuningSession:
    database = spec.create()
    return TuningSession(database, create_tuner(name, database, tuner_spec), options)


def _session_pass(tuners: tuple[str, ...], benchmark_name: str, regime: str, settings: ExperimentSettings) -> Pass:
    benchmark = get_benchmark(benchmark_name)
    spec = settings.database_spec(benchmark.name)

    def streams() -> dict[str, list[WorkloadRound]]:
        rounds = build_workload_rounds(benchmark, spec.create(), regime, settings)
        return {name: rounds for name in tuners}

    rounds = streams()[tuners[0]]
    captured: list = []
    options = _options(captured, benchmark.name, regime, settings)
    tuner_spec = settings.tuner_spec(benchmark.name, regime)
    sessions = {name: _session(name, spec, tuner_spec, options) for name in tuners}

    def step(i: int) -> None:
        for session in sessions.values():
            session.step_workload_round(rounds[i])

    baselines = None if "PDTool" in sessions else (spec, tuner_spec)
    return Pass(sessions, {name: rounds for name in sessions}, step, captured, streams, baselines=baselines)


def tpcds_static(sequence_seed: int) -> Pass:
    """One MAB session over a static TPC-DS sequence (99 queries a round)."""
    settings = QUICK.with_overrides(workload_seed=sequence_seed)
    return _session_pass(("MAB",), "tpcds", "static", settings)


def tpch_adhoc_race(sequence_seed: int) -> Pass:
    """MAB, PDTool and NoIndex in lock-step over one ad-hoc TPC-H sequence."""
    settings = QUICK.with_overrides(workload_seed=sequence_seed, random_rounds=RACE_ROUNDS)
    return _session_pass(("MAB", "PDTool", "NoIndex"), "tpch", "random", settings)


def fleet_streams(sequence_seed: int) -> dict[str, list[WorkloadRound]]:
    """Each tenant's own ``schema_growth`` stream (same growth schedule)."""
    benchmark = get_benchmark("ssb")
    generator = FLEET_SPEC.create()
    stressor = get_stressor("schema_growth")
    return {
        f"tenant{t:02d}": stressor(
            generator, benchmark.templates, n_rounds=FLEET_ROUNDS, seed=sequence_seed * 100 + t
        ).materialise()
        for t in range(FLEET_TENANTS)
    }


def ssb_fleet_growth(sequence_seed: int) -> Pass:
    """A fleet of interned MAB tenants on SSB under the ``schema_growth`` stressor."""
    streams = fleet_streams(sequence_seed)
    captured: list = []
    options = _options(captured, "ssb", "schema_growth", QUICK)
    fleet = TuningFleet(
        [TenantSpec(tenant_id, FLEET_SPEC, "MAB") for tenant_id in streams],
        FleetConfig(default_options=options),
    )
    tenant_ids = fleet.tenant_ids
    first = streams[tenant_ids[0]]

    def step(i: int) -> None:
        fleet.step(
            {tid: streams[tid][i].queries for tid in tenant_ids},
            round_number=first[i].round_number,
            is_shift_round=first[i].is_shift_round,
            events={tid: streams[tid][i].events for tid in tenant_ids},
        )

    sessions = {tid: fleet.session(tid) for tid in tenant_ids}
    # The fleet's TenantSpecs carry no tuner spec, so the replays use none.
    return Pass(
        sessions,
        {tid: streams[tid] for tid in tenant_ids},
        step,
        captured,
        lambda: fleet_streams(sequence_seed),
        fleet=fleet,
        baselines=(FLEET_SPEC, None),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Pass]
    #: Distinct sequences a run cycles through; model metrics average them.
    n_sequences: int


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("tpcds_static", tpcds_static, 2),
        Workload("tpch_adhoc_race", tpch_adhoc_race, 8),
        Workload("ssb_fleet_growth", ssb_fleet_growth, 2),
    )
}


def sequence_seed(run_seed: int, sequence: int) -> int:
    """Workload seed of a run's ``sequence``-th sequence."""
    return run_seed * 1000 + sequence


# --------------------------------------------------------------------- #
# model-side comparison: MAB against PDTool and NoIndex on the same rounds
# --------------------------------------------------------------------- #
@dataclass
class Comparison:
    """MAB, PDTool and NoIndex reports over identical round streams."""

    mab: list[RunReport] = field(default_factory=list)
    pdtool: list[RunReport] = field(default_factory=list)
    noindex: list[RunReport] = field(default_factory=list)

    def extend(self, other: "Comparison") -> None:
        self.mab.extend(other.mab)
        self.pdtool.extend(other.pdtool)
        self.noindex.extend(other.noindex)

    def metrics(self) -> dict[str, float]:
        worst = [
            SafetyReport.from_reports(mab, noindex).worst_round_regression_ratio
            for mab, noindex in zip(self.mab, self.noindex)
        ]
        return {
            "mab_total_s": statistics.fmean(r.total_seconds for r in self.mab),
            "mab_vs_pdtool": sum(r.total_seconds for r in self.mab)
            / sum(r.total_seconds for r in self.pdtool),
            "mab_worst_round_vs_noindex": statistics.median(worst),
        }


def _replay(name: str, spec: DatabaseSpec, tuner_spec: TunerSpec | None, rounds: list[WorkloadRound]) -> TuningSession:
    """A standalone session over ``rounds`` (the options the workloads use)."""
    session = _session(name, spec, tuner_spec, SimulationOptions(noise_sigma=QUICK.noise_sigma))
    for workload_round in rounds:
        session.step_workload_round(workload_round)
    return session


def compare(outcome: Outcome) -> Comparison:
    """Pair a pass's MAB reports with PDTool and NoIndex on the same rounds.

    ``tpch_adhoc_race`` races all three inside the timed loop; the other
    workloads replay the MAB sessions' rounds through standalone PDTool and
    NoIndex sessions here, outside it.
    """
    reports = outcome.reports
    if outcome.baselines is None:
        return Comparison([reports["MAB"]], [reports["PDTool"]], [reports["NoIndex"]])
    spec, tuner_spec = outcome.baselines
    streams = outcome.rounds()
    comparison = Comparison()
    for name, report in reports.items():
        comparison.mab.append(report)
        for baseline, replays in (("PDTool", comparison.pdtool), ("NoIndex", comparison.noindex)):
            replays.append(_replay(baseline, spec, tuner_spec, streams[name]).report)
    return comparison


#: RoundReport fields a fleet tenant must share bit for bit with a standalone
#: session (the rest are wall-clock measurements).
DETERMINISTIC_FIELDS = (
    "round_number",
    "creation_seconds",
    "execution_seconds",
    "n_queries",
    "indexes_created",
    "indexes_dropped",
    "configuration_size",
    "configuration_bytes",
    "is_shift_round",
)


def fleet_parity(outcome: Outcome, tenant_id: str) -> list[str]:
    """A fleet tenant's report against a standalone session over its rounds."""
    standalone = _replay("MAB", FLEET_SPEC, None, outcome.rounds()[tenant_id])

    def rows(report: RunReport) -> list[list[object]]:
        return [[getattr(r, f) for f in DETERMINISTIC_FIELDS] for r in report.rounds]

    problems = []
    if rows(outcome.reports[tenant_id]) != rows(standalone.report):
        problems.append(f"fleet {tenant_id}: report differs from a standalone session")
    if outcome.configurations[tenant_id] != frozenset(standalone.database.materialised_index_ids):
        problems.append(f"fleet {tenant_id}: final configuration differs from a standalone session")
    return problems
