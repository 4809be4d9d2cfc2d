"""Outside-in layer tracing: span wrappers installed on the layers' public calls.

The tracer never edits ``src/``.  :meth:`Tracer.install` replaces each
boundary listed in :data:`LAYERS` — a method on its class, or a function in
the module that calls it — with a wrapper that records a span (layer, start,
end, parent span, loop round) while :attr:`Tracer.recording` is set, and
:meth:`Tracer.uninstall` puts the originals back.

A layer's self time is its spans' duration minus the time covered by their
child spans, so the self times of all layers plus the loop's unattributed
time add up to the traced loop wall exactly.  Next to the spans the tracer
keeps counts measured at the same boundaries (cache repeat keys, arms
returned, oracle candidates, what-if plans, batched tenants); all of them
are deterministic for one seed.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter
from typing import Any, Callable

#: ``(layer, module, class or None for a module-level function, attributes)``.
#: Module-level functions are patched in the module that *calls* them, since
#: that is the binding the call resolves.
LAYERS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("api.session", "repro.api.session", "TuningSession", ("step",)),
    ("fleet", "repro.fleet.fleet", "TuningFleet", ("step",)),
    (
        "core.tuner",
        "repro.core.tuner",
        "MabTuner",
        ("recommend", "begin_round", "complete_round", "observe"),
    ),
    ("core.query_store", "repro.core.query_store", "QueryStore", ("queries_of_interest", "add_round")),
    ("core.arms", "repro.core.arms", "ArmGenerator", ("generate",)),
    ("core.context", "repro.core.context", "ContextBuilder", ("build_matrix",)),
    ("core.linear_bandit", "repro.core.linear_bandit", "C2UCB", ("upper_confidence_scores", "update")),
    ("core.linear_bandit", "repro.fleet.fleet", None, ("batch_upper_confidence_scores",)),
    ("core.oracle", "repro.core.oracle", "GreedyOracle", ("select",)),
    ("core.rewards", "repro.core.tuner", None, ("compute_round_rewards",)),
    ("baselines.pdtool", "repro.baselines.pdtool", "PDToolTuner", ("recommend",)),
    ("optimizer.planner", "repro.optimizer.planner", "Planner", ("plan",)),
    (
        "engine.catalog",
        "repro.engine.catalog",
        "Database",
        ("apply_configuration", "grow_table", "refresh_statistics"),
    ),
    ("engine.execution", "repro.engine.execution", "Executor", ("execute",)),
    ("engine.storage", "repro.engine.storage", "TableData", ("distinct_count",)),
)

#: Layer names in report order.
LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))

Hook = Callable[["Tracer", str, tuple, Any], None]


def _storage_hook(tracer: "Tracer", parent: str, args: tuple, result: Any) -> None:
    # Key on the TableData instance (held, so its id cannot be reused).
    table_data, column = args[0], args[1]
    key = (id(table_data), column)
    if key in tracer.storage_keys:
        tracer.counts["engine.storage.repeats"] += 1
    else:
        tracer.storage_keys[key] = table_data


def _arms_hook(tracer: "Tracer", parent: str, args: tuple, result: Any) -> None:
    generator = args[0]
    _, history = tracer.arm_history.setdefault(id(generator), (generator, set()))
    tracer.counts["core.arms.returned"] += len(result)
    tracer.counts["core.arms.repeats"] += sum(1 for arm_id in result if arm_id in history)
    history.update(result)


def _oracle_hook(tracer: "Tracer", parent: str, args: tuple, result: Any) -> None:
    tracer.counts["core.oracle.candidates"] += len(args[1])
    tracer.counts["core.oracle.selected"] += len(result.selected)


def _planner_hook(tracer: "Tracer", parent: str, args: tuple, result: Any) -> None:
    if parent == "baselines.pdtool":
        tracer.counts["optimizer.planner.whatif"] += 1


def _begin_round_hook(tracer: "Tracer", parent: str, args: tuple, result: Any) -> None:
    if any(frame[2] == "fleet" for frame in tracer.stack):
        tracer.counts["fleet.tenants_recommended"] += 1


def _batch_hook(tracer: "Tracer", parent: str, args: tuple, result: Any) -> None:
    tracer.counts["fleet.tenants_batched"] += len(args[0])


HOOKS: dict[tuple[str, str], Hook] = {
    ("engine.storage", "distinct_count"): _storage_hook,
    ("core.arms", "generate"): _arms_hook,
    ("core.oracle", "select"): _oracle_hook,
    ("optimizer.planner", "plan"): _planner_hook,
    ("core.tuner", "begin_round"): _begin_round_hook,
    ("core.linear_bandit", "batch_upper_confidence_scores"): _batch_hook,
}


class Tracer:
    """In-memory span recorder with per-layer self time and boundary counts."""

    def __init__(self) -> None:
        #: ``(layer, start, end, parent span index or -1, round id)``.
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        #: Open spans: ``[span index, child seconds, layer]``.
        self.stack: list[list[Any]] = []
        self.recording = False
        self.keep_spans = True
        self.round_id = 0
        self.self_seconds: dict[str, float] = dict.fromkeys(LAYER_NAMES, 0.0)
        self.counts: Counter[str] = Counter()
        self.storage_keys: dict[tuple[int, str], object] = {}
        self.arm_history: dict[int, tuple[object, set[str]]] = {}
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every boundary in :data:`LAYERS`."""
        for layer, module_name, class_name, attributes in LAYERS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attribute in attributes:
                original = owner.__dict__[attribute]
                self._originals.append((owner, attribute, original))
                hook = HOOKS.get((layer, attribute))
                setattr(owner, attribute, self._wrap(layer, original, hook))

    def uninstall(self) -> None:
        """Restore every wrapped boundary."""
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals = []

    def _wrap(self, layer: str, original: Callable, hook: Hook | None) -> Callable:
        tracer = self
        counts = self.counts

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return original(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            keep = tracer.keep_spans
            index = len(tracer.spans) if keep else -1
            if keep:
                tracer.spans.append(None)
            frame = [index, 0.0, layer]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_seconds[layer] += duration - frame[1]
                counts[layer] += 1
                if parent is not None:
                    parent[1] += duration
                if keep:
                    tracer.spans[index] = (
                        layer,
                        start,
                        end,
                        parent[0] if parent is not None else -1,
                        tracer.round_id,
                    )
            if hook is not None:
                hook(tracer, parent[2] if parent is not None else "", args, result)
            return result

        traced.__name__ = getattr(original, "__name__", layer)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    # ------------------------------------------------------------------ #
    # pass bookkeeping
    # ------------------------------------------------------------------ #
    def begin_pass(self) -> None:
        """Forget per-pass cache keys (each pass builds fresh databases/tuners)."""
        self.storage_keys = {}
        self.arm_history = {}

    def snapshot(self) -> dict[str, int]:
        """Current call counts and boundary counts, as plain ints."""
        return dict(self.counts)

    def write_spans(self, path: str, header: dict[str, object]) -> None:
        """Write the header and every kept span as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                layer, start, end, parent, round_id = span
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "round": round_id,
                        }
                    )
                    + "\n"
                )

