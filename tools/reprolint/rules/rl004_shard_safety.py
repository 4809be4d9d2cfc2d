"""RL004 — scoring is read-only on the live bandit (the call-graph rule).

The fleet scores many tenants in one vectorized pass
(:func:`repro.core.linear_bandit.batch_upper_confidence_scores`) against
frozen :class:`repro.core.linear_bandit.LinearScorer` snapshots (``theta``,
``v_inverse``).  The parity contract ``fleet == standalone session`` only
holds if nothing on a scoring path mutates a learner (``_v``, ``_b``,
``_v_inverse``, ``_theta``) — a write while the fleet holds snapshots would
score one tenant against state another round already moved.

The rule walks the call graph from the scoring entry points (the three
kernels, the batched pass and the frozen scorer's methods — **not**
``C2UCB.upper_confidence_scores``, which legitimately refreshes its lazy
``theta``/``V⁻¹`` caches before scoring) and flags every assignment to a
mutable-bandit attribute reachable from them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from . import Rule, RuleContext, register_rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model import Finding

#: Qualified-name suffixes of the read-only scoring functions.
SCORING_ENTRY_POINTS = (
    "linear_bandit.expected_rewards",
    "linear_bandit.exploration_bonus",
    "linear_bandit.ucb_scores",
    "linear_bandit.batch_upper_confidence_scores",
    "LinearScorer.upper_confidence_scores",
    "LinearScorer.expected_rewards",
    "LinearScorer.exploration_bonus",
)

#: Live-bandit state that must never be assigned on a scoring path.
MUTABLE_BANDIT_ATTRIBUTES = frozenset(
    {"_v", "_b", "_v_inverse", "_theta", "theta", "v_inverse"}
)


@register_rule
class ScoringSafetyRule(Rule):
    id = "RL004"
    title = "no live-bandit mutation reachable from the scoring entry points"

    def check_project(self, context: RuleContext) -> Iterable["Finding"]:
        if context.index is None:
            return []
        return list(self._walk(context))

    def _walk(self, context: RuleContext) -> Iterator["Finding"]:
        from ..model import Finding

        index = context.index
        assert index is not None
        seen: set[tuple[str, int, str]] = set()
        for suffix in SCORING_ENTRY_POINTS:
            for entry in index.find_functions(suffix):
                for function in index.reachable_functions(entry):
                    for store in function.attribute_stores:
                        if store.attribute not in MUTABLE_BANDIT_ATTRIBUTES:
                            continue
                        key = (function.relative_path, store.line, store.attribute)
                        if key in seen:
                            continue
                        seen.add(key)
                        yield Finding(
                            rule=self.id,
                            path=function.relative_path,
                            line=store.line,
                            col=store.col,
                            message=(
                                f"assignment to {store.receiver}.{store.attribute} "
                                f"in {function.qualname} is reachable from scoring "
                                f"entry point {entry.qualname}; scoring must only "
                                "read the frozen LinearScorer snapshot "
                                "(fleet == standalone parity)"
                            ),
                            symbol=function.qualname,
                        )
