"""Greedy super-arm oracle with diversity filtering (Section IV).

The super-arm reward is a sum of individual arm rewards under a knapsack
(memory) constraint, a monotone submodular objective for which the greedy
algorithm is a (1 - 1/e)-approximation oracle.  The implementation follows the
paper's refinement:

1. arms with negative scores are pruned;
2. the remaining arms are visited in score order and each is selected unless
   it no longer fits the remaining budget, a selected arm on its table already
   starts with its leading key column (redundant seek capability), or every
   query that motivated it is already served by a selected covering index.

Filtering is per-round only; pruned arms return in later rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arms import Arm


@dataclass
class ScoredArm:
    """An arm together with its UCB score and its materialisation size."""

    arm: Arm
    score: float
    size_bytes: int

    @property
    def index_id(self) -> str:
        return self.arm.index_id


@dataclass
class OracleResult:
    """Outcome of one oracle invocation."""

    selected: list[ScoredArm]
    total_size_bytes: int
    total_score: float

    @property
    def selected_arms(self) -> list[Arm]:
        return [scored.arm for scored in self.selected]

    @property
    def selected_index_ids(self) -> set[str]:
        return {scored.index_id for scored in self.selected}


class GreedyOracle:
    """Greedy knapsack oracle with prefix/covering diversity filtering."""

    def __init__(self, prune_negative_scores: bool = True) -> None:
        self.prune_negative_scores = prune_negative_scores

    def select(
        self,
        scored_arms: list[ScoredArm],
        memory_budget_bytes: int | None,
    ) -> OracleResult:
        """Pick a super arm within ``memory_budget_bytes``.

        ``None`` means no budget constraint (every positively scored arm that
        survives filtering is selected).

        One pass over the score-sorted candidates tests each arm once, at its
        turn, against the remaining budget, the ``(table, leading column)``
        pairs already selected and the covered templates.  Every test only
        tightens as arms are selected and a skipped arm changes no state, so
        this picks exactly what re-filtering the survivors after each pick
        would.
        """
        candidates = list(scored_arms)
        if self.prune_negative_scores:
            candidates = [scored for scored in candidates if scored.score > 0]
        candidates.sort(key=lambda scored: scored.score, reverse=True)

        remaining_budget = memory_budget_bytes
        selected: list[ScoredArm] = []
        selected_leads: set[tuple[str, str]] = set()
        covered_templates: set[str] = set()

        for scored in candidates:
            if remaining_budget is not None and scored.size_bytes > remaining_budget:
                # The greedy step only considers cost-feasible arms; skip and
                # keep looking for a smaller one.
                continue
            index = scored.arm.index
            lead = (index.table, index.leading_column())
            if lead in selected_leads:
                # Prefix diversity: a selected arm on the same table already
                # starts with this key column and gives the same seek
                # capability, so this one would mostly waste budget.
                continue
            motivating = scored.arm.source_templates
            if motivating and motivating <= covered_templates:
                # Every template that motivated this arm is already served by
                # a selected covering index.
                continue
            selected.append(scored)
            selected_leads.add(lead)
            if remaining_budget is not None:
                remaining_budget -= scored.size_bytes
            if scored.arm.covering_for_queries:
                covered_templates |= motivating

        total_size = sum(scored.size_bytes for scored in selected)
        total_score = sum(scored.score for scored in selected)
        return OracleResult(selected=selected, total_size_bytes=total_size, total_score=total_score)
