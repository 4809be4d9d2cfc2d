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
    #: Position of the arm in the round's pool ordering.  Lets sharded
    #: scoring merge per-shard candidate lists back into pool order, so the
    #: oracle sees the surviving arms in the same order (and hence breaks any
    #: exact ties the same way) as a monolithic scoring pass would.
    position: int = 0

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


def _pareto_survivors(candidates: list[ScoredArm]) -> set[int]:
    """Positions of the arms :class:`GreedyOracle` could possibly select.

    Arms are grouped by ``(table, leading column, source templates)``.  The
    oracle's pick from each group is always on the group's score-vs-size
    Pareto frontier: a same-group dominator (score strictly higher, size no
    larger) takes its turn earlier in score order, is budget-feasible
    whenever the dominated arm is (the remaining budget only shrinks), is hit
    by the covering filter at exactly the same turns (same motivating
    templates) and is not prefix-filtered before the group's first selection
    — so the dominator would have been selected instead.  Keeping every
    group's frontier therefore makes a shard-local cut selection-preserving:
    only arms that provably cannot win are dropped.
    """
    by_group: dict[tuple[str, str | None, frozenset[str]], list[ScoredArm]] = {}
    for scored in candidates:
        key = (
            scored.arm.index.table,
            scored.arm.index.leading_column(),
            frozenset(scored.arm.source_templates),
        )
        by_group.setdefault(key, []).append(scored)
    survivors: set[int] = set()
    for group in by_group.values():
        group.sort(key=lambda scored: scored.score, reverse=True)
        smallest_so_far: int | None = None
        for scored in group:
            if smallest_so_far is None or scored.size_bytes < smallest_so_far:
                survivors.add(scored.position)
                smallest_so_far = scored.size_bytes
    return survivors


def merge_shard_candidates(
    candidates_by_shard: list[list[ScoredArm]],
    top_k: int | None,
) -> list[ScoredArm]:
    """Merge per-shard scored arms into one oracle candidate list.

    Each shard forwards its ``top_k`` highest-scored arms *plus* every arm on
    a ``(table, leading column, source templates)`` score-vs-size Pareto
    frontier (see :func:`_pareto_survivors`); the merged survivors are
    re-ordered by pool position so the knapsack oracle receives them exactly
    as a monolithic scoring pass would have — minus arms that provably cannot
    be selected.  The cut is therefore *selection-preserving*: the sharded
    pass picks the same configuration as a monolithic pass at matched seeds,
    while the oracle's candidate list shrinks to the arms that still matter.
    ``top_k=None`` skips the cut entirely and forwards whole shards.

    Args:
        candidates_by_shard: One scored-arm list per shard, each in pool
            order.  Empty shard lists are skipped.
        top_k: Score-ranked candidates each shard may forward beyond its
            Pareto frontiers (``None`` = all).

    Returns:
        The merged candidate list, sorted by :attr:`ScoredArm.position`.

    Raises:
        ValueError: If ``top_k`` is given but smaller than 1.
    """
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be at least 1 (or None to keep every arm)")
    merged: list[ScoredArm] = []
    for candidates in candidates_by_shard:
        if not candidates:
            continue
        if top_k is None or len(candidates) <= top_k:
            merged.extend(candidates)
            continue
        ranked = sorted(candidates, key=lambda scored: scored.score, reverse=True)
        keep = {scored.position for scored in ranked[:top_k]}
        keep |= _pareto_survivors(candidates)
        merged.extend(scored for scored in candidates if scored.position in keep)
    merged.sort(key=lambda scored: scored.position)
    return merged


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
