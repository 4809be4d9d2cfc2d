"""RL008 — disjoint-write discipline inside fork-pool workers.

A parallel pass over a shared-memory buffer is race-free by *partition*,
not by locks: every worker attaches the same shared output buffer and writes
only the row ranges ``[start, stop)`` it was handed in its block list.
Nothing in ``src/`` runs such a pass today; the rule keeps any new one
honest.  The invariant is purely conventional — shared memory has no
bounds — so this rule makes it
static: inside a function submitted to a pool, a store into a
shared-memory-backed array is legal **only** through a plain
``buf[start:stop] = ...`` slice whose bounds are names bound by iterating a
parameter (the passed block ranges).  Whole-array stores (``buf[:]``,
``buf[...]``), computed slices and element stores are findings, as are
writes through the views container itself.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from . import Rule, RuleContext, register_rule
from ..project import FunctionInfo, ProjectIndex, dotted_call_name
from ._concurrency import (
    CHECKED_TOP_DIRS,
    iter_own_nodes,
    module_aliases,
    resolve_submitted,
    submit_sites,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model import Finding


def _is_buffer_backed_ndarray(call: ast.Call, aliases: dict[str, str]) -> bool:
    """``np.ndarray(..., buffer=...)`` — a view over a shared segment."""
    dotted = dotted_call_name(call.func, aliases)
    if dotted is None or dotted.rsplit(".", 1)[-1] != "ndarray":
        return False
    return any(keyword.arg == "buffer" for keyword in call.keywords)


@register_rule
class DisjointWriteRule(Rule):
    id = "RL008"
    title = "fork-pool workers write only their passed block ranges of shared buffers"

    def check_project(self, context: RuleContext) -> Iterable["Finding"]:
        if context.index is None:
            return []
        return list(self._walk(context))

    def _walk(self, context: RuleContext) -> Iterator["Finding"]:
        index = context.index
        assert index is not None
        checked: set[str] = set()
        for function in index.iter_functions():
            if function.relative_path.split("/", 1)[0] not in CHECKED_TOP_DIRS:
                continue
            aliases = module_aliases(function, index)
            for site in submit_sites(function, index, aliases):
                worker = resolve_submitted(site, index)
                if worker is None or worker.qualname in checked:
                    continue
                checked.add(worker.qualname)
                yield from self._check_worker(worker, index)

    def _check_worker(
        self, worker: FunctionInfo, index: ProjectIndex
    ) -> Iterator["Finding"]:
        from ..model import Finding

        aliases = module_aliases(worker, index)
        args = worker.node.args
        params = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}

        backed: set[str] = set()
        containers: set[str] = set()
        sanctioned: set[str] = set()
        # Fixpoint over the (tiny) def-use chains: a name assigned from a
        # buffer-backed ndarray call, or loaded out of a container such
        # views were stored into, is backed.
        changed = True
        while changed:
            changed = False
            for node in iter_own_nodes(worker.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    value = node.value
                    if isinstance(value, ast.Call) and _is_buffer_backed_ndarray(
                        value, aliases
                    ):
                        if isinstance(target, ast.Name) and target.id not in backed:
                            backed.add(target.id)
                            changed = True
                        elif isinstance(target, ast.Subscript) and isinstance(
                            target.value, ast.Name
                        ):
                            if target.value.id not in containers:
                                containers.add(target.value.id)
                                changed = True
                    elif (
                        isinstance(value, ast.Name)
                        and value.id in backed
                        and isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id not in containers
                    ):
                        # A backed view stored into a dict/list makes that
                        # container a source of shared views too.
                        containers.add(target.value.id)
                        changed = True
                    elif (
                        isinstance(target, ast.Name)
                        and isinstance(value, ast.Subscript)
                        and isinstance(value.value, ast.Name)
                        and value.value.id in containers
                        and target.id not in backed
                    ):
                        backed.add(target.id)
                        changed = True
                elif isinstance(node, ast.For):
                    # ``for start, stop in block_slices:`` over a parameter
                    # sanctions the bound names as write-range endpoints.
                    if (
                        isinstance(node.iter, ast.Name)
                        and node.iter.id in params
                        and isinstance(node.target, (ast.Tuple, ast.List))
                    ):
                        for element in node.target.elts:
                            if isinstance(element, ast.Name) and element.id not in sanctioned:
                                sanctioned.add(element.id)
                                changed = True

        for node in iter_own_nodes(worker.node):
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if not isinstance(target, ast.Subscript):
                    continue
                base = target.value
                if isinstance(base, ast.Name) and base.id in backed:
                    if not self._is_sanctioned_slice(target.slice, sanctioned):
                        yield Finding(
                            rule=self.id,
                            path=worker.relative_path,
                            line=target.lineno,
                            col=target.col_offset,
                            message=(
                                f"worker {worker.qualname} writes "
                                f"'{ast.unparse(target)}' into a shared "
                                "buffer; only plain slices bounded by the "
                                "passed block range "
                                "(buf[start:stop], from 'for start, stop in "
                                "<param>') are race-free"
                            ),
                            symbol=worker.qualname,
                        )
                elif (
                    isinstance(base, ast.Subscript)
                    and isinstance(base.value, ast.Name)
                    and base.value.id in containers
                ):
                    yield Finding(
                        rule=self.id,
                        path=worker.relative_path,
                        line=target.lineno,
                        col=target.col_offset,
                        message=(
                            f"worker {worker.qualname} writes "
                            f"'{ast.unparse(target)}' through the shared "
                            "views container; bind the array to a name and "
                            "write only its passed block range"
                        ),
                        symbol=worker.qualname,
                    )

    @staticmethod
    def _is_sanctioned_slice(slice_expr: ast.expr, sanctioned: set[str]) -> bool:
        return (
            isinstance(slice_expr, ast.Slice)
            and slice_expr.step is None
            and isinstance(slice_expr.lower, ast.Name)
            and slice_expr.lower.id in sanctioned
            and isinstance(slice_expr.upper, ast.Name)
            and slice_expr.upper.id in sanctioned
        )
