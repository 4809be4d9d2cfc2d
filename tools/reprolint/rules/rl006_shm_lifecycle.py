"""RL006 — shared-memory segment lifecycle (the first flow-engine rule).

Code that shares arrays between processes through
``multiprocessing.shared_memory`` segments must release them: a leaked
segment is ``/dev/shm`` residue that outlives the process and (at fleet
scale) exhausts the host.  Nothing in ``src/`` uses shared memory today; the
rule keeps any new user honest.  Three invariants, checked with the
CFG/dataflow engine in :mod:`tools.reprolint.flow`:

* a segment created with ``create=True`` must reach **both** ``close()`` and
  ``unlink()`` on every path out of the creating function — including the
  exceptional ones, which in practice means a ``finally`` block (or handing
  the live handle to a caller/container that owns the cleanup);
* an **attached** segment (``create=False``) must ``close()`` but never
  ``unlink()`` — the creator owns the segment's lifetime, and an attach-side
  unlink deletes it under every sibling worker;
* segment **names** must come from the counter-based
  ``reproscore_<pid>_<n>`` scheme: explicit, and derived from neither the
  wall clock nor an RNG (both can collide across processes and both break
  the determinism story), nor a fixed literal (collides with ourselves).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from . import Rule, RuleContext, register_rule
from ..flow import (
    SHM_ATTACH,
    SHM_CREATE,
    FunctionSummary,
    ResourceLeak,
    _classify_external,
    analyse_resources,
)
from .rl001_determinism import WALL_CLOCK_CALLS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model import Finding, SourceFile

CHECKED_TOP_DIRS = ("src", "examples")

#: Call-name prefixes that make a segment name clock/RNG-derived.
_NONDETERMINISTIC_NAME_SOURCES = ("random.", "numpy.random.", "uuid.", "secrets.")


def _leak_paths(leak: ResourceLeak) -> str:
    paths = []
    if leak.on_raise_exit:
        paths.append("an exceptional path")
    if leak.on_normal_exit:
        paths.append("a normal path")
    return " and ".join(paths)


@register_rule
class ShmLifecycleRule(Rule):
    id = "RL006"
    title = "shared-memory lifecycle: close()+unlink() on all paths, counter-based names"

    # ------------------------- flow analysis --------------------------- #
    def check_project(self, context: RuleContext) -> Iterable["Finding"]:
        if context.index is None:
            return []
        return list(self._walk(context))

    def _walk(self, context: RuleContext) -> Iterator["Finding"]:
        from ..model import Finding

        index = context.index
        assert index is not None
        summaries: dict[str, FunctionSummary] = {}
        for function in index.iter_functions():
            if function.relative_path.split("/", 1)[0] not in CHECKED_TOP_DIRS:
                continue
            analysis = analyse_resources(function, index, summaries)
            for leak in analysis.leaks:
                if leak.site.kind not in (SHM_CREATE, SHM_ATTACH):
                    continue
                if leak.site.kind == SHM_CREATE:
                    needed = "close()+unlink()"
                else:
                    needed = "close()"
                yield Finding(
                    rule=self.id,
                    path=function.relative_path,
                    line=leak.site.line,
                    col=leak.site.col,
                    message=(
                        f"shared-memory segment {leak.site.var!r} "
                        f"({'created' if leak.site.kind == SHM_CREATE else 'attached'} "
                        f"here) can leave the function on {_leak_paths(leak)} "
                        f"without {needed}; release it in a finally block"
                    ),
                    symbol=function.qualname,
                )
            for site, line, col in analysis.attach_unlinks:
                yield Finding(
                    rule=self.id,
                    path=function.relative_path,
                    line=line,
                    col=col,
                    message=(
                        f"attach-side segment {site.var!r} must never unlink(); "
                        "the creating process owns the segment's lifetime"
                    ),
                    symbol=function.qualname,
                )

    # ------------------------- name scheme ----------------------------- #
    def check_file(
        self, source_file: "SourceFile", context: RuleContext
    ) -> Iterable["Finding"]:
        if source_file.top_level_dir not in CHECKED_TOP_DIRS:
            return []
        aliases: dict[str, str] = {}
        if context.index is not None:
            from ..project import module_dotted_name

            module = context.index.modules.get(
                module_dotted_name(source_file.relative_path)
            )
            if module is not None:
                aliases = module.import_aliases
        return list(self._scan_names(source_file, aliases))

    def _scan_names(
        self, source_file: "SourceFile", aliases: dict[str, str]
    ) -> Iterator["Finding"]:
        from ..model import Finding

        assignments: dict[str, list[ast.expr]] = {}
        for node in ast.walk(source_file.tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    assignments.setdefault(target.id, []).append(node.value)

        for node in ast.walk(source_file.tree):
            if not isinstance(node, ast.Call):
                continue
            if _classify_external(node, aliases) != SHM_CREATE:
                continue
            name_expr: ast.expr | None = node.args[0] if node.args else None
            for keyword in node.keywords:
                if keyword.arg == "name":
                    name_expr = keyword.value
            if name_expr is None:
                yield Finding(
                    rule=self.id,
                    path=source_file.relative_path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        "SharedMemory(create=True) without an explicit name= "
                        "relies on a stdlib-random segment name; use the "
                        "counter-based '<prefix>_<pid>_<n>' scheme"
                    ),
                )
                continue
            # One level of local resolution: name=some_var with exactly one
            # assignment in the file.
            if isinstance(name_expr, ast.Name):
                candidates = assignments.get(name_expr.id, [])
                if len(candidates) == 1:
                    name_expr = candidates[0]
            message = self._name_violation(name_expr, aliases)
            if message is not None:
                yield Finding(
                    rule=self.id,
                    path=source_file.relative_path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=message,
                )

    @staticmethod
    def _name_violation(name_expr: ast.expr, aliases: dict[str, str]) -> str | None:
        from ..project import dotted_call_name

        if isinstance(name_expr, ast.Constant) and isinstance(name_expr.value, str):
            return (
                "fixed-literal segment name collides with other processes "
                "(and with this process's earlier passes); use the "
                "counter-based '<prefix>_<pid>_<n>' scheme"
            )
        for node in ast.walk(name_expr):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_call_name(node.func, aliases)
            if dotted is None:
                continue
            if dotted in WALL_CLOCK_CALLS or dotted.startswith(
                _NONDETERMINISTIC_NAME_SOURCES
            ):
                return (
                    f"segment name derived from {dotted} (wall clock/RNG) can "
                    "collide across processes and breaks replayability; use "
                    "the counter-based '<prefix>_<pid>_<n>' scheme"
                )
        return None
