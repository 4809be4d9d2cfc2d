"""shmsan — an opt-in runtime sanitizer for ``multiprocessing.shared_memory``.

The static rules (RL006 and RL008) prove lifecycle and disjoint-write
discipline over the *code*; this module checks the same invariants over an
actual *run*.  With ``REPRO_SHM_SAN=1`` in the environment, :func:`install`
replaces :class:`multiprocessing.shared_memory.SharedMemory` with a
recording subclass:

* every segment create / attach / ``close()`` / ``unlink()`` lands in a
  per-process :class:`ShmLedger` (fork-started workers get a fresh ledger —
  the ledger is keyed by pid, so an inherited parent ledger is discarded on
  first use in the child);
* a parallel pass reports each worker's assigned row ranges via
  :meth:`ShmLedger.note_writer_ranges`; any overlap between two workers'
  ranges for the same segment is a violation the moment it is recorded;
* on :func:`verify` the ledger must
  balance: every created segment closed and unlinked, every attach closed,
  no attach-side ``unlink()``, no overlapping writer ranges.  Imbalance
  raises :class:`ShmSanError`.

The sanitizer is a debugging tool, not a production feature: nothing in
``src/repro`` imports it (the scoring core no longer uses shared memory),
and with the environment variable unset :func:`install` is a no-op.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Sequence

__all__ = [
    "ENV_VAR",
    "SegmentRecord",
    "ShmLedger",
    "ShmSanError",
    "install",
    "installed",
    "ledger",
    "reset",
    "uninstall",
    "verify",
]

#: Environment switch: ``REPRO_SHM_SAN=1`` arms the sanitizer.
ENV_VAR = "REPRO_SHM_SAN"

#: The genuine class, captured at import time (before any patching).
_ORIGINAL_SHARED_MEMORY = shared_memory.SharedMemory


class ShmSanError(AssertionError):
    """A lifecycle or disjointness invariant was violated at runtime."""


@dataclass
class SegmentRecord:
    """What one process did to one shared-memory segment."""

    name: str
    created: bool
    size: int
    closes: int = 0
    unlinked: bool = False


@dataclass
class ShmLedger:
    """Per-process record of every sanitized segment operation."""

    pid: int
    records: dict[str, SegmentRecord] = field(default_factory=dict)
    writer_ranges: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    creates_seen: int = 0
    attaches_seen: int = 0

    # ------------------------- recording hooks ------------------------- #
    def record_open(self, name: str, created: bool, size: int) -> None:
        if created:
            self.creates_seen += 1
            previous = self.records.get(name)
            if previous is not None and previous.created and not previous.unlinked:
                self.violations.append(
                    f"segment {name!r} created twice without an unlink in between"
                )
        else:
            self.attaches_seen += 1
        self.records[name] = SegmentRecord(name=name, created=created, size=size)

    def record_close(self, name: str) -> None:
        record = self.records.get(name)
        if record is not None:
            record.closes += 1

    def record_unlink(self, name: str) -> None:
        record = self.records.get(name)
        if record is None:
            return
        if not record.created:
            self.violations.append(
                f"attach-side unlink of segment {name!r}: only the creating "
                "process may unlink"
            )
        elif record.unlinked:
            self.violations.append(f"segment {name!r} unlinked twice")
        record.unlinked = True

    def note_writer_ranges(
        self, segment_name: str, runs: Sequence[tuple[tuple[int, int], ...]]
    ) -> None:
        """Record one parallel pass's per-worker row ranges; flag overlaps."""
        flat = sorted(
            (int(start), int(stop)) for run in runs for start, stop in run
        )
        for (a_start, a_stop), (b_start, b_stop) in zip(flat, flat[1:]):
            if b_start < a_stop:
                self.violations.append(
                    f"overlapping writer row ranges on segment "
                    f"{segment_name!r}: [{a_start}, {a_stop}) and "
                    f"[{b_start}, {b_stop})"
                )
        self.writer_ranges.setdefault(segment_name, []).extend(flat)

    # --------------------------- verification -------------------------- #
    def leaks(self) -> list[str]:
        problems: list[str] = []
        for record in self.records.values():
            if record.closes == 0:
                problems.append(f"segment {record.name!r} was never closed")
            if record.created and not record.unlinked:
                problems.append(
                    f"created segment {record.name!r} was never unlinked "
                    "(leaked into /dev/shm)"
                )
        return problems

    def check(self) -> None:
        problems = [*self.violations, *self.leaks()]
        if problems:
            raise ShmSanError(
                f"shmsan (pid {self.pid}): "
                + "; ".join(problems)
            )


_STATE: dict[str, Any] = {"installed": False, "ledger": None}


def ledger() -> ShmLedger:
    """The current process's ledger (fresh after a fork: keyed by pid)."""
    current = _STATE["ledger"]
    if current is None or current.pid != os.getpid():
        current = ShmLedger(pid=os.getpid())
        _STATE["ledger"] = current
    return current


class _SanitizedSharedMemory(_ORIGINAL_SHARED_MEMORY):
    """Drop-in :class:`SharedMemory` that records every lifecycle event."""

    def __init__(
        self,
        name: str | None = None,
        create: bool = False,
        size: int = 0,
        **kwargs: Any,
    ) -> None:
        super().__init__(name=name, create=create, size=size, **kwargs)
        ledger().record_open(self.name, bool(create), self.size)

    def close(self) -> None:
        ledger().record_close(self.name)
        super().close()

    def unlink(self) -> None:
        ledger().record_unlink(self.name)
        super().unlink()


def installed() -> bool:
    return bool(_STATE["installed"])


def install(*, force: bool = False) -> bool:
    """Arm the sanitizer; returns whether it is armed.

    Without ``force``, requires ``REPRO_SHM_SAN=1`` in the environment (so
    an accidental import can never slow production down).  Safe to call
    repeatedly.  Must run *before* a pool forks its workers, or the
    children keep the unpatched class.
    """
    if not force and os.environ.get(ENV_VAR) != "1":
        return False
    if not _STATE["installed"]:
        shared_memory.SharedMemory = _SanitizedSharedMemory  # type: ignore[misc]
        _STATE["installed"] = True
    return True


def uninstall() -> None:
    """Disarm: restore the genuine class."""
    if _STATE["installed"]:
        shared_memory.SharedMemory = _ORIGINAL_SHARED_MEMORY  # type: ignore[misc]
        _STATE["installed"] = False


def reset() -> None:
    """Drop the current process's ledger (start a fresh accounting window)."""
    _STATE["ledger"] = None


def verify(*, require_activity: bool = False) -> ShmLedger:
    """Assert the ledger balances; returns it for inspection.

    ``require_activity=True`` additionally fails when the sanitizer saw no
    segment creation at all — proof that the sanitizer was actually armed,
    not silently skipped.
    """
    current = ledger()
    if require_activity and current.creates_seen == 0:
        raise ShmSanError(
            "shmsan: no shared-memory activity was recorded; the sanitizer "
            "was not armed before the pass ran"
        )
    current.check()
    return current

