"""Host-speed calibration: a fixed kernel timed around each measurement.

On the shared reference host (2 vCPUs) the same code runs at two speeds,
about 1.4x apart, and the host switches between them every 0.1 to 2 seconds
as neighbouring load comes and goes.  Over minutes the mix drifts further.
Raw wall times of one workload spread by 11 to 29% over ten seeds, wider
than a bound that could catch a real regression.

So the benchmark times this small kernel just before and just after every
loop round and every set-up, and reports each wall time scaled by
``REFERENCE_SECONDS / mean(kernel before, kernel after)``: the time the
measurement would have taken on the reference host at its fastest.  The
kernel mixes object churn, dict probes and sorts with small numpy calls,
like the tuner, and tracks about 70% of the host's slowdown.  A change to
the tuner leaves the kernel alone, so it moves the scaled time in
proportion to the wall time.  The record file also keeps the raw wall
times.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: The kernel's fastest wall time seen on the reference host (seconds).
REFERENCE_SECONDS = 2.5e-3

_rng = np.random.default_rng(0)
_CODES = _rng.integers(0, 500, 2000)
_TABLE = _rng.random(1 << 20)  # 8 MiB: larger than the per-core caches
_PROBES = _rng.integers(0, 1 << 20, 20000)


class _Row:
    __slots__ = ("key", "group", "name")

    def __init__(self, key: int, group: int, name: str) -> None:
        self.key = key
        self.group = group
        self.name = name


def _kernel() -> float:
    # Object churn, dict probes and sorts, as in arm generation and the
    # oracle; small numpy calls, as in planning and execution; and scattered
    # reads from a table larger than the caches.
    rows = [_Row(i, i * 7 % 13, str(i)) for i in range(3000)]
    by_name = {row.name: row for row in rows}
    total = sum(by_name[row.name].group for row in rows)
    rows.sort(key=lambda row: (row.group, row.key))
    total += len({(row.group, row.key % 50) for row in rows})
    for _ in range(4):
        total += len(np.unique(_CODES))
    values = _TABLE[:200]
    for _ in range(50):
        values = np.sort(values * 1.0001)[::-1]
    return total + float(_TABLE[_PROBES].sum()) + float(values[0])


def kernel_seconds() -> float:
    """Wall time of the fixed kernel now (garbage collection held off)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
