"""Summarise benchmark result files: median, quartiles and spread per metric.

Usage (from the repository root)::

    python3 perfbench/summarize.py [RESULT.json ...]

With no arguments it reads every ``perfbench/out/*-trace0.json``.  For each
workload and end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread (quartile
distance over the median) next to the metric's bound from
``BENCHMARK.json``.  Results from hosts with different fingerprints are
flagged and summarised apart, never pooled.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def summarise(paths: list[Path]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}
    groups: dict[tuple[str, str], list[dict]] = defaultdict(list)
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        groups[(record["host"]["fingerprint"], record["workload"])].append(record)
    hosts = {host for host, _ in groups}
    if len(hosts) > 1:
        print(f"! results come from {len(hosts)} different hosts {sorted(hosts)}; not comparable")
    worst = 0
    for (host, workload), records in sorted(groups.items()):
        failed = sum(record["failed"] for record in records)
        attempted = sum(record["attempted"] for record in records)
        print(f"{workload}  host {host}  runs {len(records)}  failed {failed}/{attempted}")
        for name, bound in bounds.items():
            values = [record["metrics"][name]["value"] for record in records]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median
            flag = ""
            if bound and spread > bound / 3:
                flag = "  > bound/3" if spread <= bound else "  > bound"
                worst = max(worst, 1 if spread <= bound else 2)
            print(
                f"  {name:<28} median {median:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                f"spread {spread:.4f} (bound {bound}){flag}"
            )
    return 1 if worst == 2 else 0


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or sorted((ROOT / "perfbench" / "out").glob("*-trace0.json"))
    if not paths:
        print("no result files", file=sys.stderr)
        return 2
    return summarise(paths)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
