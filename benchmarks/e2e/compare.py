"""``run.py compare BASE_DIR CHANGE_DIR``: a verdict per workload and metric.

Each directory holds the untraced result files ``run.py --out DIR`` wrote,
ideally one per (workload, seed) with the same seeds on both sides.  For
every end-to-end metric in ``BENCHMARK.json`` this prints each side's median
and quartiles and one verdict:

* ``unresolved`` — either side's quartile spread (as a share of its median)
  exceeds the metric's bound, unless every change run beats every base run;
* ``worse`` — the change's median is worse than the base's by more than the
  bound (with a spread beyond the bound, only if every change run is also
  worse than every base run);
* ``better`` — the change wins at least 9 of every 10 seed-paired runs (ties
  count for neither) and the medians differ by more than the base's own
  quartile spread;
* ``same`` — otherwise.

Results whose corpus digests differ measured different inputs and are not
compared.  Exit status: 0 when no verdict is worse or unresolved, 1 when one
is, 2 when the inputs cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple


def load(directory: str) -> Dict[str, Dict[int, dict]]:
    """``{workload: {seed: record}}`` of the untraced results in ``directory``."""
    results: Dict[str, Dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*-t0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        results.setdefault(record["workload"], {})[record["seed"]] = record
    return results


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def verdict(
    base: Sequence[float],
    change: Sequence[float],
    pairs: Sequence[Tuple[float, float]],
    bound: float,
    higher_is_better: bool,
) -> str:
    sign = 1.0 if higher_is_better else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    change_q1, change_median, change_q3 = quartiles(change)
    spread = max(
        (base_q3 - base_q1) / abs(base_median) if base_median else 0.0,
        (change_q3 - change_q1) / abs(change_median) if change_median else 0.0,
    )
    all_better = min(sign * value for value in change) > max(sign * value for value in base)
    all_worse = max(sign * value for value in change) < min(sign * value for value in base)
    gain = sign * (change_median - base_median) / abs(base_median) if base_median else 0.0
    if spread > bound and not all_better:
        return "worse" if all_worse and gain < -bound else "unresolved"
    if gain < -bound:
        return "worse"
    wins = sum(sign * (after - before) > 0 for before, after in pairs)
    if (
        gain > 0
        and wins >= 0.9 * len(pairs)
        and abs(change_median - base_median) > base_q3 - base_q1
    ):
        return "better"
    return "same"


def main(argv: List[str], spec: dict) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    digests = {
        record["corpus_sha256"]
        for side in (base, change)
        for runs in side.values()
        for record in runs.values()
    }
    if len(digests) != 1:
        print(
            f"refusing to compare: {len(digests)} corpus digests across the results",
            file=sys.stderr,
        )
        return 2
    verdicts = []
    print("workload  metric          base: median [q1 q3]  change: median [q1 q3]  verdict")
    for workload in sorted(set(base) & set(change)):
        before_runs, after_runs = base[workload], change[workload]
        seeds = sorted(set(before_runs) & set(after_runs))
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def value(record: dict) -> float:
                return record["metrics"][name]["value"]

            before = [value(record) for record in before_runs.values()]
            after = [value(record) for record in after_runs.values()]
            if seeds:
                pairs = [(value(before_runs[s]), value(after_runs[s])) for s in seeds]
            else:
                pairs = list(zip(sorted(before), sorted(after)))
            result = verdict(
                before, after, pairs, metric["bound"], metric["better"] == "higher"
            )
            verdicts.append(result)
            b1, bm, b3 = quartiles(before)
            c1, cm, c3 = quartiles(after)
            change_pct = 100.0 * (cm - bm) / abs(bm) if bm else 0.0
            print(
                f"{workload:9} {name:14}  {bm:.4g} [{b1:.4g} {b3:.4g}]  "
                f"{cm:.4g} [{c1:.4g} {c3:.4g}]  {change_pct:+.1f}%  {result}"
            )
    missing = sorted(set(base) ^ set(change))
    if missing:
        print(f"workloads on one side only: {', '.join(missing)}", file=sys.stderr)
    return 1 if {"worse", "unresolved"} & set(verdicts) else 0
