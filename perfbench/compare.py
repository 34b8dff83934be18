#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

Usage: python3 perfbench/compare.py BASE_RUNS_DIR NEW_RUNS_DIR

Each directory holds the JSON run records that perfbench/run.py writes to
its ``--runs-dir``. For every (workload, metric) this prints each set's
median and quartiles, the share of pairs the new set wins, and a verdict:

- better: the new set wins at least 9 in 10 pairs (ties count for neither)
  and its median beats the base median by more than the distance between
  the base quartiles; or every new run beats every base run.
- unresolved: otherwise, when the base quartile spread, as a share of its
  median, exceeds the metric's bound in BENCHMARK.json.
- worse: the new median is worse than the base median by more than the
  bound, as a share of the base median.
- unchanged: none of the above.

Per-layer metrics have no bound; they get better, worse (the same win rule
in the other direction) or "no claim". Runs are paired by seed when both
sets hold the same seeds, and otherwise in the order they finished.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """Run records grouped by (workload, trace), oldest first."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(directory.rglob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if "metrics" in record and "workload" in record:
            groups.setdefault((record["workload"], record["trace"]), []).append(record)
    for records in groups.values():
        records.sort(key=lambda r: r["finished_utc"])
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    base_by_seed = {r["seed"]: r for r in base}
    new_by_seed = {r["seed"]: r for r in new}
    if len(base_by_seed) == len(base) and base_by_seed.keys() == new_by_seed.keys():
        return [(base_by_seed[s], new_by_seed[s]) for s in sorted(base_by_seed)]
    return list(zip(base, new))


def verdict(base: list[float], new: list[float], paired: list[tuple[float, float]],
            better: str, bound: float | None) -> tuple[float, str]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, n in paired if sign * (n - b) > 0)
    win_share = wins / len(paired) if paired else 0.0
    b1, bmed, b3 = quartiles(base)
    nmed = statistics.median(new)
    gain = sign * (nmed - bmed)
    if (win_share >= 0.9 and gain > b3 - b1) or min(sign * n for n in new) > max(sign * b for b in base):
        return win_share, "better"
    if bound is None:
        losses = sum(1 for b, n in paired if sign * (n - b) < 0)
        if paired and losses / len(paired) >= 0.9 and -gain > b3 - b1:
            return win_share, "worse"
        return win_share, "no claim"
    scale = abs(bmed) or 1.0
    if (b3 - b1) / scale > bound:
        return win_share, "unresolved"
    if -gain > bound * scale:
        return win_share, "worse"
    return win_share, "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]}
    base_runs, new_runs = load_runs(Path(argv[0])), load_runs(Path(argv[1]))
    header = f"{'workload':18} {'metric':36} {'base q1/median/q3':>32} {'new q1/median/q3':>32} {'n':>5} {'wins':>5}  verdict"
    print(header)
    for key in sorted(base_runs.keys() & new_runs.keys()):
        base, new = base_runs[key], new_runs[key]
        for name, meta in base[0]["metrics"].items():
            b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
            if not b or not n:
                continue
            paired = [(pb["metrics"][name]["value"], pn["metrics"][name]["value"])
                      for pb, pn in pairs(base, new) if name in pb["metrics"] and name in pn["metrics"]]
            win_share, result = verdict(b, n, paired, meta["better"], bounds.get(name))
            bq, nq = quartiles(b), quartiles(n)
            print(f"{key[0]:18} {name:36} {'/'.join(f'{v:.4g}' for v in bq):>32} "
                  f"{'/'.join(f'{v:.4g}' for v in nq):>32} {len(b):>2}/{len(n):<2} {win_share:>5.2f}  {result}")
    missing = sorted(base_runs.keys() ^ new_runs.keys())
    if missing:
        print(f"only in one set: {missing}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
