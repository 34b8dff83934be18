#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny input size.

Usage, from the root of a checkout: python3 perfbench/selftest.py

For every workload, with ``--trace 0`` and ``--trace 1`` at ``--size tiny``,
it asserts that the benchmark exits 0 with a last stdout line holding
exactly ``correct``, ``attempted``, ``failed`` and ``metrics``; that the run
is correct with no failed command; and that every metric named in
BENCHMARK.json is emitted with its unit, and recorded in the run record
with its direction. It also asserts that workloads other than
report-confounded record zero ``detector.*`` calls, that a second untraced
run with the same seed reproduces every output hash, that BENCHMARK.json's
per-layer list matches perfbench/layers.json, and that the benchmark exits
nonzero without a result in a directory that holds only BENCHMARK.json and
the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".perfbench_work" / "selftest"
TIMEOUT_S = 180


def run_bench(cwd: Path, workload: str, trace: int, runs_dir: Path) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny", "--runs-dir", str(runs_dir)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def latest_record(runs_dir: Path, workload: str, trace: int) -> dict:
    paths = sorted((runs_dir / workload).glob(f"*-trace{trace}-*.json"), key=lambda p: p.stat().st_mtime)
    check(bool(paths), f"{workload}: no run record written")
    return json.loads(paths[-1].read_text(encoding="utf-8"))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    expected = {0: {m["name"]: m for m in spec["end_to_end"]}, 1: {m["name"]: m for m in spec["per_layer"]}}

    traced = [name for group in layers["groups"] for name in group["functions"]]
    layer_names = [f"{name}.{kind}" for name in traced for kind in ("calls", "self_s")]
    check(list(expected[1]) == layer_names + list(layers["trace_metrics"]),
          "BENCHMARK.json per_layer does not match layers.json")
    for group in layers["groups"]:
        named = set(group["moves"]) | set(group["unmoved_on"])
        check(named <= set(workloads), f"layers.json names unknown workloads {named - set(workloads)}")

    if SCRATCH.exists():
        shutil.rmtree(SCRATCH)
    runs_dir = SCRATCH / "runs"
    try:
        for workload in workloads:
            hashes = []
            for trace in (0, 1, 0):
                done = run_bench(ROOT, workload, trace, runs_dir)
                label = f"{workload} --trace {trace}"
                check(done.returncode == 0, f"{label}: exit {done.returncode}: {done.stderr.strip()}")
                result = json.loads(done.stdout.strip().splitlines()[-1])
                check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: result keys")
                check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                      f"{label}: not correct: {done.stdout.strip()}")
                check(set(result["metrics"]) == set(expected[trace]), f"{label}: metric names differ")
                record = latest_record(runs_dir, workload, trace)
                for name, meta in expected[trace].items():
                    emitted = result["metrics"][name]
                    check(isinstance(emitted["value"], (int, float)), f"{label}: {name} is not a number")
                    check(emitted["unit"] == meta["unit"], f"{label}: {name} unit {emitted['unit']}")
                    check(record["metrics"][name]["better"] == meta["better"], f"{label}: {name} direction")
                if trace == 1 and workload != "report-confounded":
                    detector_calls = {k: v["value"] for k, v in result["metrics"].items()
                                      if k.startswith("detector.") and k.endswith(".calls")}
                    check(not any(detector_calls.values()), f"{label}: detector calls {detector_calls}")
                if trace == 0:
                    hashes.append(record["hashes"])
            check(hashes[0] == hashes[1] and hashes[0], f"{workload}: output hashes differ between runs")
            print(f"ok {workload}")

        bare = SCRATCH / "bare"
        bare.mkdir()
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(bare, workloads[0], 0, bare / "runs")
        check(done.returncode != 0, "benchmark succeeded without the pixmap sources")
        check(not done.stdout.strip(), "benchmark printed a result without the pixmap sources")
        print("ok no-sources exit")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
