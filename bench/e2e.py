#!/usr/bin/env python3
"""End-to-end wall time, CPU time and peak RSS of pixmap commands, for two checkouts side by side.

Usage: python3 bench/e2e.py --base CHECKOUT --out BENCH.json [--runs 5] [--work DIR]

Compares the checkout named by ``--base`` with the checkout holding this
script (the "tree"). Every command runs as ``python -m pixmap.cli`` in a
child process, with ``PYTHONPATH`` at the side's ``src`` and BLAS at one
thread. The inputs are made once, by the tree, and both sides read the same
files:

* ``gen --confound --n 64 --seed 701`` (the report corpus), weights from
  ``train --reducer highpass --seed 701`` on it, and ``gen --n 32 --size
  128 --seed 701`` (the spectrum corpus).

The timed commands, each run ``--runs`` times per side:

* ``--version``;
* ``gen --n 32 --size 128 --seed 701`` and ``gen --confound --n 64 --seed
  701``, each into a new directory;
* ``train --reducer highpass --seed 701``, ``eval --reducer highpass`` of the
  weights above and ``report --epochs 2 --seed 701``, on the report corpus;
* ``spectrum --reducer highpass`` of the spectrum corpus.

Each round runs every command once on both sides, the base first in even
rounds and the tree first in odd ones. For each command and side the JSON
holds every run's wall time (``perf_counter`` around the child), CPU time
(user plus system time from ``wait4``, which counts the worker processes
the command reaped) and maximum RSS (``wait4``'s ``ru_maxrss``: the largest
of the command and its reaped workers), with the median and quartiles of
wall and CPU time and the largest RSS. The summary it prints gives each
median with the base side's interquartile range, so a difference can be
read against the spread of the base runs. Last, each side runs ``report
--epochs 10`` on ``gen --confound --n 128 --seed 701`` once, and the JSON
holds its CSV and the CSV's sha256, so a change that moves the accuracies
shows.

The JSON also records the numpy version and its BLAS, the CPU count, the
BLAS thread setting and each side's git commit (with ``-dirty`` when its
tracked files differ from that commit). A command that fails stops the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TREE = Path(__file__).resolve().parents[1]
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SEED = "701"


def run(checkout: Path, args, cwd: Path) -> dict:
    """Run one pixmap command of ``checkout`` in ``cwd``: its wall time, CPU time and max RSS."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **THREAD_ENV)
    argv = [sys.executable, "-m", "pixmap.cli", *map(str, args)]
    with tempfile.TemporaryFile() as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here: Popen must not wait again
        if proc.returncode != 0:
            stderr.seek(0)
            detail = stderr.read().decode(errors="replace")
            raise SystemExit(f"{checkout}: pixmap {' '.join(map(str, args))} exited {proc.returncode}: {detail}")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mib": usage.ru_maxrss / 1024.0}


def quartiles(values) -> list[float]:
    """First and third quartile of ``values``, by ``statistics.quantiles`` as perfbench/compare.py takes them."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def commit(checkout: Path) -> str | None:
    """``checkout``'s git commit, with ``-dirty`` if its tracked files differ from it; None outside git."""
    try:
        out = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--abbrev=40", "--dirty"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def environment(base: Path) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREAD_ENV,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": {"base": commit(base), "tree": commit(TREE)},
    }


def commands(inputs: Path, out: Path) -> dict:
    """The timed commands by name; each writes under ``out``, which is new for every run."""
    report, spectrum = inputs / "report", inputs / "spectrum"
    return {
        "--version": ["--version"],
        "gen --n 32 --size 128": ["gen", "--out", out / "g", "--n", 32, "--size", 128, "--seed", SEED],
        "gen --confound --n 64": ["gen", "--out", out / "g", "--confound", "--n", 64, "--seed", SEED],
        "train": ["train", "--data", report, "--reducer", "highpass", "--seed", SEED, "--out", out / "m.w1"],
        "eval": ["eval", "--model", inputs / "m.w1", "--data", report, "--reducer", "highpass"],
        "report --epochs 2": ["report", "--data", report, "--epochs", 2, "--seed", SEED, "--out", out / "r.csv"],
        "spectrum --reducer highpass": ["spectrum", "--in", spectrum, "--reducer", "highpass",
                                        "--out", out / "p.csv"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="checkout to compare with this one")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--runs", type=int, default=5, help="timed runs per command and side")
    parser.add_argument("--work", default=None, help="scratch directory (default: a new temporary one)")
    args = parser.parse_args(argv)
    sides = {"base": Path(args.base).resolve(), "tree": TREE}
    work = Path(tempfile.mkdtemp(prefix="pixmap-e2e-", dir=args.work))
    try:
        inputs = work / "inputs"
        run(TREE, ["gen", "--out", inputs / "report", "--confound", "--n", 64, "--seed", SEED], work)
        run(TREE, ["gen", "--out", inputs / "spectrum", "--n", 32, "--size", 128, "--seed", SEED], work)
        run(TREE, ["train", "--data", inputs / "report", "--reducer", "highpass", "--seed", SEED,
                   "--out", inputs / "m.w1"], work)
        samples = {name: {side: [] for side in sides} for name in commands(inputs, work)}
        for round_ in range(args.runs):
            for name in samples:
                for side in sorted(sides, reverse=bool(round_ % 2)):
                    out = work / "out"
                    out.mkdir()
                    samples[name][side].append(run(sides[side], commands(inputs, out)[name], work))
                    shutil.rmtree(out)
        report_csv = {}
        run(TREE, ["gen", "--out", inputs / "n128", "--confound", "--n", 128, "--seed", SEED], work)
        for side, checkout in sides.items():
            csv_path = work / f"{side}.csv"
            run(checkout, ["report", "--data", inputs / "n128", "--epochs", 10, "--out", csv_path], work)
            text = csv_path.read_text()
            report_csv[side] = {"csv": text, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = {}
    for name, by_side in samples.items():
        results[name] = {
            side: {
                "median_wall_s": statistics.median(r["wall_s"] for r in runs),
                "quartiles_wall_s": quartiles([r["wall_s"] for r in runs]),
                "median_cpu_s": statistics.median(r["cpu_s"] for r in runs),
                "quartiles_cpu_s": quartiles([r["cpu_s"] for r in runs]),
                "max_rss_mib": max(r["rss_mib"] for r in runs),
                "runs": runs,
            }
            for side, runs in by_side.items()
        }
    record = {
        "script": "bench/e2e.py",
        "runs_per_side": args.runs,
        "order": "alternating: base first in even rounds, tree first in odd rounds",
        "environment": environment(sides["base"]),
        "commands": {name: " ".join(map(str, argv)) for name, argv in commands(Path("INPUTS"), Path("OUT")).items()},
        "results": results,
        "report_epochs_10": {"corpus": f"gen --confound --n 128 --seed {SEED}", **report_csv},
    }
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("medians base -> tree, with the base side's interquartile range in brackets")
    for name, by_side in results.items():
        base, tree = by_side["base"], by_side["tree"]
        wall_iqr = base["quartiles_wall_s"][1] - base["quartiles_wall_s"][0]
        cpu_iqr = base["quartiles_cpu_s"][1] - base["quartiles_cpu_s"][0]
        print(f"{name:28s} wall {base['median_wall_s']:.3f} -> {tree['median_wall_s']:.3f} s [{wall_iqr:.3f}]   "
              f"cpu {base['median_cpu_s']:.3f} -> {tree['median_cpu_s']:.3f} s [{cpu_iqr:.3f}]   "
              f"rss {base['max_rss_mib']:.2f} -> {tree['max_rss_mib']:.2f} MiB")
    same = report_csv["base"]["sha256"] == report_csv["tree"]["sha256"]
    print(f"report --epochs 10 CSV sha256: {report_csv['tree']['sha256']} ({'same' if same else 'DIFFERS'} on both sides)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
