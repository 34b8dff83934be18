#!/usr/bin/env python3
"""Compare two pixmap checkouts end to end: output bytes, wall and CPU time, peak RSS and code size.

Usage: python3 bench/e2e.py --base CHECKOUT --out BENCH.json [--runs 5] [--work DIR]

``--runs`` below 4 is a usage error, raised before any work: compare.py
also reads ``better`` when every tree run beats every base run, which by
chance happens once in C(2r, r) orderings (1 in 2 at one run, 1 in 70 at
four).

Compares the checkout named by ``--base`` with the checkout holding this
script (the "tree"). Every pixmap command runs through :func:`run` as
``python -m pixmap.cli`` in a child process, with ``PYTHONPATH`` at the
side's ``src`` and BLAS at one thread. Everything is written under a new
directory in ``--work`` (default: the system's temporary directory), which
is removed at the end. The JSON holds four comparisons.

**Outputs.** Each side runs the digest commands below one at a time, in a
directory of its own, and lists one ``sha256  relpath`` line per file in
it, sorted by path; one ``sha256  stdout of ARGS`` line per command, in
run order; and one ``sha256  stderr of ARGS`` line per failing command,
over its exit code and stderr. A ``run.json`` is hashed without its
``started_utc`` and ``duration_s`` fields, and the directory is replaced
by ``<work>`` in a ``run.json``, a stdout or stderr and ARGS, so two
checkouts that write and print the same bytes list the same lines.
``outputs`` holds each side's line count and the sha256 of its lines (each
ending in a newline), ``identical``, and the lines' unified diff when they
differ. The digest commands:

* ``gen --confound --n 64 --seed S`` and ``report --epochs 2`` on it, for S = 701..710;
* ``gen --n 32 --size 128 --seed 701``;
* ``gen --n 8 --seed 703`` with the zero-insert upsampler on train, nearest
  on test and ``--noise-sigma 0``, so every upsampler and the noise-free
  branch of the generator are covered;
* ``train --reducer random --epochs 3 --seed 701`` on the seed-701 confound
  corpus, and ``eval`` of those weights on its test split, with ``--out``
  and without, when it only prints;
* ``train --reducer highpass --crop 31 --epochs 3 --seed 702`` on the same
  corpus and ``eval --out`` of those weights: an odd crop, so conv1's
  output has odd sides and the mean pool has partial windows;
* ``spectrum --heatmap`` of the 128-px corpus for each of the six reducers
  that perfbench's spectrum-sweep runs, uncropped and with ``--crop 64``;
* ``map`` of one 128-px image for the same six reducers, with
  ``--table-csv`` for ``fixed`` and ``random``;
* then eight that fail: ``spectrum`` of a truncated PPM, ``map`` of a
  ``P5`` file, ``eval`` of weights holding a ``nan``, ``report --crop 30``
  (which no ``shuffle:8`` patch divides), and four commands with one output
  in a missing directory (``train --out``, ``eval --out``, ``map
  --table-csv``, ``spectrum --heatmap``).

**Timings.** The timed commands read the tree's digest corpora ``gen
--confound --n 64 --seed 701`` (the report corpus) and ``gen --n 32 --size
128 --seed 701`` (the spectrum corpus), and weights the tree trains on the
report corpus with ``train --reducer highpass --seed 701``. Each runs
``--runs`` times per side:

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
wall and CPU time and the median and largest RSS. For wall time, CPU time
and RSS, ``verdicts`` holds perfbench/compare.py's ``verdict`` and the
tree's win share, over the base and tree runs of each round taken as a
pair, with BENCHMARK.json's bound for ``wall_s``, ``cpu_s`` and
``peak_rss_mb``. The printed summary gives the medians with them.

**Report CSV.** Each side runs ``report --epochs 10`` on ``gen --confound
--n 128 --seed 701`` once; the JSON holds its CSV and the CSV's sha256, so
a change that moves the accuracies shows.

**Code size.** ``src_lines`` holds each side's ``total`` row of
``tools/src_lines.py --src``, as this checkout's script counts it.

The JSON also records the numpy version and its BLAS, the CPU count, the
BLAS thread setting and each side's git commit (with ``-dirty`` when its
tracked files differ from that commit). A command that should succeed and
fails stops the run.
"""

from __future__ import annotations

import argparse
import difflib
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
sys.path.insert(0, str(TREE / "perfbench"))
import compare  # noqa: E402  (perfbench/compare.py)

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SEED = "701"
DIGEST_SEEDS = range(701, 711)
SPECTRUM_REDUCERS = ("none", "fixed", "random", "highpass", "npr", "shuffle:8")
CLOCK_FIELDS = ("started_utc", "duration_s")
# Each BENCHMARK.json metric compared per command, and the key of a run that holds it.
VERDICT_METRICS = {"wall_s": "wall_s", "cpu_s": "cpu_s", "peak_rss_mb": "rss_mib"}
MIN_RUNS = 4


def run(checkout: Path, args, cwd: Path) -> dict:
    """Run one pixmap command of ``checkout`` in ``cwd``: exit code, stdout, stderr, wall and CPU time, max RSS."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **THREAD_ENV)
    argv = [sys.executable, "-m", "pixmap.cli", *map(str, args)]
    with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here: Popen must not wait again
        printed = []
        for stream in (stdout, stderr):
            stream.seek(0)
            printed.append(stream.read().decode(errors="replace"))
    return {"code": proc.returncode, "stdout": printed[0], "stderr": printed[1],
            "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mib": usage.ru_maxrss / 1024.0}


def succeed(checkout: Path, args, cwd: Path) -> dict:
    """:func:`run`, stopping the script if the command fails."""
    result = run(checkout, args, cwd)
    if result["code"] != 0:
        raise SystemExit(f"{checkout}: pixmap {' '.join(map(str, args))} exited {result['code']}: {result['stderr']}")
    return result


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_commands(work: Path):
    """The digest commands that succeed, as argument lists with absolute paths under ``work``."""
    for seed in DIGEST_SEEDS:
        corpus = work / f"confound{seed}"
        yield ["gen", "--confound", "--n", "64", "--seed", str(seed), "--out", corpus]
        yield ["report", "--data", corpus, "--epochs", "2", "--out", work / f"report{seed}.csv"]
    big = work / "gen128"
    yield ["gen", "--n", "32", "--size", "128", "--seed", "701", "--out", big]
    yield ["gen", "--n", "8", "--seed", "703", "--train-upsampler", "zero_insert_conv",
           "--test-upsampler", "nearest", "--noise-sigma", "0", "--out", work / "zero703"]
    model = work / "random.w1"
    yield ["train", "--data", work / "confound701", "--reducer", "random", "--epochs", "3",
           "--seed", "701", "--out", model]
    yield ["eval", "--model", model, "--data", work / "confound701", "--reducer", "random",
           "--out", work / "eval.csv"]
    yield ["eval", "--model", model, "--data", work / "confound701", "--reducer", "random"]
    odd = work / "highpass-crop31.w1"
    yield ["train", "--data", work / "confound701", "--reducer", "highpass", "--crop", "31",
           "--epochs", "3", "--seed", "702", "--out", odd]
    yield ["eval", "--model", odd, "--data", work / "confound701", "--reducer", "highpass",
           "--out", work / "eval-highpass-crop31.csv"]
    for reducer in SPECTRUM_REDUCERS:
        name = reducer.replace(":", "")
        for crop in ([], ["--crop", "64"]):
            stem = work / f"spectrum-{name}{'-crop64' if crop else ''}"
            yield ["spectrum", "--in", big, "--reducer", reducer, "--seed", "701", *crop,
                   "--out", f"{stem}.csv", "--heatmap", f"{stem}.pgm"]
        table = ["--table-csv", work / f"map-{name}.csv"] if reducer in ("fixed", "random") else []
        yield ["map", "--in", big / "test" / "fake_0000.ppm", "--reducer", reducer, "--seed", "701",
               "--out", work / f"map-{name}.imf", *table]


def failing_commands(work: Path) -> list:
    """Write the bad inputs under ``work/bad`` and return the failing digest commands, which read them."""
    bad = work / "bad"
    (bad / "truncated").mkdir(parents=True)
    (bad / "truncated" / "short.ppm").write_bytes(b"P6\n2 2\n255\n" + bytes(11))
    (bad / "gray.ppm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    lines = (work / "random.w1").read_text().splitlines()
    row = lines.index("tensor conv1_w 8 3 3 3") + 1
    lines[row] = " ".join(["nan", *lines[row].split()[1:]])
    (bad / "nan.w1").write_text("\n".join(lines) + "\n")
    corpus = work / "confound701"
    return [
        ["spectrum", "--in", bad / "truncated", "--out", work / "bad-spectrum.csv"],
        ["map", "--in", bad / "gray.ppm", "--reducer", "none", "--out", work / "bad-map.imf"],
        ["eval", "--model", bad / "nan.w1", "--data", corpus, "--reducer", "random"],
        ["train", "--data", corpus, "--reducer", "none", "--epochs", "1", "--out", work / "missing" / "m.w1"],
        ["eval", "--model", work / "random.w1", "--data", corpus, "--reducer", "random",
         "--out", work / "missing" / "e.csv"],
        ["report", "--data", corpus, "--crop", "30", "--out", work / "bad-report.csv"],
        ["map", "--in", work / "gen128" / "test" / "fake_0000.ppm", "--reducer", "random",
         "--out", work / "bad-map-table.imf", "--table-csv", work / "missing" / "t.csv"],
        ["spectrum", "--in", work / "gen128", "--out", work / "bad-spectrum-heatmap.csv",
         "--heatmap", work / "missing" / "h.pgm"],
    ]


def digests(checkout: Path, work: Path) -> list[str]:
    """``checkout``'s digest lines: run every digest command in the new directory ``work``, then hash the outputs."""
    work.mkdir()

    def anonymous(text: str) -> str:
        return text.replace(str(work), "<work>")

    def line(text: str, stream: str, args) -> str:
        return f"{sha256(anonymous(text).encode())}  {stream} of {anonymous(' '.join(map(str, args)))}"

    def digest(path: Path) -> str:
        data = path.read_bytes()
        if path.name.endswith("run.json"):
            manifest = json.loads(data)
            for key in CLOCK_FIELDS:
                manifest.pop(key)
            data = anonymous(json.dumps(manifest, sort_keys=True)).encode()
        return f"{sha256(data)}  {path.relative_to(work).as_posix()}"

    printed = [line(succeed(checkout, args, work)["stdout"], "stdout", args) for args in digest_commands(work)]
    for args in failing_commands(work):
        result = run(checkout, args, work)
        printed += [line(result["stdout"], "stdout", args), line(f"{result['code']}\n{result['stderr']}", "stderr", args)]
    return [digest(path) for path in sorted(p for p in work.rglob("*") if p.is_file())] + printed


def timed_commands(inputs: Path, out: Path) -> dict:
    """The timed commands by name; each reads the tree's digest directory ``inputs`` and writes under ``out``."""
    report, spectrum = inputs / "confound701", inputs / "gen128"
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


def src_lines(checkout: Path) -> dict:
    """The ``total`` row of ``tools/src_lines.py --src CHECKOUT``, counted by this checkout's script."""
    script = TREE / "tools" / "src_lines.py"
    out = subprocess.run([sys.executable, script, "--src", checkout], capture_output=True, text=True, check=True)
    *counts, _ = out.stdout.splitlines()[-1].split()
    return dict(zip(("lines", "code", "docstring", "comment", "blank"), map(int, counts)))


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="checkout to compare with this one")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--runs", type=int, default=5, help=f"timed runs per command and side (at least {MIN_RUNS})")
    parser.add_argument("--work", default=None, help="scratch directory (default: a new temporary one)")
    args = parser.parse_args(argv)
    if args.runs < MIN_RUNS:
        parser.error(f"--runs must be at least {MIN_RUNS}, got {args.runs}")
    sides = {"base": Path(args.base).resolve(), "tree": TREE}
    work = Path(tempfile.mkdtemp(prefix="pixmap-e2e-", dir=args.work)).resolve()
    try:
        lines = {side: digests(checkout, work / side) for side, checkout in sides.items()}
        inputs = work / "tree"
        succeed(TREE, ["train", "--data", inputs / "confound701", "--reducer", "highpass", "--seed", SEED,
                       "--out", inputs / "m.w1"], work)
        samples = {name: {side: [] for side in sides} for name in timed_commands(inputs, work)}
        for round_ in range(args.runs):
            for name in samples:
                for side in sorted(sides, reverse=bool(round_ % 2)):
                    out = work / "out"
                    out.mkdir()
                    result = succeed(sides[side], timed_commands(inputs, out)[name], work)
                    samples[name][side].append({key: result[key] for key in ("wall_s", "cpu_s", "rss_mib")})
                    shutil.rmtree(out)
        report_csv = {}
        succeed(TREE, ["gen", "--out", work / "n128", "--confound", "--n", 128, "--seed", SEED], work)
        for side, checkout in sides.items():
            csv_path = work / f"{side}.csv"
            succeed(checkout, ["report", "--data", work / "n128", "--epochs", 10, "--out", csv_path], work)
            text = csv_path.read_text()
            report_csv[side] = {"csv": text, "sha256": sha256(text.encode())}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outputs = {side: {"lines": len(printed), "sha256": sha256("".join(f"{x}\n" for x in printed).encode())}
               for side, printed in lines.items()}
    outputs["identical"] = lines["base"] == lines["tree"]
    if not outputs["identical"]:
        outputs["differing"] = list(difflib.unified_diff(lines["base"], lines["tree"], "base", "tree", n=0, lineterm=""))
    bounds = {m["name"]: m["bound"] for m in json.loads(compare.BENCHMARK_JSON.read_text())["end_to_end"]}
    results = {}
    for name, by_side in samples.items():
        results[name] = {
            side: {
                "median_wall_s": statistics.median(r["wall_s"] for r in runs),
                "quartiles_wall_s": compare.quartiles([r["wall_s"] for r in runs])[::2],
                "median_cpu_s": statistics.median(r["cpu_s"] for r in runs),
                "quartiles_cpu_s": compare.quartiles([r["cpu_s"] for r in runs])[::2],
                "median_rss_mib": statistics.median(r["rss_mib"] for r in runs),
                "max_rss_mib": max(r["rss_mib"] for r in runs),
                "runs": runs,
            }
            for side, runs in by_side.items()
        }
        results[name]["verdicts"] = {}
        for metric, key in VERDICT_METRICS.items():
            base, tree = ([r[key] for r in by_side[side]] for side in ("base", "tree"))
            # Round i ran both sides back to back, so its two runs are a pair.
            win_share, verdict = compare.verdict(base, tree, list(zip(base, tree)), "lower", bounds[metric])
            results[name]["verdicts"][metric] = {"verdict": verdict, "win_share": win_share, "bound": bounds[metric]}
    code = {side: src_lines(checkout) for side, checkout in sides.items()}
    record = {
        "script": "bench/e2e.py",
        "runs_per_side": args.runs,
        "order": "alternating: base first in even rounds, tree first in odd rounds",
        "environment": environment(sides["base"]),
        "outputs": outputs,
        "commands": {name: " ".join(map(str, argv))
                     for name, argv in timed_commands(Path("INPUTS"), Path("OUT")).items()},
        "results": results,
        "report_epochs_10": {"corpus": f"gen --confound --n 128 --seed {SEED}", **report_csv},
        "src_lines": code,
    }
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    same = "identical" if outputs["identical"] else f"DIFFER ({len(outputs['differing'])} diff lines)"
    print(f"digest lines: {outputs['base']['lines']} -> {outputs['tree']['lines']}, {same}")
    for diff_line in outputs.get("differing", []):
        print(diff_line)
    print("medians base -> tree (the tree's win share over the rounds, perfbench/compare.py's verdict)")
    for name, result in results.items():
        cells = []
        for metric, key in VERDICT_METRICS.items():
            base, tree, v = result["base"][f"median_{key}"], result["tree"][f"median_{key}"], result["verdicts"][metric]
            cells.append(f"{metric} {base:.3f} -> {tree:.3f} ({v['win_share']:.2f} {v['verdict']})")
        print(f"{name:28s} " + "   ".join(cells))
    same = report_csv["base"]["sha256"] == report_csv["tree"]["sha256"]
    print(f"report --epochs 10 CSV sha256: {report_csv['tree']['sha256']} ({'same' if same else 'DIFFERS'} on both sides)")
    print(f"src/ lines: {code['base']['lines']} -> {code['tree']['lines']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
