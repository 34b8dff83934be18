#!/usr/bin/env python3
"""Benchmark of the pixmap CLI, driven the way a user drives it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload report-confounded --seed 1 --seconds 35 --trace 0

One client runs one ``pixmap`` command at a time in a child process (a
closed loop), with ``PYTHONPATH`` set to the checkout's ``src`` and BLAS
limited to one thread. Set-up builds the workload's inputs from ``--seed``;
the timed loop then repeats the workload's iteration until the next one
would end after ``--seconds``, and rebuilds the inputs several more times
along the way, for the median set-up time. Every output is checked and
hashed, and a repeated command must reproduce its bytes.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` the loop alternates untraced and traced iterations and
the last line carries the per-layer metrics, built from the spans that
perfbench/traced_cli.py records. Either way a JSON run record with the
metrics, output hashes and environment is written under ``--runs-dir``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from traced_cli import traced_functions

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCES = ROOT / "src" / "pixmap"

REPORT_REDUCERS = ("none", "highpass", "shuffle:8", "shuffle:2", "npr", "fixed", "random")
MAPPING_REDUCERS = ("fixed", "random")
SPECTRUM_REDUCERS = ("none", "fixed", "random", "highpass", "npr", "shuffle:8")

# Every command runs with single-threaded BLAS. On a machine of few shared
# cores a second BLAS thread mostly spins: it doubled CPU time, made the
# detector step slower, and let the load of other tenants set the result.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# n is images per class per split, so a corpus holds 4n images.
SIZES = {
    "full": {"report_n": 64, "report_epochs": 2, "spectrum_n": 32, "spectrum_size": 128,
             "setup_reps": 5},
    "tiny": {"report_n": 8, "report_epochs": 1, "spectrum_n": 4, "spectrum_size": 32,
             "setup_reps": 2},
}

END_TO_END = {  # name -> (unit, better)
    "wall_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
    "ok_frac": ("fraction", "higher"),
    "test_ap_mean": ("AP", "higher"),
    "test_ap_mapping": ("AP", "higher"),
}
# Workloads that train no detector report the AP metrics as this constant.
NOT_APPLICABLE = 1.0


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    metrics = {}
    for name in traced_functions():
        metrics[f"{name}.calls"] = ("count", "lower")
        metrics[f"{name}.self_s"] = ("s", "lower")
    metrics["trace.overhead_frac"] = ("fraction", "lower")
    metrics["trace.remainder_s"] = ("s", "lower")
    return metrics


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path, skip=("run.json",)) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name not in skip):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# --- child processes ------------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stderr: str
    spans: dict | None = None


def run_child(argv: list[str], stderr_path: Path) -> Child:
    """Run one command to completion; wall time, CPU and peak RSS from wait4."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(os.devnull, "wb") as out, open(stderr_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, stderr)


def span_summary(doc: dict, wall_s: float) -> tuple[dict, dict, float, list[str]]:
    """Per-function calls and self time of one traced command.

    Self time is a span's duration minus the durations of its direct child
    spans. The remainder is the command's wall time covered by no root span.
    """
    names, spans = doc["names"], doc["spans"]
    problems = []
    if any(s is None for s in spans):
        problems.append("trace: a span never closed")
    closed = [(k, s) for k, s in enumerate(spans) if s is not None]
    child_time = [0.0] * len(spans)
    for _, (_, start, end, parent) in closed:
        if parent >= 0:
            child_time[parent] += end - start
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    root_s = 0.0
    for k, (index, start, end, parent) in closed:
        own = (end - start) - child_time[k]
        if own < -1e-9:
            problems.append(f"trace: {names[index]} children outlast their parent")
        calls[names[index]] += 1
        self_s[names[index]] += own
        if parent < 0:
            root_s += end - start
    remainder = wall_s - root_s
    if remainder < 0:
        problems.append(f"trace: spans cover {root_s:.6f} s of a {wall_s:.6f} s command")
    if abs(sum(self_s.values()) + remainder - wall_s) > 1e-6 * max(1.0, wall_s):
        problems.append("trace: self times plus remainder do not add up to the wall time")
    return calls, self_s, remainder, problems


# --- iterations -----------------------------------------------------------------


@dataclass
class Iteration:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    commands: int = 0
    failures: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    remainder_s: float = 0.0
    test_ap: dict[str, float] | None = None

    def add(self, label: str, child: Child) -> bool:
        """Account one command; False if it failed to run cleanly."""
        self.commands += 1
        self.wall_s += child.wall_s
        self.cpu_s += child.cpu_s
        self.rss_mb = max(self.rss_mb, child.rss_mb)
        if child.code != 0:
            tail = child.stderr.strip().splitlines()[-1:] or [""]
            self.failures.append(f"{label}: exit {child.code}: {tail[0]}")
            return False
        if child.spans is not None:
            calls, self_s, remainder, problems = span_summary(child.spans, child.wall_s)
            for name, count in calls.items():
                self.calls[name] = self.calls.get(name, 0) + count
                self.self_s[name] = self.self_s.get(name, 0.0) + self_s[name]
            self.remainder_s += remainder
            if problems:
                self.failures.append(f"{label}: {'; '.join(problems)}")
                return False
        return True

    def check(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")


def check_report_csv(path: Path) -> tuple[list[str], dict[str, float]]:
    lines = path.read_text(encoding="ascii").splitlines()
    problems, test_ap = [], {}
    if not lines or lines[0] != "reducer,train_acc,test_acc,test_ap":
        return ["report: unexpected CSV header"], test_ap
    rows = [line.split(",") for line in lines[1:]]
    if tuple(row[0] for row in rows) != REPORT_REDUCERS:
        problems.append(f"report: rows {[row[0] for row in rows]} are not {list(REPORT_REDUCERS)}")
    for row in rows:
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            values = []
        if len(values) != 3 or not all(0.0 <= v <= 1.0 for v in values):
            problems.append(f"report: row {row[0]} has values outside [0, 1]")
            continue
        test_ap[row[0]] = values[2]
    return problems, test_ap


def check_profile_csv(path: Path, size: int) -> list[str]:
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != "radius,mean_power,count":
        return ["spectrum: unexpected CSV header"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != size // 2 + 1:
        return [f"spectrum: {len(rows)} rows for a {size}-px image, expected {size // 2 + 1}"]
    try:
        radii = [int(r[0]) for r in rows]
        power = [float(r[1]) for r in rows]
        counts = [int(r[2]) for r in rows]
    except (ValueError, IndexError):
        return ["spectrum: malformed row"]
    problems = []
    if radii != list(range(len(rows))):
        problems.append("spectrum: radii are not 0..R")
    if sum(counts) != size * size:
        problems.append(f"spectrum: counts sum to {sum(counts)}, expected {size * size}")
    if not all(math.isfinite(p) and p >= 0.0 for p in power):
        problems.append("spectrum: negative or non-finite power")
    return problems


def check_gen_dir(path: Path, n: int) -> list[str]:
    problems = []
    images = len(list(path.rglob("*.ppm")))
    if images != 4 * n:
        problems.append(f"gen: {images} images, expected {4 * n}")
    for split in ("train", "test"):
        manifest = path / f"{split}_manifest.csv"
        rows = len(manifest.read_text(encoding="ascii").splitlines()) - 1 if manifest.is_file() else -1
        if rows != 2 * n:
            problems.append(f"gen: {split} manifest has {rows} rows, expected {2 * n}")
    return problems


class ReportConfounded:
    """`pixmap report` on a `gen --confound` corpus with default upsamplers."""

    name = "report-confounded"

    def __init__(self, size: dict, seed: int):
        self.n, self.epochs, self.seed = size["report_n"], size["report_epochs"], seed
        # training presentations plus eval scorings (train and test split), per reducer
        self.items = len(REPORT_REDUCERS) * (2 * self.n * self.epochs + 4 * self.n)
        self.input_size = f"{4 * self.n} 64-px images, {self.epochs} epochs, crop 32, 7 reducers"

    def setup(self, run: "Run", target: Path) -> list[Child]:
        return [run.cli(["gen", "--confound", "--n", str(self.n), "--seed", str(self.seed),
                         "--out", str(target)])]

    def iterate(self, run: "Run", corpus: Path, index: int, traced: bool) -> Iteration:
        it = Iteration(traced)
        out = run.work / f"report_{index}.csv"
        args = ["report", "--data", str(corpus), "--out", str(out), "--epochs", str(self.epochs)]
        if it.add("report", run.cli(args, traced)):
            problems, test_ap = check_report_csv(out)
            it.check("report", problems)
            if not problems:
                it.hashes["report.csv"] = sha256_file(out)
                it.test_ap = test_ap
                run.report_csv = out.read_text(encoding="ascii")
        return it


class SpectrumSweep:
    """`pixmap gen` of 128-px images into a fresh directory, then `pixmap
    spectrum` over them once per reducer kind, uncropped: the write path and
    the read path, with no detector."""

    name = "spectrum-sweep"

    def __init__(self, size: dict, seed: int):
        self.n, self.size, self.seed = size["spectrum_n"], size["spectrum_size"], seed
        # images written, plus images read by each reducer
        self.items = 4 * self.n * (1 + len(SPECTRUM_REDUCERS))
        self.input_size = (f"{4 * self.n} {self.size}-px images written, then read by "
                           f"{len(SPECTRUM_REDUCERS)} reducers")
        self._expected_digest: str | None = None

    def gen_args(self, target: Path) -> list[str]:
        return ["gen", "--n", str(self.n), "--size", str(self.size), "--seed", str(self.seed),
                "--out", str(target)]

    def setup(self, run: "Run", target: Path) -> list[Child]:
        return [run.cli(self.gen_args(target))]

    def iterate(self, run: "Run", corpus: Path, index: int, traced: bool) -> Iteration:
        """Rewrite the set-up corpus, which must come out byte for byte the same, and sweep it."""
        if self._expected_digest is None:
            self._expected_digest = tree_digest(corpus)
        it = Iteration(traced)
        fresh = run.work / f"gen_{index}"
        try:
            if not it.add("gen", run.cli(self.gen_args(fresh), traced)):
                return it
            problems = check_gen_dir(fresh, self.n)
            if not problems and tree_digest(fresh) != self._expected_digest:
                problems.append("gen: corpus differs from the one set-up built from the same seed")
            it.check("gen", problems)
            if problems:
                return it
            for reducer in SPECTRUM_REDUCERS:
                label = f"spectrum {reducer}"
                out = run.work / f"spectrum_{reducer.replace(':', '')}_{index}.csv"
                args = ["spectrum", "--in", str(fresh), "--reducer", reducer, "--out", str(out),
                        "--seed", str(self.seed)]
                if it.add(label, run.cli(args, traced)):
                    problems = check_profile_csv(out, self.size)
                    it.check(label, problems)
                    if not problems:
                        it.hashes[f"spectrum_{reducer}.csv"] = sha256_file(out)
            return it
        finally:
            shutil.rmtree(fresh, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ReportConfounded, SpectrumSweep)}


# --- one benchmark run ------------------------------------------------------------


class SetupError(Exception):
    """The workload's inputs could not be built, so nothing can be timed."""


class Run:
    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.report_csv: str | None = None
        self._stderr = work / "stderr.txt"

    def cli(self, args: list[str], traced: bool = False) -> Child:
        if not traced:
            return run_child([sys.executable, "-m", "pixmap.cli", *args], self._stderr)
        spans_path = self.work / "spans.json"
        child = run_child([sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *args], self._stderr)
        if spans_path.is_file():
            child.spans = json.loads(spans_path.read_text(encoding="ascii"))
            spans_path.unlink()
        return child

    def set_up(self, rep: int) -> tuple[float, str | None]:
        """Warm the interpreter and build the inputs once, into inputs_<rep>."""
        target = self.work / f"inputs_{rep}"
        start = time.perf_counter()
        children = [self.cli(["--version"])] + self.workload.setup(self, target)
        elapsed = time.perf_counter() - start
        for child in children:
            if child.code != 0:
                raise SetupError(f"set-up command failed with exit {child.code}: {child.stderr.strip()}")
        return elapsed, tree_digest(target) if target.exists() else None

    def timed_loop(self, seconds: float, trace: bool, setup_reps: int
                   ) -> tuple[list[Iteration], list[float], list[str]]:
        """Closed loop: start the next iteration only if it should end in time.

        The first set-up builds the inputs every iteration reads. The other
        set-ups rebuild them elsewhere, must reproduce their bytes, and are
        spread evenly over the loop, so that the median set-up time, like the
        median iteration, spans the machine's drift over the whole run. Time
        spent in them does not count against ``seconds``.
        """
        elapsed, digest = self.set_up(0)
        setup_times, digests = [elapsed], [digest]
        corpus = self.work / "inputs_0"
        iterations = []
        start, paused = time.perf_counter(), 0.0
        while True:
            traced = trace and len(iterations) % 2 == 1
            it = self.workload.iterate(self, corpus, len(iterations), traced)
            iterations.append(it)
            loop_s = time.perf_counter() - start - paused
            have_all = any(not i.traced for i in iterations) and (not trace or any(i.traced for i in iterations))
            done = have_all and loop_s + it.wall_s > seconds
            while len(setup_times) < setup_reps and (done or loop_s >= len(setup_times) * seconds / setup_reps):
                pause_start = time.perf_counter()
                rep = len(setup_times)
                elapsed, digest = self.set_up(rep)
                setup_times.append(elapsed)
                digests.append(digest)
                shutil.rmtree(self.work / f"inputs_{rep}", ignore_errors=True)
                paused += time.perf_counter() - pause_start
            if done:
                break
        failures = []
        if len(set(digests)) > 1:
            failures.append("set-up: inputs built from one seed differ between repetitions")
        return iterations, setup_times, failures


def check_determinism(iterations: list[Iteration]) -> dict[str, str]:
    """First hash seen per output; a later mismatch fails that iteration."""
    expected: dict[str, str] = {}
    for it in iterations:
        for key, digest in it.hashes.items():
            if expected.setdefault(key, digest) != digest:
                it.failures.append(f"{key}: bytes differ from an earlier run of the same command")
    return expected


def end_to_end_metrics(workload, untraced: list[Iteration], setup_times: list[float],
                       attempted: int, failed: int) -> dict[str, float]:
    walls = [it.wall_s for it in untraced]
    values = {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(workload.items / w for w in walls),
        "cpu_s": statistics.median(it.cpu_s for it in untraced),
        "peak_rss_mb": max(it.rss_mb for it in untraced),
        "setup_s": statistics.median(setup_times),
        "ok_frac": 1.0 - failed / attempted,
        "test_ap_mean": NOT_APPLICABLE,
        "test_ap_mapping": NOT_APPLICABLE,
    }
    if workload.name == ReportConfounded.name:
        test_ap = next((it.test_ap for it in untraced if it.test_ap), None)
        if test_ap and len(test_ap) == len(REPORT_REDUCERS):
            values["test_ap_mean"] = statistics.fmean(test_ap.values())
            values["test_ap_mapping"] = statistics.fmean(test_ap[r] for r in MAPPING_REDUCERS)
        else:
            values["test_ap_mean"] = values["test_ap_mapping"] = 0.0
    return values


def per_layer_values(untraced: list[Iteration], traced: list[Iteration]) -> dict[str, float]:
    values = {}
    for name in traced_functions():
        values[f"{name}.calls"] = statistics.median(it.calls.get(name, 0) for it in traced)
        values[f"{name}.self_s"] = statistics.median(it.self_s.get(name, 0.0) for it in traced)
    untraced_wall = statistics.median(it.wall_s for it in untraced)
    values["trace.overhead_frac"] = statistics.median(it.wall_s for it in traced) / untraced_wall - 1.0
    values["trace.remainder_s"] = statistics.median(it.remainder_s for it in traced)
    return values


def module_shares(traced: list[Iteration]) -> dict[str, float]:
    """Share of wrapped self time per module, summed over traced iterations."""
    by_module: dict[str, float] = {}
    for it in traced:
        for name, own in it.self_s.items():
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + own
    total = sum(by_module.values()) or 1.0
    return {module: own / total for module, own in sorted(by_module.items())}


# --- run record -----------------------------------------------------------------


def _blas_threads(np) -> int | None:
    """Thread count the bundled OpenBLAS will use, if it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _command_output(argv: list[str]) -> str | None:
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=10, cwd=ROOT)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(work: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    has_git = (ROOT / ".git").exists()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": _blas_threads(np),
        "blas_thread_env": THREAD_ENV,
        "git_commit": _command_output(["git", "rev-parse", "HEAD"]) if has_git else None,
        "source_sha256": _source_digest(),
        "output_filesystem": _command_output(["stat", "-f", "-c", "%T", str(work)]),
    }


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCES.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'tiny' is for the self-test")
    parser.add_argument("--runs-dir", default=str(ROOT / ".perfbench_runs"),
                        help="directory that receives the JSON run record")
    args = parser.parse_args(argv)
    if not (SOURCES / "cli.py").is_file():
        print(f"error: no pixmap sources at {SOURCES.relative_to(ROOT)}; run from a checkout", file=sys.stderr)
        return 2

    os.environ.update(THREAD_ENV)  # for every command, and for blas_threads in the record
    workload = WORKLOADS[args.workload](SIZES[args.size], args.seed)
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(workload, work)
        iterations, setup_times, setup_failures = run.timed_loop(
            args.seconds, bool(args.trace), SIZES[args.size]["setup_reps"])
        hashes = check_determinism(iterations)
        env = environment(work)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [it for it in iterations if not it.traced]
    traced = [it for it in iterations if it.traced]
    attempted = sum(it.commands for it in iterations)
    failures = setup_failures + [f for it in iterations for f in it.failures]
    failed = min(attempted, sum(len(it.failures) for it in iterations) + len(setup_failures))
    if args.trace:
        values, table = per_layer_values(untraced, traced), per_layer_metrics()
    else:
        values, table = end_to_end_metrics(workload, untraced, setup_times, attempted, failed), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit, "better": better}
               for name, (unit, better) in table.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "size": args.size,
        "input_size": workload.input_size,
        "loop": "closed, one client, one command at a time",
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "environment": env,
        "setup_s_reps": setup_times,
        "iterations": [{"traced": it.traced, "wall_s": it.wall_s, "cpu_s": it.cpu_s,
                        "rss_mb": it.rss_mb, "commands": it.commands} for it in iterations],
        "hashes": hashes,
        "failures": failures,
        "metrics": metrics,
    }
    if traced:
        record["module_self_share"] = module_shares(traced)
    if run.report_csv is not None:
        record["report_csv"] = run.report_csv
    runs_dir = Path(args.runs_dir) / args.workload
    runs_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    record_path = runs_dir / f"seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for failure in failures:
        print(f"failed: {failure}")
    print(f"{args.workload} seed={args.seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"iterations of {workload.input_size}; record {record_path}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
