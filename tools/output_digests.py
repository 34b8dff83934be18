#!/usr/bin/env python3
"""Hash every output of a fixed set of pixmap commands, to check two checkouts for byte identity.

Usage: python3 tools/output_digests.py --src CHECKOUT --work DIR > digests.txt

Runs the commands below one at a time as ``python -m pixmap.cli``, with
CHECKOUT/src on PYTHONPATH and BLAS at one thread, writing everything under
DIR (created; it must not hold files yet). Then prints one ``sha256  relpath``
line per file under DIR, sorted by path, one ``sha256  stdout of ARGS``
line per command, failing ones included, in run order, for what the
command printed, and one ``sha256  stderr of ARGS`` line per failing
command, over its exit code and what it printed to stderr. A ``run.json``
is hashed with its ``started_utc`` and ``duration_s`` fields dropped, and
DIR is replaced by ``<work>`` in a ``run.json``, in a printed stdout or
stderr and in ARGS, so two checkouts that write and print the same outputs
and errors print the same lines. Run it once per checkout, each with its
own DIR, and diff the two.

The commands:

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
  ``--table-csv`` for ``fixed`` and ``random``.

The failing commands, run after those, read bad inputs written under
DIR/bad:

* ``spectrum`` over a directory that holds one truncated PPM;
* ``map --in`` a ``P5`` file;
* ``eval`` of ``random.w1`` with its first value replaced by ``nan``;
* ``train --epochs 1 --out DIR/missing/m.w1``, into a missing directory;
* ``eval`` of ``random.w1`` with ``--out DIR/missing/e.csv``, into a
  missing directory;
* ``report --crop 30``, which no ``shuffle:8`` patch divides;
* ``map --reducer random --table-csv DIR/missing/t.csv`` of one 128-px
  image, whose table goes into a missing directory;
* ``spectrum --heatmap DIR/missing/h.pgm`` of the 128-px corpus, whose
  heatmap goes into a missing directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SEEDS = range(701, 711)
SPECTRUM_REDUCERS = ("none", "fixed", "random", "highpass", "npr", "shuffle:8")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLOCK_FIELDS = ("started_utc", "duration_s")


def commands(work: Path):
    """The fixed command set, as argument lists with absolute paths under ``work``."""
    for seed in SEEDS:
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
    """Write the bad inputs under ``work/bad`` and return the failing commands that read them."""
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


def digest(path: Path, work: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith("run.json"):
        manifest = json.loads(data)
        for key in CLOCK_FIELDS:
            manifest.pop(key)
        data = json.dumps(manifest, sort_keys=True).replace(str(work), "<work>").encode()
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="checkout whose src/pixmap runs the commands")
    parser.add_argument("--work", required=True, help="directory the commands write into")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve() / "src"
    if not (src / "pixmap" / "cli.py").is_file():
        parser.error(f"no pixmap sources under {src}")
    work = Path(args.work).resolve()
    work.mkdir(parents=True, exist_ok=True)
    if any(work.iterdir()):
        parser.error(f"{work} is not empty")
    env = dict(os.environ, PYTHONPATH=str(src), **THREAD_ENV)

    def run(argv_):
        cmd = [sys.executable, "-m", "pixmap.cli", *map(str, argv_)]
        return cmd, subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)

    def line(text, stream, cmd):
        sha = hashlib.sha256(text.replace(str(work), "<work>").encode()).hexdigest()
        return f"{sha}  {stream} of {' '.join(cmd[3:]).replace(str(work), '<work>')}"

    printed = []
    for argv_ in commands(work):
        cmd, result = run(argv_)
        if result.returncode != 0:
            print(f"error: {' '.join(cmd[2:])} exited {result.returncode}: {result.stderr.strip()}", file=sys.stderr)
            return 1
        printed.append(line(result.stdout, "stdout", cmd))
    for argv_ in failing_commands(work):
        cmd, result = run(argv_)
        printed.append(line(result.stdout, "stdout", cmd))
        printed.append(line(f"{result.returncode}\n{result.stderr}", "stderr", cmd))
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        print(f"{digest(path, work)}  {path.relative_to(work).as_posix()}")
    print(*printed, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
