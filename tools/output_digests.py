#!/usr/bin/env python3
"""Hash every output of a fixed set of pixmap commands, to check two checkouts for byte identity.

Usage: python3 tools/output_digests.py --src CHECKOUT --work DIR > digests.txt

Runs the commands below one at a time as ``python -m pixmap.cli``, with
CHECKOUT/src on PYTHONPATH and BLAS at one thread, writing everything under
DIR (created; it must not hold files yet). Then prints one ``sha256  relpath``
line per file under DIR, sorted by path, and one ``sha256  stdout of ARGS``
line per command, in run order, for what the command printed. A
``run.json`` is hashed with its ``started_utc`` and ``duration_s`` fields
dropped, and DIR is replaced by ``<work>`` in a ``run.json``, in a printed
stdout and in ARGS, so two checkouts that write and print the same outputs
print the same lines. Run it once per checkout, each with its own DIR, and
diff the two.

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
    stdouts = []
    for argv_ in commands(work):
        cmd = [sys.executable, "-m", "pixmap.cli", *map(str, argv_)]
        result = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
        if result.returncode != 0:
            print(f"error: {' '.join(cmd[2:])} exited {result.returncode}: {result.stderr.strip()}", file=sys.stderr)
            return 1
        printed = hashlib.sha256(result.stdout.replace(str(work), "<work>").encode()).hexdigest()
        stdouts.append(f"{printed}  stdout of {' '.join(cmd[3:]).replace(str(work), '<work>')}")
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        print(f"{digest(path, work)}  {path.relative_to(work).as_posix()}")
    print(*stdouts, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
