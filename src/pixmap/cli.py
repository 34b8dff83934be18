"""Command-line driver: gen / map / spectrum / train / eval / report.

Every subcommand writes a JSON run manifest next to its primary output
(atomically, via rename) recording the resolved flags, derived seeds, tool
version, and wall clock. Deterministic subcommands reproduce byte-identical
outputs when re-run with the flags stored in their manifest.

Errors print exactly one line to stderr, ``error: <code>: <detail>``, and
exit nonzero; exit code 0 means success.

Commands load the library modules on first use: this module calls them
through their module objects, which the package registers lazily, and
imports numpy only inside the commands. ``--version``, ``--help`` and usage
errors load no numpy, ``gen`` never runs ``detector``, ``reducers``,
``spectral`` or ``mapping``, and ``spectrum`` never runs ``detector`` or
``synthgen``. Every module a worker process uses is loaded before the pool
forks (``build_benchmark`` loads ``synthgen``, ``load_images`` loads
``detector``), so no worker loads one while another thread may run.

``gen`` writes its images and ``report`` trains its seven detectors in
worker processes, forked where the platform can fork, one per CPU the
process may run on and never more than there are tasks; see
:func:`_fork_map`. Each ``report`` worker multiplies matrices through
numpy's BLAS, so keep BLAS at one thread per worker (for OpenBLAS,
``OPENBLAS_NUM_THREADS=1``): the workers already fill the CPUs, and BLAS
threads on top of them only contend for the same cores.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, detector, image, mapping, reducers, rng, spectral, synthgen
from .config import DEFAULT_NOISE_SIGMA, UPSAMPLERS, TrainConfig
from .errors import PixmapError

REPORT_REDUCERS = ("none", "highpass", "shuffle:8", "shuffle:2", "npr", "fixed", "random")


class _Parser(argparse.ArgumentParser):
    """argparse with single-line machine-parsable errors."""

    def error(self, message):
        raise PixmapError("bad-usage", message)


def _write_run_manifest(path: Path, subcommand: str, flags: dict, seeds: dict, inputs, outputs, started: float) -> None:
    manifest = {
        "subcommand": subcommand,
        "flags": flags,
        "seeds": seeds,
        "version": __version__,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "started_utc": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
        "duration_s": round(time.time() - started, 3),
    }
    image.write_atomic(path, (json.dumps(manifest, sort_keys=True, indent=1) + "\n").encode("ascii"))


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise PixmapError("bad-config", f"{path} is not ASCII") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise PixmapError("bad-config", f"{path}:{lineno}: expected key=value")
        values[key.strip()] = value.strip()
    return values


# Every TrainConfig field but the reducer is a flag and a config key; its
# default's type casts config-file values.
_SETTINGS = {f.name: f for f in dataclasses.fields(TrainConfig) if f.name != "reducer"}
_REPORT_SETTINGS = ("seed", "epochs", "batch_size", "crop", "lr", "weight_decay")


def _add_setting_flags(parser, names) -> None:
    """Add one flag per TrainConfig setting; unset flags stay None."""
    for name in names:
        f = _SETTINGS[name]
        parser.add_argument(
            "--" + name.replace("_", "-"), dest=name, type=type(f.default), default=None,
            help=f"{f.metadata['help']} (default {f.default!r})",
        )


def _resolve_train_config(args, reducer: reducers.ReducerSpec) -> TrainConfig:
    """Merge precedence: explicit flags > config file > TrainConfig defaults."""
    config_path = getattr(args, "config", None)
    file_values = _load_config_file(config_path) if config_path else {}
    unknown = set(file_values) - set(_SETTINGS)
    if unknown:
        raise PixmapError("bad-config", f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, f in _SETTINGS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_values:
            try:
                resolved[key] = type(f.default)(file_values[key])
            except ValueError as exc:
                raise PixmapError("bad-config", f"config key {key}: {exc}") from exc
    return TrainConfig(reducer=reducer, **resolved)


def _load_split(data_dir: str, split: str):
    """Read a split's manifest and decode its images once: (entries, images)."""
    manifest_path = Path(data_dir) / f"{split}_manifest.csv"
    if not manifest_path.is_file():
        raise PixmapError("missing-file", f"no {split} manifest at {manifest_path}")
    entries = synthgen.read_manifest_csv(manifest_path)
    return entries, detector.load_images(entries, data_dir)


def _usable_cpus() -> int:
    """CPUs this process may run on: ``os.sched_getaffinity`` where it exists, else ``os.cpu_count()``."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fork_map(fn, items, initializer=None, initargs=()) -> list:
    """``[fn(item) for item in items]``, computed in a pool of worker processes.

    ``gen`` writes its image shares and ``report`` trains its rows through
    this one pool. The pool has ``min(len(items), usable CPUs)`` workers (see
    :func:`_usable_cpus`); there is no flag and no serial path, so one CPU
    means one worker. Workers are forked where the platform can fork (the
    platform default start method elsewhere), so they inherit the parent's
    memory: state handed to ``initializer`` is never pickled, and only the
    items and results cross a pipe. The pool forks every worker before it
    starts its own management thread. ``fn`` must be a module-level
    function, since it is pickled by name.

    An exception raised by ``fn`` (a ``PixmapError``, an ``OSError``)
    reaches the caller unchanged; a worker that dies raises
    ``PixmapError("worker-failed")``. Either way the pending items are
    cancelled and every worker is joined before this returns.
    """
    # Imported here, not at the top: multiprocessing and concurrent.futures
    # add 22-29 ms of imports, which the commands without a pool should not pay.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    pool = ProcessPoolExecutor(
        min(len(items), _usable_cpus()),
        mp_context=multiprocessing.get_context(method),
        initializer=initializer,
        initargs=initargs,
    )
    try:
        return list(pool.map(fn, items))
    except BrokenProcessPool as exc:
        raise PixmapError("worker-failed", str(exc)) from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


# --- subcommands ---------------------------------------------------------------


def _materialize_share(share) -> None:
    """Write one share of a manifest's images: ``share`` is (manifest, out_dir)."""
    manifest, out_dir = share
    synthgen.materialize(manifest, out_dir)


def _cmd_gen(args) -> int:
    started = time.time()
    train_manifest, test_manifest = synthgen.build_benchmark(
        train_fake_upsampler=args.train_upsampler,
        test_fake_upsampler=args.test_upsampler,
        confound=args.confound,
        n_per_class=args.n,
        seed=args.seed,
        size=args.size,
        noise_sigma=args.noise_sigma,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Each image depends only on its entry, so every manifest is split into
    # one interleaved share per worker, and each worker writes its own files.
    workers = min(_usable_cpus(), len(train_manifest.entries))
    _fork_map(
        _materialize_share,
        [
            (dataclasses.replace(manifest, entries=manifest.entries[k::workers]), out_dir)
            for manifest in (train_manifest, test_manifest)
            for k in range(workers)
        ],
    )
    outputs = []
    for split, manifest in (("train", train_manifest), ("test", test_manifest)):
        csv_path = out_dir / f"{split}_manifest.csv"
        synthgen.write_manifest_csv(csv_path, manifest)
        outputs.append(csv_path)
    _write_run_manifest(
        out_dir / "run.json",
        "gen",
        {
            "out": str(out_dir),
            "train_upsampler": args.train_upsampler,
            "test_upsampler": args.test_upsampler,
            "confound": args.confound,
            "n": args.n,
            "seed": args.seed,
            "size": args.size,
            "noise_sigma": args.noise_sigma,
        },
        {"root": args.seed},
        [],
        outputs,
        started,
    )
    print(f"wrote {len(train_manifest.entries) + len(test_manifest.entries)} images under {out_dir}")
    return 0


def _cmd_map(args) -> int:
    started = time.time()
    if args.mode in ("random", "shuffle") and args.seed is None:
        raise PixmapError("seed-required", f"--mode {args.mode} needs --seed")
    img = image.decode_ppm(Path(args.infile).read_bytes())
    out_path = Path(args.out)
    tables = None
    if args.mode == "fixed":
        tables = (mapping.build_fixed_table(),)
        result = mapping.apply_mapping(img, tables[0])
        image.write_imagef(out_path, result)
    elif args.mode == "random":
        tables = mapping.build_random_tables(args.seed)
        image.write_imagef(out_path, mapping.apply_mapping(img, tables))
    elif args.mode == "highpass":
        image.write_imagef(out_path, reducers.highpass(img, args.cutoff))
    elif args.mode == "npr":
        image.write_imagef(out_path, reducers.npr_residual(img))
    elif args.mode == "shuffle":
        shuffled = reducers.patch_shuffle(img, args.patch, args.seed)
        image.write_atomic(out_path, image.encode_ppm(shuffled))
    outputs = [out_path]
    if args.table_csv:
        if tables is None:
            raise PixmapError("bad-usage", "--table-csv applies to fixed/random modes only")
        csv_path = Path(args.table_csv)
        if len(tables) == 1:
            lines = ["value,output"] + [
                f"{v},{tables[0].entries[v]!r}" for v in range(256)
            ]
        else:
            lines = ["value,ch0,ch1,ch2"] + [
                f"{v},{tables[0].entries[v]!r},{tables[1].entries[v]!r},{tables[2].entries[v]!r}"
                for v in range(256)
            ]
        image.write_atomic(csv_path, ("\n".join(lines) + "\n").encode("ascii"))
        outputs.append(csv_path)
    _write_run_manifest(
        out_path.with_name(out_path.name + ".run.json"),
        "map",
        {
            "mode": args.mode,
            "seed": args.seed,
            "in": args.infile,
            "out": args.out,
            "cutoff": args.cutoff,
            "patch": args.patch,
            "table_csv": args.table_csv,
        },
        {"seed": args.seed},
        [args.infile],
        outputs,
        started,
    )
    return 0


def _cmd_spectrum(args) -> int:
    import numpy as np

    started = time.time()
    reducer = reducers.ReducerSpec.parse(args.reducer)
    in_dir = Path(args.indir)
    paths = sorted(in_dir.rglob("*.ppm"))
    if not paths:
        raise PixmapError("empty-input", f"no .ppm files under {in_dir}")
    reducer_root = rng.derive_seed(args.seed, "reducer")

    def reduced():
        for p in paths:
            img = image.decode_ppm(p.read_bytes())
            if args.crop is not None:
                img = image.crop(img, image.CropSpec(args.crop, "center"))
            tags = [(p.relative_to(in_dir).as_posix(),)]
            # A contiguous NCHW batch keeps every kernel and each rfft2 on contiguous rows.
            batch = np.ascontiguousarray(image.as_batch(img))
            yield reducers.reduce_batch(reducer, batch, reducer_root, tags)[0]

    spec = spectral.mean_spectrum_chw(reduced())
    profile = spectral.azimuthal_profile(spec)
    out_path = Path(args.out)
    image.write_atomic(out_path, spectral.profile_csv(profile).encode("ascii"))
    outputs = [out_path]
    if args.heatmap:
        image.write_pgm(args.heatmap, spectral.heatmap_u8(spec))
        outputs.append(Path(args.heatmap))
    _write_run_manifest(
        out_path.with_name(out_path.name + ".run.json"),
        "spectrum",
        {
            "in": args.indir,
            "reducer": reducer.canonical(),
            "out": args.out,
            "heatmap": args.heatmap,
            "crop": args.crop,
            "seed": args.seed,
        },
        {"reducer": reducer_root},
        [str(p) for p in paths],
        outputs,
        started,
    )
    return 0


def _cmd_train(args) -> int:
    started = time.time()
    reducer = reducers.ReducerSpec.parse(args.reducer)
    config = _resolve_train_config(args, reducer)
    entries, images = _load_split(args.data, "train")
    params, trace = detector.train(entries, images, config)
    reducer_seed = rng.derive_seed(config.seed, "reducer")
    out_path = Path(args.out)
    detector.save_params(out_path, params, reducer, reducer_seed, config.crop)
    _write_run_manifest(
        out_path.with_name(out_path.name + ".run.json"),
        "train",
        {
            "data": args.data,
            "reducer": reducer.canonical(),
            "out": args.out,
            "config": args.config,
            **{k: getattr(config, k) for k in _SETTINGS},
        },
        {
            "root": config.seed,
            "init": rng.derive_seed(config.seed, "init"),
            "reducer": reducer_seed,
        },
        [args.data],
        [out_path],
        started,
    )
    print(f"final_epoch_loss={trace[-1]!r}")
    return 0


def _report_lines(report) -> list[str]:
    lines = [
        f"accuracy={report.accuracy!r}",
        f"average_precision={report.average_precision!r}",
        f"n={report.n}",
    ]
    return lines


def _breakdown_csv(report) -> str:
    lines = ["generator,n,accuracy,average_precision"]
    for tag in sorted(report.per_generator):
        stats = report.per_generator[tag]
        ap = "" if stats.average_precision is None else repr(stats.average_precision)
        lines.append(f"{tag},{stats.n},{stats.accuracy!r},{ap}")
    return "\n".join(lines) + "\n"


def _cmd_eval(args) -> int:
    started = time.time()
    params, model_reducer, reducer_seed, crop_size = detector.load_params(args.model)
    requested = reducers.ReducerSpec.parse(args.reducer)
    if requested.canonical() != model_reducer.canonical():
        raise PixmapError(
            "reducer-mismatch",
            f"model was trained with {model_reducer.canonical()}, got {requested.canonical()}",
        )
    entries, images = _load_split(args.data, args.split)
    report = detector.evaluate(params, entries, images, model_reducer, reducer_seed, crop_size)
    for line in _report_lines(report):
        print(line)
    outputs = []
    if args.out:
        out_path = Path(args.out)
        image.write_atomic(out_path, _breakdown_csv(report).encode("ascii"))
        outputs.append(out_path)
        _write_run_manifest(
            out_path.with_name(out_path.name + ".run.json"),
            "eval",
            {
                "model": args.model,
                "data": args.data,
                "reducer": requested.canonical(),
                "split": args.split,
                "out": args.out,
            },
            {"reducer": reducer_seed},
            [args.model, args.data],
            outputs,
            started,
        )
    return 0


# The decoded splits and the reducer seed of the report a worker serves. Set
# only inside report worker processes, by _init_report_worker.
_report_inputs = None


def _init_report_worker(train_split, test_split, reducer_seed) -> None:
    global _report_inputs
    _report_inputs = (train_split, test_split, reducer_seed)


def _report_row(run: TrainConfig) -> tuple[float, float, float]:
    """Train one report detector and score it: (train_acc, test_acc, test_ap)."""
    (train_entries, train_images), (test_entries, test_images), reducer_seed = _report_inputs
    params, _ = detector.train(train_entries, train_images, run)
    train_report = detector.evaluate(params, train_entries, train_images, run.reducer, reducer_seed, run.crop)
    test_report = detector.evaluate(params, test_entries, test_images, run.reducer, reducer_seed, run.crop)
    return train_report.accuracy, test_report.accuracy, test_report.average_precision


def run_experiment(data_dir, config: TrainConfig) -> str:
    """Train and evaluate one detector per reducer on the same benchmark.

    Returns the comparison CSV (reducer, train_acc, test_acc, test_ap) with
    one row per reducer in the documented fixed order. Each split is decoded
    once, and every row uses ``config`` with only the reducer swapped, so
    rows differ only by reducer. Every reducer is checked against the crop
    before anything is decoded or trained.

    The rows are computed by :func:`_fork_map`, each by :func:`_report_row`,
    in at most seven workers. A row depends only on the splits, its config
    and seeds derived from it, so the CSV is byte-identical whatever the
    worker count. The workers inherit the decoded splits through the pool
    initializer, and only the seven configs and result tuples cross a pipe.
    """
    runs = [dataclasses.replace(config, reducer=reducers.ReducerSpec.parse(name)) for name in REPORT_REDUCERS]
    for run in runs:
        run.reducer.validate_for_crop(run.crop)
    train_split = _load_split(data_dir, "train")
    test_split = _load_split(data_dir, "test")
    reducer_seed = rng.derive_seed(config.seed, "reducer")
    rows = _fork_map(
        _report_row, runs, initializer=_init_report_worker, initargs=(train_split, test_split, reducer_seed)
    )
    lines = ["reducer,train_acc,test_acc,test_ap"]
    for name, (train_acc, test_acc, test_ap) in zip(REPORT_REDUCERS, rows):
        lines.append(f"{name},{train_acc!r},{test_acc!r},{test_ap!r}")
    return "\n".join(lines) + "\n"


def _cmd_report(args) -> int:
    started = time.time()
    # run_experiment swaps in each reducer; the first one only fills the field.
    config = _resolve_train_config(args, reducers.ReducerSpec.parse(REPORT_REDUCERS[0]))
    csv_text = run_experiment(args.data, config)
    out_path = Path(args.out)
    image.write_atomic(out_path, csv_text.encode("ascii"))
    _write_run_manifest(
        out_path.with_name(out_path.name + ".run.json"),
        "report",
        {
            "data": args.data,
            "out": args.out,
            **{k: getattr(config, k) for k in _REPORT_SETTINGS},
        },
        {"root": config.seed},
        [args.data],
        [out_path],
        started,
    )
    print(csv_text, end="")
    return 0


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pixmap", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"pixmap {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate the synthetic benchmark corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--train-upsampler", choices=UPSAMPLERS, default="nearest",
                   help="fake-image upsampler for the training split")
    p.add_argument("--test-upsampler", choices=UPSAMPLERS, default="bilinear",
                   help="fake-image upsampler for the test split")
    p.add_argument("--confound", action="store_true",
                   help="align content family with the label on train, swap on test")
    p.add_argument("--n", type=int, default=500, help="images per class per split")
    p.add_argument("--seed", type=int, default=1, help="root seed")
    p.add_argument("--size", type=int, default=64, help="image side length (even)")
    p.add_argument("--noise-sigma", type=float, default=DEFAULT_NOISE_SIGMA,
                   help="sensor noise level in 8-bit steps")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("map", help="apply one preprocessing transform to one image")
    p.add_argument("--mode", required=True,
                   choices=("fixed", "random", "highpass", "shuffle", "npr"))
    p.add_argument("--seed", type=int, default=None,
                   help="seed (required for random and shuffle)")
    p.add_argument("--in", dest="infile", required=True, help="input PPM")
    p.add_argument("--out", required=True,
                   help="output file (.imf text raster; shuffle writes PPM)")
    p.add_argument("--cutoff", type=float, default=0.25,
                   help="highpass cutoff as a fraction of the Nyquist radius")
    p.add_argument("--patch", type=int, default=8, help="shuffle tile size")
    p.add_argument("--table-csv", default=None,
                   help="also dump the 256-entry mapping table(s) as CSV")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("spectrum", help="mean power spectrum and radial profile of a directory")
    p.add_argument("--in", dest="indir", required=True, help="directory of PPM images")
    p.add_argument("--reducer", default="none",
                   help="none|fixed|random|highpass[:c]|shuffle:N|npr")
    p.add_argument("--out", required=True, help="radial profile CSV")
    p.add_argument("--heatmap", default=None, help="optional 2-D spectrum PGM")
    p.add_argument("--crop", type=int, default=None, help="center-crop before analysis")
    p.add_argument("--seed", type=int, default=0, help="seed for stochastic reducers")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("train", help="train the detector on a generated benchmark")
    p.add_argument("--data", required=True, help="benchmark directory (from gen)")
    p.add_argument("--reducer", required=True,
                   help="none|fixed|random|highpass[:c]|shuffle:N|npr")
    p.add_argument("--out", required=True, help="weights file to write")
    p.add_argument("--config", default=None, help="key=value config file; flags override")
    _add_setting_flags(p, _SETTINGS)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate saved weights on a benchmark split")
    p.add_argument("--model", required=True, help="weights file from train")
    p.add_argument("--data", required=True, help="benchmark directory")
    p.add_argument("--reducer", required=True,
                   help="must match the reducer recorded in the weights file")
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--out", default=None, help="optional per-generator breakdown CSV")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="train+eval every reducer, emit comparison CSV")
    p.add_argument("--data", required=True, help="benchmark directory")
    p.add_argument("--out", required=True, help="comparison CSV path")
    _add_setting_flags(p, _REPORT_SETTINGS)
    p.set_defaults(func=_cmd_report)

    return parser


def _retain_freed_memory() -> None:
    """Keep freed heap memory in the process rather than handing it back to the OS.

    Each detector step allocates and frees megabytes of float64 temporaries.
    With glibc's defaults those blocks are unmapped or trimmed on free and
    faulted back in by the next step: a forward pass over 64 crops of 32 px
    took 4,067 minor page faults and 18 ms, against none and 7 ms with the
    two settings below (2-core x86 box, numpy 2.4). Other platforms are left
    as they are.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's largest allowed value
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _retain_freed_memory()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PixmapError as exc:
        print(f"error: {exc.code}: {exc.message}", file=sys.stderr)
        return 2 if exc.code == "bad-usage" else 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
