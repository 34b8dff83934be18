"""Command-line driver: gen / map / spectrum / train / eval / report.

Each subcommand returns what it read and wrote, and :func:`main`, which
times it, writes that as its JSON run manifest (atomically, via rename):
flags, derived seeds, inputs, outputs, tool version and wall clock, next to
the primary output as ``<out>.run.json`` (``gen``: ``run.json`` in its
directory), and then prints the command's summary to stdout. A command that
fails writes none, nor does ``eval`` without ``--out``, which only prints;
the model's own ``.run.json`` sits next to the weights. The flags are the
parsed flags, with ``reducer`` in canonical form (``ReducerSpec.canonical``)
and every training setting as resolved from flags, config file and
defaults. Deterministic subcommands reproduce byte-identical outputs when
re-run with the flags stored in their manifest.

Errors print exactly one line to stderr, ``error: <code>: <detail>``, print
nothing to stdout, and exit nonzero; exit code 0 means success. Every output
path is checked before any input is read, so a missing directory, an output
that is an existing directory, or two outputs that name one file
(``bad-usage``) fail before anything is decoded or written.

``spectrum`` and ``map`` take the same ``--reducer`` grammar
(``reducers.ReducerSpec.parse``) and ``--seed`` root, and turn a file into
a raster through ``reducers.crop_batch``, the path every detector batch
takes too: ``map --in DIR/NAME --reducer R --seed S``
writes, as an IMF text raster, the array that ``spectrum --in DIR
--reducer R --seed S`` reduces for ``NAME``.

Commands load the library modules on first use: this module calls them
through their module objects, which the package registers lazily, and
never imports numpy itself. ``--version``, ``--help`` and usage
errors load no numpy, ``gen`` never runs ``detector``, ``reducers``,
``spectral`` or ``mapping``, and ``spectrum`` never runs ``detector`` or
``synthgen``. Every module a worker process uses is loaded before the
workers fork (``build_benchmark`` loads ``synthgen``, ``load_images`` loads
``detector``), so each worker shares the parent's copy instead of running
its own.

``gen`` writes its images and ``report`` trains its seven detectors in
worker processes that :func:`_fork_map` forks directly with ``os.fork``,
one per CPU the process may run on and never more than there are tasks.
Each worker computes a static share of the tasks and pipes its results
back; if tasks fail, the earliest in task order gives the error line, and
a failing share does not cancel the others. Each ``report`` worker
multiplies matrices through numpy's BLAS, so keep BLAS at one thread per
worker (for OpenBLAS, ``OPENBLAS_NUM_THREADS=1``): the workers already
fill the CPUs, and BLAS threads on top of them only contend for the same
cores.

``python -m pixmap.cli`` and the ``pixmap`` script run :func:`main`
through :func:`run_and_exit`, which flushes stdout and stderr and ends the
process with ``os._exit``, skipping interpreter teardown; :func:`main`
itself returns the exit code, for callers that run it in-process.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import errno
import json
import os
import pickle
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import NoReturn

from . import __version__, detector, image, reducers, rng, spectral, synthgen
from .config import DEFAULT_NOISE_SIGMA, UPSAMPLERS, TrainConfig
from .errors import PixmapError

REPORT_REDUCERS = ("none", "highpass", "shuffle:8", "shuffle:2", "npr", "fixed", "random")
_REDUCER_HELP = "none|fixed|random|highpass[:c]|shuffle:N|npr"


class _Parser(argparse.ArgumentParser):
    """argparse with single-line machine-parsable errors."""

    def error(self, message):
        raise PixmapError("bad-usage", message)


@dataclasses.dataclass(frozen=True)
class _Run:
    """What a command read and wrote: :func:`main` writes it to ``manifest``, then prints ``summary``.

    ``manifest`` is None for ``eval`` without ``--out``, which writes no
    file. ``config`` holds the resolved training settings of ``train`` and
    ``report``.
    """

    manifest: Path | None
    seeds: dict
    inputs: list
    outputs: list
    config: TrainConfig | None = None
    summary: str = ""


def _sidecar(out) -> Path:
    """The ``<out>.run.json`` manifest path of a command whose primary output is ``out``."""
    return Path(f"{out}.run.json")


def _out_path(out) -> Path:
    """``out`` as a Path, after a look at it and its directory.

    A missing directory raises the error writing would, and an output that
    is an existing directory raises ``IsADirectoryError``, both naming ``out``.
    """
    path = Path(out)
    try:
        os.stat(path.parent)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    return path


def _out_paths(*outs) -> list:
    """Each output through :func:`_out_path`, unset ones as None; two that resolve to one file are bad-usage."""
    paths = [_out_path(out) if out else None for out in outs]
    named = [path.resolve() for path in paths if path]
    if len(set(named)) < len(named):
        raise PixmapError("bad-usage", "two outputs name one file: " + " and ".join(str(o) for o in outs if o))
    return paths


def _write_run_manifest(args, started: float, run: _Run) -> None:
    """Write a finished command's ``run.json``; only :func:`main` calls this, so a failed command writes none.

    The flags are the parsed ``args``, with a ``reducer`` flag in canonical
    form and every TrainConfig setting at its value in ``run.config``.
    """
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "subcommand")}
    if "reducer" in flags:
        flags["reducer"] = reducers.ReducerSpec.parse(flags["reducer"]).canonical()
    if run.config is not None:
        flags.update((k, getattr(run.config, k)) for k in flags.keys() & _SETTINGS.keys())
    manifest = {
        "subcommand": args.subcommand,
        "flags": flags,
        "seeds": run.seeds,
        "version": __version__,
        "inputs": [str(p) for p in run.inputs],
        "outputs": [str(p) for p in run.outputs],
        "started_utc": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
        "duration_s": round(time.time() - started, 3),
    }
    image.write_atomic(run.manifest, (json.dumps(manifest, sort_keys=True, indent=1) + "\n").encode("ascii"))


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    for lineno, raw in enumerate(image.read_ascii_lines(path, "bad-config", f"{path} is not ASCII"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise PixmapError("bad-config", f"{path}:{lineno}: expected key=value")
        if key in values:
            raise PixmapError("bad-config", f"{path}:{lineno}: repeated key {key!r}")
        values[key] = value
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


def _fork_map(fn, items) -> list:
    """``[fn(item) for item in items]``, computed in worker processes forked by ``os.fork``.

    Worker ``k`` of ``w = min(len(items), usable CPUs)`` computes the static
    share ``items[k::w]`` in order up to its first error, pipes back the
    pickled results and error, and leaves by ``os._exit``, so ``fn`` may be
    a closure. Without ``os.fork`` the items run in-process. A failing
    share cancels no other, and every worker is reaped before this returns
    or raises. The failed item earliest in item order raises its exception
    here, unchanged; a worker that dies or sends nothing fails at its
    share's first item, as ``PixmapError("worker-failed")``.
    """
    if not hasattr(os, "fork"):
        return [fn(item) for item in items]
    w = min(len(items), _usable_cpus())
    children, replies, statuses = [], [], []
    try:
        for k in range(w):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve_share(fn, items[k::w], write_end)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        replies = [reply.read() for _, reply in children]
    finally:
        for pid, reply in children:
            reply.close()
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    results, failures = [None] * len(items), []
    for k, ((pid, _), reply, status) in enumerate(zip(children, replies, statuses)):
        try:
            done, error = pickle.loads(reply)
        except (EOFError, pickle.UnpicklingError):
            done, error = [], PixmapError("worker-failed", f"worker {pid} sent no result (exit status {status})")
        results[k : k + w * len(done) : w] = done
        if error is not None:
            failures.append((k + w * len(done), error))
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def _serve_share(fn, share, write_end) -> NoReturn:
    """Compute one :func:`_fork_map` share, pickle ``(results, error or None)`` to ``write_end``, ``os._exit``."""
    done, error = [], None
    try:
        try:
            for item in share:
                done.append(fn(item))
        except BaseException as exc:  # the parent raises it
            error = exc
        with open(write_end, "wb") as pipe:
            pipe.write(pickle.dumps((done, error)))
        os._exit(0)
    finally:
        os._exit(1)


# --- subcommands ---------------------------------------------------------------


def _cmd_gen(args) -> _Run:
    splits = synthgen.build_benchmark(args.train_upsampler, args.test_upsampler, args.confound, args.n, args.seed)
    out_dir = Path(args.out)
    # Each image depends only on its entry, so the workers' shares mix both splits.
    entries = splits[0] + splits[1]
    _fork_map(lambda entry: synthgen.materialize([entry], out_dir, args.size, args.noise_sigma), entries)
    outputs = [out_dir / f"{split}_manifest.csv" for split in ("train", "test")]
    for csv_path, split in zip(outputs, splits):
        synthgen.write_manifest_csv(csv_path, split)
    summary = f"wrote {len(entries)} images under {out_dir}\n"
    return _Run(out_dir / "run.json", {"root": args.seed}, [], outputs, summary=summary)


def _reduce_file(path: Path, reducer, reducer_root: int, tag: str, crop_size=None):
    """Decode one PPM and reduce it by ``reducers.crop_batch`` with the tag ``(tag,)``.

    Returns the reducer's C x H x W float64 array, centre-cropped when
    ``crop_size`` is given. ``spectrum`` and ``map`` both turn a file into
    a raster through this.
    """
    return reducers.crop_batch([image.read_ppm(path)], reducer, reducer_root, [(tag,)], crop_size)[0]


def _cmd_map(args) -> _Run:
    reducer = reducers.ReducerSpec.parse(args.reducer)
    reducer_root = rng.derive_seed(args.seed, "reducer")
    in_path = Path(getattr(args, "in"))
    out_path, csv_path = _out_paths(args.out, args.table_csv)
    # The tag spectrum gives this file when it reads the file's directory.
    tag = in_path.name
    # Fetched before anything is read or written: a reducer with no table is bad-usage.
    tables = reducers.mapping_tables(reducer, reducer_root, [(tag,)])[0] if csv_path else None
    reduced = _reduce_file(in_path, reducer, reducer_root, tag)
    image.write_imagef(out_path, reduced.transpose(1, 2, 0))
    outputs = [out_path]
    if tables is not None:
        header = ("value", "output") if len(tables) == 1 else ("value", "ch0", "ch1", "ch2")
        rows = [(v, *row) for v, row in enumerate(tables.T.tolist())]
        image.write_atomic(csv_path, image.format_csv(header, rows).encode("ascii"))
        outputs.append(csv_path)
    return _Run(_sidecar(out_path), {"reducer": reducer_root}, [getattr(args, "in")], outputs)


def _cmd_spectrum(args) -> _Run:
    reducer = reducers.ReducerSpec.parse(args.reducer)
    in_dir = Path(getattr(args, "in"))
    out_path, heatmap = _out_paths(args.out, args.heatmap)
    paths = sorted(in_dir.rglob("*.ppm"))
    if not paths:
        raise PixmapError("empty-input", f"no .ppm files under {in_dir}")
    reducer_root = rng.derive_seed(args.seed, "reducer")
    power = spectral.mean_spectrum_chw(
        _reduce_file(p, reducer, reducer_root, p.relative_to(in_dir).as_posix(), args.crop) for p in paths
    )
    image.write_atomic(out_path, spectral.profile_csv(*spectral.azimuthal_profile(power)).encode("ascii"))
    outputs = [out_path]
    if heatmap is not None:
        image.write_pgm(heatmap, spectral.heatmap_u8(power))
        outputs.append(heatmap)
    return _Run(_sidecar(out_path), {"reducer": reducer_root}, paths, outputs)


def _cmd_train(args) -> _Run:
    reducer = reducers.ReducerSpec.parse(args.reducer)
    config = _resolve_train_config(args, reducer)
    out_path = _out_path(args.out)
    entries, images = _load_split(args.data, "train")
    params, trace = detector.train(entries, images, config)
    reducer_seed = rng.derive_seed(config.seed, "reducer")
    detector.save_params(out_path, params, reducer, reducer_seed, config.crop)
    seeds = {"root": config.seed, "init": rng.derive_seed(config.seed, "init"), "reducer": reducer_seed}
    return _Run(_sidecar(out_path), seeds, [args.data], [out_path], config, f"final_epoch_loss={trace[-1]!r}\n")


def _average_precision(scores, labels) -> float:
    """``detector.average_precision``, or NaN for a split with no fakes."""
    return detector.average_precision(scores, labels) if 1 in labels else float("nan")


def _cmd_eval(args) -> _Run:
    out_path = _out_path(args.out) if args.out else None
    params, model_reducer, reducer_seed, crop_size = detector.load_params(args.model)
    got, trained = reducers.ReducerSpec.parse(args.reducer).canonical(), model_reducer.canonical()
    if got != trained:
        raise PixmapError("reducer-mismatch", f"model was trained with {trained}, got {got}")
    entries, images = _load_split(args.data, args.split)
    scores = detector.evaluate(params, entries, images, model_reducer, reducer_seed, crop_size)
    labels = [e.label for e in entries]
    accuracy, ap = detector.accuracy_at_half(scores, labels), _average_precision(scores, labels)
    summary = f"accuracy={accuracy!r}\naverage_precision={ap!r}\nn={len(entries)}\n"
    if out_path is None:
        return _Run(None, {}, [], [], summary=summary)
    rows = []
    for tag in sorted({e.generator for e in entries}):
        # A generator's fakes are scored against all reals; the reals have no AP of their own.
        pool = [i for i, e in enumerate(entries) if e.generator == tag or (tag != "real" and e.label == 0)]
        pool_scores, pool_labels = scores[pool], [labels[i] for i in pool]
        tag_ap = detector.average_precision(pool_scores, pool_labels) if tag != "real" and 0 in pool_labels else ""
        n = sum(e.generator == tag for e in entries)
        rows.append((tag, n, detector.accuracy_at_half(pool_scores, pool_labels), tag_ap))
    csv_text = image.format_csv(("generator", "n", "accuracy", "average_precision"), rows)
    image.write_atomic(out_path, csv_text.encode("ascii"))
    return _Run(_sidecar(out_path), {"reducer": reducer_seed}, [args.model, args.data], [out_path], summary=summary)


def _report_row(run: TrainConfig, train_split, test_split, reducer_seed) -> tuple[float, float, float]:
    """Train one report detector and score it: (train_acc, test_acc, test_ap)."""
    (train_entries, train_images), (test_entries, test_images) = train_split, test_split
    params, _ = detector.train(train_entries, train_images, run)
    train_scores = detector.evaluate(params, train_entries, train_images, run.reducer, reducer_seed, run.crop)
    test_scores = detector.evaluate(params, test_entries, test_images, run.reducer, reducer_seed, run.crop)
    test_labels = [e.label for e in test_entries]
    return (
        detector.accuracy_at_half(train_scores, [e.label for e in train_entries]),
        detector.accuracy_at_half(test_scores, test_labels),
        _average_precision(test_scores, test_labels),
    )


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
    worker count. The workers inherit the decoded splits and the configs
    when they fork, and only the result tuples cross a pipe.
    """
    runs = [dataclasses.replace(config, reducer=reducers.ReducerSpec.parse(name)) for name in REPORT_REDUCERS]
    for run in runs:
        run.reducer.validate_for_crop(run.crop)
    train_split = _load_split(data_dir, "train")
    test_split = _load_split(data_dir, "test")
    reducer_seed = rng.derive_seed(config.seed, "reducer")
    rows = _fork_map(lambda run: _report_row(run, train_split, test_split, reducer_seed), runs)
    header = ("reducer", "train_acc", "test_acc", "test_ap")
    return image.format_csv(header, [(name, *row) for name, row in zip(REPORT_REDUCERS, rows)])


def _cmd_report(args) -> _Run:
    # run_experiment swaps in each reducer; the first one only fills the field.
    config = _resolve_train_config(args, reducers.ReducerSpec.parse(REPORT_REDUCERS[0]))
    out_path = _out_path(args.out)
    csv_text = run_experiment(args.data, config)
    image.write_atomic(out_path, csv_text.encode("ascii"))
    return _Run(_sidecar(out_path), {"root": config.seed}, [args.data], [out_path], config, csv_text)


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

    p = sub.add_parser("map", help="reduce one image as spectrum does and write the raster")
    p.add_argument("--in", required=True, help="input PPM")
    p.add_argument("--reducer", required=True, help=_REDUCER_HELP)
    p.add_argument("--out", required=True, help="output .imf text raster")
    p.add_argument("--seed", type=int, default=0, help="seed for stochastic reducers")
    p.add_argument("--table-csv", default=None,
                   help="also dump the image's 256-entry mapping table(s) as CSV (fixed, random)")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("spectrum", help="mean power spectrum and radial profile of a directory")
    p.add_argument("--in", required=True, help="directory of PPM images")
    p.add_argument("--reducer", default="none", help=_REDUCER_HELP)
    p.add_argument("--out", required=True, help="radial profile CSV")
    p.add_argument("--heatmap", default=None, help="optional 2-D spectrum PGM")
    p.add_argument("--crop", type=int, default=None, help="center-crop before analysis")
    p.add_argument("--seed", type=int, default=0, help="seed for stochastic reducers")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("train", help="train the detector on a generated benchmark")
    p.add_argument("--data", required=True, help="benchmark directory (from gen)")
    p.add_argument("--reducer", required=True, help=_REDUCER_HELP)
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
    faulted back in, page by page, by the next step; the two settings below
    keep them mapped. Other platforms are left as they are.
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
        started = time.time()
        run = args.func(args)
        if run.manifest is not None:
            _write_run_manifest(args, started, run)
        print(run.summary, end="")
        return 0
    except PixmapError as exc:
        print(f"error: {exc.code}: {exc.message}", file=sys.stderr)
        return 2 if exc.code == "bad-usage" else 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out-of-memory: {exc}", file=sys.stderr)
        return 1


def run_and_exit(argv=None) -> NoReturn:
    """Run :func:`main` as the ``pixmap`` program: flush stdout and stderr, then leave by ``os._exit``.

    ``python -m pixmap.cli`` and the ``pixmap`` console script both come
    here. Skipping interpreter teardown saves every command the tens of
    milliseconds its garbage-collector passes take; every output file is
    closed by then. A stdout flush that fails, as on a closed pipe, ends in
    the one error line and exit code 1. argparse's ``--help`` and
    ``--version`` exits leave the same way.
    """
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's --help and --version
        code = exc.code or 0
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run_and_exit()
