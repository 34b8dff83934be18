"""Command-line driver: gen / map / spectrum / train / eval / report.

Every subcommand writes a JSON run manifest next to its primary output
(atomically, via rename) recording the resolved flags, derived seeds, tool
version, and wall clock. Deterministic subcommands reproduce byte-identical
outputs when re-run with the flags stored in their manifest.

Errors print exactly one line to stderr, ``error: <code>: <detail>``, and
exit nonzero; exit code 0 means success.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .detector import (
    TrainConfig,
    evaluate,
    load_params,
    save_params,
    train,
)
from .errors import PixmapError
from .image import (
    CropSpec,
    crop,
    decode_ppm,
    encode_ppm,
    write_atomic,
    write_imagef,
    write_pgm,
)
from .mapping import apply_mapping, build_fixed_table, build_random_tables
from .reducers import ReducerSpec, apply_reducer, highpass, npr_residual, patch_shuffle
from .rng import derive_seed
from .spectral import azimuthal_profile, heatmap_u8, mean_spectrum, profile_csv
from .synthgen import (
    DEFAULT_NOISE_SIGMA,
    UPSAMPLERS,
    build_benchmark,
    materialize,
    read_manifest_csv,
    write_manifest_csv,
)

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
    write_atomic(path, (json.dumps(manifest, sort_keys=True, indent=1) + "\n").encode("ascii"))


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise PixmapError("bad-config", f"{path}:{lineno}: expected key=value")
        values[key.strip()] = value.strip()
    return values


_CONFIG_KEYS = {
    "lr": float,
    "beta1": float,
    "beta2": float,
    "weight_decay": float,
    "epochs": int,
    "batch_size": int,
    "crop": int,
    "seed": int,
}

_TRAIN_DEFAULTS = {
    "lr": 2e-4,
    "beta1": 0.9,
    "beta2": 0.999,
    "weight_decay": 2e-4,
    "epochs": 30,
    "batch_size": 32,
    "crop": 32,
    "seed": 1,
}


def _resolve_train_config(args, reducer: ReducerSpec) -> TrainConfig:
    """Merge precedence: explicit flags > config file > built-in defaults."""
    file_values = _load_config_file(args.config) if args.config else {}
    resolved = {}
    for key, cast in _CONFIG_KEYS.items():
        flag = getattr(args, key)
        if flag is not None:
            resolved[key] = flag
        elif key in file_values:
            try:
                resolved[key] = cast(file_values[key])
            except ValueError as exc:
                raise PixmapError("bad-config", f"config key {key}: {exc}") from exc
        else:
            resolved[key] = _TRAIN_DEFAULTS[key]
        unknown = set(file_values) - set(_CONFIG_KEYS)
    if args.config and unknown:
        raise PixmapError("bad-config", f"unknown config keys: {sorted(unknown)}")
    return TrainConfig(reducer=reducer, **resolved)


def _load_split(data_dir: str, split: str):
    manifest_path = Path(data_dir) / f"{split}_manifest.csv"
    if not manifest_path.is_file():
        raise PixmapError("missing-file", f"no {split} manifest at {manifest_path}")
    return read_manifest_csv(manifest_path), Path(data_dir)


# --- subcommands ---------------------------------------------------------------


def _cmd_gen(args) -> int:
    started = time.time()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_manifest, test_manifest = build_benchmark(
        train_fake_upsampler=args.train_upsampler,
        test_fake_upsampler=args.test_upsampler,
        confound=args.confound,
        n_per_class=args.n,
        seed=args.seed,
        size=args.size,
        noise_sigma=args.noise_sigma,
    )
    outputs = []
    for split, manifest in (("train", train_manifest), ("test", test_manifest)):
        materialize(manifest, out_dir)
        csv_path = out_dir / f"{split}_manifest.csv"
        write_manifest_csv(csv_path, manifest)
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
    img = decode_ppm(Path(args.infile).read_bytes())
    out_path = Path(args.out)
    tables = None
    if args.mode == "fixed":
        tables = (build_fixed_table(),)
        result = apply_mapping(img, tables[0])
        write_imagef(out_path, result)
    elif args.mode == "random":
        tables = build_random_tables(args.seed)
        write_imagef(out_path, apply_mapping(img, tables))
    elif args.mode == "highpass":
        write_imagef(out_path, highpass(img, args.cutoff))
    elif args.mode == "npr":
        write_imagef(out_path, npr_residual(img))
    elif args.mode == "shuffle":
        shuffled = patch_shuffle(img, args.patch, args.seed)
        write_atomic(out_path, encode_ppm(shuffled))
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
        write_atomic(csv_path, ("\n".join(lines) + "\n").encode("ascii"))
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
    started = time.time()
    reducer = ReducerSpec.parse(args.reducer)
    in_dir = Path(args.indir)
    paths = sorted(in_dir.rglob("*.ppm"))
    if not paths:
        raise PixmapError("empty-input", f"no .ppm files under {in_dir}")
    reducer_root = derive_seed(args.seed, "reducer")
    images = []
    for p in paths:
        img = decode_ppm(p.read_bytes())
        if args.crop:
            img = crop(img, CropSpec(args.crop, "center"))
        images.append(apply_reducer(reducer, img, reducer_root, p.relative_to(in_dir).as_posix()))
    spec = mean_spectrum(images)
    profile = azimuthal_profile(spec)
    out_path = Path(args.out)
    write_atomic(out_path, profile_csv(profile).encode("ascii"))
    outputs = [out_path]
    if args.heatmap:
        write_pgm(args.heatmap, heatmap_u8(spec))
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
    reducer = ReducerSpec.parse(args.reducer)
    config = _resolve_train_config(args, reducer)
    entries, root = _load_split(args.data, "train")
    params, trace = train(entries, root, config)
    reducer_seed = derive_seed(config.seed, "reducer")
    out_path = Path(args.out)
    save_params(out_path, params, reducer, reducer_seed, config.crop)
    _write_run_manifest(
        out_path.with_name(out_path.name + ".run.json"),
        "train",
        {
            "data": args.data,
            "reducer": reducer.canonical(),
            "out": args.out,
            "config": args.config,
            **{k: getattr(config, k) for k in _CONFIG_KEYS},
        },
        {
            "root": config.seed,
            "init": derive_seed(config.seed, "init"),
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
    params, model_reducer, reducer_seed, crop_size = load_params(args.model)
    requested = ReducerSpec.parse(args.reducer)
    if requested.canonical() != model_reducer.canonical():
        raise PixmapError(
            "reducer-mismatch",
            f"model was trained with {model_reducer.canonical()}, got {requested.canonical()}",
        )
    entries, root = _load_split(args.data, args.split)
    report = evaluate(params, entries, root, model_reducer, reducer_seed, crop_size)
    for line in _report_lines(report):
        print(line)
    outputs = []
    if args.out:
        out_path = Path(args.out)
        write_atomic(out_path, _breakdown_csv(report).encode("ascii"))
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


def run_experiment(
    data_dir,
    seed: int = 1,
    epochs: int = 30,
    batch_size: int = 32,
    crop_size: int = 32,
    lr: float = 2e-4,
    weight_decay: float = 2e-4,
) -> str:
    """Train and evaluate one detector per reducer on the same benchmark.

    Returns the comparison CSV (reducer, train_acc, test_acc, test_ap) with
    one row per reducer in the documented fixed order. The same root seed
    drives every run, so rows differ only by reducer.
    """
    train_entries, root = _load_split(data_dir, "train")
    test_entries, _ = _load_split(data_dir, "test")
    lines = ["reducer,train_acc,test_acc,test_ap"]
    for name in REPORT_REDUCERS:
        reducer = ReducerSpec.parse(name)
        config = TrainConfig(
            reducer=reducer,
            seed=seed,
            lr=lr,
            weight_decay=weight_decay,
            epochs=epochs,
            batch_size=batch_size,
            crop=crop_size,
        )
        params, _ = train(train_entries, root, config)
        reducer_seed = derive_seed(seed, "reducer")
        train_report = evaluate(params, train_entries, root, reducer, reducer_seed, crop_size)
        test_report = evaluate(params, test_entries, root, reducer, reducer_seed, crop_size)
        lines.append(
            f"{name},{train_report.accuracy!r},{test_report.accuracy!r},"
            f"{test_report.average_precision!r}"
        )
    return "\n".join(lines) + "\n"


def _cmd_report(args) -> int:
    started = time.time()
    csv_text = run_experiment(
        args.data,
        seed=args.seed,
        epochs=args.epochs,
        batch_size=args.batch_size,
        crop_size=args.crop,
        lr=args.lr,
        weight_decay=args.weight_decay,
    )
    out_path = Path(args.out)
    write_atomic(out_path, csv_text.encode("ascii"))
    _write_run_manifest(
        out_path.with_name(out_path.name + ".run.json"),
        "report",
        {
            "data": args.data,
            "out": args.out,
            "seed": args.seed,
            "epochs": args.epochs,
            "batch_size": args.batch_size,
            "crop": args.crop,
            "lr": args.lr,
            "weight_decay": args.weight_decay,
        },
        {"root": args.seed},
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
    p.add_argument("--lr", type=float, default=None, help="Adam learning rate (default 2e-4)")
    p.add_argument("--beta1", type=float, default=None, help="Adam beta1 (default 0.9)")
    p.add_argument("--beta2", type=float, default=None, help="Adam beta2 (default 0.999)")
    p.add_argument("--weight-decay", dest="weight_decay", type=float, default=None,
                   help="decoupled weight decay (default 2e-4)")
    p.add_argument("--epochs", type=int, default=None, help="training epochs (default 30)")
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None,
                   help="minibatch size (default 32)")
    p.add_argument("--crop", type=int, default=None, help="random crop size (default 32)")
    p.add_argument("--seed", type=int, default=None, help="root seed (default 1)")
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
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=32)
    p.add_argument("--crop", type=int, default=32)
    p.add_argument("--lr", type=float, default=2e-4)
    p.add_argument("--weight-decay", dest="weight_decay", type=float, default=2e-4)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
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
