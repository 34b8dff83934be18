"""CLI error contract: one ``error: <code>: <detail>`` line and a nonzero exit."""

import dataclasses
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pixmap import cli
from pixmap.detector import TrainConfig, evaluate, init_params, save_params, train
from pixmap.errors import PixmapError
from pixmap.image import Image8, encode_ppm
from pixmap.reducers import ReducerSpec
from pixmap.rng import derive_seed
from pixmap.synthgen import build_benchmark, materialize, write_manifest_csv


def run_cli_error(capsys, argv):
    """Run the CLI, require the error contract, and return the stderr line."""
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code != 0
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ")
    return lines[0]


@pytest.fixture
def ppm_path(tmp_path):
    data = (np.arange(16 * 16 * 3) % 251).astype(np.uint8).reshape(16, 16, 3)
    path = tmp_path / "in.ppm"
    path.write_bytes(encode_ppm(Image8(data)))
    return path


@pytest.fixture
def weights_text(tmp_path):
    path = tmp_path / "good.w1"
    save_params(path, init_params(3), ReducerSpec.parse("none"), reducer_seed=1, crop_size=32)
    return path.read_text()


def test_map_shuffle_zero_patch(capsys, tmp_path, ppm_path):
    out = tmp_path / "out.ppm"
    line = run_cli_error(
        capsys,
        ["map", "--mode", "shuffle", "--patch", 0, "--seed", 1, "--in", ppm_path, "--out", out],
    )
    assert line.startswith("error: bad-patch: ")
    assert not out.exists()


def test_non_numeric_reducer_parameter(capsys, tmp_path):
    line = run_cli_error(
        capsys,
        ["train", "--data", tmp_path, "--reducer", "shuffle:abc", "--out", tmp_path / "m.w1"],
    )
    assert line.startswith("error: bad-reducer: ")


def test_eval_model_with_extra_tensor(capsys, tmp_path, weights_text):
    model = tmp_path / "extra.w1"
    model.write_text(weights_text + "tensor extra_w 1 1\n0.5\n")
    line = run_cli_error(
        capsys, ["eval", "--model", model, "--data", tmp_path, "--reducer", "none"]
    )
    assert line.startswith("error: malformed-header: ")


def test_eval_model_with_non_numeric_value(capsys, tmp_path, weights_text):
    model = tmp_path / "nan.w1"
    lines = weights_text.splitlines()
    row = lines.index("tensor linear_w 1 16") + 1
    lines[row] = "abc " + lines[row].split(" ", 1)[1]
    model.write_text("\n".join(lines) + "\n")
    line = run_cli_error(
        capsys, ["eval", "--model", model, "--data", tmp_path, "--reducer", "none"]
    )
    assert line.startswith("error: malformed-payload: ")


@pytest.fixture
def corpus_with_row(tmp_path):
    """Write a train manifest with one extra, caller-supplied row."""

    def write(row):
        (tmp_path / "train_manifest.csv").write_text(
            "path,label,generator,family,seed\ntrain/real_0000.ppm,0,real,A,1\n" + row + "\n"
        )
        return tmp_path

    return write


@pytest.mark.parametrize(
    "row",
    ["train/fake_0000.ppm,x,nearest,B,2", "/etc/passwd,0,real,A,2"],
    ids=["non-numeric-label", "absolute-path"],
)
def test_train_rejects_bad_manifest_row(capsys, tmp_path, corpus_with_row, row):
    data = corpus_with_row(row)
    line = run_cli_error(
        capsys, ["train", "--data", data, "--reducer", "none", "--out", tmp_path / "m.w1"]
    )
    assert line.startswith("error: bad-manifest: ")


def test_spectrum_zero_crop(capsys, tmp_path, ppm_path):
    line = run_cli_error(
        capsys, ["spectrum", "--in", tmp_path, "--crop", 0, "--out", tmp_path / "p.csv"]
    )
    assert line.startswith("error: bad-crop: ")


def test_train_non_ascii_config(capsys, tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_bytes(b"lr=0.001 \xe2\x80\x94 faster\n")
    line = run_cli_error(
        capsys,
        ["train", "--data", tmp_path, "--reducer", "none", "--out", tmp_path / "m.w1",
         "--config", config],
    )
    assert line.startswith("error: bad-config: ")


def test_report_checks_every_reducer_before_training(capsys, tmp_path, monkeypatch):
    assert cli.main(["gen", "--out", str(tmp_path), "--confound", "--n", "2", "--size", "32"]) == 0
    capsys.readouterr()
    calls = []
    monkeypatch.setattr(cli.detector, "train", lambda *args: calls.append(args))
    line = run_cli_error(
        capsys, ["report", "--data", tmp_path, "--out", tmp_path / "r.csv", "--crop", 30]
    )
    assert line.startswith("error: patch-mismatch: ")
    assert calls == []
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("code", ["single-class", "bad-usage", "worker-failed", "io"])
def test_pixmap_error_survives_pickling(code):
    err = pickle.loads(pickle.dumps(PixmapError(code, f"detail of {code}: x")))
    assert type(err) is PixmapError
    assert (err.code, err.message) == (code, f"detail of {code}: x")
    assert str(err) == f"{code}: detail of {code}: x"


def _gen_confound(data, n):
    assert cli.main(["gen", "--out", str(data), "--confound", "--n", str(n), "--size", "32"]) == 0


def test_report_worker_error_keeps_error_contract(capsys, tmp_path):
    _gen_confound(tmp_path, 2)
    manifest = tmp_path / "train_manifest.csv"
    header, *rows = manifest.read_text().splitlines()
    manifest.write_text("\n".join([header] + [r for r in rows if r.split(",")[1] == "0"]) + "\n")
    capsys.readouterr()
    line = run_cli_error(
        capsys, ["report", "--data", tmp_path, "--out", tmp_path / "r.csv", "--epochs", 1]
    )
    assert line.startswith("error: single-class: ")
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "r.csv").exists()


def test_report_dead_worker_is_worker_failed(capsys, tmp_path, monkeypatch):
    _gen_confound(tmp_path, 2)
    capsys.readouterr()
    monkeypatch.setattr(cli.detector, "train", lambda *args: os._exit(3))  # forked workers inherit it
    line = run_cli_error(
        capsys, ["report", "--data", tmp_path, "--out", tmp_path / "r.csv", "--epochs", 1]
    )
    assert line.startswith("error: worker-failed: ")
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "r.csv").exists()


def test_report_equals_serial_oracle(capsys, tmp_path):
    data, out = tmp_path / "data", tmp_path / "r.csv"
    _gen_confound(data, 4)
    assert cli.main(["report", "--data", str(data), "--out", str(out), "--epochs", "1"]) == 0
    assert multiprocessing.active_children() == []
    config = TrainConfig(reducer=ReducerSpec.parse("none"), epochs=1)
    train_entries, train_images = cli._load_split(data, "train")
    test_entries, test_images = cli._load_split(data, "test")
    reducer_seed = derive_seed(config.seed, "reducer")
    lines = ["reducer,train_acc,test_acc,test_ap"]
    for name in cli.REPORT_REDUCERS:
        run = dataclasses.replace(config, reducer=ReducerSpec.parse(name))
        params, _ = train(train_entries, train_images, run)
        fit = evaluate(params, train_entries, train_images, run.reducer, reducer_seed, run.crop)
        test = evaluate(params, test_entries, test_images, run.reducer, reducer_seed, run.crop)
        lines.append(f"{name},{fit.accuracy!r},{test.accuracy!r},{test.average_precision!r}")
    expected = "\n".join(lines) + "\n"
    assert out.read_text() == expected
    assert capsys.readouterr().out.endswith(expected)
    assert (tmp_path / "r.csv.run.json").is_file()


def _file_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "flags",
    [
        {"confound": True, "n": 5, "train_upsampler": "nearest", "test_upsampler": "bilinear"},
        {"confound": False, "n": 3, "train_upsampler": "bilinear", "test_upsampler": "zero_insert_conv"},
    ],
)
def test_gen_equals_serial_oracle(capsys, tmp_path, flags):
    data, oracle = tmp_path / "data", tmp_path / "oracle"
    argv = ["gen", "--out", str(data), "--n", str(flags["n"]), "--size", "16", "--seed", "7",
            "--train-upsampler", flags["train_upsampler"], "--test-upsampler", flags["test_upsampler"]]
    assert cli.main(argv + ["--confound"] * flags["confound"]) == 0
    assert multiprocessing.active_children() == []
    manifests = build_benchmark(
        flags["train_upsampler"], flags["test_upsampler"], flags["confound"], flags["n"], seed=7, size=16
    )
    for split, manifest in zip(("train", "test"), manifests):
        materialize(manifest, oracle)
        write_manifest_csv(oracle / f"{split}_manifest.csv", manifest)
    got = _file_bytes(data)
    del got["run.json"]  # records the wall clock
    assert got == _file_bytes(oracle)


def test_gen_worker_io_error_keeps_error_contract(capsys, tmp_path):
    (tmp_path / "test" / "fake_0001.ppm").mkdir(parents=True)
    code = cli.main(["gen", "--out", str(tmp_path), "--n", "2", "--size", "16"])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: io: "), lines
    assert multiprocessing.active_children() == []
    assert list(tmp_path.glob("*_manifest.csv")) == []


def test_gen_dead_worker_is_worker_failed(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli.synthgen, "materialize", lambda *args: os._exit(3))  # forked workers inherit it
    line = run_cli_error(capsys, ["gen", "--out", tmp_path, "--n", 2, "--size", 16])
    assert line.startswith("error: worker-failed: ")
    assert multiprocessing.active_children() == []
    assert list(tmp_path.glob("*_manifest.csv")) == []


def test_cli_import_loads_no_process_pool():
    code = (
        "import sys, pixmap.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


def _python_last_line(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's pixmap; return its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-c", code, *map(str, args)]
    return subprocess.run(argv, capture_output=True, text=True, env=env, check=True).stdout.splitlines()[-1]


# Runs one CLI command, then prints its exit code, whether numpy was loaded,
# and the pixmap modules that are registered but were never run.
_RUN_AND_LIST_UNRUN = """
import sys, types
from pixmap import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
unrun = [n for n, m in sys.modules.items() if n.startswith("pixmap.") and type(m) is not types.ModuleType]
print(code, "numpy" in sys.modules, *sorted(n.removeprefix("pixmap.") for n in unrun))
"""


@pytest.mark.parametrize("argv, code", [(["--version"], 0), (["--help"], 0), (["gen"], 2)])
def test_parser_only_runs_load_no_numpy(argv, code):
    status, numpy_loaded, *_ = _python_last_line(_RUN_AND_LIST_UNRUN, *argv).split()
    assert (status, numpy_loaded) == (str(code), "False")


def test_gen_and_spectrum_run_only_the_modules_they_call(tmp_path):
    status, numpy_loaded, *unrun = _python_last_line(
        _RUN_AND_LIST_UNRUN, "gen", "--out", tmp_path, "--n", 2, "--size", 16
    ).split()
    assert (status, numpy_loaded) == ("0", "True")
    assert {"detector", "reducers", "spectral", "mapping"} <= set(unrun)
    status, _, *unrun = _python_last_line(
        _RUN_AND_LIST_UNRUN, "spectrum", "--in", tmp_path, "--reducer", "random", "--out", tmp_path / "p.csv"
    ).split()
    assert status == "0"
    assert {"detector", "synthgen"} <= set(unrun)


def test_cli_import_registers_every_library_module():
    # perfbench/traced_cli.py looks every layer's module up in sys.modules right after this import.
    code = "import sys, pixmap.cli; print(*sorted(n for n in sys.modules if n.startswith('pixmap.')))"
    library = {"detector", "image", "mapping", "reducers", "rng", "spectral", "synthgen"}
    assert {f"pixmap.{name}" for name in library} <= set(_python_last_line(code).split())


def test_every_exported_name_is_the_defining_modules_object():
    code = (
        "import sys, types, pixmap\n"
        "def home(name, obj):\n"
        "    if isinstance(obj, types.ModuleType):\n"
        "        return sys.modules[f'pixmap.{name}']\n"
        "    return getattr(sys.modules[obj.__module__], name)\n"
        "print(len(pixmap.__all__), [n for n in pixmap.__all__ if home(n, getattr(pixmap, n)) is not getattr(pixmap, n)])"
    )
    assert _python_last_line(code) == "62 []"


def test_spectrum_highpass_odd_crop_end_to_end(tmp_path):
    data, out = tmp_path / "data", tmp_path / "p.csv"
    assert cli.main(["gen", "--out", str(data), "--n", "2", "--size", "32"]) == 0
    argv = ["spectrum", "--in", data, "--reducer", "highpass", "--crop", 31, "--out", out]
    assert cli.main([str(a) for a in argv]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows[:, 0].tolist() == list(range(16))
    assert rows[:, 2].sum() == 31 * 31
    assert np.all(np.isfinite(rows[:, 1])) and np.all(rows[:, 1] >= 0)


def _bad_ppm(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P6\n4 4\n255\n\x00")
    return path


def _garbage_weights(tmp_path):
    path = tmp_path / "bad.w1"
    path.write_text("not weights\n")
    return path


# One bad input per subcommand, each ending in the one-line error contract.
BAD_INPUTS = {
    "gen": (lambda t: ["gen", "--out", t / "g", "--size", 7], "bad-generator"),
    "map": (lambda t: ["map", "--mode", "npr", "--in", _bad_ppm(t), "--out", t / "o.imf"],
            "truncated-payload"),
    "spectrum": (lambda t: ["spectrum", "--in", _bad_ppm(t).parent, "--out", t / "p.csv"],
                 "truncated-payload"),
    "train": (lambda t: ["train", "--data", t, "--reducer", "none", "--out", t / "m.w1"],
              "missing-file"),
    "eval": (lambda t: ["eval", "--model", _garbage_weights(t), "--data", t, "--reducer", "none"],
             "unsupported-format"),
    "report": (lambda t: ["report", "--data", t, "--out", t / "r.csv"], "missing-file"),
}


@pytest.mark.parametrize("subcommand", sorted(BAD_INPUTS))
def test_every_subcommand_reports_one_error_line(capsys, tmp_path, subcommand):
    argv, code = BAD_INPUTS[subcommand]
    line = run_cli_error(capsys, argv(tmp_path))
    assert line.startswith(f"error: {code}: ") and len(line) > len(f"error: {code}: ")


# A bad corpus or training setting, as a flag or a config-file line: each
# fails before any image, weight or worker exists.
BAD_SETTINGS = {
    "gen-odd-size": (["gen", "--size", 7], "bad-generator"),
    "gen-negative-noise": (["gen", "--noise-sigma", -1], "bad-generator"),
    "gen-inf-noise": (["gen", "--noise-sigma", "inf"], "bad-generator"),
    "gen-nan-noise": (["gen", "--noise-sigma", "nan"], "bad-generator"),
    "train-inf-lr": (["train", "--reducer", "none", "--lr", "inf"], "bad-config"),
    "train-nan-lr": (["train", "--reducer", "none", "--lr", "nan"], "bad-config"),
    "train-nan-weight-decay": (["train", "--reducer", "none", "--weight-decay", "nan"], "bad-config"),
    "train-config-inf-lr": (["train", "--reducer", "none", "--config", "lr=inf"], "bad-config"),
    "report-inf-weight-decay": (["report", "--weight-decay", "inf"], "bad-config"),
}


@pytest.mark.filterwarnings("error")  # a numpy warning would break the one-line contract
@pytest.mark.parametrize("case", sorted(BAD_SETTINGS))
def test_bad_setting_fails_before_writing(capsys, tmp_path, case):
    (subcommand, *flags), code = BAD_SETTINGS[case]
    data, out = tmp_path / "data", tmp_path / "out"
    if subcommand == "gen":
        argv = [subcommand, "--out", out, "--n", 2, "--size", 16, *flags]
    else:
        _gen_confound(data, 2)
        capsys.readouterr()
        if "--config" in flags:
            config = tmp_path / "cfg.txt"
            config.write_text(flags.pop() + "\n")
            flags.append(config)
        argv = [subcommand, "--data", data, "--out", out, *flags]
    line = run_cli_error(capsys, argv)
    assert line.startswith(f"error: {code}: ")
    assert not out.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "reducer", ["none", "fixed", "random", "highpass", "npr", "shuffle:8", "shuffle:2"]
)
def test_spectrum_profile_equals_per_image_reference(tmp_path, reducer):
    from pixmap.image import decode_ppm
    from pixmap.reducers import apply_reducer
    from pixmap.rng import derive_seed
    from pixmap.spectral import azimuthal_profile, mean_spectrum, profile_csv

    data, out = tmp_path / "data", tmp_path / "p.csv"
    assert cli.main(["gen", "--out", str(data), "--n", "2", "--size", "32"]) == 0
    argv = ["spectrum", "--in", data, "--reducer", reducer, "--seed", 5, "--out", out]
    assert cli.main([str(a) for a in argv]) == 0
    spec, root = ReducerSpec.parse(reducer), derive_seed(5, "reducer")
    images = [
        apply_reducer(spec, decode_ppm(p.read_bytes()), root, p.relative_to(data).as_posix())
        for p in sorted(data.rglob("*.ppm"))
    ]
    assert len(images) == 8
    expected = profile_csv(azimuthal_profile(mean_spectrum(images)))
    assert out.read_bytes() == expected.encode("ascii")
