"""CLI error contract: one ``error: <code>: <detail>`` line and a nonzero exit."""

import dataclasses
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from pixmap import __version__, cli
from pixmap.config import DEFAULT_NOISE_SIGMA
from pixmap.detector import TrainConfig, average_precision, evaluate, init_params, load_params, save_params, train
from pixmap.errors import PixmapError
from pixmap.image import encode_ppm
from pixmap.reducers import ReducerSpec
from pixmap.rng import derive_seed
from pixmap.synthgen import build_benchmark, materialize, write_manifest_csv


def _assert_no_child_left():
    """The test process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_cli_error(capsys, argv):
    """Run the CLI, require the error contract, and return the stderr line."""
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code != 0
    assert captured.out == ""
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ")
    return lines[0]


@pytest.fixture
def ppm_path(tmp_path):
    data = (np.arange(16 * 16 * 3) % 251).astype(np.uint8).reshape(16, 16, 3)
    path = tmp_path / "in.ppm"
    path.write_bytes(encode_ppm(data))
    return path


@pytest.fixture
def weights_text(tmp_path):
    path = tmp_path / "good.w1"
    save_params(path, init_params(3), ReducerSpec.parse("none"), reducer_seed=1, crop_size=32)
    return path.read_text()


def test_map_shuffle_zero_patch(capsys, tmp_path, ppm_path):
    out = tmp_path / "out.imf"
    line = run_cli_error(
        capsys, ["map", "--reducer", "shuffle:0", "--seed", 1, "--in", ppm_path, "--out", out]
    )
    assert line.startswith("error: bad-reducer: ")
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


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_eval_model_with_non_finite_value(capsys, tmp_path, weights_text, value):
    model = tmp_path / "nan.w1"
    lines = weights_text.splitlines()
    row = lines.index("tensor linear_w 1 16") + 1
    lines[row] = f"{value} " + lines[row].split(" ", 1)[1]
    model.write_text("\n".join(lines) + "\n")
    code = cli.main(["eval", "--model", str(model), "--data", str(tmp_path), "--reducer", "none"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: bad-params: linear_w contains non-finite values\n"
    assert captured.out == ""


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
    [
        "train/fake_0000.ppm,x,nearest,B,2",
        "/etc/passwd,0,real,A,2",
        "train/real_0001.ppm,1,real,A,2",
        "train/real_0000.ppm,0,real,A,1",
        "train/./real_0000.ppm,0,real,A,1",
        "train//real_0000.ppm,0,real,A,1",
        "train/fake_0000.ppm,1,foo,A,2",
        "train/fake_0000.ppm,1,nearest,Z,2",
    ],
    ids=["non-numeric-label", "absolute-path", "label-contradicts-generator", "repeated-path",
         "repeated-path-dot", "repeated-path-double-slash", "unknown-generator", "unknown-family"],
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


@pytest.mark.parametrize(
    "command, crop, code",
    [("spectrum", -3, "bad-crop"), ("spectrum", 10**20, "crop-too-large"), ("eval", -3, "bad-crop")],
    ids=["spectrum-negative", "spectrum-huge", "eval-negative"],
)
def test_bad_crop_size_is_one_error_line(capsys, tmp_path, small_corpus, command, crop, code):
    # The crop size is checked before the crop stack is allocated.
    out = tmp_path / "out.csv"
    if command == "spectrum":
        argv = ["spectrum", "--in", small_corpus, "--crop", crop, "--out", out]
    else:
        model = tmp_path / "m.w1"
        save_params(model, init_params(1), ReducerSpec.parse("none"), reducer_seed=1, crop_size=crop)
        argv = ["eval", "--model", model, "--data", small_corpus, "--reducer", "none", "--out", out]
    assert cli.main([str(a) for a in argv]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {code}: "), lines
    assert not out.exists()


def test_train_non_ascii_config(capsys, tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_bytes(b"lr=0.001 \xe2\x80\x94 faster\n")
    line = run_cli_error(
        capsys,
        ["train", "--data", tmp_path, "--reducer", "none", "--out", tmp_path / "m.w1",
         "--config", config],
    )
    assert line.startswith("error: bad-config: ")


def test_train_config_repeated_key(capsys, tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("lr=0.001\n# a comment\nlr=0.002\n")
    line = run_cli_error(
        capsys,
        ["train", "--data", tmp_path, "--reducer", "none", "--out", tmp_path / "m.w1",
         "--config", config],
    )
    assert line == f"error: bad-config: {config}:3: repeated key 'lr'"


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


@pytest.mark.parametrize(
    "command",
    [lambda t: ["train", "--reducer", "none", "--epochs", 1], lambda t: ["report", "--epochs", 1],
     lambda t: ["eval", "--model", t / "m.w1", "--reducer", "none"]],
    ids=["train", "report", "eval"],
)
def test_missing_out_directory_fails_before_training(capsys, tmp_path, monkeypatch, command):
    assert cli.main(["gen", "--out", str(tmp_path), "--confound", "--n", "2", "--size", "32"]) == 0
    save_params(tmp_path / "m.w1", init_params(1), ReducerSpec.parse("none"), reducer_seed=1, crop_size=8)
    capsys.readouterr()
    calls = []
    for name in ("train", "load_images", "evaluate"):
        monkeypatch.setattr(cli.detector, name, lambda *args: calls.append(args))
    out = tmp_path / "missing" / "out"
    line = run_cli_error(capsys, [*command(tmp_path), "--data", tmp_path, "--out", out])
    assert line == f"error: io: [Errno 2] No such file or directory: '{out}'"
    assert calls == []
    assert not (tmp_path / "missing").exists()


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
    _assert_no_child_left()
    assert not (tmp_path / "r.csv").exists()


def test_report_dead_worker_is_worker_failed(capsys, tmp_path, monkeypatch):
    _gen_confound(tmp_path, 2)
    capsys.readouterr()
    monkeypatch.setattr(cli.detector, "train", lambda *args: os._exit(3))  # forked workers inherit it
    line = run_cli_error(
        capsys, ["report", "--data", tmp_path, "--out", tmp_path / "r.csv", "--epochs", 1]
    )
    assert line.startswith("error: worker-failed: ")
    _assert_no_child_left()
    assert not (tmp_path / "r.csv").exists()


def test_report_equals_serial_oracle(capsys, tmp_path):
    data, out = tmp_path / "data", tmp_path / "r.csv"
    _gen_confound(data, 4)
    assert cli.main(["report", "--data", str(data), "--out", str(out), "--epochs", "1"]) == 0
    _assert_no_child_left()
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
        train_labels = np.array([e.label for e in train_entries])
        test_labels = np.array([e.label for e in test_entries])
        train_acc = float(np.mean((fit >= 0.5) == (train_labels == 1)))
        test_acc = float(np.mean((test >= 0.5) == (test_labels == 1)))
        lines.append(f"{name},{train_acc!r},{test_acc!r},{average_precision(test, test_labels)!r}")
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
    got, expected = _gen_and_serial_oracle(tmp_path, **flags)
    assert got == expected


@pytest.mark.parametrize("workers", [1, 3])
def test_gen_bytes_do_not_depend_on_worker_count(capsys, tmp_path, monkeypatch, workers):
    # 20 entries dealt into 3 interleaved shares: each share holds train and test images.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    got, expected = _gen_and_serial_oracle(tmp_path, True, 5, "nearest", "bilinear")
    assert got == expected


def _gen_and_serial_oracle(tmp_path, confound, n, train_upsampler, test_upsampler):
    """Run ``gen`` at 16 px and seed 7, write the same corpus serially, and return both trees' bytes.

    ``gen``'s ``run.json`` is left out: it records the wall clock.
    """
    data, oracle = tmp_path / "data", tmp_path / "oracle"
    argv = ["gen", "--out", str(data), "--n", str(n), "--size", "16", "--seed", "7",
            "--train-upsampler", train_upsampler, "--test-upsampler", test_upsampler]
    assert cli.main(argv + ["--confound"] * confound) == 0
    _assert_no_child_left()
    for split, entries in zip(("train", "test"), build_benchmark(train_upsampler, test_upsampler, confound, n, seed=7)):
        materialize(entries, oracle, 16, DEFAULT_NOISE_SIGMA)
        write_manifest_csv(oracle / f"{split}_manifest.csv", entries)
    got = _file_bytes(data)
    del got["run.json"]
    return got, _file_bytes(oracle)


def test_gen_worker_io_error_keeps_error_contract(capsys, tmp_path):
    (tmp_path / "test" / "fake_0001.ppm").mkdir(parents=True)
    code = cli.main(["gen", "--out", str(tmp_path), "--n", "2", "--size", "16"])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: io: "), lines
    _assert_no_child_left()
    assert list(tmp_path.glob("*_manifest.csv")) == []


def test_gen_dead_worker_is_worker_failed(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli.synthgen, "materialize", lambda *args: os._exit(3))  # forked workers inherit it
    line = run_cli_error(capsys, ["gen", "--out", tmp_path, "--n", 2, "--size", 16])
    assert line.startswith("error: worker-failed: ")
    _assert_no_child_left()
    assert list(tmp_path.glob("*_manifest.csv")) == []


def _generate_out_of_memory(*args):
    raise MemoryError("Unable to allocate 22.4 TiB for an array with shape (1000000, 1000000, 3)")


def test_gen_worker_memory_error_is_one_error_line(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli.synthgen, "generate", _generate_out_of_memory)  # forked workers inherit it
    line = run_cli_error(capsys, ["gen", "--out", tmp_path, "--n", 2, "--size", 16])
    assert line == "error: out-of-memory: Unable to allocate 22.4 TiB for an array with shape (1000000, 1000000, 3)"
    _assert_no_child_left()
    assert list(tmp_path.iterdir()) == []  # no train/, test/, manifest CSV or run.json


def test_cli_import_loads_no_process_pool(tmp_path):
    # gen and report fork their workers directly: no command needs a pool module.
    code = (
        "import sys, pixmap.cli; d = sys.argv[1]; "
        "assert pixmap.cli.main(['gen', '--out', d, '--confound', '--n', '2', '--size', '32']) == 0; "
        "assert pixmap.cli.main(['report', '--data', d, '--out', d + '/r.csv', '--epochs', '1']) == 0; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    assert _python_last_line(code, tmp_path) == "[]"


def test_fork_map_worker_system_exit_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)

    def exit_at_two(item):
        if item == 2:
            raise SystemExit(7)
        return item

    pid = os.getpid()
    with pytest.raises(SystemExit) as info:
        cli._fork_map(exit_at_two, [0, 1, 2, 3])
    assert info.value.code == 7
    assert os.getpid() == pid
    _assert_no_child_left()


def test_fork_map_raises_the_earliest_failing_item(monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)

    def fail_late(item):
        # Worker 0 (items 0, 2, 4) fails first, at item 4; worker 1 (items
        # 1, 3, 5) fails 0.2 s later at item 3, which comes first in item order.
        if item == 3:
            time.sleep(0.2)
        if item in (3, 4):
            raise PixmapError("io", f"item {item}")
        return item

    with pytest.raises(PixmapError, match="item 3"):
        cli._fork_map(fail_late, list(range(6)))
    _assert_no_child_left()


def test_fork_map_without_fork_computes_in_process(monkeypatch):
    items = list(range(5))
    forked = cli._fork_map(lambda item: (item * item, os.getpid()), items)
    assert [square for square, _ in forked] == [item * item for item in items]
    assert os.getpid() not in {pid for _, pid in forked}
    _assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    assert cli._fork_map(lambda item: (item * item, os.getpid()), items) == [(i * i, os.getpid()) for i in items]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_is_one_error_line(tmp_path, unbuffered):
    _gen_confound(tmp_path, 2)
    argv = [sys.executable, "-m", "pixmap.cli", "train", "--data", tmp_path, "--reducer", "none", "--epochs", 1,
            "--out", tmp_path / "m.w1"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([str(a) for a in argv], stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, "error: io: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize(
    "argv, code, out", [(["--version"], 0, f"pixmap {__version__}\n"), (["gen"], 2, "")], ids=["version", "usage"]
)
def test_module_entry_point_exit_code(argv, code, out):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-m", "pixmap.cli", *argv], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout) == (code, out)
    assert result.stderr.count("\n") == (code != 0)


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
    assert _python_last_line(code) == "9 []"


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
    "map": (lambda t: ["map", "--reducer", "npr", "--in", _bad_ppm(t), "--out", t / "o.imf"],
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


# Every command that reads a corpus image names the file when it cannot decode it.
READS_TRAIN_IMAGE = {
    "spectrum": lambda t, img: ["spectrum", "--in", t, "--out", t / "p.csv"],
    "map": lambda t, img: ["map", "--reducer", "none", "--in", img, "--out", t / "o.imf"],
    "train": lambda t, img: ["train", "--data", t, "--reducer", "none", "--out", t / "m.w1"],
    "eval": lambda t, img: ["eval", "--model", t / "m.w1", "--data", t, "--reducer", "none", "--split", "train"],
    "report": lambda t, img: ["report", "--data", t, "--out", t / "r.csv"],
}


@pytest.mark.parametrize("subcommand", sorted(READS_TRAIN_IMAGE))
@pytest.mark.parametrize(
    "damage, detail",
    [(lambda raw: raw[:-5], "truncated-payload: {}: need 3072 bytes, got 3067"),
     (lambda raw: b"P5" + raw[2:], "unsupported-format: {}: expected P6 magic, got 'P5'")],
    ids=["truncated", "p5"],
)
def test_decode_error_names_the_file(capsys, tmp_path, subcommand, damage, detail):
    _gen_confound(tmp_path, 2)
    save_params(tmp_path / "m.w1", init_params(1), ReducerSpec.parse("none"), reducer_seed=1, crop_size=8)
    capsys.readouterr()
    img = tmp_path / "train" / "real_0001.ppm"
    img.write_bytes(damage(img.read_bytes()))
    line = run_cli_error(capsys, READS_TRAIN_IMAGE[subcommand](tmp_path, img))
    assert line == "error: " + detail.format(img)


# A bad corpus or training setting, as a flag or a config-file line: each
# fails before any image or weight is written.
BAD_SETTINGS = {
    "gen-odd-size": (["gen", "--size", 7], "bad-generator"),
    "gen-negative-noise": (["gen", "--noise-sigma", -1], "bad-generator"),
    "gen-inf-noise": (["gen", "--noise-sigma", "inf"], "bad-generator"),
    "gen-nan-noise": (["gen", "--noise-sigma", "nan"], "bad-generator"),
    "gen-overflowing-noise": (["gen", "--noise-sigma", "1e308"], "bad-generator"),
    "gen-unindexable-size": (["gen", "--size", 100000000000], "bad-generator"),
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
    _assert_no_child_left()


# An absurd learning rate: at --epochs 2 the second step's update is not
# finite; at --epochs 1 the one step leaves finite weights that score NaN.
DIVERGING = {
    "train": (["train", "--reducer", "none", "--epochs", 2], "diverged: training diverged in epoch 2: "),
    "train-one-step": (["train", "--reducer", "none", "--epochs", 1, "--batch-size", 1000],
                       "diverged: training diverged in epoch 1: "),
    "report": (["report", "--epochs", 2], "diverged: training diverged in epoch 2: "),
    "report-one-step": (["report", "--epochs", 1], "diverged: training diverged in epoch 1: "),
}


@pytest.mark.parametrize("case", sorted(DIVERGING))
def test_diverging_run_prints_one_error_line_and_no_warning(tmp_path, case):
    (subcommand, *flags), detail = DIVERGING[case]
    data, out = tmp_path / "data", tmp_path / "out"
    _gen_confound(data, 2)
    argv = [sys.executable, "-m", "pixmap.cli", subcommand, "--data", data, "--out", out, "--lr", "1e300", *flags]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    # Its own session, so a hung run's workers can be killed with it.
    proc = subprocess.Popen([str(a) for a in argv], stderr=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        raise
    assert proc.returncode == 1
    assert stderr.splitlines() == [stderr.strip()], stderr
    assert stderr.startswith(f"error: {detail}")
    assert "Warning" not in stderr
    assert not out.exists()


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
    expected = profile_csv(*azimuthal_profile(mean_spectrum(images)))
    assert out.read_bytes() == expected.encode("ascii")


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    data = tmp_path_factory.mktemp("corpus")
    assert cli.main(["gen", "--out", str(data), "--n", "2", "--size", "32"]) == 0
    return data


@pytest.mark.parametrize("reducer", ["none", "fixed", "random", "highpass", "npr", "shuffle:8"])
def test_map_writes_the_raster_spectrum_reduces(tmp_path, small_corpus, reducer):
    from pixmap.image import decode_ppm, read_imagef
    from pixmap.mapping import apply_mapping, build_fixed_table, map_batch
    from pixmap.reducers import apply_reducer

    spec, root = ReducerSpec.parse(reducer), derive_seed(5, "reducer")
    table = spec.kind in ("fixed", "random")
    for src in sorted((small_corpus / "test").glob("*.ppm")):
        out, csv = tmp_path / f"{src.stem}.imf", tmp_path / f"{src.stem}.csv"
        argv = ["map", "--in", src, "--reducer", reducer, "--seed", 5, "--out", out]
        assert cli.main([str(a) for a in argv + ["--table-csv", csv] * table]) == 0
        raster = read_imagef(out)
        img = decode_ppm(src.read_bytes())
        # spectrum --in test/ tags this file with its name alone
        assert raster.tobytes() == apply_reducer(spec, img, root, src.name).tobytes()
        if spec.kind == "fixed":
            assert raster.tobytes() == apply_mapping(img, build_fixed_table()).tobytes()
        if table:
            rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
            assert rows[:, 0].tolist() == list(range(256))
            entries = rows[:, 1:].T[None]
            batch = img.transpose(2, 0, 1)[None]
            assert map_batch(batch, entries)[0].transpose(1, 2, 0).tobytes() == raster.tobytes()


@pytest.mark.parametrize("reducer", ["none", "highpass", "npr", "shuffle:8"])
def test_map_table_csv_without_a_table_fails_before_writing(capsys, tmp_path, small_corpus, reducer):
    src = small_corpus / "test" / "real_0000.ppm"
    out, csv = tmp_path / "o.imf", tmp_path / "t.csv"
    line = run_cli_error(
        capsys, ["map", "--in", src, "--reducer", reducer, "--out", out, "--table-csv", csv]
    )
    assert line.startswith("error: bad-usage: ")
    assert list(tmp_path.iterdir()) == []


def test_io_error_names_the_target_not_the_temp_file(capsys, tmp_path, small_corpus):
    out = tmp_path / "missing" / "x.csv"
    line = run_cli_error(capsys, ["spectrum", "--in", small_corpus, "--out", out])
    assert line.startswith("error: io: ") and line.endswith(f"'{out}'")
    assert ".tmp" not in line


def _gen_manifest(t, data):
    out = t / "gen"
    argv = ["gen", "--out", out, "--n", 2, "--size", 16, "--seed", 9]
    flags = {"out": str(out), "train_upsampler": "nearest", "test_upsampler": "bilinear",
             "confound": False, "n": 2, "seed": 9, "size": 16, "noise_sigma": 2.0}
    outputs = [out / "train_manifest.csv", out / "test_manifest.csv"]
    return argv, out / "run.json", flags, {"root": 9}, [], outputs


def _map_manifest(t, data):
    src, out = data / "train" / "real_0000.ppm", t / "m.imf"
    argv = ["map", "--in", src, "--reducer", "highpass", "--seed", 5, "--out", out]
    flags = {"in": str(src), "reducer": "highpass:0.25", "out": str(out), "seed": 5, "table_csv": None}
    return argv, t / "m.imf.run.json", flags, {"reducer": derive_seed(5, "reducer")}, [src], [out]


def _spectrum_manifest(t, data):
    out, heatmap = t / "p.csv", t / "h.pgm"
    argv = ["spectrum", "--in", data / "test", "--reducer", "shuffle:08", "--crop", 16,
            "--heatmap", heatmap, "--out", out]
    flags = {"in": str(data / "test"), "reducer": "shuffle:8", "out": str(out),
             "heatmap": str(heatmap), "crop": 16, "seed": 0}
    inputs = sorted((data / "test").rglob("*.ppm"))
    return argv, t / "p.csv.run.json", flags, {"reducer": derive_seed(0, "reducer")}, inputs, [out, heatmap]


def _train_flags(t, data):
    config = t / "cfg.txt"
    config.write_text("epochs=1\nlr=0.001\n")
    argv = ["train", "--data", data, "--reducer", "highpass", "--out", t / "w.w1",
            "--config", config, "--batch-size", 4, "--crop", 16]
    flags = {"data": str(data), "reducer": "highpass:0.25", "out": str(t / "w.w1"), "config": str(config),
             "lr": 0.001, "beta1": 0.9, "beta2": 0.999, "weight_decay": 2e-4, "epochs": 1,
             "batch_size": 4, "crop": 16, "seed": 1}
    return argv, flags


def _train_manifest(t, data):
    argv, flags = _train_flags(t, data)
    seeds = {"root": 1, "init": derive_seed(1, "init"), "reducer": derive_seed(1, "reducer")}
    return argv, t / "w.w1.run.json", flags, seeds, [data], [t / "w.w1"]


def _eval_manifest(t, data):
    assert cli.main([str(a) for a in _train_flags(t, data)[0]]) == 0
    model, out = t / "w.w1", t / "e.csv"
    argv = ["eval", "--model", model, "--data", data, "--reducer", "highpass", "--out", out]
    flags = {"model": str(model), "data": str(data), "reducer": "highpass:0.25", "split": "test", "out": str(out)}
    return argv, t / "e.csv.run.json", flags, {"reducer": derive_seed(1, "reducer")}, [model, data], [out]


def _report_manifest(t, data):
    out = t / "r.csv"
    argv = ["report", "--data", data, "--out", out, "--epochs", 1, "--crop", 16]
    flags = {"data": str(data), "out": str(out), "seed": 1, "epochs": 1, "batch_size": 32,
             "crop": 16, "lr": 2e-4, "weight_decay": 2e-4}
    return argv, t / "r.csv.run.json", flags, {"root": 1}, [data], [out]


@pytest.mark.parametrize(
    "case",
    [_gen_manifest, _map_manifest, _spectrum_manifest, _train_manifest, _eval_manifest, _report_manifest],
    ids=["gen", "map", "spectrum", "train", "eval", "report"],
)
def test_run_manifest_records_the_resolved_flags(capsys, tmp_path, small_corpus, case):
    argv, path, flags, seeds, inputs, outputs = case(tmp_path, small_corpus)
    assert cli.main([str(a) for a in argv]) == 0
    manifest = json.loads(path.read_text())
    assert set(manifest) == {"subcommand", "flags", "seeds", "version", "inputs", "outputs",
                             "started_utc", "duration_s"}
    assert manifest["subcommand"] == argv[0]
    assert manifest["flags"] == flags
    assert manifest["seeds"] == seeds
    assert manifest["version"] == __version__
    assert manifest["inputs"] == [str(p) for p in inputs]
    assert manifest["outputs"] == [str(p) for p in outputs]
    assert isinstance(manifest["duration_s"], float) and manifest["duration_s"] >= 0
    assert datetime.fromisoformat(manifest["started_utc"]).utcoffset() == timedelta(0)


def test_summary_is_printed_after_the_run_manifest(capsys, tmp_path):
    (tmp_path / "run.json").mkdir()  # gen's manifest write fails
    code = cli.main(["gen", "--out", str(tmp_path), "--n", "1", "--size", "16"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: io: ") and captured.err.count("\n") == 1


def test_failed_command_writes_no_run_manifest(capsys, tmp_path, small_corpus):
    out, heatmap = tmp_path / "p.csv", tmp_path / "h.pgm"
    heatmap.mkdir()  # an output that is a directory fails before anything is written
    line = run_cli_error(capsys, ["spectrum", "--in", small_corpus, "--out", out, "--heatmap", heatmap])
    assert line == f"error: io: [Errno 21] Is a directory: '{heatmap}'"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.pgm"]


@pytest.mark.parametrize(
    "command",
    [lambda t, img: ["map", "--in", img, "--reducer", "random", "--out", t / "m.imf",
                     "--table-csv", t / "missing" / "t.csv"],
     lambda t, img: ["spectrum", "--in", img.parent, "--out", t / "missing" / "s.csv"],
     lambda t, img: ["spectrum", "--in", img.parent, "--out", t / "s.csv", "--heatmap", t / "missing" / "h.pgm"]],
    ids=["map-table", "spectrum-out", "spectrum-heatmap"],
)
def test_missing_output_directory_fails_before_reading(capsys, tmp_path, small_corpus, monkeypatch, command):
    reads = []
    monkeypatch.setattr(cli.image, "read_ppm", lambda *args: reads.append(args))
    argv = command(tmp_path, small_corpus / "test" / "real_0000.ppm")
    missing = next(a for a in argv if Path(a).parent.name == "missing")
    line = run_cli_error(capsys, argv)
    assert line == f"error: io: [Errno 2] No such file or directory: '{missing}'"
    assert reads == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command",
    [lambda t, img: ["map", "--in", img, "--reducer", "random", "--out", t / "P", "--table-csv", t / "P"],
     lambda t, img: ["map", "--in", img, "--reducer", "random", "--out", t / "P", "--table-csv", f"{t}/./P"],
     lambda t, img: ["spectrum", "--in", img.parent, "--out", t / "P", "--heatmap", t / "P"],
     lambda t, img: ["spectrum", "--in", img.parent, "--out", f"{t}/./P", "--heatmap", t / "P"]],
    ids=["map", "map-dot", "spectrum", "spectrum-dot"],
)
def test_two_outputs_naming_one_file_fail_before_reading(capsys, tmp_path, small_corpus, monkeypatch, command):
    reads = []
    monkeypatch.setattr(cli.image, "read_ppm", lambda *args: reads.append(args))
    line = run_cli_error(capsys, command(tmp_path, small_corpus / "test" / "real_0000.ppm"))
    assert line.startswith("error: bad-usage: two outputs name one file: ")
    assert reads == []
    assert list(tmp_path.iterdir()) == []


def test_eval_without_out_writes_no_file(capsys, tmp_path, small_corpus):
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    argv, _ = _train_flags(model_dir, small_corpus)
    assert cli.main([str(a) for a in argv]) == 0
    before = (_file_bytes(small_corpus), _file_bytes(model_dir))
    capsys.readouterr()
    argv = ["eval", "--model", model_dir / "w.w1", "--data", small_corpus, "--reducer", "highpass"]
    assert cli.main([str(a) for a in argv]) == 0
    assert capsys.readouterr().out.startswith("accuracy=")
    assert (_file_bytes(small_corpus), _file_bytes(model_dir)) == before


def test_eval_out_rows_pool_each_generator_with_all_reals(capsys, tmp_path):
    data, model, out = tmp_path / "data", tmp_path / "m.w1", tmp_path / "e.csv"
    assert cli.main(["gen", "--out", str(data), "--n", "3", "--size", "16"]) == 0
    # A split with two fake generators, where one generator's fakes plus
    # all reals is a pool smaller than the split.
    train_rows = (data / "train_manifest.csv").read_text().splitlines()
    test_rows = (data / "test_manifest.csv").read_text().splitlines()
    (data / "test_manifest.csv").write_text("\n".join(test_rows + train_rows[1:]) + "\n")
    save_params(model, init_params(5), ReducerSpec.parse("random"), reducer_seed=11, crop_size=8)
    capsys.readouterr()
    argv = ["eval", "--model", model, "--data", data, "--reducer", "random", "--out", out]
    assert cli.main([str(a) for a in argv]) == 0

    entries, images = cli._load_split(data, "test")
    params, reducer, reducer_seed, crop = load_params(model)
    scores = evaluate(params, entries, images, reducer, reducer_seed, crop)
    labels = np.array([e.label for e in entries])
    generators = np.array([e.generator for e in entries])
    assert sorted(set(generators)) == ["bilinear", "nearest", "real"]
    lines = ["generator,n,accuracy,average_precision"]
    for tag in sorted(set(generators)):
        own = generators == tag
        pool = own if tag == "real" else own | (labels == 0)
        accuracy = float(np.mean((scores[pool] >= 0.5) == (labels[pool] == 1)))
        ap = "" if tag == "real" else repr(average_precision(scores[pool], labels[pool]))
        lines.append(f"{tag},{int(own.sum())},{accuracy!r},{ap}")
    assert out.read_text() == "\n".join(lines) + "\n"
    accuracy = float(np.mean((scores >= 0.5) == (labels == 1)))
    summary = f"accuracy={accuracy!r}\naverage_precision={average_precision(scores, labels)!r}\nn={len(entries)}\n"
    assert capsys.readouterr().out == summary
