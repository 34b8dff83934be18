"""CLI error contract: one ``error: <code>: <detail>`` line and a nonzero exit."""

import numpy as np
import pytest

from pixmap import cli
from pixmap.detector import init_params, save_params
from pixmap.image import Image8, encode_ppm
from pixmap.reducers import ReducerSpec


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
    monkeypatch.setattr(cli, "train", lambda *args: calls.append(args))
    line = run_cli_error(
        capsys, ["report", "--data", tmp_path, "--out", tmp_path / "r.csv", "--crop", 30]
    )
    assert line.startswith("error: patch-mismatch: ")
    assert calls == []
    assert not (tmp_path / "r.csv").exists()


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
