"""Property tests: every parser returns a value or raises PixmapError, nothing else."""

import string
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pixmap.detector import encode_params, init_params, load_params
from pixmap.errors import PixmapError
from pixmap.image import decode_ppm, parse_rows
from pixmap.reducers import ReducerSpec
from pixmap.synthgen import read_manifest_csv

# Derandomized with a fixed budget, so every run tries the same inputs.
FUZZ = settings(derandomize=True, max_examples=100, deadline=None, database=None)
# An explicit alphabet (ASCII plus a NUL, an Arabic-Indic digit and a
# non-ASCII letter) spares Hypothesis building its Unicode tables.
_CHARS = string.printable + "\x00\u0663\u00e9"


def parses_or_raises_pixmap_error(parse, arg):
    try:
        parse(arg)
    except PixmapError:
        pass


_header_tokens = st.lists(
    st.one_of(
        st.integers(0, 300).map(lambda v: str(v).encode()),
        st.sampled_from([b"255", b"0", b"-1", b"007", b"1e3", b"#c\n", b"\xff", b"P6", b"9" * 5000]),
        st.binary(max_size=4),
    ),
    max_size=5,
)
_separators = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"#x\n", b"", b"  "])


@st.composite
def ppm_like(draw):
    """A P6 magic or near miss, header tokens, and a payload of any length."""
    magic = draw(st.sampled_from([b"P6", b"P5", b"P", b"", b"p6"]))
    out = magic
    for tok in draw(_header_tokens):
        out += draw(_separators) + tok
    return out + draw(_separators) + draw(st.binary(max_size=64))


@FUZZ
@given(st.one_of(ppm_like(), st.binary(max_size=64)))
def test_decode_ppm_fuzz(raw):
    parses_or_raises_pixmap_error(decode_ppm, raw)


_number_text = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers().map(str),
    st.sampled_from(["nan", "-inf", "1e999", "1_0", "0x10", "", "1,5", "\x00", "٣"]),
    st.text(_CHARS, max_size=6),
)


@FUZZ
@given(
    st.lists(st.lists(_number_text, max_size=4).map(" ".join), max_size=5),
    st.integers(0, 4),
    st.integers(1, 4),
)
def test_parse_rows_fuzz(lines, n_rows, width):
    parses_or_raises_pixmap_error(lambda it: parse_rows(it, n_rows, width, "fuzz"), iter(lines))


@FUZZ
@given(
    st.one_of(
        st.text(_CHARS, max_size=20),
        st.tuples(
            st.sampled_from(["none", "fixed", "random", "npr", "highpass", "shuffle", "Shuffle"]),
            st.sampled_from([":", "", "::"]),
            _number_text,
        ).map("".join),
    )
)
def test_reducer_spec_parse_fuzz(text):
    parses_or_raises_pixmap_error(ReducerSpec.parse, text)


_MANIFEST_HEADER = "path,label,generator,family,seed"
_manifest_field = st.one_of(
    st.sampled_from(["train/real_0000.ppm", "0", "1", "2", "-1", "real", "A", "../x", "/abs", ""]),
    _number_text,
)


@FUZZ
@given(
    st.sampled_from([_MANIFEST_HEADER, _MANIFEST_HEADER + " ", "path,label", ""]),
    st.lists(st.lists(_manifest_field, max_size=6).map(",".join), max_size=4),
    st.binary(max_size=8),
)
def test_read_manifest_csv_fuzz(header, rows, tail):
    data = ("\n".join([header, *rows]) + "\n").encode("utf-8", "surrogatepass") + tail
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.csv"
        path.write_bytes(data)
        parses_or_raises_pixmap_error(read_manifest_csv, path)


def parses_file_or_raises_pixmap_error(parse, data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.txt"
        path.write_bytes(data)
        parses_or_raises_pixmap_error(parse, path)


@st.composite
def mutated_text(draw, base: str):
    """A valid file's lines with some replaced, dropped or inserted, then maybe cut short."""
    lines = base.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["replace", "drop", "insert"]))
        text = draw(st.one_of(_number_text, st.lists(_number_text, max_size=4).map(" ".join)))
        if op == "insert" or at == len(lines):
            lines.insert(at, text)
        elif op == "replace":
            lines[at] = text
        else:
            del lines[at]
    lines = lines[: draw(st.one_of(st.none(), st.integers(0, len(lines))))]
    data = ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")
    return data + draw(st.sampled_from([b"", b"", b"", b"\xff", b"\x00", b"1 2\n"]))


_W1_TEXT = encode_params(init_params(3), ReducerSpec.parse("shuffle:8"), reducer_seed=5, crop_size=32).decode("ascii")


@FUZZ
@given(mutated_text(_W1_TEXT))
def test_load_params_fuzz(data):
    parses_file_or_raises_pixmap_error(load_params, data)
