"""8-bit images, cropping, quantization, and bit-exact file I/O.

Every raster is a plain numpy array: an 8-bit image is H x W x 3 ``uint8``,
a computed one (a reducer's output, a mapped image) H x W x C float64.
:func:`decode_ppm` and :func:`encode_ppm` check the bytes that come in and
go out.

File formats:

* PPM ``P6`` (maxval 255) is the sole 8-bit interchange format. The encoder
  emits one canonical byte form (single-space tokens, newline before the
  payload) so identical images always produce identical files.
* ``PIXMAP-IMF1`` is write-only, for ``map``'s float raster: its rows, and
  the detector's weights, are shortest round-trip decimals from
  :func:`format_rows`, so any float parser reads them back bit for bit.
* Every CSV the commands write (manifests, profiles, breakdowns, the
  report, mapping tables) goes through :func:`format_csv`.
* PGM ``P5`` is write-only too, for grayscale heatmap export.

Every format has an encoder that returns bytes. Files reach the disk through
:func:`write_atomic`, never as a partial file under a target name, and all
of a set or none until its renames: a failed rename is not rolled back, so
the CLI rules out the predictable cases before a command starts. Every
text reader goes through :func:`read_ascii_lines`.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np

from .errors import PixmapError
from .rng import SplitMix64


def write_atomic(files) -> None:
    """Write each ``path: bytes`` item of ``files`` to a unique temp file, then ``os.replace`` them in order.

    Each temp file sits in its target's directory, so each rename is atomic
    and concurrent writers of one target never share a temp file. All temp
    files are written before the first rename, so a failure while writing
    them (a missing directory, a full disk, data that is not bytes) removes
    them and leaves every target as it was; a failed rename does not undo
    the renames before it. An ``OSError`` names the target.
    """
    staged = []
    try:
        for path, data in files.items():
            path = Path(path)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
            with open(tmp, "xb") as fh:
                staged.append(tmp)
                fh.write(data)
        for tmp, path in zip(staged, files):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # the temp name differs on every run
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def read_ascii_lines(path, code: str, detail: str) -> list[str]:
    """Lines of the text file at ``path``; a non-ASCII byte raises ``PixmapError(code, detail)``."""
    try:
        return Path(path).read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise PixmapError(code, detail) from exc


# --- PPM P6 -----------------------------------------------------------------


_PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\n]*)*([^\s#]*)" * 3)


def decode_ppm(raw: bytes) -> np.ndarray:
    """Decode a binary PPM (P6, maxval 255) to a read-only H x W x 3 ``uint8`` view of ``raw``.

    Accepts standard header whitespace and '#' comments; rejects any other
    PNM variant, maxval != 255, short payloads, and trailing bytes.
    """
    if raw[:2] != b"P6":
        magic = raw[:2].decode("ascii", "replace") if len(raw) >= 2 else "<empty>"
        raise PixmapError("unsupported-format", f"expected P6 magic, got {magic!r}")
    if not (raw[2:3].isspace() or raw[2:3] == b"#"):
        raise PixmapError("malformed-header", f"expected whitespace or '#' after P6, got {raw[2:3]!r}")
    header = _PPM_HEADER.match(raw)
    fields = []
    for tok in header.groups():
        if not tok:  # a token ends at whitespace, '#' or the end of the bytes
            raise PixmapError("malformed-header", "unexpected end of PPM header")
        if not tok.isdigit():
            raise PixmapError("malformed-header", f"non-numeric header token {tok!r}")
        try:
            fields.append(int(tok))
        except ValueError as exc:  # past the interpreter's digit limit
            raise PixmapError("malformed-header", f"{len(tok)}-digit header token") from exc
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PixmapError("malformed-header", f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise PixmapError("unsupported-maxval", f"maxval must be 255, got {maxval}")
    pos = header.end()
    if not raw[pos : pos + 1].isspace():
        raise PixmapError("malformed-header", "missing whitespace before payload")
    pos += 1
    size = len(raw) - pos
    expected = width * height * 3
    if size < expected:
        raise PixmapError("truncated-payload", f"need {expected} bytes, got {size}")
    if size > expected:
        raise PixmapError("oversized-payload", f"{size - expected} trailing bytes")
    return np.frombuffer(raw, np.uint8, count=expected, offset=pos).reshape(height, width, 3)


def read_ppm(path) -> np.ndarray:
    """Read and decode the PPM file at ``path``; a decode error keeps its code and names the file.

    A path that is not a file raises ``missing-file``.
    """
    if not Path(path).is_file():
        raise PixmapError("missing-file", f"image not found: {path}")
    try:
        return decode_ppm(Path(path).read_bytes())
    except PixmapError as exc:
        raise PixmapError(exc.code, f"{path}: {exc.message}") from exc


def encode_ppm(img: np.ndarray) -> bytes:
    """Encode an H x W x 3 ``uint8`` array to the canonical P6 bytes; any other array is ``bad-shape``."""
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise PixmapError("bad-shape", f"PPM writer needs an HxWx3 uint8 array, got {img.shape} {img.dtype}")
    h, w = img.shape[:2]
    return f"P6\n{w} {h}\n255\n".encode("ascii") + img.tobytes()


def encode_pgm(gray: np.ndarray) -> bytes:
    """Encode a 2-D uint8 array as binary PGM (P5, maxval 255)."""
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise PixmapError("bad-shape", "PGM writer needs a 2-D uint8 array")
    h, w = gray.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + gray.tobytes()


# --- crop and quantization --------------------------------------------------


def crop_origin(height: int, width: int, size: int, seed: int | None = None) -> tuple[int, int]:
    """Top-left corner of the size x size window in a height x width image.

    With no seed the window is centred: offsets floor((dim - size) / 2).
    With a seed, the top and then the left offset are drawn with
    ``randrange`` from ``SplitMix64(seed)``. A size below 1 is ``bad-crop``.
    """
    if size < 1:
        raise PixmapError("bad-crop", "crop size must be >= 1")
    if size > min(height, width):
        raise PixmapError("crop-too-large", f"crop {size} exceeds image {height}x{width}")
    if seed is None:
        return (height - size) // 2, (width - size) // 2
    rng = SplitMix64(seed)
    top = rng.randrange(height - size + 1)
    return top, rng.randrange(width - size + 1)


def crop(img: np.ndarray, size: int, seed: int | None = None) -> np.ndarray:
    """A view of the size x size window at :func:`crop_origin`: centred, or drawn from ``seed``."""
    top, left = crop_origin(img.shape[0], img.shape[1], size, seed)
    return img[top : top + size, left : left + size]


def as_batch(img) -> np.ndarray:
    """An H x W x C image as a 1 x C x H x W view: a batch of one."""
    return img.transpose(2, 0, 1)[None]


def batch_image(batch: np.ndarray) -> np.ndarray:
    """The H x W x C view of the single image in a 1 x C x H x W batch."""
    return batch[0].transpose(1, 2, 0)


def quantize(x: np.ndarray) -> np.ndarray:
    """Clamp ``x`` to [0, 255] and round half to even, to ``uint8`` of ``x``'s shape."""
    return np.rint(np.clip(x, 0.0, 255.0)).astype(np.uint8)


# --- shortest-repr text rows -------------------------------------------------


def format_rows(rows: np.ndarray) -> list[str]:
    """One line per row of a 2-D array, in shortest round-trip decimals."""
    return [" ".join(repr(x) for x in row) for row in rows.tolist()]


def format_csv(header, rows) -> str:
    """CSV text of a header and rows: strings verbatim, every other value by ``repr``.

    An int prints as its digits and a float reads back to the same bits.
    """
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def parse_rows(lines, n_rows: int, width: int, what: str) -> np.ndarray:
    """Read ``n_rows`` lines of ``width`` decimals from the iterator ``lines``.

    Exact inverse of :func:`format_rows`. Raises PixmapError with code
    ``truncated-payload`` when the lines run out and ``malformed-payload``
    for a value that is not a number or a row of the wrong length.
    """
    rows = []
    for _ in range(n_rows):
        line = next(lines, None)
        if line is None:
            raise PixmapError("truncated-payload", f"{what} ended early")
        try:
            row = [float(t) for t in line.split()]
        except ValueError as exc:
            raise PixmapError("malformed-payload", f"{what}: {exc}") from exc
        if len(row) != width:
            raise PixmapError("malformed-payload", f"{what} row has {len(row)} values, want {width}")
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(n_rows, width)


# --- IMF text container --------------------------------------------------------


def encode_imagef(x: np.ndarray) -> bytes:
    """Encode an H x W x C float64 array as text: magic, dims, one line of decimals per row."""
    h, w, c = x.shape
    lines = ["PIXMAP-IMF1", f"{h} {w} {c}"]
    lines += format_rows(x.reshape(h, w * c))
    return ("\n".join(lines) + "\n").encode("ascii")

