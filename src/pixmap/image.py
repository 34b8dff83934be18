"""Raster types, cropping, quantization, and bit-exact file I/O.

Two raster types cover the whole package: ``Image8`` is the 8-bit RGB ingest
unit, ``ImageF`` the float64 result of any preprocessing. Both wrap read-only
numpy arrays, so values can be shared freely across threads.

File formats:

* PPM ``P6`` (maxval 255) is the sole 8-bit interchange format. The encoder
  emits one canonical byte form (single-space tokens, newline before the
  payload) so identical images always produce identical files.
* ``PIXMAP-IMF1`` is a plain-text container for ``ImageF`` using shortest
  round-trip decimals, exact under write/read. Its rows, and the detector's
  weights file, go through :func:`format_rows` and :func:`parse_rows`.
* PGM ``P5`` is write-only, for grayscale heatmap export.

Every file writer in the package goes through :func:`write_atomic`, so a
crash never leaves a partial file under the target name.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PixmapError
from .rng import SplitMix64, _rejected, seeded_words


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a unique temp file and ``os.replace``.

    The temp file sits in the target's directory, so the rename is atomic:
    readers see the old file or the new one, never a partial write, and
    concurrent writers of one target never share a temp file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class Image8:
    """H x W x 3 unsigned 8-bit raster."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise PixmapError("bad-shape", f"Image8 needs HxWx3 data, got {arr.shape}")
        if arr.dtype != np.uint8:
            raise PixmapError("bad-dtype", f"Image8 needs uint8 data, got {arr.dtype}")
        arr = np.ascontiguousarray(arr).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Image8) and np.array_equal(self.data, other.data)


@dataclass(frozen=True)
class ImageF:
    """H x W x C float64 raster; all samples finite."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] < 1:
            raise PixmapError("bad-shape", f"ImageF needs HxWxC data, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise PixmapError("non-finite", "ImageF samples must be finite")
        arr = np.ascontiguousarray(arr).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class CropSpec:
    """Square crop: ``center``, or ``random`` with an explicit seed."""

    size: int
    mode: str = "center"
    seed: int | None = None

    def __post_init__(self):
        if self.size < 1:
            raise PixmapError("bad-crop", "crop size must be >= 1")
        if self.mode not in ("center", "random"):
            raise PixmapError("bad-crop", f"unknown crop mode {self.mode!r}")
        if self.mode == "random" and self.seed is None:
            raise PixmapError("bad-crop", "random crop requires a seed")


# --- PPM P6 -----------------------------------------------------------------


def _read_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    """Next whitespace-delimited header token, skipping '#' comments."""
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c == b"#":
            while pos < n and buf[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace() and buf[pos : pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise PixmapError("malformed-header", "unexpected end of PPM header")
    return buf[start:pos], pos


def decode_ppm(raw: bytes) -> Image8:
    """Decode a binary PPM (P6, maxval 255).

    Accepts standard header whitespace and '#' comments; rejects any other
    PNM variant, maxval != 255, short payloads, and trailing bytes.
    """
    if len(raw) < 2 or raw[:2] != b"P6":
        magic = raw[:2].decode("ascii", "replace") if len(raw) >= 2 else "<empty>"
        raise PixmapError("unsupported-format", f"expected P6 magic, got {magic!r}")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_token(raw, pos)
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
    if pos >= len(raw) or not raw[pos : pos + 1].isspace():
        raise PixmapError("malformed-header", "missing whitespace before payload")
    pos += 1
    payload = raw[pos:]
    expected = width * height * 3
    if len(payload) < expected:
        raise PixmapError("truncated-payload", f"need {expected} bytes, got {len(payload)}")
    if len(payload) > expected:
        raise PixmapError("oversized-payload", f"{len(payload) - expected} trailing bytes")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return Image8(arr)


def encode_ppm(img: Image8) -> bytes:
    """Encode to the canonical P6 byte form; identical images give identical bytes."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.data.tobytes()


def write_pgm(path, gray: np.ndarray) -> None:
    """Write a 2-D uint8 array as binary PGM (P5, maxval 255)."""
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise PixmapError("bad-shape", "PGM writer needs a 2-D uint8 array")
    h, w = gray.shape
    write_atomic(path, f"P5\n{w} {h}\n255\n".encode("ascii") + gray.tobytes())


# --- crop / float conversion -------------------------------------------------


def crop_origin(height: int, width: int, spec: CropSpec) -> tuple[int, int]:
    """Top-left corner of ``spec``'s window in a height x width image.

    Centre offsets are floor((dim - size) / 2); a random crop draws the top,
    then the left offset, with ``randrange`` from ``SplitMix64(spec.seed)``.
    """
    s = spec.size
    if s > min(height, width):
        raise PixmapError("crop-too-large", f"crop {s} exceeds image {height}x{width}")
    if spec.mode == "center":
        return (height - s) // 2, (width - s) // 2
    rng = SplitMix64(spec.seed)
    top = rng.randrange(height - s + 1)
    return top, rng.randrange(width - s + 1)


def random_crop_origins(sizes, size: int, seeds) -> list:
    """:func:`crop_origin` of a ``random`` crop for each (height, width) and seed.

    Every row's top and left offsets come from one
    ``seeded_words(seeds, 2)`` draw, with each randrange rejection bound
    checked at once. A row that meets a rejected word (probability below
    image side / 2**64), or whose image is smaller than the crop, goes
    through :func:`crop_origin` itself, so each origin equals its scalar one.
    """
    m = np.array(sizes, dtype=np.int64).reshape(-1, 2) - (size - 1)
    fits = (m > 0).all(axis=1)
    m = np.maximum(m, 1).astype(np.uint64)
    words = seeded_words(seeds, 2)
    fast = (fits & ~_rejected(words, m).any(axis=1)).tolist()
    return [
        offsets if ok else crop_origin(h, w, CropSpec(size, "random", seed))
        for offsets, ok, (h, w), seed in zip((words % m).tolist(), fast, sizes, seeds)
    ]


def crop(img: Image8, spec: CropSpec) -> Image8:
    """Cut the size x size window at :func:`crop_origin`."""
    top, left = crop_origin(img.height, img.width, spec)
    return Image8(img.data[top : top + spec.size, left : left + spec.size])


def as_batch(img) -> np.ndarray:
    """An ``Image8`` or ``ImageF`` as a 1 x C x H x W view: a batch of one."""
    return img.data.transpose(2, 0, 1)[None]


def batch_image(batch: np.ndarray) -> np.ndarray:
    """The H x W x C view of the single image in a 1 x C x H x W batch."""
    return batch[0].transpose(1, 2, 0)


def to_float(img: Image8) -> ImageF:
    """Copy samples to float64, values 0..255 unchanged."""
    return ImageF(img.data.astype(np.float64))


def quantize(img: ImageF, lo: float, hi: float) -> Image8:
    """Affinely map [lo, hi] to [0, 255], clamp, and round half to even."""
    if not lo < hi:
        raise PixmapError("bad-range", f"quantize needs lo < hi, got [{lo}, {hi}]")
    if img.channels != 3:
        raise PixmapError("bad-shape", f"quantize needs 3 channels, got {img.channels}")
    scaled = (img.data - lo) * (255.0 / (hi - lo))
    return Image8(np.rint(np.clip(scaled, 0.0, 255.0)).astype(np.uint8))


# --- shortest-repr text rows -------------------------------------------------


def format_rows(rows: np.ndarray) -> list[str]:
    """One line per row of a 2-D array, in shortest round-trip decimals."""
    return [" ".join(repr(x) for x in row) for row in rows.tolist()]


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


# --- ImageF text container ----------------------------------------------------

_IMF_MAGIC = "PIXMAP-IMF1"


def write_imagef(path, img: ImageF) -> None:
    """Write an ImageF as text: magic, dims, one line of decimals per row."""
    lines = [_IMF_MAGIC, f"{img.height} {img.width} {img.channels}"]
    lines += format_rows(img.data.reshape(img.height, img.width * img.channels))
    write_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_imagef(path) -> ImageF:
    """Read a PIXMAP-IMF1 file; exact inverse of :func:`write_imagef`.

    A bad file raises PixmapError with code ``unsupported-format`` (not an
    ASCII IMF file), ``malformed-header`` (a bad dimensions line),
    ``malformed-payload`` (a value that is not a number, or a row of the
    wrong length), ``truncated-payload`` (the file ends early) or
    ``non-finite``.
    """
    try:
        lines = iter(Path(path).read_text(encoding="ascii").splitlines())
    except UnicodeDecodeError as exc:
        raise PixmapError("unsupported-format", f"not a {_IMF_MAGIC} file: {path}") from exc
    magic = next(lines, "").strip()
    if magic != _IMF_MAGIC:
        raise PixmapError("unsupported-format", f"expected {_IMF_MAGIC}, got {magic!r}")
    try:
        h, w, c = (int(t) for t in next(lines, "").split())
    except ValueError as exc:
        raise PixmapError("malformed-header", f"bad IMF dimensions: {exc}") from exc
    if min(h, w, c) < 1:
        raise PixmapError("malformed-header", f"bad IMF dimensions {h}x{w}x{c}")
    return ImageF(parse_rows(lines, h, w * c, "IMF").reshape(h, w, c))
