"""Desk-scale synthetic corpus with a controllable semantic confound.

"Real" images are smooth camera-like fields: blurred Gaussian noise plus a
periodic low-frequency family pattern, a brightness offset, and sensor
noise. "Fake" images build the same smooth field at half resolution and
upsample it 2x, so they carry the periodic correlation artifacts of an
upsampling stage (nearest, bilinear, or zero-insertion + 3x3 smoothing, the
classic checkerboard source).

A :class:`ManifestEntry` (path, label, generator, family, seed) is the one
description of an image: :func:`generate` makes its bytes from it plus the
corpus's image size and noise level. A split is a tuple of entries, built by
:func:`build_benchmark` or read back by :func:`read_manifest_csv`; the size
and noise level are not part of it, and ``gen`` records them in its
``run.json``.

The benchmark builder ties content family to brightness (family A bright,
family B dark) and, when the confound is enabled, aligns family with label
during training and swaps it at test time while also switching the fake
upsampler. A detector that shortcuts on brightness then scores below chance
at test; only the upsampling artifact predicts the label on both splits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

import numpy as np

from .config import UPSAMPLERS
from .errors import PixmapError
from .image import encode_ppm, format_csv, quantize, read_ascii_lines, write_atomic
from .rng import SplitMix64, derive_seed

FAMILIES = ("A", "B")

# Corpus calibration constants. Contrast sets the smooth field's dynamic
# range in 8-bit levels; the gradient amplitude is the peak of the
# family-dependent pattern; the family brightness offset is the semantic
# shortcut.
FIELD_CONTRAST = 35.0
GRADIENT_AMPLITUDE = 24.0
FAMILY_BRIGHTNESS = 18.0
# Blur width in pixels of the field being blurred: full-resolution pixels
# for reals, half-resolution pixels for fakes, whose field is blurred before
# the 2x upsampling and so ends up twice as wide in the final image.
BLUR_SIGMA_RANGE = (1.0, 3.0)

# Uniform smoothing after zero insertion leaves phase-dependent gains
# (4/9, 8/9, 16/9 across the four sub-pixel phases), the classic
# checkerboard of transposed-convolution upsampling. The overall gain
# averages to one.
_ZERO_INSERT_KERNEL = np.full((3, 3), 4.0 / 9.0)


# Largest |draw| of ``SplitMix64.normals``: sqrt(-2 ln 2**-53) is about 8.57.
_MAX_NORMAL = 8.6


def _check_size_and_noise(size: int, noise_sigma: float) -> None:
    """Reject a size or noise level that no image could be made with, as ``bad-generator``.

    The float64 H x W x 3 stack, the largest array :func:`generate` makes,
    must have a byte count that fits ``np.intp``, and the largest noise
    draw must stay finite in float64.
    """
    if size < 2 or size % 2 != 0:
        raise PixmapError("bad-generator", f"size must be even and >= 2, got {size}")
    if size * size * 3 * 8 > np.iinfo(np.intp).max:
        raise PixmapError("bad-generator", f"size {size} needs a larger array than numpy can index")
    if not (noise_sigma >= 0 and math.isfinite(noise_sigma * _MAX_NORMAL)):
        raise PixmapError("bad-generator", f"noise_sigma must be >= 0 and its noise finite, got {noise_sigma}")


@dataclass(frozen=True)
class ManifestEntry:
    """One corpus image; an unknown generator or family, or a label other
    than 0 for ``real`` and 1 for an upsampler, raises ``bad-manifest``."""

    path: str
    label: int  # 0 real, 1 fake
    generator: str  # "real" or the upsampler name
    family: str
    seed: int

    def __post_init__(self):
        if self.generator not in ("real", *UPSAMPLERS):
            raise PixmapError("bad-manifest", f"{self.path}: unknown generator {self.generator!r}")
        if self.family not in FAMILIES:
            raise PixmapError("bad-manifest", f"{self.path}: unknown family {self.family!r}")
        if self.label != (0 if self.generator == "real" else 1):
            raise PixmapError(
                "bad-manifest", f"{self.path}: label {self.label} contradicts generator {self.generator!r}"
            )


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = max(1, math.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _blur2d(field: np.ndarray, sigma: float) -> np.ndarray:
    """Separable circular Gaussian blur with a fixed summation order.

    Each axis is wrapped once into a padded copy; tap i adds the window at
    offset i, the terms and order of summing ``k[i] * np.roll(field, radius - i)``.
    """
    k = _gaussian_kernel(sigma)
    radius = len(k) // 2
    for axis in (0, 1):
        n = field.shape[axis]
        padded = field.take(np.arange(-radius, n + radius) % n, axis=axis)
        acc = np.zeros_like(field)
        for i, kv in enumerate(k):
            acc += kv * padded[(slice(None),) * axis + (slice(i, i + n),)]
        field = acc
    return field


def _smooth_field(rng: SplitMix64, size: int) -> np.ndarray:
    """Zero-mean, unit-std size x size field; blur width drawn from the seed.

    The width is drawn from BLUR_SIGMA_RANGE in pixels of this field, which
    for a fake is the half-resolution base (see BLUR_SIGMA_RANGE).
    """
    sigma = rng.uniforms(1, *BLUR_SIGMA_RANGE)[0]
    noise = rng.normals(size * size).reshape(size, size)
    f = _blur2d(noise, sigma)
    f -= f.mean()
    sd = f.std()
    if sd > 0:
        f /= sd
    return f


def _family_pattern(family: str, size: int) -> np.ndarray:
    """Periodic low-frequency triangle wave, constant inside each 2-pixel block.

    One period spans the image side: -GRADIENT_AMPLITUDE at the first block,
    +GRADIENT_AMPLITUDE at the middle one, and back, with zero mean whenever
    size // 2 is even. Family A varies left to right, family B top to
    bottom. Being constant within 2-pixel blocks keeps nearest-upsampled
    fakes blockwise exact.

    The pattern must be periodic over the image side: the field blur is
    circular, and the spectral diagnostics take a periodic DFT. A monotone
    ramp from -24 to +24 would wrap with a 48-level seam whose power leaks
    into every radius and buries the weak bilinear replica in the high band.
    """
    t = (np.arange(size) // 2) / (size // 2)
    wave = GRADIENT_AMPLITUDE * (1.0 - 4.0 * np.abs(t - 0.5))
    if family == "A":
        return np.broadcast_to(wave, (size, size))
    return np.broadcast_to(wave[:, None], (size, size))


def _upsample2x(base: np.ndarray, method: str) -> np.ndarray:
    if method == "nearest":
        return np.repeat(np.repeat(base, 2, axis=0), 2, axis=1)
    if method == "bilinear":
        # corner-aligned 2x linear interpolation: source samples pass
        # through at even positions, odd positions average their neighbors
        out = base
        for axis in (0, 1):
            n = out.shape[axis]
            lo = np.repeat(np.arange(n), 2)
            hi = np.minimum(lo + (np.arange(2 * n) % 2), n - 1)
            a = np.take(out, lo, axis=axis)
            b = np.take(out, hi, axis=axis)
            out = 0.5 * (a + b)
        return out
    if method == "zero_insert_conv":
        h, w = base.shape
        grid = np.zeros((2 * h + 2, 2 * w + 2))  # 1-px zero pad on each side
        grid[1:-1:2, 1:-1:2] = base
        out = np.zeros((2 * h, 2 * w))
        for dy in range(3):
            for dx in range(3):
                out += _ZERO_INSERT_KERNEL[dy, dx] * grid[dy : dy + 2 * h, dx : dx + 2 * w]
        return out
    raise PixmapError("bad-generator", f"unknown upsampler {method!r}")


def generate(entry: ManifestEntry, size: int, noise_sigma: float) -> np.ndarray:
    """Synthesize ``entry``'s size x size x 3 ``uint8`` image from its seed.

    A ``real`` entry is a smooth full-resolution field, the stand-in for
    camera imagery; any other is a half-resolution field upsampled 2x by its
    generator, so it carries the upsampling artifact. Then the family
    pattern is added, then the family brightness (A bright, B dark), then
    sensor noise when ``noise_sigma`` is above 0, and the sum is quantized.
    A size or noise level no image can be made with raises ``bad-generator``
    before any array is allocated.
    """
    _check_size_and_noise(size, noise_sigma)
    rng = SplitMix64(entry.seed)
    if entry.generator == "real":
        content = FIELD_CONTRAST * _smooth_field(rng, size)
    else:
        content = _upsample2x(FIELD_CONTRAST * _smooth_field(rng, size // 2), entry.generator)
    img = 128.0 + content + _family_pattern(entry.family, size)
    img = img + (FAMILY_BRIGHTNESS if entry.family == "A" else -FAMILY_BRIGHTNESS)
    stacked = np.repeat(img[:, :, None], 3, axis=2)
    if noise_sigma > 0:
        stacked = stacked + noise_sigma * rng.normals(size * size * 3).reshape(size, size, 3)
    return quantize(stacked)


def build_benchmark(
    train_fake_upsampler: str,
    test_fake_upsampler: str,
    confound: bool,
    n_per_class: int,
    seed: int,
) -> tuple[tuple[ManifestEntry, ...], tuple[ManifestEntry, ...]]:
    """Assemble the train and test splits of the cross-upsampler benchmark.

    Each split holds ``n_per_class`` reals, then as many fakes, at the
    distinct paths ``<split>/<kind>_<i>.ppm``. With the confound on,
    training reals are family A and training fakes family B; the test split
    swaps the assignment and switches the fake upsampler, so family and
    brightness anti-predict the label at test time. With the confound off,
    families alternate within each class identically on both splits.
    """
    if n_per_class < 1:
        raise PixmapError("bad-benchmark", "n_per_class must be >= 1")

    def family_for(split: str, kind: str, index: int) -> str:
        if not confound:
            return FAMILIES[index % 2]
        if split == "train":
            return "A" if kind == "real" else "B"
        return "B" if kind == "real" else "A"

    def split_entries(split: str, upsampler: str) -> tuple[ManifestEntry, ...]:
        return tuple(
            ManifestEntry(
                path=f"{split}/{kind}_{i:04d}.ppm",
                label=0 if kind == "real" else 1,
                generator="real" if kind == "real" else upsampler,
                family=family_for(split, kind, i),
                seed=derive_seed(seed, split, kind, i),
            )
            for kind in ("real", "fake")
            for i in range(n_per_class)
        )

    return split_entries("train", train_fake_upsampler), split_entries("test", test_fake_upsampler)


def materialize(entries, out_dir, size: int, noise_sigma: float) -> None:
    """Write each entry's :func:`generate` image under ``out_dir`` at its path, atomically.

    A bad size or noise level raises ``bad-generator`` before any file or
    directory is made.
    """
    root = Path(out_dir)
    for entry in entries:
        # The bytes come first, so an image that cannot be made leaves no empty directory.
        data = encode_ppm(generate(entry, size, noise_sigma))
        target = root / entry.path
        target.parent.mkdir(parents=True, exist_ok=True)
        write_atomic({target: data})


_MANIFEST_FIELDS = ("path", "label", "generator", "family", "seed")
_MANIFEST_HEADER = ",".join(_MANIFEST_FIELDS)


def manifest_csv(entries) -> bytes:
    """The manifest CSV of a split's entries: one row of path, label, generator, family and seed per entry."""
    rows = [(e.path, e.label, e.generator, e.family, e.seed) for e in entries]
    return format_csv(_MANIFEST_FIELDS, rows).encode("ascii")


def write_manifest_csv(path, entries) -> None:
    write_atomic({path: manifest_csv(entries)})


def read_manifest_csv(path) -> tuple[ManifestEntry, ...]:
    """Inverse of :func:`manifest_csv`.

    Non-ASCII bytes, a wrong header or field count, a non-integer label or
    seed, an absolute path or one with a ``..`` part, a path that appears
    twice (however spelled: ``a/./b`` and ``a//b`` are ``a/b``), a
    generator other than ``real`` or an upsampler, a family outside
    ``FAMILIES``, and a label that contradicts its generator (a ``real`` row
    must have label 0, any other row label 1) all raise
    PixmapError("bad-manifest"), the last three from :class:`ManifestEntry`.
    """
    lines = read_ascii_lines(path, "bad-manifest", f"{path} is not ASCII")
    header = lines[0].strip() if lines else ""
    if header != _MANIFEST_HEADER:
        raise PixmapError("bad-manifest", f"unexpected manifest header {header!r}")
    entries, seen = [], set()
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise PixmapError("bad-manifest", f"line {lineno}: expected 5 fields")
        rel, label, generator, family, seed = parts
        try:
            label, seed = int(label), int(seed)
        except ValueError as exc:
            raise PixmapError("bad-manifest", f"line {lineno}: {exc}") from exc
        where = PurePosixPath(rel)
        if where.is_absolute() or ".." in where.parts:
            raise PixmapError("bad-manifest", f"line {lineno}: unsafe path {rel!r}")
        if where in seen:
            raise PixmapError("bad-manifest", f"line {lineno}: path {rel!r} appears more than once")
        seen.add(where)
        entries.append(ManifestEntry(rel, label, generator, family, seed))
    return tuple(entries)
