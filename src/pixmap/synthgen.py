"""Desk-scale synthetic corpus with a controllable semantic confound.

"Real" images are smooth camera-like fields: blurred Gaussian noise plus a
periodic low-frequency family pattern, a brightness offset, and sensor
noise. "Fake" images build the same smooth field at half resolution and
upsample it 2x, so they carry the periodic correlation artifacts of an
upsampling stage (nearest, bilinear, or zero-insertion + 3x3 smoothing, the
classic checkerboard source).

The benchmark builder ties content family to brightness (family A bright,
family B dark) and, when the confound is enabled, aligns family with label
during training and swaps it at test time while also switching the fake
upsampler. A detector that shortcuts on brightness then scores below chance
at test; only the upsampling artifact predicts the label on both splits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

import numpy as np

from .config import DEFAULT_NOISE_SIGMA, UPSAMPLERS
from .errors import PixmapError
from .image import Image8, ImageF, encode_ppm, quantize, write_atomic
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


def _check_size_and_noise(size: int, noise_sigma: float) -> None:
    if size < 2 or size % 2 != 0:
        raise PixmapError("bad-generator", f"size must be even and >= 2, got {size}")
    if not (noise_sigma >= 0 and math.isfinite(noise_sigma)):
        raise PixmapError("bad-generator", f"noise_sigma must be finite and >= 0, got {noise_sigma}")


@dataclass(frozen=True)
class GeneratorSpec:
    """Everything needed to synthesize one image deterministically."""

    kind: str  # "real" | "fake"
    family: str
    brightness_shift: float
    noise_sigma: float
    size: int
    seed: int
    upsampler: str | None = None  # fake only

    def __post_init__(self):
        if self.kind not in ("real", "fake"):
            raise PixmapError("bad-generator", f"unknown kind {self.kind!r}")
        if self.family not in FAMILIES:
            raise PixmapError("bad-generator", f"unknown family {self.family!r}")
        _check_size_and_noise(self.size, self.noise_sigma)
        if self.kind == "fake" and self.upsampler not in UPSAMPLERS:
            raise PixmapError("bad-generator", f"unknown upsampler {self.upsampler!r}")
        if self.kind == "real" and self.upsampler is not None:
            raise PixmapError("bad-generator", "real images take no upsampler")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: int  # 0 real, 1 fake
    generator: str  # "real" or the upsampler name
    family: str
    seed: int


@dataclass(frozen=True)
class DatasetManifest:
    """Entry list plus the provenance needed to regenerate every image.

    The manifest CSV keeps only the entries: the image size and noise level
    are in ``gen``'s ``run.json``, so the CSV alone cannot regenerate them.
    """

    entries: tuple[ManifestEntry, ...]
    seed: int
    spec_snapshot: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_entries(self.entries)


def _check_entries(entries) -> None:
    """Raise ``bad-manifest`` for a repeated path, or a label other than 0 for ``real`` and 1 otherwise."""
    seen = set()
    for e in entries:
        if e.path in seen:
            raise PixmapError("bad-manifest", f"path {e.path!r} appears more than once")
        seen.add(e.path)
        if e.label != (0 if e.generator == "real" else 1):
            raise PixmapError("bad-manifest", f"{e.path}: label {e.label} contradicts generator {e.generator!r}")


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
    sigma = rng.uniform(*BLUR_SIGMA_RANGE)
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


def _finish(rng: SplitMix64, content: np.ndarray, spec: GeneratorSpec) -> Image8:
    """Shared tail of both generators: pattern, brightness, noise, quantize."""
    img = 128.0 + content + _family_pattern(spec.family, spec.size)
    img = img + spec.brightness_shift
    stacked = np.repeat(img[:, :, None], 3, axis=2)
    if spec.noise_sigma > 0:
        noise = rng.normals(spec.size * spec.size * 3).reshape(spec.size, spec.size, 3)
        stacked = stacked + spec.noise_sigma * noise
    return quantize(ImageF(stacked), 0.0, 255.0)


def gen_real(spec: GeneratorSpec) -> Image8:
    """Smooth full-resolution field: the stand-in for camera imagery."""
    if spec.kind != "real":
        raise PixmapError("bad-generator", "gen_real needs kind='real'")
    rng = SplitMix64(spec.seed)
    content = FIELD_CONTRAST * _smooth_field(rng, spec.size)
    return _finish(rng, content, spec)


def gen_fake(spec: GeneratorSpec) -> Image8:
    """Half-resolution field upsampled 2x: carries the upsampling artifact."""
    if spec.kind != "fake":
        raise PixmapError("bad-generator", "gen_fake needs kind='fake'")
    rng = SplitMix64(spec.seed)
    base = FIELD_CONTRAST * _smooth_field(rng, spec.size // 2)
    content = _upsample2x(base, spec.upsampler)
    return _finish(rng, content, spec)


def generate(spec: GeneratorSpec) -> Image8:
    return gen_real(spec) if spec.kind == "real" else gen_fake(spec)


def entry_spec(entry: ManifestEntry, size: int, noise_sigma: float) -> GeneratorSpec:
    """Rebuild the generator spec for a manifest entry.

    Brightness follows the fixed family rule (A bright, B dark), so an
    entry plus the dataset-level size and noise level fully determines
    the image bytes.
    """
    shift = FAMILY_BRIGHTNESS if entry.family == "A" else -FAMILY_BRIGHTNESS
    kind = "real" if entry.generator == "real" else "fake"
    upsampler = None if kind == "real" else entry.generator
    return GeneratorSpec(
        kind=kind,
        family=entry.family,
        brightness_shift=shift,
        noise_sigma=noise_sigma,
        size=size,
        seed=entry.seed,
        upsampler=upsampler,
    )


def build_benchmark(
    train_fake_upsampler: str,
    test_fake_upsampler: str,
    confound: bool,
    n_per_class: int,
    seed: int,
    size: int = 64,
    noise_sigma: float = DEFAULT_NOISE_SIGMA,
) -> tuple[DatasetManifest, DatasetManifest]:
    """Assemble train/test manifests for the cross-upsampler benchmark.

    With the confound on, training reals are family A and training fakes
    family B; the test split swaps the assignment and switches the fake
    upsampler, so family and brightness anti-predict the label at test
    time. With the confound off, families alternate within each class
    identically on both splits. A size or noise level that
    :class:`GeneratorSpec` would reject raises its ``bad-generator`` error
    here, before any image is made.
    """
    if n_per_class < 1:
        raise PixmapError("bad-benchmark", "n_per_class must be >= 1")
    for ups in (train_fake_upsampler, test_fake_upsampler):
        if ups not in UPSAMPLERS:
            raise PixmapError("bad-benchmark", f"unknown upsampler {ups!r}")
    _check_size_and_noise(size, noise_sigma)

    def family_for(split: str, kind: str, index: int) -> str:
        if not confound:
            return FAMILIES[index % 2]
        if split == "train":
            return "A" if kind == "real" else "B"
        return "B" if kind == "real" else "A"

    manifests = []
    for split, upsampler in (("train", train_fake_upsampler), ("test", test_fake_upsampler)):
        entries = []
        for kind in ("real", "fake"):
            generator = "real" if kind == "real" else upsampler
            label = 0 if kind == "real" else 1
            for i in range(n_per_class):
                entries.append(
                    ManifestEntry(
                        path=f"{split}/{kind}_{i:04d}.ppm",
                        label=label,
                        generator=generator,
                        family=family_for(split, kind, i),
                        seed=derive_seed(seed, split, kind, i),
                    )
                )
        snapshot = {
            "split": split,
            "upsampler": upsampler,
            "confound": confound,
            "n_per_class": n_per_class,
            "size": size,
            "noise_sigma": noise_sigma,
        }
        manifests.append(DatasetManifest(tuple(entries), seed, snapshot))
    return manifests[0], manifests[1]


def materialize(manifest: DatasetManifest, out_dir) -> None:
    """Write every manifest entry's image under ``out_dir``, each atomically."""
    root = Path(out_dir)
    size = manifest.spec_snapshot["size"]
    noise_sigma = manifest.spec_snapshot["noise_sigma"]
    for entry in manifest.entries:
        target = root / entry.path
        target.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(target, encode_ppm(generate(entry_spec(entry, size, noise_sigma))))


_MANIFEST_HEADER = "path,label,generator,family,seed"


def write_manifest_csv(path, manifest: DatasetManifest) -> None:
    lines = [_MANIFEST_HEADER]
    for e in manifest.entries:
        lines.append(f"{e.path},{e.label},{e.generator},{e.family},{e.seed}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_manifest_csv(path) -> list[ManifestEntry]:
    """Inverse of :func:`write_manifest_csv`.

    Non-ASCII bytes, a wrong header or field count, a non-integer label or
    seed, an absolute path or one with a ``..`` part, a path that appears
    twice, and a label that contradicts its generator (a ``real`` row must
    have label 0, any other row label 1) all raise
    PixmapError("bad-manifest"), as :class:`DatasetManifest` does.
    """
    try:
        lines = Path(path).read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise PixmapError("bad-manifest", f"{path} is not ASCII") from exc
    header = lines[0].strip() if lines else ""
    if header != _MANIFEST_HEADER:
        raise PixmapError("bad-manifest", f"unexpected manifest header {header!r}")
    entries = []
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
        if PurePosixPath(rel).is_absolute() or ".." in PurePosixPath(rel).parts:
            raise PixmapError("bad-manifest", f"line {lineno}: unsafe path {rel!r}")
        entries.append(ManifestEntry(rel, label, generator, family, seed))
    _check_entries(entries)
    return entries
