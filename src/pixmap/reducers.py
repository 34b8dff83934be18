"""Semantic-reduction baselines and the shared preprocessing dispatch.

Each reducer turns an 8-bit image into the float raster a detector trains
on, suppressing scene content by a different mechanism:

* ``none``      - standard normalization v / 127.5 - 1 (the raw baseline)
* ``highpass``  - remove a DC-centered low-frequency disk in the DFT domain
* ``shuffle``   - permute square tiles, destroying global layout
* ``npr``       - subtract each block's top-left pixel (residual proxy)
* ``fixed`` / ``random`` - pixel-value mapping tables (see ``mapping``)

Non-mapping reducers are rescaled by 1/127.5 so every variant feeds the
detector values on a comparable, roughly unit range.

Each kind has one implementation, :func:`reduce_batch`, which maps an
``N x 3 x h x w`` uint8 batch (NCHW) to float64 of the same shape. The
detector hands it whole batches; :func:`apply_reducer`, :func:`highpass`,
:func:`patch_shuffle`, :func:`npr_residual` and ``mapping.apply_mapping``
check their input and run the same code on a batch of one. Channels come
before rows so the highpass FFT runs over the two trailing, contiguous
axes. The input is real, so highpass uses ``rfft2``/``irfft2`` over axes
(2, 3): on 32 crops of 32 px the filter took 3.0 ms against 7.1 ms with
``fft2``/``ifft2`` (2-core x86 box, numpy 2.4, float64).

``random`` and ``shuffle`` draw every sample's tables or tile permutation
in one multi-seed draw (``rng.seeded_uniforms``, ``rng.seeded_permutations``),
bit-identical to one generator per sample, and ``shuffle`` moves pixels
with one flat-index gather. On the same 32 crops, random took 0.70 ms
against 2.4-3.0 ms with one generator per sample, shuffle:2 2.1 ms against
3.6-4.1 ms and shuffle:8 0.9 ms against 1.7-1.9 ms (fixed: 0.33 ms).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import PixmapError
from .image import Image8, ImageF, as_batch, batch_image
from .mapping import build_fixed_table, map_batch, random_table_entries
from .rng import derive_seed, seeded_permutations
from .spectral import dc_distance

DEFAULT_HIGHPASS_CUTOFF = 0.25
NPR_BLOCK = 2

_REDUCER_KINDS = ("none", "fixed", "random", "highpass", "shuffle", "npr")


def _parse_number(head: str, arg: str, cast):
    try:
        return cast(arg)
    except ValueError as exc:
        raise PixmapError(
            "bad-reducer", f"{head} parameter {arg!r} is not a valid {cast.__name__}"
        ) from exc


@dataclass(frozen=True)
class ReducerSpec:
    """Parsed reducer choice: kind plus its parameters."""

    kind: str
    cutoff: float = DEFAULT_HIGHPASS_CUTOFF
    patch: int = 0

    def __post_init__(self):
        if self.kind not in _REDUCER_KINDS:
            raise PixmapError("bad-reducer", f"unknown reducer {self.kind!r}")
        if self.kind == "highpass" and not 0.0 < self.cutoff < 1.0:
            raise PixmapError("bad-reducer", f"cutoff must be in (0,1), got {self.cutoff}")
        if self.kind == "shuffle" and self.patch < 1:
            raise PixmapError("bad-reducer", "shuffle needs a patch size >= 1")

    @staticmethod
    def parse(text: str) -> "ReducerSpec":
        """Parse strings like ``none``, ``fixed``, ``shuffle:8``, ``highpass:0.3``."""
        head, _, arg = text.partition(":")
        if head in ("none", "fixed", "random", "npr"):
            if arg:
                raise PixmapError("bad-reducer", f"{head} takes no parameter, got {arg!r}")
            return ReducerSpec(head)
        if head == "highpass":
            cutoff = _parse_number(head, arg, float) if arg else DEFAULT_HIGHPASS_CUTOFF
            return ReducerSpec("highpass", cutoff=cutoff)
        if head == "shuffle":
            if not arg:
                raise PixmapError("bad-reducer", "shuffle needs a patch size, e.g. shuffle:8")
            return ReducerSpec("shuffle", patch=_parse_number(head, arg, int))
        raise PixmapError("bad-reducer", f"unknown reducer {text!r}")

    def canonical(self) -> str:
        """Unambiguous string form, stable across runs; parse() round-trips it."""
        if self.kind == "highpass":
            return f"highpass:{self.cutoff!r}"
        if self.kind == "shuffle":
            return f"shuffle:{self.patch}"
        return self.kind

    def validate_for_crop(self, crop_size: int) -> None:
        if self.kind == "shuffle" and crop_size % self.patch != 0:
            raise PixmapError(
                "patch-mismatch", f"patch {self.patch} must divide crop {crop_size}"
            )
        if self.kind == "npr" and crop_size % NPR_BLOCK != 0:
            raise PixmapError(
                "patch-mismatch", f"block {NPR_BLOCK} must divide crop {crop_size}"
            )


@functools.lru_cache(maxsize=64)
def _highpass_keep(h: int, w: int, cutoff: float) -> np.ndarray:
    """The highpass mask on the ``rfft2`` half grid: False inside the DC disk.

    The mask is built in unshifted DFT order (``ifftshift`` only permutes
    bins, so the spectrum itself is never shifted), then cut to its first
    W // 2 + 1 columns. The disk is symmetric under k -> -k, so the half
    mask applied to the half spectrum is the full mask applied to the full.
    """
    keep = np.fft.ifftshift(dc_distance(h, w) >= cutoff * (min(h, w) / 2.0))[:, : w // 2 + 1]
    keep.setflags(write=False)
    return keep


def _highpass(batch: np.ndarray, cutoff: float) -> np.ndarray:
    h, w = batch.shape[2:]
    freq = np.fft.rfft2(batch.astype(np.float64), axes=(2, 3))
    return np.fft.irfft2(freq * _highpass_keep(h, w, cutoff), s=(h, w), axes=(2, 3))


def _check_tiles(batch: np.ndarray, size: int, what: str) -> None:
    h, w = batch.shape[2:]
    if h % size != 0 or w % size != 0:
        raise PixmapError("patch-mismatch", f"{what} {size} must divide {h}x{w}")


def _shuffle(batch: np.ndarray, patch: int, seeds) -> np.ndarray:
    _check_tiles(batch, patch, "patch")
    n, c, h, w = batch.shape
    gh, gw = h // patch, w // patch
    perms = seeded_permutations(seeds, gh * gw)
    # One flat source index per output pixel: tile t of sample k reads tile perms[k, t].
    corner = (perms // gw) * (patch * w) + (perms % gw) * patch
    src = corner.reshape(n, gh, 1, gw, 1) + np.arange(patch)[:, None, None] * w + np.arange(patch)
    planes = np.arange(0, n * c * h * w, h * w).reshape(n, c, 1)
    return batch.reshape(-1).take(src.reshape(n, 1, h * w) + planes).reshape(n, c, h, w)


def _npr(batch: np.ndarray, block: int) -> np.ndarray:
    _check_tiles(batch, block, "block")
    n, c, h, w = batch.shape
    blocks = batch.astype(np.float64).reshape(n, c, h // block, block, w // block, block)
    return (blocks - blocks[:, :, :, :1, :, :1]).reshape(n, c, h, w)


def highpass(img: Image8, cutoff_fraction: float) -> ImageF:
    """Zero all frequencies within radius cutoff_fraction * min(H, W) / 2 of DC.

    The mask is the DC-centred disk, applied per channel; the inverse
    transform's real part is returned. DC always falls inside the disk, so
    the output is zero-mean per channel.
    """
    if not 0.0 < cutoff_fraction < 1.0:
        raise PixmapError("bad-cutoff", f"cutoff must be in (0,1), got {cutoff_fraction}")
    return ImageF(batch_image(_highpass(as_batch(img), cutoff_fraction)))


def patch_shuffle(img: Image8, patch: int, seed: int) -> Image8:
    """Permute non-overlapping patch x patch tiles with a seeded Fisher-Yates.

    Output tile i (row-major over the tile grid) is input tile perm[i],
    where perm is [0..n) shuffled in place. All channels move together.
    """
    if patch < 1:
        raise PixmapError("bad-patch", f"patch must be >= 1, got {patch}")
    return Image8(batch_image(_shuffle(as_batch(img), patch, [seed])))


def npr_residual(img: Image8, block: int = NPR_BLOCK) -> ImageF:
    """Subtract each block's top-left pixel from the whole block, per channel."""
    return ImageF(batch_image(_npr(as_batch(img), block)))


@functools.lru_cache(maxsize=1)
def _fixed_table():
    return build_fixed_table()


def reduce_batch(spec: ReducerSpec, batch: np.ndarray, seed_root: int, tags) -> np.ndarray:
    """Run one reducer on an N x 3 x h x w uint8 batch; returns float64 NCHW.

    ``tags[k]`` is sample k's tuple of seed tags, as :func:`apply_reducer`
    takes them. ``shuffle`` and ``npr`` raise ``patch-mismatch`` unless
    their tile divides both sides.
    """
    if spec.kind == "none":
        return batch / 127.5 - 1.0
    if spec.kind == "fixed":
        return _fixed_table().entries[batch]
    if spec.kind == "random":
        seeds = [derive_seed(seed_root, "table", *tag) for tag in tags]
        return map_batch(batch, random_table_entries(seeds))
    if spec.kind == "highpass":
        return _highpass(batch, spec.cutoff) / 127.5
    if spec.kind == "shuffle":
        seeds = [derive_seed(seed_root, "perm", *tag) for tag in tags]
        return _shuffle(batch, spec.patch, seeds) / 127.5 - 1.0
    if spec.kind == "npr":
        return _npr(batch, NPR_BLOCK) / 127.5
    raise PixmapError("bad-reducer", f"unknown reducer {spec.kind!r}")


def apply_reducer(spec: ReducerSpec, img: Image8, seed_root: int, *sample_tags) -> ImageF:
    """Run one reducer on one image, returning the detector-ready raster.

    ``seed_root`` plus ``sample_tags`` (typically the image path, and the
    epoch during training) determine every stochastic choice, so any sample
    presentation can be regenerated in isolation.
    """
    return ImageF(batch_image(reduce_batch(spec, as_batch(img), seed_root, [sample_tags])))
