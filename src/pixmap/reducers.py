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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PixmapError
from .image import Image8, ImageF, to_float
from .mapping import apply_mapping, build_fixed_table, build_random_tables
from .rng import SplitMix64, derive_seed
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


def highpass(img: Image8, cutoff_fraction: float) -> ImageF:
    """Zero all frequencies within radius cutoff_fraction * min(H, W) / 2 of DC.

    The mask is applied on the centered spectrum per channel; the inverse
    transform's real part is returned. DC always falls inside the disk, so
    the output is zero-mean per channel.
    """
    if not 0.0 < cutoff_fraction < 1.0:
        raise PixmapError("bad-cutoff", f"cutoff must be in (0,1), got {cutoff_fraction}")
    h, w = img.height, img.width
    keep = dc_distance(h, w) >= cutoff_fraction * (min(h, w) / 2.0)
    out = np.empty((h, w, 3), dtype=np.float64)
    data = img.data.astype(np.float64)
    for c in range(3):
        freq = np.fft.fftshift(np.fft.fft2(data[:, :, c]))
        out[:, :, c] = np.fft.ifft2(np.fft.ifftshift(freq * keep)).real
    return ImageF(out)


def patch_shuffle(img: Image8, patch: int, seed: int) -> Image8:
    """Permute non-overlapping patch x patch tiles with a seeded Fisher-Yates.

    Output tile i (row-major over the tile grid) is input tile perm[i],
    where perm is [0..n) shuffled in place. All channels move together.
    """
    h, w = img.height, img.width
    if patch < 1:
        raise PixmapError("bad-patch", f"patch must be >= 1, got {patch}")
    if h % patch != 0 or w % patch != 0:
        raise PixmapError("patch-mismatch", f"patch {patch} must divide {h}x{w}")
    gh, gw = h // patch, w // patch
    perm = list(range(gh * gw))
    SplitMix64(seed).shuffle(perm)
    tiles = (
        img.data.reshape(gh, patch, gw, patch, 3)
        .transpose(0, 2, 1, 3, 4)
        .reshape(gh * gw, patch, patch, 3)
    )
    shuffled = tiles[np.array(perm)]
    out = (
        shuffled.reshape(gh, gw, patch, patch, 3)
        .transpose(0, 2, 1, 3, 4)
        .reshape(h, w, 3)
    )
    return Image8(out)


def npr_residual(img: Image8, block: int = NPR_BLOCK) -> ImageF:
    """Subtract each block's top-left pixel from the whole block, per channel."""
    h, w = img.height, img.width
    if h % block != 0 or w % block != 0:
        raise PixmapError("patch-mismatch", f"block {block} must divide {h}x{w}")
    data = img.data.astype(np.float64)
    anchors = data[::block, ::block, :]
    tiled = np.repeat(np.repeat(anchors, block, axis=0), block, axis=1)
    return ImageF(data - tiled)


_FIXED_TABLE = None


def _fixed_table():
    global _FIXED_TABLE
    if _FIXED_TABLE is None:
        _FIXED_TABLE = build_fixed_table()
    return _FIXED_TABLE


def apply_reducer(spec: ReducerSpec, img: Image8, seed_root: int, *sample_tags) -> ImageF:
    """Run one reducer on one image, returning the detector-ready raster.

    ``seed_root`` plus ``sample_tags`` (typically the image path, and the
    epoch during training) determine every stochastic choice, so any sample
    presentation can be regenerated in isolation.
    """
    if spec.kind == "none":
        return ImageF(img.data.astype(np.float64) / 127.5 - 1.0)
    if spec.kind == "fixed":
        return apply_mapping(img, _fixed_table())
    if spec.kind == "random":
        tables = build_random_tables(derive_seed(seed_root, "table", *sample_tags))
        return apply_mapping(img, tables)
    if spec.kind == "highpass":
        return ImageF(highpass(img, spec.cutoff).data / 127.5)
    if spec.kind == "shuffle":
        shuffled = patch_shuffle(img, spec.patch, derive_seed(seed_root, "perm", *sample_tags))
        return ImageF(shuffled.data.astype(np.float64) / 127.5 - 1.0)
    if spec.kind == "npr":
        return ImageF(npr_residual(img).data / 127.5)
    raise PixmapError("bad-reducer", f"unknown reducer {spec.kind!r}")
