"""Semantic-reduction baselines and the shared preprocessing dispatch.

Each reducer turns an 8-bit image into the float64 array a detector trains
on, suppressing scene content by a different mechanism:

* ``none``      - standard normalization v / 127.5 - 1 (the raw baseline)
* ``highpass``  - remove a DC-centered low-frequency disk in the DFT domain
* ``shuffle``   - permute square tiles, destroying global layout
* ``npr``       - subtract each block's top-left pixel (residual proxy)
* ``fixed`` / ``random`` - pixel-value mapping tables (see ``mapping``):
  equal values stay equal, so the pixels nearest upsampling repeats stay
  equal, but a bilinear midpoint stops being the mean of its neighbours

Non-mapping reducers are rescaled by 1/127.5. That does not put the
variants on one scale: on centre 32-px crops of a seed-701 confound train
split the detector-input std is about 0.08 for npr, 0.11 for highpass,
0.30 for none, 0.58 for random and 0.74 for fixed.

Each kind has one implementation, :func:`reduce_batch`, which maps an
``N x 3 x h x w`` uint8 batch (NCHW) to float64 of the same shape.
:func:`crop_batch` is the one path from images to that batch: it crops
(centred, or drawn from one seed per image by ``image.crop_origin``),
stacks to contiguous NCHW and reduces. Detector training and evaluation,
``spectrum`` and ``map`` all call it, and it lives here so ``spectrum``
never loads the detector. :func:`apply_reducer`, :func:`highpass`,
:func:`patch_shuffle`, :func:`npr_residual` and ``mapping.apply_mapping``
check their input, run the same code on a batch of one and return its
H x W x 3 view: float64, or ``uint8`` for ``patch_shuffle``, which only
moves pixels. A bad cutoff or patch raises ``bad-reducer`` there as in
:class:`ReducerSpec`. The tile rule and its one ``patch-mismatch`` wording
live in :meth:`ReducerSpec.check_tiles`, which ``reduce_batch`` and
``TrainConfig`` call. Channels come before rows so the highpass FFT runs
over the two trailing, contiguous axes. The input is real, so highpass uses
``rfft2``/``irfft2`` over axes (2, 3), about half the work of
``fft2``/``ifft2``.

``random`` and ``shuffle`` draw every sample's tables or tile permutation
in one multi-seed draw (``rng.seeded_uniforms``, ``rng.seeded_permutations``),
bit-identical to one generator per sample but with no Python loop over
samples, and ``shuffle`` moves pixels with one flat-index gather.
:func:`mapping_tables` is the one place that derives a sample's tables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import PixmapError
from .image import as_batch, batch_image, crop_origin
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

    def check_tiles(self, h: int, w: int) -> None:
        """Raise ``patch-mismatch`` unless this reducer's tile (the shuffle patch, npr's block) divides h and w."""
        what, size = {"shuffle": ("patch", self.patch), "npr": ("block", NPR_BLOCK)}.get(self.kind, ("", 1))
        if h % size != 0 or w % size != 0:
            raise PixmapError("patch-mismatch", f"{what} {size} must divide {h}x{w}")


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
    freq *= _highpass_keep(h, w, cutoff)
    return np.fft.irfft2(freq, s=(h, w), axes=(2, 3))


def _shuffle(batch: np.ndarray, patch: int, seeds) -> np.ndarray:
    n, c, h, w = batch.shape
    gh, gw = h // patch, w // patch
    perms = seeded_permutations(seeds, gh * gw)
    # One flat source index per output pixel: tile t of sample k reads tile perms[k, t].
    corner = (perms // gw) * (patch * w) + (perms % gw) * patch
    src = corner.reshape(n, gh, 1, gw, 1) + np.arange(patch)[:, None, None] * w + np.arange(patch)
    planes = np.arange(0, n * c * h * w, h * w).reshape(n, c, 1)
    return batch.reshape(-1).take(src.reshape(n, 1, h * w) + planes).reshape(n, c, h, w)


def _npr(batch: np.ndarray) -> np.ndarray:
    n, c, h, w = batch.shape
    blocks = batch.astype(np.float64).reshape(n, c, h // NPR_BLOCK, NPR_BLOCK, w // NPR_BLOCK, NPR_BLOCK)
    return (blocks - blocks[:, :, :, :1, :, :1]).reshape(n, c, h, w)


def highpass(img: np.ndarray, cutoff_fraction: float) -> np.ndarray:
    """Zero all frequencies within radius cutoff_fraction * min(H, W) / 2 of DC.

    The mask is the DC-centred disk, applied per channel; the inverse
    transform's real part is returned. DC always falls inside the disk, so
    the output is zero-mean per channel. A cutoff outside (0, 1) raises
    ``bad-reducer``, as ``ReducerSpec`` does.
    """
    spec = ReducerSpec("highpass", cutoff=cutoff_fraction)
    return batch_image(_highpass(as_batch(img), spec.cutoff))


def patch_shuffle(img: np.ndarray, patch: int, seed: int) -> np.ndarray:
    """Permute non-overlapping patch x patch tiles with a seeded Fisher-Yates.

    Output tile i (row-major over the tile grid) is input tile perm[i],
    where perm is [0..n) shuffled in place. All channels move together. A
    patch below 1 raises ``bad-reducer``, as ``ReducerSpec`` does.
    """
    ReducerSpec("shuffle", patch=patch).check_tiles(*img.shape[:2])
    return batch_image(_shuffle(as_batch(img), patch, [seed]))


def npr_residual(img: np.ndarray) -> np.ndarray:
    """Subtract each ``NPR_BLOCK`` square block's top-left pixel from the whole block, per channel."""
    ReducerSpec("npr").check_tiles(*img.shape[:2])
    return batch_image(_npr(as_batch(img)))


def mapping_tables(spec: ReducerSpec, seed_root: int, tags) -> np.ndarray:
    """The tables a ``fixed`` or ``random`` reducer looks each sample up in.

    ``fixed`` gives its one table as 1 x 1 x 256, shared by every sample and
    channel. ``random`` gives N x 3 x 256: sample k's tables are seeded by
    ``derive_seed(seed_root, "table", *tags[k])``. Any other kind has no
    table and raises ``bad-usage``.
    """
    if spec.kind == "fixed":
        return build_fixed_table()[None, None]
    if spec.kind == "random":
        return random_table_entries([derive_seed(seed_root, "table", *tag) for tag in tags])
    raise PixmapError("bad-usage", f"{spec.canonical()} has no mapping table; fixed and random do")


def reduce_batch(spec: ReducerSpec, batch: np.ndarray, seed_root: int, tags) -> np.ndarray:
    """Run one reducer on an N x 3 x h x w uint8 batch; returns float64 NCHW.

    ``tags[k]`` is sample k's tuple of seed tags, as :func:`apply_reducer`
    takes them. ``shuffle`` and ``npr`` raise ``patch-mismatch`` unless
    their tile divides both sides (:meth:`ReducerSpec.check_tiles`).
    """
    spec.check_tiles(*batch.shape[2:])
    if spec.kind in ("fixed", "random"):
        return map_batch(batch, mapping_tables(spec, seed_root, tags))
    if spec.kind == "highpass":
        return _highpass(batch, spec.cutoff) / 127.5
    if spec.kind == "npr":
        return _npr(batch) / 127.5
    if spec.kind == "shuffle":
        batch = _shuffle(batch, spec.patch, [derive_seed(seed_root, "perm", *tag) for tag in tags])
    return batch / 127.5 - 1.0


def crop_batch(datas, spec: ReducerSpec, seed_root: int, tags, crop_size=None, crop_seeds=None) -> np.ndarray:
    """Crop H x W x 3 uint8 images, stack them and reduce them as one batch; returns float64 NCHW.

    Image k is cut to the ``crop_size`` square at
    ``image.crop_origin(h, w, crop_size, crop_seeds[k])``: drawn from its
    seed, or centred when ``crop_seeds`` is None. ``crop_size`` None keeps
    whole images of one size. Every origin is taken before the stack is
    allocated, so a bad ``crop_size`` raises ``bad-crop`` or
    ``crop-too-large`` from ``crop_origin``. The stack is transposed once to
    a contiguous batch, so every kernel and each ``rfft2`` runs on
    contiguous rows. Image k of the result equals
    ``apply_reducer(crop(...))`` of image k, transposed to C x H x W, bit
    for bit.
    """
    if crop_size is None:
        crops = np.stack(datas)
    else:
        seeds = [None] * len(datas) if crop_seeds is None else crop_seeds
        origins = [crop_origin(d.shape[0], d.shape[1], crop_size, s) for d, s in zip(datas, seeds)]
        crops = np.empty((len(datas), crop_size, crop_size, 3), dtype=np.uint8)
        for k, (data, (top, left)) in enumerate(zip(datas, origins)):
            crops[k] = data[top : top + crop_size, left : left + crop_size]
    return reduce_batch(spec, np.ascontiguousarray(crops.transpose(0, 3, 1, 2)), seed_root, tags)


def apply_reducer(spec: ReducerSpec, img: np.ndarray, seed_root: int, *sample_tags) -> np.ndarray:
    """Run one reducer on one image, returning the detector-ready H x W x 3 float64 raster.

    ``seed_root`` plus ``sample_tags`` (typically the image path, and the
    epoch during training) determine every stochastic choice, so any sample
    presentation can be regenerated in isolation.
    """
    return batch_image(reduce_batch(spec, as_batch(img), seed_root, [sample_tags]))
