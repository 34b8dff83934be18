"""Frequency-domain diagnostics: 2-D power spectra and radial profiles.

The quantities here back both analysis output and the test suite: mean power
spectra over image sets, and the 1-D azimuthal profile that aggregates
spectral power over rings of constant frequency radius. :func:`band_ratio`,
the ratio of high- to low-band radial power, has no caller in the commands
yet. Mapping raises it for real and fake images alike, and can leave fakes
below reals, so on its own it shows whitening, not a detectable trace.

Power takes real input only and is summed on the ``rfft2`` half spectrum,
about half the work of full ``fft2`` power per channel; the full grid is
mirrored and ``fftshift``ed once, after averaging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import PixmapError
from .image import ImageF, format_csv


@dataclass(frozen=True)
class Spectrum2D:
    """Non-negative power per frequency bin, DC at (H//2, W//2)."""

    power: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.power, dtype=np.float64)
        if arr.ndim != 2:
            raise PixmapError("bad-shape", f"spectrum must be 2-D, got {arr.shape}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise PixmapError("bad-spectrum", "power must be finite and non-negative")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "power", arr)

    @property
    def height(self) -> int:
        return self.power.shape[0]

    @property
    def width(self) -> int:
        return self.power.shape[1]


@dataclass(frozen=True)
class RadialProfile:
    """Mean power and bin occupancy per integer frequency radius.

    ``values[r]`` is the mean power over bins whose rounded distance to the
    DC center is r, for r = 0 .. floor(min(H, W) / 2). Bins beyond the top
    radius (spectrum corners) are folded into the top ring so that
    sum(values * counts) always equals the total spectral power.
    """

    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        c = np.asarray(self.counts, dtype=np.int64)
        if v.ndim != 1 or v.shape != c.shape:
            raise PixmapError("bad-profile", "values and counts must be 1-D, same length")
        if np.any(c < 1):
            raise PixmapError("bad-profile", "every radius must have at least one bin")
        v = v.copy()
        c = c.copy()
        v.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "counts", c)

    @property
    def max_radius(self) -> int:
        return len(self.values) - 1


def mean_spectrum_chw(stacks: Iterable[np.ndarray]) -> Spectrum2D:
    """Mean over C x H x W real stacks of their channel-averaged, centred |DFT|^2.

    Half spectra are summed in channel order, then stack order; the columns
    past W // 2 are rebuilt at the end as ``P[k1, k2] = P[-k1 mod H, W - k2]``.
    Each stack is made contiguous first: ``rfft2`` over contiguous channels
    is about 10% faster than over strided ones.
    """
    acc = None
    for count, stack in enumerate(stacks, 1):
        if np.iscomplexobj(stack):
            raise PixmapError("bad-dtype", "power spectra need real input")
        if acc is None:
            h, w = stack.shape[1:]
            acc = np.zeros((h, w // 2 + 1))
        elif stack.shape[1:] != (h, w):
            got = "x".join(map(str, stack.shape[1:]))
            raise PixmapError("dim-mismatch", f"image {got} does not match {h}x{w}")
        stack = np.ascontiguousarray(stack)
        acc += sum(np.abs(np.fft.rfft2(chan)) ** 2 for chan in stack) / len(stack)
    if acc is None:
        raise PixmapError("empty-input", "mean_spectrum needs at least one image")
    acc /= count
    mirror = acc[-np.arange(h) % h, w - acc.shape[1] : 0 : -1]
    return Spectrum2D(np.fft.fftshift(np.hstack([acc, mirror])))


def power_spectrum(channel: np.ndarray) -> Spectrum2D:
    """|DFT|^2 of one real channel, DC at (H//2, W//2); complex input is ``bad-dtype``."""
    arr = np.asarray(channel)
    if arr.ndim != 2:
        raise PixmapError("bad-shape", f"power_spectrum needs a 2-D array, got {arr.shape}")
    return mean_spectrum_chw([arr[None]])


def mean_spectrum(images: Sequence[ImageF] | Iterable[ImageF]) -> Spectrum2D:
    """Element-wise mean of per-image, channel-averaged power spectra."""
    return mean_spectrum_chw(img.data.transpose(2, 0, 1) for img in images)


def dc_distance(h: int, w: int) -> np.ndarray:
    """Euclidean distance of every bin of an H x W grid to the DC bin (H//2, W//2)."""
    yy, xx = np.ogrid[:h, :w]
    return np.hypot(yy - h // 2, xx - w // 2)


def azimuthal_profile(spec: Spectrum2D) -> RadialProfile:
    """Collapse a centered spectrum into mean power per integer radius.

    Radii are rounded Euclidean distances to the DC bin; squared distances
    between lattice points are integers, so no distance ever lands exactly
    on a .5 tie. Corner bins past floor(min(H, W) / 2) fold into the top
    ring (see :class:`RadialProfile`).
    """
    max_r = min(spec.height, spec.width) // 2
    radii = np.minimum(np.rint(dc_distance(spec.height, spec.width)).astype(np.int64), max_r)
    counts = np.bincount(radii.ravel(), minlength=max_r + 1)
    sums = np.bincount(radii.ravel(), weights=spec.power.ravel(), minlength=max_r + 1)
    return RadialProfile(sums / counts, counts)


def band_ratio(profile: RadialProfile) -> float:
    """Mean power over the top third of radii divided by the bottom third.

    DC (radius 0) is excluded from the low band. Both bands span
    floor(R / 3) radii, where R is the top radius. A flat spectrum gives
    1.0; smooth imagery gives values well below 1.
    """
    r_max = profile.max_radius
    if r_max + 1 < 6:
        raise PixmapError("profile-too-short", f"band_ratio needs >= 6 radii, got {r_max + 1}")
    nband = r_max // 3
    low = profile.values[1 : 1 + nband]
    high = profile.values[r_max - nband + 1 : r_max + 1]
    low_mean = float(np.mean(low))
    if low_mean == 0.0:
        raise PixmapError("degenerate-spectrum", "low band carries no power")
    return float(np.mean(high)) / low_mean


def profile_csv(profile: RadialProfile) -> str:
    """Render a radial profile as CSV: radius, mean_power, count."""
    rows = zip(range(len(profile.values)), profile.values.tolist(), profile.counts.tolist())
    return format_csv(("radius", "mean_power", "count"), rows)


def heatmap_u8(spec: Spectrum2D) -> np.ndarray:
    """Log-scaled, max-normalized uint8 rendering of a spectrum."""
    g = np.log1p(spec.power)
    peak = g.max()
    if peak > 0:
        g = g / peak
    return np.rint(g * 255.0).astype(np.uint8)
