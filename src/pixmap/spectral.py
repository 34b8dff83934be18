"""Frequency-domain diagnostics: 2-D power spectra and radial profiles.

The quantities here back both analysis output and the test suite: mean power
spectra over image sets, and the 1-D azimuthal profile that aggregates
spectral power over rings of constant frequency radius. A spectrum is a
plain H x W float64 array of centred power, DC at (H//2, W//2); a profile
is the pair of 1-D arrays ``(values, counts)``. :func:`band_ratio`,
the ratio of high- to low-band radial power, has no caller in the commands
yet. Mapping raises it for real and fake images alike, and can leave fakes
below reals, so on its own it shows whitening, not a detectable trace.

Power takes real input only and is summed on the ``rfft2`` half spectrum,
about half the work of full ``fft2`` power per channel; the full grid is
mirrored and ``fftshift``ed once, after averaging.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import PixmapError
from .image import format_csv


def mean_spectrum_chw(stacks: Iterable[np.ndarray]) -> np.ndarray:
    """Mean over C x H x W real stacks of their channel-averaged, centred |DFT|^2.

    Half spectra are summed in channel order, then stack order; the columns
    past W // 2 are rebuilt at the end as ``P[k1, k2] = P[-k1 mod H, W - k2]``.
    Each stack is transformed in one ``rfft2`` call over its two trailing axes.
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
        acc += (np.abs(np.fft.rfft2(stack)) ** 2).sum(axis=0) / len(stack)
    if acc is None:
        raise PixmapError("empty-input", "mean_spectrum needs at least one image")
    acc /= count
    mirror = acc[-np.arange(h) % h, w - acc.shape[1] : 0 : -1]
    return np.fft.fftshift(np.hstack([acc, mirror]))


def power_spectrum(channel: np.ndarray) -> np.ndarray:
    """|DFT|^2 of one real channel, DC at (H//2, W//2); complex input is ``bad-dtype``."""
    arr = np.asarray(channel)
    if arr.ndim != 2:
        raise PixmapError("bad-shape", f"power_spectrum needs a 2-D array, got {arr.shape}")
    return mean_spectrum_chw([arr[None]])


def mean_spectrum(images: Iterable[np.ndarray]) -> np.ndarray:
    """Element-wise mean of the channel-averaged power spectra of H x W x C arrays."""
    return mean_spectrum_chw(x.transpose(2, 0, 1) for x in images)


def dc_distance(h: int, w: int) -> np.ndarray:
    """Euclidean distance of every bin of an H x W grid to the DC bin (H//2, W//2)."""
    yy, xx = np.ogrid[:h, :w]
    return np.hypot(yy - h // 2, xx - w // 2)


def azimuthal_profile(power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse a centred spectrum into ``(values, counts)`` per integer radius.

    ``values[r]`` is the mean power over the ``counts[r]`` bins whose
    rounded distance to the DC bin is r, for r = 0 .. floor(min(H, W) / 2).
    Squared distances between lattice points are integers, so no distance
    ever lands exactly on a .5 tie. Corner bins past the top radius fold
    into the top ring, so every ring has a bin and
    ``sum(values * counts)`` equals the total power.
    """
    h, w = power.shape
    max_r = min(h, w) // 2
    radii = np.minimum(np.rint(dc_distance(h, w)).astype(np.int64), max_r)
    counts = np.bincount(radii.ravel(), minlength=max_r + 1)
    sums = np.bincount(radii.ravel(), weights=power.ravel(), minlength=max_r + 1)
    return sums / counts, counts


def band_ratio(values: np.ndarray) -> float:
    """Mean power over the top third of radii divided by the bottom third.

    DC (radius 0) is excluded from the low band. Both bands span
    floor(R / 3) radii, where R is the top radius. A flat spectrum gives
    1.0; smooth imagery gives values well below 1.
    """
    if len(values) < 6:
        raise PixmapError("profile-too-short", f"band_ratio needs >= 6 radii, got {len(values)}")
    nband = (len(values) - 1) // 3
    low = values[1 : 1 + nband]
    high = values[-nband:]
    low_mean = float(np.mean(low))
    if low_mean == 0.0:
        raise PixmapError("degenerate-spectrum", "low band carries no power")
    return float(np.mean(high)) / low_mean


def profile_csv(values: np.ndarray, counts: np.ndarray) -> str:
    """Render a radial profile as CSV: radius, mean_power, count."""
    rows = zip(range(len(values)), values.tolist(), counts.tolist())
    return format_csv(("radius", "mean_power", "count"), rows)


def heatmap_u8(power: np.ndarray) -> np.ndarray:
    """Log-scaled, max-normalized uint8 rendering of a spectrum."""
    g = np.log1p(power)
    peak = g.max()
    if peak > 0:
        g = g / peak
    return np.rint(g * 255.0).astype(np.uint8)
