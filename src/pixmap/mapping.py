"""Pixel-value mapping tables: the core preprocessing step.

A mapping table replaces each 8-bit pixel value with a real number. Breaking
the monotone ordering of adjacent values turns smooth image regions into
high-frequency texture. A table maps equal values to equal values, so the
pixels that nearest upsampling repeats stay equal; it keeps no linear
relation, so a bilinear midpoint stops being the mean of its neighbours.

Two constructions are provided:

* the fixed table ``v - round2(v / 256) * 256``, where ``round2`` rounds to
  two decimal places with ties to even, yielding outputs in [-1.28, 1.28];
* per-channel random tables with entries drawn i.i.d. from U(-1, 1).

A table is a plain float64 array of 256 entries indexed by the 8-bit value.
:func:`build_random_tables` gives its three per-channel tables as the rows
of one 3 x 256 array.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import PixmapError
from .image import as_batch, batch_image
from .rng import seeded_uniforms


@functools.cache
def build_fixed_table() -> np.ndarray:
    """The deterministic table ``v - round2(v / 256) * 256``, as a read-only (256,) array.

    For lattice inputs v in 0..255 the rounded quantity is k/100 with
    k = round_half_even(25 v / 64); 25v/64 is a dyadic rational, exactly
    representable, so Python's banker's rounding resolves the ties at
    v in {32, 96, 160, 224} exactly. Each entry is then the correctly
    rounded float64 of the rational (25 v - 64 k) / 25, so the table is
    bit-identical everywhere, with all entries in [-1.28, 1.28]. It is
    built once and shared; its read-only flag makes that safe.
    """
    entries = np.empty(256, dtype=np.float64)
    for v in range(256):
        k = round(25 * v / 64)
        entries[v] = (25 * v - 64 * k) / 25
    entries.setflags(write=False)
    return entries


def random_table_entries(seeds) -> np.ndarray:
    """``(len(seeds), 3, 256)`` random table entries, one row per seed, in one draw.

    Row k equals ``build_random_tables(seeds[k])``.
    """
    return seeded_uniforms(seeds, 3 * 256, lo=-1.0, hi=1.0).reshape(len(seeds), 3, 256)


def build_random_tables(seed: int) -> np.ndarray:
    """Draw three per-channel tables, the rows of a 3 x 256 array, with entries i.i.d. uniform on [-1, 1)."""
    return random_table_entries([seed])[0]


def map_batch(batch: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Look up every sample of an N x 3 x h x w uint8 batch in (N or 1) x (3 or 1) x 256 tables.

    ``out[k, c, i, j] = entries[k, c, batch[k, c, i, j]]``, where a table
    axis of length 1 is shared across the batch or the channels. Each
    table's offset into the flattened entries is added to the pixel value,
    so the lookup is one gather.
    """
    tn, tc = entries.shape[:2]
    offsets = np.arange(0, tn * tc * 256, 256).reshape(tn, tc, 1, 1)
    return entries.reshape(-1)[batch + offsets]


def apply_mapping(img: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Look up every sample into an H x W x 3 array: out[x, y, c] = tables[c][img[x, y, c]].

    Pass one (256,) table to share it across all three channels (fixed
    mode) or a 3 x 256 array of per-channel tables (random mode). A
    k x 256 array with k other than 1 or 3 raises ``bad-table-count``.
    """
    entries = np.atleast_2d(tables)
    if len(entries) not in (1, 3):
        raise PixmapError("bad-table-count", f"need 1 or 3 mapping tables, got {len(entries)}")
    return batch_image(map_batch(as_batch(img), entries[None]))

