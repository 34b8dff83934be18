"""Pixel-value mapping tables: the core preprocessing step.

A mapping table replaces each 8-bit pixel value with a real number. Breaking
the monotone ordering of adjacent values turns smooth image regions into
high-frequency texture while keeping the lookup invertible enough to preserve
local pixel relationships (equal inputs stay equal outputs).

Two constructions are provided:

* the fixed table ``v - round2(v / 256) * 256``, where ``round2`` rounds to
  two decimal places with ties to even, yielding outputs in [-1.28, 1.28];
* per-channel random tables with entries drawn i.i.d. from U(-1, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PixmapError
from .image import Image8, ImageF, as_batch, batch_image
from .rng import seeded_uniforms


@dataclass(frozen=True)
class MappingTable:
    """256 finite output values, one per 8-bit input value."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.shape != (256,):
            raise PixmapError("bad-table", f"mapping table needs 256 entries, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise PixmapError("bad-table", "mapping table entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


def build_fixed_table() -> MappingTable:
    """Build the deterministic table ``v - round2(v / 256) * 256``.

    For lattice inputs v in 0..255 the rounded quantity is k/100 with
    k = round_half_even(25 v / 64); 25v/64 is a dyadic rational, exactly
    representable, so Python's banker's rounding resolves the ties at
    v in {32, 96, 160, 224} exactly. Each entry is then the correctly
    rounded float64 of the rational (25 v - 64 k) / 25, so every call
    returns a bit-identical table with all entries in [-1.28, 1.28].
    """
    entries = np.empty(256, dtype=np.float64)
    for v in range(256):
        k = round(25 * v / 64)
        entries[v] = (25 * v - 64 * k) / 25
    return MappingTable(entries)


def random_table_entries(seeds) -> np.ndarray:
    """``(len(seeds), 3, 256)`` random table entries, one row per seed, in one draw.

    Row k equals the entries of ``build_random_tables(seeds[k])``.
    """
    return seeded_uniforms(seeds, 3 * 256, lo=-1.0, hi=1.0).reshape(len(seeds), 3, 256)


def build_random_tables(seed: int) -> tuple[MappingTable, MappingTable, MappingTable]:
    """Draw three per-channel tables with entries i.i.d. uniform on [-1, 1)."""
    return tuple(MappingTable(row) for row in random_table_entries([seed])[0])


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


def apply_mapping(img: Image8, tables) -> ImageF:
    """Look up every sample: out[x, y, c] = tables[c][img[x, y, c]].

    Pass a single table to share it across all three channels (fixed mode)
    or exactly three tables for per-channel mapping (random mode).
    """
    tables = (tables,) if isinstance(tables, MappingTable) else tuple(tables)
    if len(tables) not in (1, 3):
        raise PixmapError("bad-table-count", f"need 1 or 3 mapping tables, got {len(tables)}")
    entries = np.stack([t.entries for t in tables])[None]
    return ImageF(batch_image(map_batch(as_batch(img), entries)))


def adjacent_gap_profile(table: MappingTable) -> np.ndarray:
    """Absolute output gaps between consecutive input values, |T[v+1] - T[v]|."""
    return np.abs(np.diff(table.entries))
