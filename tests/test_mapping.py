"""Mapping tables against independent decimal-arithmetic oracles."""

from decimal import ROUND_HALF_EVEN, Decimal

import numpy as np
import pytest

from pixmap.errors import PixmapError
from pixmap.image import Image8, to_float
from pixmap.mapping import (
    MappingTable,
    adjacent_gap_profile,
    apply_mapping,
    build_fixed_table,
    build_random_tables,
    map_batch,
    random_table_entries,
)


def oracle_fixed_entry(v: int) -> float:
    """Independent route: exact decimal quantization, then one float cast."""
    q = (Decimal(v) / Decimal(256)).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN)
    return float(Decimal(v) - q * 256)


ORACLE_TABLE = np.array([oracle_fixed_entry(v) for v in range(256)])


def test_fixed_table_matches_oracle_exactly():
    table = build_fixed_table()
    assert np.array_equal(table.entries, ORACLE_TABLE)


@pytest.mark.parametrize(
    "v,expected",
    [
        (0, 0.0),
        (2, -0.56),  # 2/256 -> 0.01, 2 - 2.56
        (3, 0.44),
        (128, 0.0),  # 128/256 is exactly 0.50
        (255, -1.0),  # 0.996... -> 1.00
    ],
)
def test_fixed_table_spot_values(v, expected):
    assert build_fixed_table().entries[v] == expected


def test_fixed_table_tie_entries_round_half_even():
    # 25v/64 has fractional part .5 exactly at these inputs; half-up would
    # flip every sign below.
    table = build_fixed_table().entries
    assert table[32] == 1.28
    assert table[96] == -1.28
    assert table[160] == 1.28
    assert table[224] == -1.28


def test_fixed_table_range_and_collision():
    table = build_fixed_table().entries
    assert table.min() >= -1.28 and table.max() <= 1.28
    assert table[0] == table[128] == 0.0  # not injective


def test_fixed_table_referentially_transparent():
    a = build_fixed_table().entries
    b = build_fixed_table().entries
    assert a.tobytes() == b.tobytes()


def test_fixed_table_affine_within_rounding_buckets():
    table = build_fixed_table().entries
    bucket = [round(25 * v / 64) for v in range(256)]
    for v in range(255):
        if bucket[v + 1] == bucket[v]:
            assert table[v + 1] - table[v] == pytest.approx(1.0, abs=1e-12)
        else:
            assert table[v + 1] < table[v]  # discontinuous drop across buckets


# --- random tables ----------------------------------------------------------------


def test_random_tables_support_and_determinism():
    t1 = build_random_tables(42)
    t2 = build_random_tables(42)
    t3 = build_random_tables(43)
    for a, b in zip(t1, t2):
        assert np.array_equal(a.entries, b.entries)
    assert any(not np.array_equal(a.entries, b.entries) for a, b in zip(t1, t3))
    for tab in t1:
        assert tab.entries.min() >= -1.0 and tab.entries.max() < 1.0


def test_random_tables_channels_mutually_distinct():
    tables = build_random_tables(7)
    assert not np.array_equal(tables[0].entries, tables[1].entries)
    assert not np.array_equal(tables[1].entries, tables[2].entries)


def test_random_tables_grand_mean_small():
    # CLT bound: 256*3*2000 draws give std of the mean ~ 0.00047
    total = 0.0
    n = 2000
    for seed in range(n):
        for tab in build_random_tables(seed):
            total += tab.entries.sum()
    assert abs(total / (n * 3 * 256)) < 0.02


def test_random_table_entries_rows_equal_build_random_tables():
    seeds = [0, 1, 42, 2**64 - 1] + list(range(1000, 1030))
    entries = random_table_entries(seeds)
    assert entries.shape == (len(seeds), 3, 256)
    for row, seed in zip(entries, seeds):
        assert np.array_equal(row, np.stack([t.entries for t in build_random_tables(seed)]))


@pytest.mark.parametrize("tn,tc", [(5, 3), (1, 3), (5, 1), (1, 1)])
def test_map_batch_equals_take_along_axis(tn, tc):
    batch = (np.arange(5 * 3 * 4 * 6) * 37 % 256).astype(np.uint8).reshape(5, 3, 4, 6)
    entries = random_table_entries(list(range(tn)))[:, :tc]
    ref = np.take_along_axis(entries, batch.reshape(5, 3, 24), axis=2).reshape(batch.shape)
    assert map_batch(batch, entries).tobytes() == ref.tobytes()
    strided = batch.transpose(0, 1, 3, 2)  # a non-contiguous view
    ref = np.take_along_axis(entries, strided.reshape(5, 3, 24), axis=2).reshape(strided.shape)
    assert map_batch(strided, entries).tobytes() == ref.tobytes()


# --- application -------------------------------------------------------------------


def _image_of(levels) -> Image8:
    arr = np.array(levels, dtype=np.uint8)
    return Image8(arr)


def test_identity_table_reproduces_to_float():
    identity = MappingTable(np.arange(256, dtype=np.float64))
    img = _image_of(np.arange(48).reshape(4, 4, 3) % 256)
    out = apply_mapping(img, identity)
    assert np.array_equal(out.data, to_float(img).data)


def test_constant_image_maps_to_constant():
    img = _image_of(np.full((3, 5, 3), 77))
    out = apply_mapping(img, build_fixed_table())
    assert np.all(out.data == build_fixed_table().entries[77])


def test_adjacent_levels_flip_sign_one_apart():
    img = _image_of([[[2, 2, 2], [3, 3, 3]]])
    out = apply_mapping(img, build_fixed_table())
    assert np.all(out.data[0, 0] == -0.56)
    assert np.all(out.data[0, 1] == 0.44)


def test_apply_mapping_per_channel_tables():
    tables = build_random_tables(5)
    img = _image_of(np.full((2, 2, 3), 10))
    out = apply_mapping(img, tables)
    for c in range(3):
        assert np.all(out.data[:, :, c] == tables[c].entries[10])


def test_apply_mapping_rejects_wrong_table_count():
    img = _image_of(np.zeros((1, 1, 3)))
    with pytest.raises(PixmapError) as err:
        apply_mapping(img, build_random_tables(1)[:2])
    assert err.value.code == "bad-table-count"


def test_mapping_commutes_with_center_crop():
    from pixmap.image import CropSpec, crop

    rng_img = _image_of((np.arange(10 * 10 * 3) * 7 % 256).reshape(10, 10, 3))
    table = build_fixed_table()
    spec = CropSpec(4, "center")
    a = apply_mapping(crop(rng_img, spec), table)
    full = apply_mapping(rng_img, table)
    b = full.data[3:7, 3:7, :]
    assert np.array_equal(a.data, b)


# --- gap profile -------------------------------------------------------------------


def test_gap_profile_identity_and_linear_tables():
    identity = MappingTable(np.arange(256, dtype=np.float64))
    assert np.all(adjacent_gap_profile(identity) == 1.0)
    standard = MappingTable(np.arange(256) / 127.5 - 1.0)
    gaps = adjacent_gap_profile(standard)
    assert np.allclose(gaps, 1 / 127.5, atol=1e-15)


def test_fixed_table_gap_structure():
    # Oracle scan: every adjacent gap is 1.0 (same rounding bucket) or 1.56
    # (bucket steps by one), so the global max is 1.56.
    gaps = adjacent_gap_profile(build_fixed_table())
    oracle_gaps = np.abs(np.diff(ORACLE_TABLE))
    assert np.array_equal(gaps, oracle_gaps)
    assert gaps.max() == pytest.approx(1.56, abs=1e-12)
    assert set(np.round(gaps, 6).tolist()) == {1.0, 1.56}


def test_fixed_mean_gap_dominates_standard_normalization():
    fixed_mean = adjacent_gap_profile(build_fixed_table()).mean()
    standard = MappingTable(np.arange(256) / 127.5 - 1.0)
    standard_mean = adjacent_gap_profile(standard).mean()
    assert fixed_mean > 50 * standard_mean
