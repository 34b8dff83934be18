"""Synthetic corpus: determinism, artifacts, confound construction."""

import numpy as np
import pytest

from pixmap.config import DEFAULT_NOISE_SIGMA
from pixmap.errors import PixmapError
from pixmap.rng import SplitMix64, derive_seed
from pixmap.spectral import (
    azimuthal_profile,
    band_ratio,
    mean_spectrum,
    power_spectrum,
)
from pixmap.synthgen import (
    ManifestEntry,
    build_benchmark,
    _blur2d,
    _family_pattern,
    _gaussian_kernel,
    generate,
    read_manifest_csv,
    write_manifest_csv,
)


def _entry(generator, family, seed):
    return ManifestEntry(f"{generator}.ppm", int(generator != "real"), generator, family, seed)


def _real_image(seed, noise=2.0):
    return generate(_entry("real", "A", seed), 64, noise)


def _fake_image(seed, upsampler, noise=2.0):
    return generate(_entry(upsampler, "A", seed), 64, noise)


def test_gen_real_deterministic():
    a = _real_image(7, noise=0.0)
    b = _real_image(7, noise=0.0)
    assert np.array_equal(a, b)
    c = _real_image(7)
    d = _real_image(7)
    assert np.array_equal(c, d)
    assert not np.array_equal(_real_image(8), c)


def test_gen_real_histogram_span():
    img = _real_image(3)
    assert len(np.unique(img)) > 30


def test_gen_real_smooth_band_ratio():
    ratios = []
    for s in range(10):
        img = _real_image(derive_seed(1, "smooth", s))
        values, _ = azimuthal_profile(mean_spectrum([img.astype(np.float64)]))
        ratios.append(band_ratio(values))
    assert max(ratios) < 0.1


def test_gen_fake_deterministic_and_distinct_from_real():
    a = _fake_image(7, "nearest")
    b = _fake_image(7, "nearest")
    assert np.array_equal(a, b)
    assert not np.array_equal(a, _real_image(7))


def test_nearest_fake_blocks_constant_without_noise():
    img = _fake_image(5, "nearest", noise=0.0)
    assert np.array_equal(img[0::2, :], img[1::2, :])
    assert np.array_equal(img[:, 0::2], img[:, 1::2])


def _paired_profiles(generator_a, generator_b, n=30):
    imgs_a, imgs_b = [], []
    for s in range(n):
        seed = derive_seed(13, "pair", s)
        imgs_a.append(generate(_entry(generator_a, "A", seed), 64, 2.0).astype(np.float64))
        imgs_b.append(generate(_entry(generator_b, "B", seed), 64, 2.0).astype(np.float64))
    pa, _ = azimuthal_profile(mean_spectrum(imgs_a))
    pb, _ = azimuthal_profile(mean_spectrum(imgs_b))
    return pa, pb


@pytest.mark.parametrize("upsampler", ["nearest", "bilinear", "zero_insert_conv"])
def test_fake_profiles_separate_from_real_at_high_radii(upsampler):
    real, fake = _paired_profiles("real", upsampler)
    r = len(real) - 1
    top = slice(r - r // 3 + 1, r + 1)
    excess = np.mean(fake[top]) / np.mean(real[top])
    assert excess > 1.25


@pytest.mark.parametrize("family", ["A", "B"])
def test_family_pattern_leaks_little_into_high_radii(family):
    # the periodic DFT sees any wrap-around seam in the pattern as an edge
    # whose power spreads to every radius; it must stay well under the
    # sensor-noise floor, or it hides weak upsampling replicas there
    size = 64
    values, _ = azimuthal_profile(power_spectrum(_family_pattern(family, size)))
    r = len(values) - 1
    top = slice(r - r // 3 + 1, r + 1)
    noise_floor = size * size * DEFAULT_NOISE_SIGMA ** 2  # white noise, per bin
    assert np.mean(values[top]) < 0.5 * noise_floor


def test_real_families_do_not_separate_at_high_radii():
    real_a, real_b = _paired_profiles("real", "real")
    r = len(real_a) - 1
    top = slice(r - r // 3 + 1, r + 1)
    excess = np.mean(real_b[top]) / np.mean(real_a[top])
    assert 0.85 < excess < 1.15


def test_zero_insert_conv_bump_in_top_third():
    real, fake = _paired_profiles("real", "zero_insert_conv")
    r = len(real) - 1
    top_start = r - r // 3 + 1
    mid = slice(r // 3 + 1, 2 * (r // 3) + 1)
    excess = fake / real
    # upsampled content is smoother in the mid band, then the replica
    # energy rebounds into a high-radius bump absent from the real curve
    assert np.min(excess[mid]) < 0.5
    assert np.max(excess[top_start:]) > 1.5
    interior = excess[top_start : r + 1]
    peak = int(np.argmax(interior))
    assert 0 < peak < len(interior) - 1  # strict local maximum inside the band


def test_manifest_entry_and_dataset_validation():
    entry = _entry("real", "A", 1)
    for size, noise in ((63, 0), (64, -1)):
        with pytest.raises(PixmapError) as err:
            generate(entry, size, noise)
        assert err.value.code == "bad-generator"
    for generator, family in (("bicubic", "A"), ("real", "C")):
        with pytest.raises(PixmapError) as err:
            _entry(generator, family, 1)
        assert err.value.code == "bad-manifest"


# --- benchmark construction -------------------------------------------------------


def test_build_benchmark_counts_and_balance():
    tr, te = build_benchmark("nearest", "bilinear", True, 100, seed=1)
    for m in (tr, te):
        assert len(m) == 200
        labels = [e.label for e in m]
        assert labels.count(0) == labels.count(1) == 100
        assert len({e.path for e in m}) == 200
    assert {e.generator for e in tr} == {"real", "nearest"}
    assert {e.generator for e in te} == {"real", "bilinear"}


def test_confound_family_assignment():
    tr, te = build_benchmark("nearest", "bilinear", True, 10, seed=1)
    assert all(e.family == "A" for e in tr if e.label == 0)
    assert all(e.family == "B" for e in tr if e.label == 1)
    assert all(e.family == "B" for e in te if e.label == 0)
    assert all(e.family == "A" for e in te if e.label == 1)


def test_no_confound_families_identically_distributed():
    tr, te = build_benchmark("nearest", "bilinear", False, 10, seed=1)

    def family_counts(manifest, label):
        fams = [e.family for e in manifest if e.label == label]
        return fams.count("A"), fams.count("B")

    for label in (0, 1):
        assert family_counts(tr, label) == family_counts(te, label) == (5, 5)


def test_labels_follow_generator_rule():
    tr, _ = build_benchmark("zero_insert_conv", "nearest", True, 5, seed=2)
    for e in tr:
        assert e.label == (0 if e.generator == "real" else 1)
    with pytest.raises(PixmapError):
        ManifestEntry("x.ppm", 1, "real", "A", 0)


def test_brightness_threshold_shortcut_inverts_under_swap():
    # closed-form confound oracle: the best train-split brightness threshold
    # must look great on train and collapse below chance on test
    tr, te = build_benchmark("nearest", "bilinear", True, 30, seed=3)

    def means_labels(manifest):
        means, labels = [], []
        for e in manifest:
            img = generate(e, 32, 2.0)
            means.append(float(img.mean()))
            labels.append(e.label)
        return np.array(means), np.array(labels)

    tr_m, tr_y = means_labels(tr)
    te_m, te_y = means_labels(te)
    candidates = np.sort(tr_m)
    best_acc, best_thr, best_dir = 0.0, 0.0, 1
    for thr in (candidates[:-1] + candidates[1:]) / 2:
        for direction in (1, -1):
            pred = (tr_m * direction) < (thr * direction)
            acc = float(np.mean(pred == tr_y))
            if acc > best_acc:
                best_acc, best_thr, best_dir = acc, thr, direction
    assert best_acc > 0.9
    te_pred = (te_m * best_dir) < (best_thr * best_dir)
    assert float(np.mean(te_pred == te_y)) < 0.5


def test_regeneration_from_manifest_is_byte_identical():
    from pixmap.image import encode_ppm

    tr, _ = build_benchmark("bilinear", "nearest", True, 3, seed=9)
    first = {e.path: encode_ppm(generate(e, 32, 2.0)) for e in tr}
    second = {e.path: encode_ppm(generate(e, 32, 2.0)) for e in tr}
    assert first == second


def test_manifest_csv_round_trip(tmp_path):
    tr, _ = build_benchmark("nearest", "bilinear", True, 4, seed=5)
    path = tmp_path / "m.csv"
    write_manifest_csv(path, tr)
    back = read_manifest_csv(path)
    assert back == tr
    header = path.read_text().splitlines()[0]
    assert header == "path,label,generator,family,seed"


@pytest.mark.parametrize(
    "row",
    [
        b"train/real_0001.ppm,0,real,A,abc",
        b"train/real_0001.ppm,2,real,A,1",
        b"train/r\xc3\xa9al_0001.ppm,0,real,A,1",
        b"train/../../secret.ppm,0,real,A,1",
        b"/tmp/real_0001.ppm,0,real,A,1",
        b"train/real_0001.ppm,1,real,A,1",
        b"train/real_0000.ppm,0,real,A,1",
        b"train/./real_0000.ppm,0,real,A,1",
        b"train//real_0000.ppm,0,real,A,1",
        b"train/fake_0000.ppm,1,foo,A,1",
        b"train/fake_0000.ppm,1,nearest,Z,1",
    ],
    ids=["non-numeric-seed", "label-2", "non-ascii", "dotdot-path", "absolute-path",
         "label-contradicts-generator", "repeated-path", "repeated-path-dot", "repeated-path-double-slash",
         "unknown-generator", "unknown-family"],
)
def test_manifest_csv_rejects_bad_rows(tmp_path, row):
    path = tmp_path / "m.csv"
    path.write_bytes(b"path,label,generator,family,seed\ntrain/real_0000.ppm,0,real,A,1\n" + row + b"\n")
    with pytest.raises(PixmapError) as err:
        read_manifest_csv(path)
    assert err.value.code == "bad-manifest"


def _blur2d_by_roll(field, sigma):
    """The blur's definition: one np.roll per tap and axis, summed in tap order."""
    k = _gaussian_kernel(sigma)
    radius = len(k) // 2
    for axis in (0, 1):
        acc = np.zeros_like(field)
        for i, kv in enumerate(k):
            acc += kv * np.roll(field, radius - i, axis=axis)
        field = acc
    return field


@pytest.mark.parametrize("n", [2, 4, 5, 16, 32, 64, 128])
@pytest.mark.parametrize("sigma", [1.0, 1.7, 2.5, 3.0])
def test_blur2d_is_bit_identical_to_rolled_sum(n, sigma):
    # Radii run 3..9, so the small sides wrap more than once.
    field = SplitMix64(n * 10 + int(sigma * 10)).normals(n * (n + 1)).reshape(n, n + 1)
    assert np.array_equal(_blur2d(field, sigma), _blur2d_by_roll(field, sigma))
