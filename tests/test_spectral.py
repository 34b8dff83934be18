"""Spectral diagnostics against a naive definitional DFT oracle."""

import numpy as np
import pytest

from pixmap.errors import PixmapError
from pixmap.reducers import highpass
from pixmap.rng import SplitMix64
from pixmap.spectral import (
    azimuthal_profile,
    band_ratio,
    heatmap_u8,
    mean_spectrum,
    mean_spectrum_chw,
    power_spectrum,
)


def naive_dft2(x):
    """Definitional O(N^2)-per-output transform via explicit DFT matrices."""
    x = np.asarray(x, dtype=complex)
    h, w = x.shape
    eh = np.exp(-2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
    ew = np.exp(-2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
    return eh @ x @ ew.T


def _rand(seed, h, w):
    return SplitMix64(seed).uniforms(h * w, -1.0, 1.0).reshape(h, w)


def _checkerboard(n):
    yy, xx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.where((yy + xx) % 2 == 0, 1.0, -1.0)


# --- round trip and Parseval ------------------------------------------------------


@pytest.mark.parametrize("h,w", [(3, 3), (16, 16), (64, 64), (33, 64)])
def test_roundtrip_and_parseval(h, w):
    # A highpass disk below one bin drops only DC, so the rfft2/irfft2 round
    # trip returns each channel minus its mean.
    data = (SplitMix64(h * 1000 + w)._bulk_u64(h * w * 3) % 256).astype(np.uint8).reshape(h, w, 3)
    back = highpass(data, 1e-9)
    centred = data - data.mean(axis=(0, 1))
    assert np.max(np.abs(back - centred)) / np.max(np.abs(centred)) < 1e-9
    # The rebuilt full spectrum holds all the energy: sum |X|^2 = H W sum |x|^2.
    x = _rand(h * 1000 + w, h, w)
    space = np.sum(x**2)
    spectral = np.sum(power_spectrum(x)) / (h * w)
    assert abs(space - spectral) / space < 1e-9


# --- power spectrum ---------------------------------------------------------------


def test_power_spectrum_centered_dc():
    x = np.full((6, 8), 2.0)
    power = power_spectrum(x)
    assert power[3, 4] == pytest.approx((2.0 * 48) ** 2)
    masked = power.copy()
    masked[3, 4] = 0
    assert np.max(masked) < 1e-9


def test_power_spectrum_impulse_uniform():
    x = np.zeros((4, 4))
    x[1, 2] = 1.0
    assert np.allclose(power_spectrum(x), 1.0, atol=1e-12)


def test_power_spectrum_checkerboard_at_corner_bins():
    n = 8
    power = power_spectrum(_checkerboard(n))
    # Nyquist bin lands at index 0 of the centered spectrum
    assert power[0, 0] == pytest.approx(float(n * n) ** 2)
    masked = power.copy()
    masked[0, 0] = 0
    assert np.max(masked) < 1e-9
    oracle = np.abs(naive_dft2(_checkerboard(n))) ** 2
    assert np.max(np.abs(np.fft.fftshift(oracle) - power)) < 1e-6


def test_power_spectrum_conjugate_symmetry_even_dims():
    x = _rand(5, 8, 10)
    p = power_spectrum(x)
    h, w = p.shape
    for i in range(h):
        for j in range(w):
            assert p[i, j] == pytest.approx(p[(h - i) % h, (w - j) % w], rel=1e-9)


# --- mean spectrum ----------------------------------------------------------------


def _imagef(seed, h, w, c=3):
    return SplitMix64(seed).uniforms(h * w * c, 0, 255).reshape(h, w, c)


def test_mean_spectrum_single_image_channel_average():
    img = _imagef(1, 4, 4)
    power = mean_spectrum([img])
    expect = np.zeros((4, 4))
    for c in range(3):
        expect += np.fft.fftshift(np.abs(naive_dft2(img[:, :, c])) ** 2)
    assert np.allclose(power, expect / 3, rtol=1e-9)


def test_mean_spectrum_copies_equal_single():
    img = _imagef(2, 4, 6)
    one = mean_spectrum([img])
    many = mean_spectrum([img, img, img])
    assert np.allclose(one, many, rtol=1e-12)


def test_mean_spectrum_two_known_images_hand_average():
    a, b = _imagef(3, 4, 4), _imagef(4, 4, 4)
    got = mean_spectrum([a, b])

    def oracle_one(img):
        acc = np.zeros((4, 4))
        for c in range(3):
            acc += np.fft.fftshift(np.abs(naive_dft2(img[:, :, c])) ** 2)
        return acc / 3

    assert np.allclose(got, (oracle_one(a) + oracle_one(b)) / 2, rtol=1e-9)


def test_mean_spectrum_errors():
    with pytest.raises(PixmapError) as err:
        mean_spectrum([])
    assert err.value.code == "empty-input"
    with pytest.raises(PixmapError) as err:
        mean_spectrum([_imagef(1, 4, 4), _imagef(2, 6, 4)])
    assert err.value.code == "dim-mismatch"


# --- real-input FFT path -------------------------------------------------------------

ODD_AND_TINY = [(5, 7), (7, 6), (9, 8), (31, 31), (2, 3), (1, 1)]


def full_fft_power(chan):
    """Centred |fft2|^2 over the full complex grid: the oracle for the half-spectrum path."""
    return np.fft.fftshift(np.abs(np.fft.fft2(chan)) ** 2)


def _close(got, expect):
    # Relative to each bin, with a floor at 1e-12 of the peak for bins near zero.
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12 * expect.max())


@pytest.mark.parametrize("h,w", ODD_AND_TINY)
def test_power_spectrum_matches_full_fft(h, w):
    x = _rand(h * 100 + w, h, w)
    _close(power_spectrum(x), full_fft_power(x))


@pytest.mark.parametrize("h,w", ODD_AND_TINY)
def test_mean_spectrum_matches_full_fft(h, w):
    imgs = [_imagef(seed, h, w) for seed in (11, 12, 13)]
    expect = np.zeros((h, w))
    for img in imgs:
        expect += sum(full_fft_power(img[:, :, c]) for c in range(3)) / 3
    _close(mean_spectrum(imgs), expect / 3)


@pytest.mark.parametrize("h,w", ODD_AND_TINY + [(8, 10)])
def test_rebuilt_half_is_exact_mirror(h, w):
    # In unshifted order every column past W // 2 is a copy of its mirror bin.
    p = np.fft.ifftshift(mean_spectrum([_imagef(7, h, w)]))
    for k2 in range(w // 2 + 1, w):
        assert np.array_equal(p[:, k2], p[-np.arange(h) % h, w - k2])


def per_channel_mean_spectrum(stacks):
    """One rfft2 per channel, summed in channel order: the bit-exact oracle for mean_spectrum_chw."""
    acc = None
    for count, stack in enumerate(stacks, 1):
        if acc is None:
            h, w = stack.shape[1:]
            acc = np.zeros((h, w // 2 + 1))
        stack = np.ascontiguousarray(stack)
        acc += sum(np.abs(np.fft.rfft2(chan)) ** 2 for chan in stack) / len(stack)
    acc /= count
    mirror = acc[-np.arange(h) % h, w - acc.shape[1] : 0 : -1]
    return np.fft.fftshift(np.hstack([acc, mirror]))


@pytest.mark.parametrize("c,h,w", [(3, 128, 128), (3, 64, 64), (1, 31, 17), (3, 5, 7)])
@pytest.mark.parametrize("view", ["contiguous", "transposed"])
def test_mean_spectrum_chw_equals_per_channel_loop_bit_for_bit(c, h, w, view):
    images = [_imagef(seed, h, w, c) for seed in (21, 22, 23)]
    if view == "contiguous":
        stacks = [np.ascontiguousarray(img.transpose(2, 0, 1)) for img in images]
    else:  # H x W x C storage read as C x H x W, as mean_spectrum hands it over
        stacks = [img.transpose(2, 0, 1) for img in images]
    got = mean_spectrum_chw(stacks)
    want = per_channel_mean_spectrum(stacks)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_power_spectrum_rejects_complex_channel():
    with pytest.raises(PixmapError) as exc:
        power_spectrum(_rand(1, 4, 4) + 1j)
    assert exc.value.code == "bad-dtype"


# --- azimuthal profile -------------------------------------------------------------


def test_azimuthal_constant_image():
    values, _ = azimuthal_profile(power_spectrum(np.full((8, 8), 5.0)))
    assert values[0] > 0
    assert np.all(values[1:] == 0)


def test_azimuthal_impulse_flat():
    x = np.zeros((8, 8))
    x[3, 3] = 1.0
    values, _ = azimuthal_profile(power_spectrum(x))
    assert np.allclose(values, 1.0, atol=1e-12)


def test_azimuthal_checkerboard_maximal_at_top_radius():
    values, _ = azimuthal_profile(power_spectrum(_checkerboard(8)))
    assert np.argmax(values) == len(values) - 1


def test_azimuthal_energy_accounting_exact():
    for seed in (1, 2):
        for h, w in ((8, 8), (9, 13), (16, 6)):
            power = power_spectrum(_rand(seed, h, w))
            values, counts = azimuthal_profile(power)
            assert len(values) == len(counts) == min(h, w) // 2 + 1
            total = float(np.sum(values * counts))
            assert total == pytest.approx(float(power.sum()), rel=1e-9)
            assert np.all(values >= 0)
            assert np.all(counts >= 1)


# --- band ratio ---------------------------------------------------------------------


def test_band_ratio_flat_spectrum_is_one():
    x = np.zeros((16, 16))
    x[5, 9] = 1.0
    values, _ = azimuthal_profile(power_spectrum(x))
    assert band_ratio(values) == pytest.approx(1.0)


def test_band_ratio_requires_six_radii():
    with pytest.raises(PixmapError) as err:
        band_ratio(np.ones(5))
    assert err.value.code == "profile-too-short"
    assert band_ratio(np.ones(6)) == 1.0


def test_band_ratio_degenerate_spectrum():
    with pytest.raises(PixmapError) as err:
        band_ratio(np.array([5.0, 0, 0, 0, 0, 0, 0]))
    assert err.value.code == "degenerate-spectrum"


def test_band_ratio_smooth_versus_mapped():
    # smooth blurred noise should sit far below 1; mapping must raise it
    from pixmap.mapping import apply_mapping, build_fixed_table
    from pixmap.synthgen import ManifestEntry, generate

    table = build_fixed_table()
    for seed in range(20):
        img = generate(ManifestEntry("real.ppm", 0, "real", "A", seed), 32, 0.0)
        raw = band_ratio(azimuthal_profile(mean_spectrum([img.astype(np.float64)]))[0])
        mapped = band_ratio(azimuthal_profile(mean_spectrum([apply_mapping(img, table)]))[0])
        assert raw < 0.1
        assert mapped > raw


# --- export -------------------------------------------------------------


def test_heatmap_u8_range():
    heat = heatmap_u8(power_spectrum(_rand(8, 16, 16)))
    assert heat.dtype == np.uint8
    assert heat.max() == 255
