"""Raster types, PPM codec, cropping, and quantization."""

import numpy as np
import pytest

from pixmap import image as image_module
from pixmap.errors import PixmapError
from pixmap.image import (
    CropSpec,
    Image8,
    ImageF,
    crop,
    crop_origin,
    decode_ppm,
    encode_ppm,
    quantize,
    random_crop_origins,
    read_imagef,
    to_float,
    write_atomic,
    write_imagef,
)
from pixmap.rng import SplitMix64, derive_seed


def _random_image(seed, h, w):
    data = SplitMix64(seed)._bulk_u64(h * w * 3) % 256
    return Image8(data.astype(np.uint8).reshape(h, w, 3))


# --- PPM ------------------------------------------------------------------


def test_decode_two_pixel_example():
    raw = b"P6\n2 1\n255\n" + bytes([0, 0, 0, 255, 255, 255])
    img = decode_ppm(raw)
    assert (img.height, img.width) == (1, 2)
    assert img.data[0, 0].tolist() == [0, 0, 0]
    assert img.data[0, 1].tolist() == [255, 255, 255]


def test_encode_canonical_single_black_pixel():
    img = Image8(np.zeros((1, 1, 3), dtype=np.uint8))
    assert encode_ppm(img) == b"P6\n1 1\n255\n\x00\x00\x00"


def test_round_trips_and_determinism():
    for seed in range(5):
        img = _random_image(seed, 6, 9)
        raw = encode_ppm(img)
        assert encode_ppm(decode_ppm(raw)) == raw
        assert decode_ppm(raw) == img
        assert encode_ppm(img) == raw  # two encodes, identical bytes


def test_decode_accepts_comments_and_whitespace():
    raw = b"P6 # comment\n# more\n 2\t1 \n255\n" + bytes(6)
    img = decode_ppm(raw)
    assert (img.height, img.width) == (1, 2)


@pytest.mark.parametrize(
    "raw,code",
    [
        (b"P5\n1 1\n255\n\x00", "unsupported-format"),
        (b"P6\n1 1\n65535\n\x00\x00", "unsupported-maxval"),
        (b"P6\n1 1\n255\n\x00\x00", "truncated-payload"),
        (b"P6\n1 1\n255\n\x00\x00\x00\x00", "oversized-payload"),
        (b"P6\n1\n", "malformed-header"),
        (b"P6\nx 1\n255\n\x00\x00\x00", "malformed-header"),
    ],
)
def test_decode_rejects(raw, code):
    with pytest.raises(PixmapError) as err:
        decode_ppm(raw)
    assert err.value.code == code


def test_decode_rejects_dimension_past_int_digit_limit():
    with pytest.raises(PixmapError) as err:
        decode_ppm(b"P6\n" + b"9" * 5000 + b" 1\n255\n\x00\x00\x00")
    assert err.value.code == "malformed-header"


# --- types ------------------------------------------------------------------


def test_image8_validation_and_immutability():
    with pytest.raises(PixmapError):
        Image8(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(PixmapError):
        Image8(np.zeros((2, 2, 3), dtype=np.float64))
    img = _random_image(1, 3, 3)
    with pytest.raises(ValueError):
        img.data[0, 0, 0] = 1


def test_imagef_rejects_non_finite():
    bad = np.zeros((2, 2, 1))
    bad[0, 0, 0] = np.nan
    with pytest.raises(PixmapError):
        ImageF(bad)


# --- crop ------------------------------------------------------------------


def test_center_crop_full_frame_is_identity():
    img = _random_image(2, 4, 4)
    assert crop(img, CropSpec(4, "center")) == img


def test_center_crop_offsets():
    data = np.arange(27, dtype=np.uint8).reshape(3, 3, 3)
    img = Image8(data)
    out = crop(img, CropSpec(1, "center"))
    assert out.data[0, 0].tolist() == data[1, 1].tolist()


def test_random_crop_seeded_determinism():
    img = _random_image(3, 256, 256)
    a = crop(img, CropSpec(128, "random", seed=7))
    b = crop(img, CropSpec(128, "random", seed=7))
    assert a == b
    assert (a.height, a.width) == (128, 128)


def test_random_crop_is_window_of_source():
    img = _random_image(4, 20, 20)
    for seed in range(20):
        out = crop(img, CropSpec(5, "random", seed=seed))
        found = any(
            np.array_equal(out.data, img.data[i : i + 5, j : j + 5])
            for i in range(16)
            for j in range(16)
        )
        assert found


def test_crop_too_large_rejected():
    img = _random_image(5, 4, 4)
    with pytest.raises(PixmapError) as err:
        crop(img, CropSpec(5, "center"))
    assert err.value.code == "crop-too-large"


# Mixed image sizes; at crop 32, the 32-px sides leave one offset (randrange(1)).
ORIGIN_SIZES = [(40, 40), (33, 57), (64, 64), (32, 32), (100, 35), (32, 64)]
ORIGIN_SEEDS = [derive_seed(9, "crop", k) for k in range(60)]


def _scalar_origins(sizes, size, seeds):
    return [crop_origin(h, w, CropSpec(size, "random", seed)) for (h, w), seed in zip(sizes, seeds)]


def test_random_crop_origins_equal_scalar_rule():
    sizes = [ORIGIN_SIZES[k % len(ORIGIN_SIZES)] for k in range(len(ORIGIN_SEEDS))]
    for size in (7, 32):
        got = random_crop_origins(sizes, size, ORIGIN_SEEDS)
        assert [tuple(o) for o in got] == _scalar_origins(sizes, size, ORIGIN_SEEDS)
    assert random_crop_origins([], 32, []) == []
    with pytest.raises(PixmapError) as err:
        random_crop_origins(sizes[:3] + [(31, 64)], 32, ORIGIN_SEEDS[:4])
    assert err.value.code == "crop-too-large"


@pytest.mark.parametrize("column", [0, 1], ids=["top", "left"])
def test_random_crop_origins_forced_rejection_uses_scalar_rule(monkeypatch, column):
    bad_row = 4  # 100 x 35 at crop 27: bounds 74 and 9
    sizes = [ORIGIN_SIZES[k % len(ORIGIN_SIZES)] for k in range(12)]
    seeds = ORIGIN_SEEDS[:12]
    real_words, real_origin = image_module.seeded_words, image_module.crop_origin
    scalar_calls = []

    def words_with_reject(seeds, count):
        words = real_words(seeds, count)
        words[bad_row, column] = np.uint64(2**64 - 1)
        return words

    def counting_origin(height, width, spec):
        scalar_calls.append(spec.seed)
        return real_origin(height, width, spec)

    monkeypatch.setattr(image_module, "seeded_words", words_with_reject)
    monkeypatch.setattr(image_module, "crop_origin", counting_origin)
    got = random_crop_origins(sizes, 27, seeds)
    assert scalar_calls == [seeds[bad_row]]
    assert [tuple(o) for o in got] == _scalar_origins(sizes, 27, seeds)


def test_random_crop_requires_seed():
    with pytest.raises(PixmapError):
        CropSpec(4, "random")


# --- float conversion ----------------------------------------------------------


def test_to_float_preserves_values():
    img = Image8(np.full((1, 1, 3), 255, dtype=np.uint8))
    assert to_float(img).data[0, 0, 0] == 255.0


def test_quantize_half_even_midpoint():
    # 0.0 on [-1, 1] lands exactly on 127.5; half-even rounds up to 128
    img = ImageF(np.zeros((1, 1, 3)))
    assert quantize(img, -1.0, 1.0).data[0, 0, 0] == 128


def test_quantize_clamps():
    img = ImageF(np.full((1, 1, 3), -3.0))
    assert quantize(img, -1.0, 1.0).data[0, 0, 0] == 0
    img = ImageF(np.full((1, 1, 3), 9.0))
    assert quantize(img, -1.0, 1.0).data[0, 0, 0] == 255


def test_quantize_rejects_bad_range():
    with pytest.raises(PixmapError):
        quantize(ImageF(np.zeros((1, 1, 3))), 1.0, 1.0)


def test_quantize_monotone():
    # row-major flattening of (n, 1, 3) preserves the sorted order
    vals = np.sort(SplitMix64(11).uniforms(501, -2.0, 2.0)).reshape(-1, 1, 3)
    out = quantize(ImageF(vals), -1.0, 1.0).data.ravel()
    assert np.all(np.diff(out.astype(int)) >= 0)


def test_quantize_identity_on_lattice():
    img = _random_image(6, 8, 8)
    assert quantize(to_float(img), 0.0, 255.0) == img


# --- ImageF container -----------------------------------------------------------


def test_imagef_file_round_trip_exact(tmp_path):
    rng = SplitMix64(77)
    data = rng.uniforms(5 * 4 * 3, -1.5, 1.5).reshape(5, 4, 3)
    img = ImageF(data)
    path = tmp_path / "x.imf"
    write_imagef(path, img)
    back = read_imagef(path)
    assert np.array_equal(back.data, img.data)
    # writing again produces identical bytes
    path2 = tmp_path / "y.imf"
    write_imagef(path2, img)
    assert path.read_bytes() == path2.read_bytes()



@pytest.mark.parametrize(
    "text, code",
    [
        (b"PIXMAP-IMF1\n1 2 1\n0.5 abc\n", "malformed-payload"),
        (b"PIXMAP-IMF1\n1 2 1\n0.5 \xff\n", "unsupported-format"),
    ],
    ids=["non-numeric", "non-ascii"],
)
def test_read_imagef_rejects_garbage(tmp_path, text, code):
    path = tmp_path / "bad.imf"
    path.write_bytes(text)
    with pytest.raises(PixmapError) as err:
        read_imagef(path)
    assert err.value.code == code

def test_write_atomic_keeps_old_file_on_failure(tmp_path):
    path = tmp_path / "out.bin"
    write_atomic(path, b"old")
    with pytest.raises(TypeError):
        write_atomic(path, "not bytes")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]  # temp file removed
    write_atomic(path, b"new")
    assert path.read_bytes() == b"new"
