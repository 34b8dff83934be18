"""8-bit images, the PPM codec, cropping, quantization, and the IMF text raster."""

import numpy as np
import pytest

from pixmap.errors import PixmapError
from pixmap.image import (
    crop,
    decode_ppm,
    encode_imagef,
    encode_ppm,
    format_csv,
    quantize,
    read_ppm,
    write_atomic,
)
from pixmap.rng import SplitMix64


def _random_image(seed, h, w):
    data = SplitMix64(seed)._bulk_u64(h * w * 3) % 256
    return data.astype(np.uint8).reshape(h, w, 3)


# --- PPM ------------------------------------------------------------------


def test_decode_two_pixel_example():
    raw = b"P6\n2 1\n255\n" + bytes([0, 0, 0, 255, 255, 255])
    img = decode_ppm(raw)
    assert (img.shape, img.dtype) == ((1, 2, 3), np.uint8)
    assert img[0, 0].tolist() == [0, 0, 0]
    assert img[0, 1].tolist() == [255, 255, 255]


def test_encode_canonical_single_black_pixel():
    img = np.zeros((1, 1, 3), dtype=np.uint8)
    assert encode_ppm(img) == b"P6\n1 1\n255\n\x00\x00\x00"


def test_round_trips_and_determinism():
    for seed in range(5):
        img = _random_image(seed, 6, 9)
        raw = encode_ppm(img)
        assert encode_ppm(decode_ppm(raw)) == raw
        assert np.array_equal(decode_ppm(raw), img)
        assert encode_ppm(img) == raw  # two encodes, identical bytes


def test_decode_accepts_comments_and_whitespace():
    for raw in (
        b"P6 # comment\n# more\n 2\t1 \n255\n" + bytes(6),
        b"P6 2#c\n1 255\n" + bytes(6),  # a comment ends a token
        b"P6\t2\x0b1\x0c255\r" + bytes(6),  # every ASCII whitespace byte separates
    ):
        assert decode_ppm(raw).shape == (1, 2, 3)


@pytest.mark.parametrize(
    "raw, error",
    [
        (b"P5\n1 1\n255\n\x00", ("unsupported-format", "expected P6 magic, got 'P5'")),
        (b"P", ("unsupported-format", "expected P6 magic, got '<empty>'")),
        (b"P6\n1 1\n65535\n\x00\x00", ("unsupported-maxval", "maxval must be 255, got 65535")),
        (b"P6\n1 1\n255\n\x00\x00", ("truncated-payload", "need 3 bytes, got 2")),
        (b"P6\n1 1\n255\n\x00\x00\x00\x00", ("oversized-payload", "1 trailing bytes")),
        (b"P6\n1\n", ("malformed-header", "unexpected end of PPM header")),
        (b"P6", ("malformed-header", "expected whitespace or '#' after P6, got b''")),
        (b"P6 ", ("malformed-header", "unexpected end of PPM header")),
        (b"P6 # c", ("malformed-header", "unexpected end of PPM header")),
        (b"P6\nx 1\n255\n\x00\x00\x00", ("malformed-header", "non-numeric header token b'x'")),
        (b"P6\n1 -1\n255\n\x00\x00\x00", ("malformed-header", "non-numeric header token b'-1'")),
        (b"P6\n0 1\n255\n", ("malformed-header", "bad dimensions 0x1")),
        (b"P61 1\n255\n\x00\x00\x00", ("malformed-header", "expected whitespace or '#' after P6, got b'1'")),
        (b"P6 1 1 255#\n\x00\x00\x00", ("malformed-header", "missing whitespace before payload")),
        (b"P6 1 1 255", ("malformed-header", "missing whitespace before payload")),
    ],
    ids=lambda v: v[0] if isinstance(v, tuple) else None,  # a case is named by its bytes and code
)
def test_decode_rejects(raw, error):
    with pytest.raises(PixmapError) as err:
        decode_ppm(raw)
    assert (err.value.code, err.value.message) == error


def test_decode_rejects_dimension_past_int_digit_limit():
    with pytest.raises(PixmapError) as err:
        decode_ppm(b"P6\n" + b"9" * 5000 + b" 1\n255\n\x00\x00\x00")
    assert (err.value.code, err.value.message) == ("malformed-header", "5000-digit header token")


def test_read_ppm_names_the_file(tmp_path):
    img = _random_image(3, 2, 2)
    good = tmp_path / "good.ppm"
    good.write_bytes(encode_ppm(img))
    assert np.array_equal(read_ppm(good), img)
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(PixmapError) as err:
        read_ppm(bad)
    assert (err.value.code, err.value.message) == ("unsupported-format", f"{bad}: expected P6 magic, got 'P5'")
    with pytest.raises(PixmapError) as err:
        read_ppm(tmp_path / "absent.ppm")
    assert err.value.code == "missing-file"


@pytest.mark.parametrize(
    "img",
    [np.zeros((2, 2), np.uint8), np.zeros((2, 2, 4), np.uint8), np.zeros((2, 2, 3))],
    ids=["hw", "hwx4", "float64"],
)
def test_encode_rejects_anything_but_hxwx3_uint8(img):
    with pytest.raises(PixmapError) as err:
        encode_ppm(img)
    assert err.value.code == "bad-shape"


@pytest.mark.parametrize("channels", [1, 4])
def test_encode_rejects_quantized_channel_count_other_than_three(channels):
    with pytest.raises(PixmapError) as err:
        encode_ppm(quantize(np.zeros((2, 2, channels))))
    assert err.value.code == "bad-shape"


def test_decoded_image_and_its_crop_are_read_only_views():
    raw = encode_ppm(_random_image(1, 3, 3))
    img = decode_ppm(raw)
    for arr in (img, crop(img, 2)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1
    assert np.shares_memory(crop(img, 2), img)


# --- crop ------------------------------------------------------------------


def test_center_crop_full_frame_is_identity():
    img = _random_image(2, 4, 4)
    assert np.array_equal(crop(img, 4), img)


def test_center_crop_offsets():
    data = np.arange(27, dtype=np.uint8).reshape(3, 3, 3)
    out = crop(data, 1)
    assert out[0, 0].tolist() == data[1, 1].tolist()


def test_random_crop_seeded_determinism():
    img = _random_image(3, 256, 256)
    a = crop(img, 128, seed=7)
    b = crop(img, 128, seed=7)
    assert np.array_equal(a, b)
    assert a.shape == (128, 128, 3)


def test_random_crop_is_window_of_source():
    img = _random_image(4, 20, 20)
    for seed in range(20):
        out = crop(img, 5, seed=seed)
        found = any(
            np.array_equal(out, img[i : i + 5, j : j + 5])
            for i in range(16)
            for j in range(16)
        )
        assert found


def test_crop_too_large_rejected():
    img = _random_image(5, 4, 4)
    with pytest.raises(PixmapError) as err:
        crop(img, 5)
    assert err.value.code == "crop-too-large"


def test_crop_size_below_one_rejected():
    img = _random_image(6, 4, 4)
    for seed in (None, 1):
        with pytest.raises(PixmapError) as err:
            crop(img, 0, seed)
        assert err.value.code == "bad-crop"


# --- float conversion ----------------------------------------------------------


def test_quantize_half_even_midpoint():
    # half-even: 127.5 rounds up to 128, 126.5 down to 126
    assert quantize(np.array([[[127.5, 126.5, 0.5]]])).tolist() == [[[128, 126, 0]]]


def test_quantize_clamps():
    assert quantize(np.full((1, 1, 3), -3.0))[0, 0, 0] == 0
    assert quantize(np.full((1, 1, 3), 300.0))[0, 0, 0] == 255


def test_quantize_monotone():
    # row-major flattening of (n, 1, 3) preserves the sorted order
    vals = np.sort(SplitMix64(11).uniforms(501, -100.0, 400.0)).reshape(-1, 1, 3)
    out = quantize(vals).ravel()
    assert np.all(np.diff(out.astype(int)) >= 0)


def test_quantize_identity_on_lattice():
    img = _random_image(6, 8, 8)
    assert np.array_equal(quantize(img.astype(np.float64)), img)


# --- IMF text raster ------------------------------------------------------------


def test_imagef_file_round_trip_exact(tmp_path):
    data = SplitMix64(77).uniforms(5 * 4 * 3, -1.5, 1.5).reshape(5, 4, 3)
    data[0, 0] = [-0.0, 5e-324, -1.5e300]  # a signed zero, a subnormal and a large value
    path = tmp_path / "x.imf"
    path.write_bytes(encode_imagef(data))
    assert path.read_text().splitlines()[:2] == ["PIXMAP-IMF1", "5 4 3"]
    assert np.loadtxt(path, skiprows=2).reshape(5, 4, 3).tobytes() == data.tobytes()
    # encoding again produces identical bytes
    assert encode_imagef(data) == path.read_bytes()


def test_encode_imagef_of_strided_view_matches_contiguous_copy():
    chw = SplitMix64(78).uniforms(3 * 5 * 4, -1.5, 1.5).reshape(3, 5, 4)
    view = chw.transpose(1, 2, 0)
    assert not view.flags.c_contiguous
    assert encode_imagef(view) == encode_imagef(np.ascontiguousarray(view))


def test_format_csv():
    floats = [0.1, 1 / 3, 1e-300, -2.5e16, 0.0]
    text = format_csv(("name", "n", "x", "note"), [("a b", 7, f, "") for f in floats])
    assert text.endswith("\n") and not text.endswith("\n\n")
    header, *rows = text[:-1].split("\n")
    assert header == "name,n,x,note"
    assert [row.split(",")[:2] for row in rows] == [["a b", "7"]] * len(floats)
    assert [row.split(",")[3] for row in rows] == [""] * len(floats)
    parsed = [float(row.split(",")[2]) for row in rows]
    assert np.array(parsed).view(np.uint64).tolist() == np.array(floats).view(np.uint64).tolist()
    assert [row.split(",")[2] for row in rows] == ["0.1", "0.3333333333333333", "1e-300", "-2.5e+16", "0.0"]
    assert format_csv(("a", "b"), []) == "a,b\n"


def test_write_atomic_keeps_old_file_on_failure(tmp_path):
    path = tmp_path / "out.bin"
    write_atomic({path: b"old"})
    with pytest.raises(TypeError):
        write_atomic({path: "not bytes"})
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]  # temp file removed
    write_atomic({path: b"new"})
    assert path.read_bytes() == b"new"


@pytest.mark.parametrize(
    "name, data, error",
    [("b.bin", "not bytes", TypeError), ("missing/b.bin", b"B", FileNotFoundError)],
    ids=["not-bytes", "missing-directory"],
)
def test_write_atomic_mapping_is_all_or_nothing(tmp_path, name, data, error):
    first = tmp_path / "a.bin"
    first.write_bytes(b"old")
    with pytest.raises(error):
        write_atomic({first: b"new", tmp_path / name: data})
    assert first.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]  # no temp file, no second target
