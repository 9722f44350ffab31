"""Byte statistics, synthetic images, PGM files, and the report emitters."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from parvault import fbsc, prng
from parvault.errors import ValidationError
from parvault.statsuite import (
    PgmFormatError,
    adjacent_correlation,
    battery_report_text,
    bench_csv,
    bits_from_bytes,
    correlation_csv,
    element_bits,
    element_bytes,
    element_image,
    histogram_chi_square,
    histogram_csv,
    load_pgm,
    save_pgm,
    synthetic_image,
)
from parvault.statsuite import TestResult as BatteryResult

# ---------------------------------------------------------------------------
# bit packing
# ---------------------------------------------------------------------------

def test_bits_are_msb_first():
    assert bits_from_bytes(b"\xa5").tolist() == [1, 0, 1, 0, 0, 1, 0, 1]
    assert np.packbits([1, 0, 1, 0, 0, 1, 0, 1]).tobytes() == b"\xa5"


@given(st.binary(min_size=1, max_size=200))
def test_bit_byte_roundtrip(data):
    assert np.packbits(bits_from_bytes(data)).tobytes() == data


# ---------------------------------------------------------------------------
# element quantization
# ---------------------------------------------------------------------------

def test_rank_quantizer_small_alphabet():
    # three distinct values: ranks 0, 1, 2 scaled by 256//3
    out = element_bytes([5.5, 2.25, 5.5, 9.0])
    assert out.tolist() == [85, 0, 85, 170]
    assert out.dtype == np.uint8


def test_full_alphabet_is_identity_relabeling():
    rng = np.random.default_rng(3)
    perm = rng.permutation(256)
    out = element_bytes(perm.tolist())
    # with 256 distinct values rank i maps to byte i
    assert out.tolist() == perm.tolist()


def test_empty_stream():
    assert element_bytes([]).size == 0
    assert element_bits([]).size == 0


def test_element_bits_match_bytes():
    bits = element_bits([5.5, 2.25, 5.5, 9.0])
    assert np.packbits(bits).tobytes() == bytes([85, 0, 85, 170])


def test_element_image_shape():
    img = element_image(list(range(12)), (3, 4))
    assert img.shape == (3, 4)
    with pytest.raises(ValidationError):
        element_image(list(range(12)), (4, 4))


def test_cipher_elements_fill_the_byte_alphabet():
    image = synthetic_image("terrain", size=32, seed=9)
    key = fbsc.SymmetricKey(r_n=2, pk_sk=1 << 16)
    ks = prng.generate_bytes(prng.DEFAULT_CONFIG, image.size)
    elements = fbsc.encrypt_stream(image.tobytes(), key, ks)
    grid = element_image(elements, image.shape)
    assert grid.shape == image.shape
    assert len(np.unique(grid)) > 200


# ---------------------------------------------------------------------------
# adjacent-pixel correlation
# ---------------------------------------------------------------------------

def test_column_gradient_is_perfectly_correlated_horizontally():
    img = np.tile(np.arange(64), (64, 1))
    assert adjacent_correlation(img, "h") == pytest.approx(1.0, abs=1e-12)


def test_alternating_rows_anticorrelate_vertically():
    j = np.arange(64)
    img = np.where(np.arange(64)[:, None] % 2 == 0, j, 254 - j)
    assert adjacent_correlation(img, "v") == pytest.approx(-1.0, abs=1e-12)


def test_diagonal_gradient():
    yy, xx = np.mgrid[0:64, 0:64]
    assert adjacent_correlation(yy + xx, "d") == \
        pytest.approx(1.0, abs=1e-12)


def test_exhaustive_sample_matches_population_value():
    rng = np.random.default_rng(8)
    img = rng.integers(0, 256, (9, 9))
    for direction, x, y in (
        ("h", img[:, :-1], img[:, 1:]),
        ("v", img[:-1, :], img[1:, :]),
        ("d", img[:-1, :-1], img[1:, 1:]),
    ):
        expected = np.corrcoef(x.ravel(), y.ravel())[0, 1]
        got = adjacent_correlation(img, direction, pair_count=10_000)
        assert got == pytest.approx(expected, abs=1e-12)


def test_correlation_affine_invariance():
    img = synthetic_image("clouds", size=64, seed=2).astype(np.float64)
    base = adjacent_correlation(img, "h")
    assert adjacent_correlation(3.0 * img + 7.0, "h") == \
        pytest.approx(base, abs=1e-9)
    assert adjacent_correlation(255.0 - img, "h") == \
        pytest.approx(base, abs=1e-9)


def test_correlation_is_seeded():
    img = synthetic_image("terrain", size=64, seed=4)
    a = adjacent_correlation(img, "h", pair_count=500, seed=1)
    b = adjacent_correlation(img, "h", pair_count=500, seed=1)
    c = adjacent_correlation(img, "h", pair_count=500, seed=2)
    assert a == b
    assert a != c


def test_correlation_input_validation():
    img = np.zeros((32, 32))
    with pytest.raises(ValidationError, match="zero variance"):
        adjacent_correlation(img, "h")
    with pytest.raises(ValidationError, match="direction"):
        adjacent_correlation(np.eye(8), "x")
    with pytest.raises(ValidationError, match="2-D"):
        adjacent_correlation(np.arange(9.0), "h")
    with pytest.raises(ValidationError, match="too small"):
        adjacent_correlation(np.ones((1, 1)), "h")


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------

def test_constant_bytes_chi_square_closed_form():
    n = 2560
    chi2, p, counts = histogram_chi_square(bytes([7]) * n)
    # one loaded bin: (n - n/256)^2/(n/256) + 255 * (n/256), i.e. 255 n
    assert chi2 == pytest.approx(255.0 * n, rel=1e-12)
    assert p < 1e-100
    assert counts[7] == n and counts.sum() == n


def test_exactly_uniform_bytes():
    chi2, p, _ = histogram_chi_square(bytes(range(256)) * 40)
    assert chi2 == 0.0
    assert p == 1.0


def test_random_bytes_look_uniform():
    data = np.random.default_rng(21).integers(
        0, 256, 1 << 16, dtype=np.uint8).tobytes()
    _, p, _ = histogram_chi_square(data)
    assert p > 0.01


def test_keystream_bytes_look_uniform():
    data = prng.generate_bytes(prng.DEFAULT_CONFIG, 1 << 16)
    _, p, _ = histogram_chi_square(data)
    assert p > 0.01


def test_empty_histogram_rejected():
    with pytest.raises(ValidationError):
        histogram_chi_square(b"")


# ---------------------------------------------------------------------------
# synthetic images
# ---------------------------------------------------------------------------

def test_synthetic_image_basics():
    img = synthetic_image("terrain", size=64, seed=0)
    assert img.shape == (64, 64)
    assert img.dtype == np.uint8
    assert img.min() == 0 and img.max() == 255


def test_synthetic_image_determinism():
    a = synthetic_image("clouds", size=32, seed=5)
    b = synthetic_image("clouds", size=32, seed=5)
    c = synthetic_image("clouds", size=32, seed=6)
    d = synthetic_image("ramp", size=32, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_synthetic_image_rejects_bad_args():
    with pytest.raises(ValidationError):
        synthetic_image("lena", size=64)
    with pytest.raises(ValidationError):
        synthetic_image("terrain", size=8)


def test_synthetic_images_are_photograph_like():
    img = synthetic_image("terrain", size=256, seed=0)
    for direction in "hvd":
        assert adjacent_correlation(img, direction) > 0.9


# ---------------------------------------------------------------------------
# PGM files
# ---------------------------------------------------------------------------

def test_pgm_roundtrip(tmp_path):
    img = synthetic_image("ramp", size=48, seed=1)
    path = tmp_path / "ramp.pgm"
    save_pgm(path, img)
    assert np.array_equal(load_pgm(path), img)


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# made by hand\n4 2\n# checked\n255\n" + bytes(8))
    img = load_pgm(path)
    assert img.shape == (2, 4)
    assert img.sum() == 0


@pytest.mark.parametrize("raw, complaint", [
    (b"P2\n2 2\n255\n" + bytes(4), "magic"),
    (b"P5\n2 2\n255\n" + bytes(3), "payload"),
    (b"P5\n2 2\n300\n" + bytes(4), "maxval"),
    (b"P5\n2 2\n0\n" + bytes(4), "maxval"),
    (b"P5\nwide 2\n255\n" + bytes(4), "non-numeric"),
    (b"P5\n2", "truncated"),
])
def test_pgm_malformed(tmp_path, raw, complaint):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(PgmFormatError, match=complaint):
        load_pgm(path)


def test_save_pgm_rejects_shapes(tmp_path):
    with pytest.raises(ValidationError):
        save_pgm(tmp_path / "x.pgm", np.zeros(9))


# ---------------------------------------------------------------------------
# report emitters
# ---------------------------------------------------------------------------

def _fake_results():
    return [
        BatteryResult(name="frequency", p_value=0.5, passed=True),
        BatteryResult(name="serial", p_value=[0.2, 0.9], passed=True,
                   stats={"m": 16}),
        BatteryResult(name="universal", p_value=float("nan"), passed=None,
                   status="skipped", note="needs 387840 bits"),
        BatteryResult(name="runs", p_value=0.001, passed=False),
    ]


def test_battery_report_text():
    text = battery_report_text(_fake_results(), alpha=0.01)
    assert "alpha=0.01" in text
    assert "frequency" in text and "pass" in text
    assert "FAIL" in text
    assert "SKIP" in text and "needs 387840 bits" in text
    assert "[0.200000, 0.900000]" in text
    assert "m=16" in text
    assert "2/3 ran tests passed, 1 skipped" in text


def test_histogram_csv():
    text = histogram_csv([3, 0, 5])
    assert text == "value,count\n0,3\n1,0\n2,5\n"


def test_correlation_csv():
    text = correlation_csv([("terrain", "h", 0.97125, 0.00123)])
    assert text == ("image,direction,original,encrypted\n"
                    "terrain,h,0.971250,0.001230\n")


def test_bench_csv():
    text = bench_csv([(2, 1.5, 2.25)])
    assert text == "attributes,encrypt_ms,decrypt_ms\n2,1.500,2.250\n"
