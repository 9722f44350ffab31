"""Involution cipher: element math, streams, binding, and the blob format."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parvault import fbsc, prng
from parvault.digests import digest64_text
from parvault.errors import ValidationError

KEY_16_2 = fbsc.SymmetricKey(pk_sk=16, r_n=2)
KEY_20_3 = fbsc.SymmetricKey(pk_sk=20, r_n=3)


def keystream(n, seed=77):
    cfg = prng.GeneratorConfig(seed=seed, m=prng.DEFAULT_CONFIG.m,
                               i_num=prng.DEFAULT_CONFIG.i_num)
    return prng.generate_bytes(cfg, n)


# ---------------------------------------------------------------------------
# single elements
# ---------------------------------------------------------------------------

def test_perfect_square_symbol_is_exact():
    # x=9: (16 - 9**(1/2))**2 = 13**2, analytically integral
    assert fbsc.involute(9, KEY_16_2) == 169


def test_zero_symbol_gives_base_power():
    assert fbsc.involute(0, KEY_16_2) == 16 ** 2
    assert fbsc.involute(0, KEY_20_3) == 20 ** 3


def test_irrational_symbol_matches_double_precision_oracle():
    value = fbsc.involute(255, fbsc.SymmetricKey(pk_sk=20, r_n=2))
    with localcontext() as ctx:
        ctx.prec = 2 * fbsc.DEFAULT_PRECISION + 30
        oracle = (20 - Decimal(255).sqrt()) ** 2
    assert abs(value - oracle) <= Decimal("1e-48")


def test_anti_involution_recovers_perfect_square():
    assert fbsc.anti_involute(Decimal(169), KEY_16_2) == 9


def test_anti_involution_of_base_power_is_zero():
    assert fbsc.anti_involute(Decimal(16 ** 2), KEY_16_2) == 0
    assert fbsc.anti_involute(Decimal(20 ** 3), KEY_20_3) == 0


def test_exhaustive_roundtrip_all_symbols():
    for x in range(256):
        el = fbsc.involute(x, KEY_20_3, precision=50)
        assert fbsc.anti_involute(el, KEY_20_3, precision=50) == x


def test_symbol_outside_byte_range_rejected():
    for bad in (-1, 256, 2.5, "9"):
        with pytest.raises(ValidationError):
            fbsc.involute(bad, KEY_16_2)


def test_element_between_codebook_entries_is_roundoff():
    # 171 sits between f(9)=169 and f(8)=173.49..; nearest integer preimage
    # misses by ~0.45
    with pytest.raises(fbsc.RoundoffError):
        fbsc.anti_involute(Decimal(171), KEY_16_2)


def test_huge_element_exceeds_base():
    with pytest.raises(fbsc.DomainError):
        fbsc.anti_involute(Decimal(10) ** 10, KEY_16_2)


def test_negative_element_rejected():
    with pytest.raises(fbsc.DomainError):
        fbsc.anti_involute(Decimal(-1), KEY_16_2)


def test_precision_floor_enforced():
    with pytest.raises(ValidationError):
        fbsc.involute(9, KEY_16_2, precision=29)
    with pytest.raises(ValidationError):
        fbsc.anti_involute(Decimal(169), KEY_16_2, precision=10)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 255), st.integers(2, 16),
       st.integers(17, 1 << 20))
def test_involution_property(x, r_n, pk_sk):
    key = fbsc.SymmetricKey(pk_sk=pk_sk, r_n=r_n)
    assert fbsc.anti_involute(fbsc.involute(x, key), key) == x


def test_power_one_rejected_but_linear_oracle_holds():
    with pytest.raises(ValidationError):
        fbsc.SymmetricKey(pk_sk=300, r_n=1)
    # r_n=1 collapses to f(x) = pk - x, a plain-integer involution
    for x in range(256):
        assert 300 - (300 - x) == x


def test_key_invariants():
    with pytest.raises(ValidationError):
        fbsc.SymmetricKey(pk_sk=1, r_n=2)
    with pytest.raises(ValidationError):
        fbsc.SymmetricKey(pk_sk=15, r_n=2)   # 225 <= 255
    with pytest.raises(ValidationError):
        fbsc.SymmetricKey(pk_sk=300, r_n=17)
    fbsc.SymmetricKey(pk_sk=16, r_n=2)       # 256 > 255, boundary fine


def test_fingerprint_depends_on_base_only():
    a = fbsc.SymmetricKey(pk_sk=500, r_n=2)
    b = fbsc.SymmetricKey(pk_sk=500, r_n=9)
    assert a.fingerprint == b.fingerprint
    assert len(a.fingerprint) == 8
    assert a.fingerprint != fbsc.SymmetricKey(pk_sk=501, r_n=2).fingerprint


def test_generate_key_deterministic_and_in_range():
    cfg = prng.GeneratorConfig(seed=99, m=prng.DEFAULT_CONFIG.m,
                               i_num=prng.DEFAULT_CONFIG.i_num)
    k1 = fbsc.generate_key(cfg, pk_bits=20)
    k2 = fbsc.generate_key(cfg, pk_bits=20)
    assert k1 == k2
    assert 2 <= k1.r_n <= 16
    assert 17 <= k1.pk_sk < 1 << 20
    pinned = fbsc.generate_key(cfg, pk_bits=20, r_n=5)
    assert pinned.r_n == 5 and pinned.pk_sk == k1.pk_sk
    with pytest.raises(ValidationError):
        fbsc.generate_key(cfg, pk_bits=4)


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def test_empty_stream():
    assert fbsc.encrypt_stream(b"", KEY_16_2, b"") == []


def test_single_element_reduces_to_involute():
    assert fbsc.encrypt_stream(bytes([9]), KEY_16_2, bytes([0])) == [Decimal(169)]


def test_short_keystream_rejected():
    with pytest.raises(fbsc.KeystreamError):
        fbsc.encrypt_stream(b"abcd", KEY_16_2, b"ab")


def test_roundtrip_four_kilobytes():
    rng = np.random.default_rng(3)
    data = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
    ks = keystream(len(data))
    els = fbsc.encrypt_stream(data, KEY_20_3, ks)
    assert fbsc.decrypt_stream(els, KEY_20_3, ks) == data


def test_wrong_power_does_not_decrypt():
    data = bytes(range(256))
    ks = keystream(len(data))
    els = fbsc.encrypt_stream(data, KEY_20_3, ks)
    wrong = fbsc.SymmetricKey(pk_sk=20, r_n=4)
    out = fbsc.decrypt_stream(els, wrong, ks, strict=False)
    assert out != data


def test_wrong_base_difference_rate_above_ninety_percent():
    rng = np.random.default_rng(8)
    data = rng.integers(0, 256, 512, dtype=np.uint8).tobytes()
    ks = keystream(len(data))
    els = fbsc.encrypt_stream(data, KEY_20_3, ks)
    wrong = fbsc.SymmetricKey(pk_sk=21, r_n=3)
    out = fbsc.decrypt_stream(els, wrong, ks, strict=False)
    diff = sum(a != b for a, b in zip(out, data))
    assert diff / len(data) > 0.90


@pytest.mark.parametrize("precision", [30, 50])
@pytest.mark.parametrize("r_n", range(fbsc.R_MIN, fbsc.R_MAX + 1))
def test_codebook_inverse_agrees_with_the_root_path(r_n, precision):
    # decrypt's inverse table and anti_involute name the same symbol
    for pk_sk in (17, 1048573):
        key = fbsc.SymmetricKey(pk_sk=pk_sk, r_n=r_n)
        book = fbsc._codebook(key, precision)
        assert [fbsc.anti_involute(el, key, precision)
                for el in book] == list(range(256))


def _reference_decrypt(elements, key, ks):
    # the per-element root path, with nearest-element fallback, folded
    book = [fbsc.involute(x, key) for x in range(256)]
    out = bytearray()
    for el, k in zip(elements, ks):
        try:
            sym = fbsc.anti_involute(el, key)
        except (fbsc.RoundoffError, fbsc.DomainError):
            sym = min(range(256), key=lambda x: abs(book[x] - el))
        out.append((sym ^ k) & 0xFF)
    return bytes(out)


@pytest.mark.parametrize("wrong", [
    fbsc.SymmetricKey(pk_sk=20, r_n=4),      # power off by one
    fbsc.SymmetricKey(pk_sk=21, r_n=3),      # base off by one
])
def test_lenient_wrong_key_decrypt_matches_per_element_reference(wrong):
    rng = np.random.default_rng(13)
    data = rng.integers(0, 256, 512, dtype=np.uint8).tobytes()
    ks = keystream(len(data))
    els = fbsc.encrypt_stream(data, KEY_20_3, ks)
    out = fbsc.decrypt_stream(els, wrong, ks, strict=False)
    assert out == _reference_decrypt(els, wrong, ks)
    with pytest.raises(fbsc.RoundoffError):
        fbsc.decrypt_stream(els, wrong, ks)


def test_decrypt_accepts_elements_as_text():
    data = b"plain text elements"
    ks = keystream(len(data))
    els = fbsc.encrypt_stream(data, KEY_20_3, ks)
    texts = [fbsc.format_element(e, fbsc.DEFAULT_PRECISION) for e in els]
    assert fbsc.decrypt_stream(texts, KEY_20_3, ks) == data


@pytest.mark.parametrize("other", [
    fbsc.SymmetricKey(pk_sk=20, r_n=4),      # power off by one
    fbsc.SymmetricKey(pk_sk=21, r_n=3),      # base off by one
])
def test_key_sensitivity_of_element_sequences(other):
    rng = np.random.default_rng(21)
    data = rng.integers(0, 256, 512, dtype=np.uint8).tobytes()
    ks = keystream(len(data))
    base = fbsc.encrypt_stream(data, KEY_20_3, ks)
    alt = fbsc.encrypt_stream(data, other, ks)
    diff = sum(a != b for a, b in zip(base, alt))
    assert diff / len(base) > 0.90


def test_stream_locality_by_splicing():
    a, b = b"front half", b" back half"
    ks = keystream(len(a) + len(b))
    whole = fbsc.encrypt_stream(a + b, KEY_20_3, ks)
    front = fbsc.encrypt_stream(a, KEY_20_3, ks[:len(a)])
    back = fbsc.encrypt_stream(b, KEY_20_3, ks[len(a):])
    assert whole == front + back
    # and the splice decrypts as a unit
    assert fbsc.decrypt_stream(front + back, KEY_20_3, ks) == a + b


# ---------------------------------------------------------------------------
# file-key binding
# ---------------------------------------------------------------------------

def test_zero_key_binds_to_bare_digest():
    binding = fbsc.bind_file_key(0, "report.pdf")
    assert binding.bound_key == digest64_text("report.pdf")


def test_bind_unbind_is_identity():
    binding = fbsc.bind_file_key(0xDEADBEEF, "a.jpg")
    assert fbsc.unbind_file_key(binding, "a.jpg") == 0xDEADBEEF


def test_rename_rebinds_without_changing_key():
    binding = fbsc.bind_file_key(424242, "a.jpg")
    moved = fbsc.rebind_file_key(binding, "a.jpg", "b.jpg")
    assert moved.bound_key != binding.bound_key
    assert fbsc.unbind_file_key(moved, "b.jpg") == 424242


def test_unbind_with_wrong_name_rejected():
    binding = fbsc.bind_file_key(1, "a.jpg")
    with pytest.raises(ValidationError):
        fbsc.unbind_file_key(binding, "c.jpg")


def test_empty_name_rejected():
    with pytest.raises(ValidationError):
        fbsc.bind_file_key(1, "")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_element_text_roundtrip_bit_exact():
    for x in (0, 9, 200, 255):
        el = fbsc.involute(x, KEY_20_3)
        text = fbsc.format_element(el, fbsc.DEFAULT_PRECISION)
        frac = text.split(".")[1]
        assert len(frac) == fbsc.DEFAULT_PRECISION
        assert fbsc.parse_element(text) == el


def test_parse_element_garbage_rejected():
    with pytest.raises(fbsc.BlobFormatError):
        fbsc.parse_element("not a number")


@pytest.mark.parametrize("text", [
    "NaN", "nan", "sNaN", "Infinity", "-Infinity", "inf", "-1.5", "+1.5",
    "-0.0", "1e5", "1.5E-3", "1_000.5", " 1.5", "1.5 ", ".5", "5.", "",
    "\u0661.5", b"1.5",
])
def test_parse_element_refuses_text_that_is_not_fixed_point(text):
    with pytest.raises(fbsc.BlobFormatError):
        fbsc.parse_element(text)


def _blob(elements, r_n=3):
    return fbsc.EncryptedBlob(r_n=r_n, f_digits=fbsc.DEFAULT_PRECISION,
                              key_fingerprint=KEY_20_3.fingerprint,
                              n1_len=16, n2_len=8, epoch=2, elements=elements)


def test_blob_roundtrip():
    els = fbsc.encrypt_stream(b"hello blob", KEY_20_3, keystream(10))
    blob = _blob(els)
    back = fbsc.parse_blob(fbsc.serialize_blob(blob))
    assert back == blob


def test_blob_empty_elements_roundtrip():
    blob = _blob([])
    assert fbsc.parse_blob(fbsc.serialize_blob(blob)) == blob


def test_public_copy_scrubs_the_power():
    els = fbsc.encrypt_stream(b"secret", KEY_20_3, keystream(6))
    raw = fbsc.serialize_blob(_blob(els).public_copy())
    assert raw[5] == 0
    assert fbsc.parse_blob(raw).r_n == 0
    assert fbsc.parse_blob(raw).elements == els


def test_blob_bad_magic_rejected():
    raw = bytearray(fbsc.serialize_blob(_blob([])))
    raw[0] = ord("X")
    with pytest.raises(fbsc.BlobFormatError):
        fbsc.parse_blob(bytes(raw))


def test_blob_bad_version_rejected():
    raw = bytearray(fbsc.serialize_blob(_blob([])))
    raw[4] = 9
    with pytest.raises(fbsc.BlobFormatError):
        fbsc.parse_blob(bytes(raw))


def test_blob_truncated_body_rejected():
    els = fbsc.encrypt_stream(b"abcdef", KEY_20_3, keystream(6))
    raw = fbsc.serialize_blob(_blob(els))
    cut = raw.rfind(b"\n", 0, len(raw) - 1)
    with pytest.raises(fbsc.BlobFormatError):
        fbsc.parse_blob(raw[:cut + 1])


def test_blob_non_ascii_body_rejected():
    raw = fbsc.serialize_blob(_blob([Decimal(169)]))
    with pytest.raises(fbsc.BlobFormatError, match="not ASCII"):
        fbsc.parse_blob(raw[:-1] + "\u00e9\n".encode())


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-8000.5", "8e3"])
def test_blob_with_a_non_fixed_point_element_rejected(bad):
    els = fbsc.encrypt_stream(b"abc", KEY_20_3, keystream(3))
    raw = fbsc.serialize_blob(_blob(els))
    head, body = raw[:fbsc._HEADER_LEN], raw[fbsc._HEADER_LEN:]
    lines = body.split(b"\n")
    lines[1] = bad.encode()
    with pytest.raises(fbsc.BlobFormatError, match="bad element"):
        fbsc.parse_blob(head + b"\n".join(lines))


def test_blob_repeated_elements_roundtrip():
    data = b"aaaa" * 64 + bytes(range(256))
    els = fbsc.encrypt_stream(data, KEY_20_3, bytes(len(data)))
    blob = _blob(els)
    back = fbsc.parse_blob(fbsc.serialize_blob(blob))
    assert back == blob
    assert fbsc.decrypt_stream(back.elements, KEY_20_3,
                               bytes(len(data))) == data
