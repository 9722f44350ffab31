"""Involution cipher: element math, streams, the blob format and sealing."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parvault import fbsc, prng
from parvault.errors import ValidationError

KEY_16_2 = fbsc.SymmetricKey(pk_sk=16, r_n=2)
KEY_20_3 = fbsc.SymmetricKey(pk_sk=20, r_n=3)
SEAL_STREAMS = (prng.DEFAULT_CONFIG.reseeded(5),
                prng.DEFAULT_CONFIG.reseeded(6))


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


WRONG_KEYS = [
    fbsc.SymmetricKey(pk_sk=20, r_n=4),      # power off by one
    fbsc.SymmetricKey(pk_sk=21, r_n=3),      # base off by one
]


@pytest.mark.parametrize("wrong", WRONG_KEYS)
def test_wrong_key_does_not_decrypt(wrong):
    rng = np.random.default_rng(13)
    data = rng.integers(0, 256, 512, dtype=np.uint8).tobytes()
    ks = keystream(len(data))
    els = fbsc.encrypt_stream(data, KEY_20_3, ks)
    with pytest.raises(fbsc.RoundoffError, match="element 0 "):
        fbsc.decrypt_stream(els, wrong, ks)


def _last_digit_changed(element):
    text = fbsc.format_element(element, fbsc.DEFAULT_PRECISION)
    return Decimal(text[:-1] + str((int(text[-1]) + 1) % 10))


def test_unseal_refuses_an_element_outside_the_codebook():
    blob = fbsc.seal(b"payload", KEY_20_3, *SEAL_STREAMS,
                     fbsc.DEFAULT_PRECISION)
    blob.elements[20] = _last_digit_changed(blob.elements[20])
    with pytest.raises(fbsc.RoundoffError, match="element 20 is not in"):
        fbsc.unseal(blob, KEY_20_3, SEAL_STREAMS[1])


@pytest.mark.parametrize("precision", [30, 50])
@pytest.mark.parametrize("r_n", range(fbsc.R_MIN, fbsc.R_MAX + 1))
def test_codebook_inverse_agrees_with_the_root_path(r_n, precision):
    # decrypt's inverse table and anti_involute name the same symbol
    for pk_sk in (17, 1048573):
        key = fbsc.SymmetricKey(pk_sk=pk_sk, r_n=r_n)
        book = fbsc._codebook(key, precision)
        assert [fbsc.anti_involute(el, key, precision)
                for el in book] == list(range(256))


def _codebook_by_root(key, precision):
    # reference: one Decimal root per symbol at the key's own work
    # precision, no shared table
    with localcontext() as ctx:
        ctx.prec = fbsc._work_prec(key, precision)
        return [str(((key.pk_sk - fbsc._root(Decimal(x), key.r_n, ctx.prec))
                     ** key.r_n).quantize(fbsc._quantum(precision)))
                for x in range(256)]


def test_keys_sharing_a_root_table_keep_their_own_codebooks():
    # a and b share (power, work precision); c shares only the power
    a = fbsc.SymmetricKey(pk_sk=1048573, r_n=7)
    b = fbsc.SymmetricKey(pk_sk=1048571, r_n=7)
    c = fbsc.SymmetricKey(pk_sk=1099511627689, r_n=7)
    assert fbsc._work_prec(a, 50) == fbsc._work_prec(b, 50) \
        != fbsc._work_prec(c, 50)
    for order in ((a, b, c), (c, b, a)):
        fbsc._codebook.cache_clear()
        fbsc._byte_roots.cache_clear()
        for key in order:
            assert list(map(str, fbsc._codebook(key, 50))) == \
                _codebook_by_root(key, 50)
    assert fbsc._byte_roots.cache_info().maxsize is not None


@pytest.mark.parametrize("other", WRONG_KEYS)
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


def test_seal_scrubs_the_power():
    blob = fbsc.seal(b"secret", KEY_20_3, *SEAL_STREAMS,
                     fbsc.DEFAULT_PRECISION)
    assert blob.r_n == 0
    raw = fbsc.serialize_blob(blob)
    assert raw[5] == 0
    assert fbsc.parse_blob(raw) == blob


def test_unseal_inverts_seal_at_any_epoch():
    pad_cfg, ks_cfg = SEAL_STREAMS
    blobs = [fbsc.seal(b"payload", KEY_20_3, pad_cfg, ks_cfg, 30, epoch=e)
             for e in (0, 3)]
    assert blobs[0].elements != blobs[1].elements
    for blob in blobs:
        assert len(blob.elements) == blob.n1_len + 7 + blob.n2_len
        assert fbsc.unseal(blob, KEY_20_3, ks_cfg) == b"payload"


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


@pytest.mark.parametrize("edit", [lambda ln: ln[:-1], lambda ln: ln + b"7"],
                         ids=["one-digit-short", "one-digit-extra"])
def test_blob_element_without_exactly_f_digits_rejected(edit):
    els = fbsc.encrypt_stream(b"abc", KEY_20_3, keystream(3))
    raw = fbsc.serialize_blob(_blob(els))
    head, body = raw[:fbsc._HEADER_LEN], raw[fbsc._HEADER_LEN:]
    lines = body.split(b"\n")
    lines[1] = edit(lines[1])
    with pytest.raises(fbsc.BlobFormatError, match="fractional digits"):
        fbsc.parse_blob(head + b"\n".join(lines))


def test_blob_repeated_elements_roundtrip():
    data = b"aaaa" * 64 + bytes(range(256))
    els = fbsc.encrypt_stream(data, KEY_20_3, bytes(len(data)))
    blob = _blob(els)
    back = fbsc.parse_blob(fbsc.serialize_blob(blob))
    assert back == blob
    assert fbsc.decrypt_stream(back.elements, KEY_20_3,
                               bytes(len(data))) == data


def _blob_with_newlines_in_header(elements):
    # r_n, n1_len, n2_len, the low epoch byte and, with ten elements, the low
    # count byte are all 0x0A; the fingerprint holds newlines and non-ASCII
    return fbsc.EncryptedBlob(r_n=10, f_digits=fbsc.DEFAULT_PRECISION,
                              key_fingerprint=b"\n\x80fp\n\n\xff\n",
                              n1_len=10, n2_len=10, epoch=10,
                              elements=elements)


@pytest.mark.parametrize("count", [0, 1, 10])
def test_blob_with_newlines_in_its_header_roundtrips(count):
    els = fbsc.encrypt_stream(bytes(range(count)), KEY_20_3, bytes(count))
    blob = _blob_with_newlines_in_header(els)
    raw = fbsc.serialize_blob(blob)
    assert raw[:fbsc._HEADER_LEN].count(b"\n") >= 8
    assert fbsc.parse_blob(raw) == blob


def test_truncated_blob_with_newlines_in_its_header_rejected():
    els = fbsc.encrypt_stream(b"0123456789", KEY_20_3, keystream(10))
    raw = fbsc.serialize_blob(_blob_with_newlines_in_header(els))
    cut = raw.rfind(b"\n", 0, len(raw) - 1)
    with pytest.raises(fbsc.BlobFormatError, match="count 9 != header 10"):
        fbsc.parse_blob(raw[:cut + 1])
    with pytest.raises(fbsc.BlobFormatError, match="count 0 != header 10"):
        fbsc.parse_blob(raw[:fbsc._HEADER_LEN])
