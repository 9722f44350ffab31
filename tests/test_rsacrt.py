"""Key generation, payload encoding, wrapping, and CRT unwrapping."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from parvault import rsacrt
from parvault.errors import ParvaultError


def toy_pair():
    # lambda = lcm(4, 10) = 20, e = 3, d = 7
    return rsacrt.make_keypair(5, 11, e=3)


def test_toy_private_exponent():
    kp = toy_pair()
    assert kp.d == 7
    assert kp.n == 55
    lam = math.lcm(4, 10)
    assert kp.e * kp.d % lam == 1


def test_toy_crt_components():
    kp = toy_pair()
    assert kp.d_p == 7 % 4
    assert kp.d_q == 7 % 10
    assert kp.q_inv == pow(11, -1, 5)
    assert kp.p_inv == pow(5, -1, 11)


def test_keygen_exact_width_and_identity():
    kp = rsacrt.keygen(512, seed=1234)
    assert kp.n.bit_length() == 512
    assert kp.p != kp.q
    lam = math.lcm(kp.p - 1, kp.q - 1)
    assert kp.e * kp.d % lam == 1
    # CRT fields recomputable from (p, q, d)
    assert kp.d_p == kp.d % (kp.p - 1)
    assert kp.d_q == kp.d % (kp.q - 1)
    assert kp.q_inv == pow(kp.q, -1, kp.p)
    assert kp.p_inv == pow(kp.p, -1, kp.q)


def test_keygen_deterministic_under_seed():
    a = rsacrt.keygen(512, seed=7)
    b = rsacrt.keygen(512, seed=7)
    assert (a.p, a.q, a.e, a.d) == (b.p, b.q, b.e, b.d)
    assert rsacrt.keygen(512, seed=8).n != a.n


def test_carmichael_identity_on_random_units():
    kp = rsacrt.keygen(512, seed=99)
    lam = math.lcm(kp.p - 1, kp.q - 1)
    rng = random.Random(2)
    for _ in range(20):
        m = rng.randrange(2, kp.n)
        if math.gcd(m, kp.n) == 1:
            assert pow(m, lam, kp.n) == 1


# ---------------------------------------------------------------------------
# payload encoding
# ---------------------------------------------------------------------------

def test_encode_matches_byte_layout_oracle():
    # [len(r_n)=1][r_n][len(pk_sk)=2 bytes][pk_sk] big-endian
    assert rsacrt.encode_payload_int(2, 20) == \
        int.from_bytes(b"\x01\x02\x00\x01\x14", "big")
    assert rsacrt.encode_payload_int(2, 20) == 4328522004


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 16), st.integers(1, (1 << 64) - 1))
def test_decode_inverts_encode(r_n, pk_sk):
    assert rsacrt.decode_payload(rsacrt.encode_payload_int(r_n, pk_sk)) == \
        (r_n, pk_sk)


def test_payload_must_fit_under_modulus():
    kp = toy_pair()
    with pytest.raises(rsacrt.PayloadTooLargeError):
        rsacrt.encode_payload(2, 1 << (300 * 8), (1 << 64) - 59)
    with pytest.raises(rsacrt.PayloadTooLargeError):
        rsacrt.wrap(2, 10 ** 30, kp.public)


def test_decode_garbage_rejected():
    with pytest.raises(rsacrt.DecodeError):
        rsacrt.decode_payload(0)
    with pytest.raises(rsacrt.DecodeError):
        rsacrt.decode_payload(int.from_bytes(b"\x05\x01", "big"))


# ---------------------------------------------------------------------------
# wrap / unwrap
# ---------------------------------------------------------------------------

def test_textbook_cube_of_two():
    kp = toy_pair()
    wrapped = rsacrt.WrappedKey(p_k=pow(2, 3, 55))
    assert wrapped.p_k == 8
    assert rsacrt.crt_recombine(8, kp) == 2
    # matches the plain-exponent oracle 8^7 mod 55
    assert pow(8, 7, 55) == 2


def test_modexp_fixed_points():
    kp = toy_pair()
    assert pow(1, kp.e, kp.n) == 1
    assert pow(0, kp.e, kp.n) == 0
    assert rsacrt.crt_recombine(1, kp) == 1


def test_wrap_unwrap_roundtrip_toy_sizes():
    kp = rsacrt.keygen(64, seed=5)
    wrapped = rsacrt.wrap(3, 1000003, kp.public)
    assert rsacrt.unwrap_crt(wrapped, kp) == (3, 1000003)
    assert rsacrt.unwrap_plain(wrapped, kp) == (3, 1000003)


def test_crt_equals_plain_on_thousand_messages():
    kp = rsacrt.keygen(512, seed=31337)
    rng = random.Random(4)
    for _ in range(1000):
        c = rng.randrange(2, kp.n)
        assert rsacrt.crt_recombine(c, kp) == pow(c, kp.d, kp.n)


KP64 = rsacrt.keygen(64, seed=2024)
KP512 = rsacrt.keygen(512, seed=2024)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 16), st.integers(17, (1 << 24) - 1))
def test_unwrap_inverts_wrap_small_modulus(r_n, pk_sk):
    # 4 framing bytes + a 3-byte base always fit under a 64-bit n
    wrapped = rsacrt.wrap(r_n, pk_sk, KP64.public)
    assert rsacrt.unwrap_crt(wrapped, KP64) == (r_n, pk_sk)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 16), st.integers(17, (1 << 56) - 1))
def test_unwrap_inverts_wrap_full_width_base(r_n, pk_sk):
    wrapped = rsacrt.wrap(r_n, pk_sk, KP512.public)
    assert rsacrt.unwrap_crt(wrapped, KP512) == (r_n, pk_sk)


def test_unwrap_with_wrong_key_fails_decode_or_differs():
    kp = rsacrt.keygen(64, seed=41)
    other = rsacrt.keygen(64, seed=42)
    wrapped = rsacrt.wrap(5, 99991, kp.public)
    try:
        assert rsacrt.unwrap_crt(wrapped, other) != (5, 99991)
    except ParvaultError:
        pass


# ---------------------------------------------------------------------------
# primality and key files
# ---------------------------------------------------------------------------

def test_probable_prime_on_known_values():
    for p in (2, 3, 5, 11, 65537, (1 << 61) - 1):
        assert rsacrt.is_probable_prime(p)
    for c in (0, 1, 4, 561, 65536, (1 << 61) - 2):
        assert not rsacrt.is_probable_prime(c)


def _key_file_fields(path):
    return {name: int(value) for name, _, value in
            (line.partition(" = ") for line in path.read_text().splitlines())}


def test_private_key_file_roundtrip(tmp_path):
    kp = rsacrt.keygen(512, seed=77)
    path = tmp_path / "rsa_private.txt"
    rsacrt.save_private(kp, path)
    assert rsacrt.RsaKeyPair(**_key_file_fields(path)) == kp


def test_public_key_file_roundtrip(tmp_path):
    kp = rsacrt.keygen(512, seed=78)
    path = tmp_path / "rsa_public.txt"
    rsacrt.save_public(kp.public, path)
    assert _key_file_fields(path) == {"n": kp.n, "e": kp.e}
