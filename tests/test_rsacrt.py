"""Key generation, payload encoding, wrapping, and CRT unwrapping."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from parvault import rsacrt
from parvault.digests import digest64_ints, digest64_text
from parvault.errors import ParvaultError, ValidationError


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


@pytest.mark.parametrize("p, q", [(0, 7), (1, 7), (-5, 11), (15, 25),
                                  (11, 33)])
def test_make_keypair_refuses_primes_that_cannot_form_a_key(p, q):
    with pytest.raises(ValidationError,
                       match="p and q must be coprime and above 2"):
        rsacrt.make_keypair(p, q, e=3)


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


def _user_seed(world_seed, user_id):
    # the seed Simulation.register hands keygen
    return digest64_ints(world_seed, digest64_text(user_id))


# SHA-256 of "p,q" for seeded keys that goldens and benchmark worlds rest
# on: plain 512-bit seeds, users of the 1024-bit sharing world (seed 4243)
# and of the default 512-bit vault world (seed 2024), and criterion 5's
# 2048-bit key. A change to the prime search or its rng stream moves them.
KEY_PINS = {
    "512/1": (
        512, 1,
        "01728f3fdb3db4c995715563947fe54fbe93c9bf161712fa4d3daff928922298"),
    "512/2": (
        512, 2,
        "a439f9c4b9ae1d68389752a9ca07e70b2be52cae40d74b2d33c1f2c08385423a"),
    "512/3": (
        512, 3,
        "255d29b0c42a380e48a997b5a40557d6bb9ed8a27b28e2b796dacfe2331c32f2"),
    "512/4": (
        512, 4,
        "6fbc10647530f9c1940deba3c28f9b8f83e2392bf614d071d07b07ad82d50268"),
    "512/5": (
        512, 5,
        "1bf31ef885add420dccd5cb8fa3a34be17bfe7733cd10069c8eba849904f2c93"),
    "512/6": (
        512, 6,
        "935787f55218da879ce209237490282be37cf27e15dc82f976d3516268da0036"),
    "sharing/owner": (
        1024, _user_seed(4243, "owner"),
        "80ecd7a82250ada29c8f5b0ef93c0476e325b36d837c6a47887e64937694456e"),
    "sharing/user-00": (
        1024, _user_seed(4243, "user-00"),
        "55e0e9b24f49fb2efa1e40c9739c271ecfd80929caa0a96d6623affd81ecd0fd"),
    "sharing/user-01": (
        1024, _user_seed(4243, "user-01"),
        "999fc6d80dbb1212eee2666bd2c1419a9dcdcd9e353cf6b88507eecc2161ff18"),
    "sharing/user-31": (
        1024, _user_seed(4243, "user-31"),
        "632ef6ee86bc13aced7d17d5feecf86dbac1be8b16bc42bd3f63761f59aaa203"),
    "vault/olga": (
        512, _user_seed(2024, "olga"),
        "ed70603c1d3f7ef6c55a1c9ed627f46af8d9f15d19d2d2edecc70c4c3814e34c"),
    "vault/rena": (
        512, _user_seed(2024, "rena"),
        "2c2de51839c7761c8d330026d52fb416cba26c8ed9d155e43d1e195d1eebd5b0"),
    "vault/sam": (
        512, _user_seed(2024, "sam"),
        "c0279b846cafdd92ea82745a96a61877c5f6c8bcc36e7dfb269f24d0522d50a6"),
    "vault/tom": (
        512, _user_seed(2024, "tom"),
        "5325aa54ba003a90dcde7b2542374a2c9596a79d896bc4d3bebbc35971ed1251"),
    "criterion5/2048": (
        2048, 42,
        "3ec09228a27abe5bdf94043cddc046240dbdf2ebd94c3197fc1ae240933a5fd9"),
}


@pytest.mark.parametrize("bits,seed,digest", KEY_PINS.values(), ids=KEY_PINS)
def test_seeded_keys_are_pinned(bits, seed, digest):
    kp = rsacrt.keygen(bits, seed=seed)
    assert hashlib.sha256(f"{kp.p},{kp.q}".encode()).hexdigest() == digest


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


# Damgard-Landrock-Pomerance (Math. Comp. 61, 1993) bounds on the chance
# that a uniformly random odd k-bit integer which passed t random
# Miller-Rabin rounds is composite

def _dlp_theorem2(k, t):
    """Theorem 2, least over M, as FIPS 186-4 Appendix F.1 evaluates it."""
    bounds = []
    for big_m in range(3, math.isqrt(4 * (k - 1)) + 1):  # M <= 2 sqrt(k-1)
        tail = sum(2.0 ** (m - j - (k - 1) / j - (m - 1) * t)
                   for m in range(3, big_m + 1) for j in range(2, m + 1))
        bounds.append(2.00743 * math.log(2) * k
                      * (2.0 ** (-2 - big_m * t)
                         + 2 * (math.pi ** 2 - 6) / 3 * tail))
    return min(bounds)


def _dlp_corollaries(k, t):
    """The closed forms the paper derives from Theorem 2, for k >= 21."""
    bounds = [math.inf]
    if t == 1:
        bounds.append(k ** 2 * 4 ** (2 - math.sqrt(k)))
    if (t == 2 and k >= 88) or 3 <= t <= k / 9:
        bounds.append(k ** 1.5 * 2 ** t * t ** -0.5
                      * 4 ** (2 - math.sqrt(t * k)))
    if k / 9 <= t <= k / 4:
        bounds.append(7 / 20 * k * 2.0 ** (-5 * t)
                      + 1 / 7 * k ** 3.75 * 2.0 ** (-k / 2 - 2 * t)
                      + 12 * k * 2.0 ** (-k / 4 - 3 * t))
    if t >= k / 4:
        bounds.append(1 / 7 * k ** 3.75 * 2.0 ** (-k / 2 - 2 * t))
    return min(bounds)


def _least_rounds(bound, k, log2_err):
    return next(t for t in range(1, 200) if bound(k, t) <= 2.0 ** -log2_err)


def test_dlp_theorem2_reproduces_fips_round_counts():
    # FIPS 186-4 Tables C.1 (q) and C.3 (p, q), Miller-Rabin only:
    # (bits, -log2 error, rounds)
    for k, err, rounds in ((160, 80, 19), (224, 112, 24), (256, 128, 27),
                           (512, 100, 7), (1024, 112, 5), (1536, 128, 4)):
        assert _least_rounds(_dlp_theorem2, k, err) == rounds


def test_keygen_round_table_is_the_least_that_reaches_2_to_minus_128():
    sizes = {bits // 2 for bits in rsacrt.KEY_SIZES
             if 1 << (bits // 2) > rsacrt._DETERMINISTIC_BOUND}
    assert set(rsacrt._KEYGEN_ROUNDS) == sizes
    for k, t in rsacrt._KEYGEN_ROUNDS.items():
        assert _least_rounds(_dlp_theorem2, k, 128) == t
        # the corollaries are looser here (29 rounds at 256 bits), so no
        # DLP bound allows fewer rounds than the table
        assert _least_rounds(_dlp_corollaries, k, 128) >= t
        # candidates with their top two bits set about double the bound;
        # each entry leaves that bit of margin
        assert _dlp_theorem2(k, t) <= 2.0 ** -129


def test_keygen_round_count_rejects_a_carmichael_number():
    # (6k+1)(12k+1)(18k+1) with all three factors prime is a Carmichael
    # number: every base coprime to it passes the Fermat test
    k = round((rsacrt._DETERMINISTIC_BOUND / 1296) ** (1 / 3))
    while True:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        n = math.prod(factors)
        if n > rsacrt._DETERMINISTIC_BOUND and all(
                rsacrt.is_probable_prime(f) for f in factors):
            break
        k += 1
    assert pow(2, n - 1, n) == 1
    assert math.gcd(n, rsacrt._SCREEN) == 1  # Miller-Rabin, not the screen
    for rounds in sorted(set(rsacrt._KEYGEN_ROUNDS.values())):
        for seed in range(20):
            assert not rsacrt.is_probable_prime(n, rounds,
                                                rng=random.Random(seed))


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
