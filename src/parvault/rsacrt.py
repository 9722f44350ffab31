"""RSA key wrapping with CRT-accelerated private operations.

Keypairs use the Carmichael exponent d = e^{-1} mod lcm(p-1, q-1) and carry
the precomputed CRT residue exponents d_p, d_q and cross inverses q_inv,
p_inv. Decryption then runs as two half-size exponentiations

    X_p = c**d_p mod p,   X_q = c**d_q mod q

recombined to the unique residue mod n, which is roughly four times cheaper
than a single full-width c**d mod n and must agree with it bit for bit.

The wrapped payload is the symmetric cipher secret (r_n, pk_sk), framed as
length-prefixed big-endian bytes so a tuple fits one integer below n. No
message padding happens here; the symmetric layer already frames plaintexts
with random material before encryption.

Primality is Miller-Rabin: the deterministic witness set below ~3.3e24,
random witnesses above. keygen's seed pins the prime search for
reproducible runs, and make_keypair builds a keypair from known primes.

How many random rounds: for an arbitrary n, t rounds pass a composite with
probability at most 4^-t, so is_probable_prime runs 64 by default. Keygen
tests only candidates drawn uniformly at random, and for those the
average-case bound of Damgard, Landrock and Pomerance ("Average case error
estimates for the strong probable prime test", Math. Comp. 61, 1993),
which also underlies the tables of FIPS 186-5 Appendix B, is far smaller:
_KEYGEN_ROUNDS holds, per candidate size k, the least t whose bound on
"composite although t rounds passed" for a random odd k-bit integer is at
most 2^-128. Candidates have their top two bits set, so they are uniform
over the upper half of that range: the composites passing there are a
subset of those in the whole range, while the primes there are just under
half, so the bound about doubles; each entry's bound is below 2^-129.

Every candidate still draws its 64 witnesses from the rng before any is
tried, and a gcd against the primes 101..1999 screens the candidate after
the draws: only the rounds fall, so a seed yields the same primes.
"""

import math
import random
from dataclasses import dataclass

from .errors import ParvaultError, ValidationError

_E_CANDIDATES = (65537, 257, 17, 3)

KEY_SIZES = (64, 512, 1024, 2048)  # the modulus sizes keygen accepts

# below this bound the first 13 primes are a complete witness set
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_SMALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

# product of the primes 101..1999: one gcd does the trial division the
# loop over _SMALL_PRIMES leaves off (every odd composite below 2000 has a
# factor up to 43)
_SCREEN = math.prod(c for c in range(101, 2000, 2)
                    if all(c % sp for sp in _SMALL_PRIMES))

# random witnesses drawn per candidate, whatever the round count; tying
# the rng stream to this keeps seeded keys stable
_DRAWS = 64

# Miller-Rabin rounds per keygen candidate size (see the module docstring)
_KEYGEN_ROUNDS = {256: 27, 512: 12, 1024: 6}

# candidates drawn per prime before keygen gives up
_PRIME_TRIES = 20000


class PrimeGenerationError(ParvaultError):
    """No prime found within the retry budget."""


class PayloadTooLargeError(ParvaultError):
    """Encoded (r_n, pk_sk) does not fit below the modulus."""


class DecodeError(ParvaultError):
    """Payload framing did not parse; wrong key or corrupt ciphertext."""


def _miller_rabin_round(n, a, d, r):
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n, rounds=64, rng=None):
    """Miller-Rabin; deterministic below the small-witness bound, above it
    the first `rounds` of at least 64 witnesses drawn from rng."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _DETERMINISTIC_BOUND:
        witnesses = [a for a in _SMALL_WITNESSES if a < n - 1]
    else:
        rng = rng or random.Random()
        witnesses = [rng.randrange(2, n - 1)
                     for _ in range(max(rounds, _DRAWS))][:rounds]
        if math.gcd(n, _SCREEN) != 1:
            return False
    return all(_miller_rabin_round(n, a, d, r) for a in witnesses)


def _random_prime(bits, rng):
    # top two bits set so a product of two such primes has full width
    top = (1 << (bits - 1)) | (1 << (bits - 2))
    # 32-bit candidates fall below _DETERMINISTIC_BOUND, where rounds is
    # unused
    rounds = _KEYGEN_ROUNDS.get(bits, 64)
    for _ in range(_PRIME_TRIES):
        cand = rng.getrandbits(bits) | top | 1
        if is_probable_prime(cand, rounds=rounds, rng=rng):
            return cand
    raise PrimeGenerationError(
        f"no {bits}-bit prime in {_PRIME_TRIES} draws")


@dataclass(frozen=True)
class RsaKeyPair:
    p: int
    q: int
    n: int
    e: int
    d: int
    d_p: int
    d_q: int
    q_inv: int
    p_inv: int

    def __post_init__(self):
        if self.p * self.q != self.n:
            raise ValidationError("n != p*q")
        lam = math.lcm(self.p - 1, self.q - 1)
        if self.e * self.d % lam != 1:
            raise ValidationError("e*d != 1 mod lambda(n)")
        if self.d_p != self.d % (self.p - 1) or self.d_q != self.d % (self.q - 1):
            raise ValidationError("CRT exponents inconsistent with d")
        if self.q * self.q_inv % self.p != 1 or self.p * self.p_inv % self.q != 1:
            raise ValidationError("cross inverses inconsistent with p, q")

    @property
    def public(self):
        return (self.e, self.n)


def make_keypair(p, q, e=None):
    """Assemble a keypair from known primes, choosing e if not given."""
    if p == q:
        raise ValidationError("p and q must differ")
    if min(p, q) < 3 or math.gcd(p, q) != 1:
        raise ValidationError("p and q must be coprime and above 2")
    lam = math.lcm(p - 1, q - 1)
    if e is None:
        e = next((c for c in _E_CANDIDATES if c < lam and math.gcd(c, lam) == 1),
                 None)
        if e is None:
            raise ValidationError("no usable public exponent for these primes")
    elif math.gcd(e, lam) != 1 or not (1 < e):
        raise ValidationError("e not invertible mod lambda(n)")
    d = pow(e, -1, lam)
    return RsaKeyPair(p=p, q=q, n=p * q, e=e, d=d,
                      d_p=d % (p - 1), d_q=d % (q - 1),
                      q_inv=pow(q, -1, p), p_inv=pow(p, -1, q))


def keygen(bit_length, seed=None):
    """Fresh keypair with an n of exactly bit_length bits.

    seed pins the prime search for reproducible runs; without it the system
    entropy source drives the draw.
    """
    if bit_length not in KEY_SIZES:
        raise ValidationError("bit_length must be one of "
                              + ", ".join(map(str, KEY_SIZES)))
    rng = random.Random(seed) if seed is not None else random.SystemRandom()
    half = bit_length // 2
    p = _random_prime(half, rng)
    q = _random_prime(half, rng)
    while q == p:
        q = _random_prime(half, rng)
    return make_keypair(p, q)


# ---------------------------------------------------------------------------
# payload framing and the wrap/unwrap pair
# ---------------------------------------------------------------------------

def encode_payload_int(r_n, pk_sk):
    """[1B len r_n][r_n][2B len pk_sk][pk_sk], big-endian, as one integer."""
    if r_n < 1 or pk_sk < 1:
        raise ValidationError("r_n and pk_sk must be positive")
    rb = r_n.to_bytes((r_n.bit_length() + 7) // 8, "big")
    kb = pk_sk.to_bytes((pk_sk.bit_length() + 7) // 8, "big")
    if len(rb) > 255 or len(kb) > 65535:
        raise PayloadTooLargeError("component too long for framing")
    framed = bytes([len(rb)]) + rb + len(kb).to_bytes(2, "big") + kb
    return int.from_bytes(framed, "big")


def encode_payload(r_n, pk_sk, n):
    value = encode_payload_int(r_n, pk_sk)
    if value >= n:
        raise PayloadTooLargeError("payload does not fit below the modulus")
    return value


def decode_payload(value):
    """Exact inverse of encode_payload_int."""
    if value <= 0:
        raise DecodeError("payload integer must be positive")
    raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
    if len(raw) < 4:
        raise DecodeError("payload too short for framing")
    rlen = raw[0]
    if rlen == 0 or len(raw) < 1 + rlen + 2:
        raise DecodeError("r_n length field out of range")
    r_n = int.from_bytes(raw[1:1 + rlen], "big")
    klen = int.from_bytes(raw[1 + rlen:3 + rlen], "big")
    body = raw[3 + rlen:]
    if klen == 0 or len(body) != klen:
        raise DecodeError("pk_sk length field mismatch")
    pk_sk = int.from_bytes(body, "big")
    if r_n < 1 or pk_sk < 1:
        raise DecodeError("decoded components must be positive")
    return r_n, pk_sk


@dataclass(frozen=True)
class WrappedKey:
    """Ciphertext of the encoded (r_n, pk_sk) under a user's public key."""

    p_k: int


def wrap(r_n, pk_sk, public):
    e, n = public
    m = encode_payload(r_n, pk_sk, n)
    return WrappedKey(p_k=pow(m, e, n))


def unwrap_plain(wrapped, keypair):
    """Reference path: single full-width exponentiation."""
    m = pow(wrapped.p_k, keypair.d, keypair.n)
    return decode_payload(m)


def crt_recombine(c, keypair):
    """The two half-width exponentiations and the unique recombination."""
    x_p = pow(c % keypair.p, keypair.d_p, keypair.p)
    x_q = pow(c % keypair.q, keypair.d_q, keypair.q)
    return (x_p * keypair.q * keypair.q_inv
            + x_q * keypair.p * keypair.p_inv) % keypair.n


def unwrap_crt(wrapped, keypair):
    return decode_payload(crt_recombine(wrapped.p_k, keypair))


# ---------------------------------------------------------------------------
# key files
# ---------------------------------------------------------------------------

_PRIVATE_FIELDS = ("p", "q", "n", "e", "d", "d_p", "d_q", "q_inv", "p_inv")


def save_private(keypair, path):
    with open(path, "w") as fh:
        for name in _PRIVATE_FIELDS:
            fh.write(f"{name} = {getattr(keypair, name)}\n")


def save_public(public, path):
    e, n = public
    with open(path, "w") as fh:
        fh.write(f"n = {n}\ne = {e}\n")
