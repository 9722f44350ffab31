"""Involution stream cipher over byte symbols.

The per-symbol map is

    f(x) = (K - x**(1/R))**R

with key (K, R), K the symmetric secret and R a small power drawn per key.
On the reals with K >= x**(1/R) the map is self-inverse:

    f(f(x)) = (K - (K - x**(1/R)))**R = x

so the same function encrypts and decrypts; decryption rounds the real
result back to the nearest byte and rejects anything farther than 0.25 from
an integer, which is how a wrong key or truncated element surfaces.

Values are fixed-point decimals carrying `precision` fractional digits
(default 50, floor 30). Roots are computed by Newton iteration in exact
decimal arithmetic with guard digits, with an integer fast path so perfect
powers (x = t**R) stay exact end to end. A stream is encrypted by XORing
each byte with keystream material first, then applying f. There are only
256 possible symbols, so each key has a 256-entry codebook (symbol ->
element, cached per key) and both directions are table lookups: encrypt
indexes the codebook, decrypt looks each element up in its inverse
(element -> symbol) and XORs the symbols with the keystream in numpy. Only
an element missing from the inverse table, which a wrong key or a damaged
blob produces, is inverted by the root-based anti_involute, so those still
fail with RoundoffError (or, non-strictly, map to the nearest symbol).
"""

import re
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from .digests import digest64_text
from .errors import ParvaultError, ValidationError
from . import prng

DEFAULT_PRECISION = 50
MIN_PRECISION = 30
_GUARD_DIGITS = 25

R_MIN, R_MAX = 2, 16


class DomainError(ParvaultError):
    """The involution base K - x**(1/R) went negative."""


class RoundoffError(ParvaultError):
    """Decrypted value too far from any byte; wrong key or bad element."""


class KeystreamError(ParvaultError):
    """Keystream shorter than the data it must cover."""


@dataclass(frozen=True)
class SymmetricKey:
    """The cipher secret: base constant pk_sk and power r_n."""

    pk_sk: int
    r_n: int

    def __post_init__(self):
        if not (R_MIN <= self.r_n <= R_MAX):
            raise ValidationError(f"r_n must lie in [{R_MIN}, {R_MAX}]")
        if self.pk_sk < 2:
            raise ValidationError("pk_sk must be at least 2")
        # base stays positive for every byte symbol up to 255
        if self.pk_sk ** self.r_n <= 255:
            raise ValidationError("pk_sk too small for byte symbols at this r_n")

    @property
    def fingerprint(self):
        """8-byte digest of pk_sk alone (identifies, does not reveal, r_n)."""
        return digest64_text(str(self.pk_sk)).to_bytes(8, "big")


def generate_key(config, pk_bits=20, r_n=None):
    """Draw a fresh (pk_sk, r_n) from the generator stream.

    r_n is uniform-ish on [2, 16]; pk_sk lands in [17, 2**pk_bits) so the
    key invariant holds for any r_n. Passing r_n pins the power and only
    the base is drawn (deployments may standardize the power; benchmarks
    pin it to hold per-key cost constant).
    """
    if pk_bits < 5 or pk_bits > 64:
        raise ValidationError("pk_bits must lie in [5, 64]")
    a, b = prng.generate_values(config, 2)
    if r_n is None:
        r_n = R_MIN + a % (R_MAX - R_MIN + 1)
    span = (1 << pk_bits) - 17
    pk_sk = 17 + b % span
    return SymmetricKey(pk_sk=pk_sk, r_n=r_n)


# ---------------------------------------------------------------------------
# fixed-point root and the involution proper
# ---------------------------------------------------------------------------

def _int_root(value, r):
    # exact r-th root of a nonnegative int, or None
    if value < 0:
        return None
    t = round(value ** (1.0 / r)) if value > 0 else 0
    for cand in (t - 1, t, t + 1):
        if cand >= 0 and cand ** r == value:
            return cand
    return None


def _root_seed(value, r):
    # float-safe starting point: split off the decimal exponent first
    e = value.adjusted()
    q, s = divmod(e, r)
    mant = float(value.scaleb(-e)) * 10.0 ** s
    return Decimal(repr(mant ** (1.0 / r))).scaleb(q)


def _root(value, r, work_prec):
    """r-th root of a nonnegative Decimal, good to ~work_prec digits."""
    if value < 0:
        raise DomainError("root of negative value")
    if value == 0:
        return Decimal(0)
    if r == 1:
        return +value
    iv = int(value)
    if value == iv:
        t = _int_root(iv, r)
        if t is not None:
            return Decimal(t)
    t = _root_seed(value, r)
    rr = Decimal(r)
    prev = None
    for _ in range(80):
        t = ((rr - 1) * t + value / t ** (r - 1)) / rr
        if prev is not None and \
                abs(t - prev) <= Decimal(1).scaleb(t.adjusted() - work_prec + 6):
            break
        prev = t
    return t


def _quantum(precision):
    return Decimal(1).scaleb(-precision)


def _check_precision(precision):
    if precision < MIN_PRECISION:
        raise ValidationError(f"precision must be at least {MIN_PRECISION}")


def _work_prec(key, precision, extra_digits=0):
    # room for the integer digits of pk_sk**r_n plus fraction plus guard
    int_digits = len(str(key.pk_sk ** key.r_n))
    return max(int_digits, extra_digits) + precision + _GUARD_DIGITS


def involute(x, key, precision=DEFAULT_PRECISION):
    """f(x) = (pk_sk - x**(1/r_n))**r_n as a Decimal with `precision`
    fractional digits."""
    _check_precision(precision)
    if not isinstance(x, int) or not (0 <= x <= 255):
        raise ValidationError("symbol must be an integer in [0, 255]")
    with localcontext() as ctx:
        ctx.prec = _work_prec(key, precision)
        root = _root(Decimal(x), key.r_n, ctx.prec)
        base = Decimal(key.pk_sk) - root
        if base < 0:
            raise DomainError("pk_sk below x**(1/r_n)")
        value = base ** key.r_n
        return value.quantize(_quantum(precision))


def anti_involute(element, key, precision=DEFAULT_PRECISION):
    """Invert f and round to the nearest byte.

    Raises RoundoffError when the real result strays more than 0.25 from
    every integer, the wrong-key signature.
    """
    _check_precision(precision)
    value = element if isinstance(element, Decimal) else Decimal(element)
    if value < 0:
        raise DomainError("cipher element must be nonnegative")
    with localcontext() as ctx:
        ctx.prec = _work_prec(key, precision, value.adjusted() + 1)
        root = _root(value, key.r_n, ctx.prec)
        base = Decimal(key.pk_sk) - root
        if base < 0:
            raise DomainError("element root exceeds pk_sk")
        real = base ** key.r_n
        nearest = int(real.to_integral_value())
        if abs(real - nearest) > Decimal("0.25"):
            raise RoundoffError(f"no byte within 0.25 of {nearest}")
        return nearest


@lru_cache(maxsize=64)
def _codebook(key, precision):
    # symbol -> element, all 256 entries
    return tuple(involute(x, key, precision) for x in range(256))


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def _check_keystream(keystream, need):
    ks = bytes(keystream)
    if len(ks) < need:
        raise KeystreamError(f"keystream has {len(ks)} bytes, need {need}")
    return ks


def encrypt_stream(data, key, keystream, precision=DEFAULT_PRECISION):
    """Encrypt bytes: element_i = f(data_i XOR keystream_i)."""
    data = bytes(data)
    ks = _check_keystream(keystream, len(data))
    book = _codebook(key, precision)
    return [book[b ^ k] for b, k in zip(data, ks)]


def decrypt_stream(elements, key, keystream, precision=DEFAULT_PRECISION,
                   strict=True):
    """Invert encrypt_stream: data_i = f^{-1}(element_i) XOR keystream_i.

    Each element is looked up in the inverse of the key's codebook; only an
    element missing from it (a wrong key, a damaged blob) is inverted by
    anti_involute. strict=True (the default) lets that RoundoffError
    propagate, so a wrong key usually fails loudly; strict=False
    substitutes the nearest byte value instead, which is what a
    difference-rate comparison wants.
    """
    ks = _check_keystream(keystream, len(elements))
    inverse = {el: x for x, el in enumerate(_codebook(key, precision))}
    syms = [inverse[el] if el in inverse else
            _symbol_by_root(el, inverse, key, precision, strict)
            for el in elements]
    data = np.frombuffer(bytes(syms), dtype=np.uint8)
    return (data ^ np.frombuffer(ks, dtype=np.uint8, count=len(syms))).tobytes()


def _symbol_by_root(element, inverse, key, precision, strict):
    # anti_involute's byte for an element not in the codebook, folded to
    # 8 bits and remembered in `inverse` for the element's later copies
    value = element if isinstance(element, Decimal) else Decimal(element)
    sym = inverse.get(value)
    if sym is None:
        try:
            sym = anti_involute(value, key, precision) & 0xFF
        except (RoundoffError, DomainError):
            if strict:
                raise
            sym = _nearest_symbol(value, key, precision)
        inverse[value] = sym
    return sym


def _nearest_symbol(value, key, precision):
    # lenient fallback: closest codebook element wins
    book = _codebook(key, precision)
    return min(range(256), key=lambda x: abs(book[x] - value))


# ---------------------------------------------------------------------------
# file-key binding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FileKeyBinding:
    """A key XOR-folded with the digest of the file name it protects."""

    file_name_digest: int
    bound_key: int


def bind_file_key(key_value, file_name):
    """FK = key XOR digest64(name); rename-safe via unbind/rebind."""
    if not file_name:
        raise ValidationError("file name must be non-empty")
    digest = digest64_text(file_name)
    return FileKeyBinding(file_name_digest=digest, bound_key=key_value ^ digest)


def unbind_file_key(binding, file_name):
    if not file_name:
        raise ValidationError("file name must be non-empty")
    digest = digest64_text(file_name)
    if digest != binding.file_name_digest:
        raise ValidationError("digest mismatch: wrong file name for binding")
    return binding.bound_key ^ digest


def rebind_file_key(binding, old_name, new_name):
    """Move a binding to a renamed file without touching the raw key."""
    return bind_file_key(unbind_file_key(binding, old_name), new_name)


# ---------------------------------------------------------------------------
# blob format
# ---------------------------------------------------------------------------

BLOB_MAGIC = b"PVLT"
BLOB_VERSION = 1
_HEADER_LEN = 4 + 1 + 1 + 2 + 8 + 1 + 1 + 4 + 8


class BlobFormatError(ParvaultError):
    """Serialized blob failed structural checks."""


@dataclass
class EncryptedBlob:
    """Wire form of a ciphertext: framing metadata plus the element list.

    r_n travels in the header for local copies but is zeroed on anything
    handed to storage, so a blob alone never discloses the power.
    """

    r_n: int
    f_digits: int
    key_fingerprint: bytes
    n1_len: int
    n2_len: int
    epoch: int
    elements: list

    def public_copy(self):
        """The storage-safe twin: identical but with the power scrubbed."""
        return EncryptedBlob(r_n=0, f_digits=self.f_digits,
                             key_fingerprint=self.key_fingerprint,
                             n1_len=self.n1_len, n2_len=self.n2_len,
                             epoch=self.epoch, elements=list(self.elements))


def format_element(value, f_digits):
    """Exactly f_digits fractional digits, no exponent notation."""
    with localcontext() as ctx:
        ctx.prec = max(value.adjusted() + 1, 1) + f_digits + 2
        q = value.quantize(_quantum(f_digits))
    return format(q, "f")


_ELEMENT_TEXT = re.compile(r"[0-9]+(?:\.[0-9]+)?")


def parse_element(text):
    """Fixed-point element text: ASCII digits with an optional fraction.
    Signs, exponents, NaN and Infinity are refused."""
    if isinstance(text, str) and _ELEMENT_TEXT.fullmatch(text):
        return Decimal(text)
    raise BlobFormatError(f"bad element {text!r}")


def serialize_blob(blob):
    head = bytearray()
    head += BLOB_MAGIC
    head.append(BLOB_VERSION)
    head.append(blob.r_n)
    head += blob.f_digits.to_bytes(2, "big")
    if len(blob.key_fingerprint) != 8:
        raise BlobFormatError("fingerprint must be 8 bytes")
    head += blob.key_fingerprint
    head.append(blob.n1_len)
    head.append(blob.n2_len)
    head += blob.epoch.to_bytes(4, "big")
    head += len(blob.elements).to_bytes(8, "big")
    # at most 256 distinct elements under one key: format each once
    texts = {e: format_element(e, blob.f_digits)
             for e in dict.fromkeys(blob.elements)}
    body = "\n".join(map(texts.__getitem__, blob.elements))
    return bytes(head) + body.encode("ascii") + (b"\n" if blob.elements else b"")


def parse_blob(raw):
    if len(raw) < _HEADER_LEN or raw[:4] != BLOB_MAGIC:
        raise BlobFormatError("missing blob magic")
    if raw[4] != BLOB_VERSION:
        raise BlobFormatError(f"unsupported blob version {raw[4]}")
    r_n = raw[5]
    f_digits = int.from_bytes(raw[6:8], "big")
    fingerprint = raw[8:16]
    n1_len, n2_len = raw[16], raw[17]
    epoch = int.from_bytes(raw[18:22], "big")
    count = int.from_bytes(raw[22:30], "big")
    body = raw[_HEADER_LEN:]
    if not body.isascii():
        raise BlobFormatError("blob body is not ASCII text")
    lines = list(filter(None, body.split(b"\n")))
    if len(lines) != count:
        raise BlobFormatError(f"element count {len(lines)} != header {count}")
    # each distinct line is checked and parsed once
    values = {ln: parse_element(ln.decode("ascii"))
              for ln in dict.fromkeys(lines)}
    elements = list(map(values.__getitem__, lines))
    return EncryptedBlob(r_n=r_n, f_digits=f_digits, key_fingerprint=fingerprint,
                         n1_len=n1_len, n2_len=n2_len, epoch=epoch,
                         elements=elements)
