"""Non-cryptographic 64-bit digests used for binding and attribute mapping.

The scheme needs a fixed, documented, cheap 64-bit digest in several places:
attribute-to-coefficient derivation for the sharing polynomial, per-point
binding codes, and the key fingerprint kept in the blob header. FNV-1a
(64-bit) is used throughout: offset basis 14695981039346656037, prime
1099511628211, one XOR-and-multiply round per octet. It is deliberately not
collision resistant; nothing here treats it as a cryptographic hash.
"""

FNV64_OFFSET = 14695981039346656037
FNV64_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1


def digest64(data):
    """FNV-1a over a byte string, returned as an int in [0, 2^64)."""
    h = FNV64_OFFSET
    for b in data:
        h = ((h ^ b) * FNV64_PRIME) & _MASK64
    return h


def digest64_text(text):
    """FNV-1a over the UTF-8 encoding of a string."""
    return digest64(text.encode("utf-8"))


def digest64_ints(*values):
    """Digest a tuple of integers via their decimal forms joined with '|'.

    The separator keeps (12, 3) and (1, 23) distinct. Used for binding codes,
    where the inputs are field elements and coordinates.
    """
    return digest64("|".join(str(v) for v in values).encode("ascii"))
