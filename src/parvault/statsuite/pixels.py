"""Byte-level statistics: histograms, adjacent-pixel correlation, and the
quantile mapping that turns cipher elements into evaluation bytes.

The cipher emits fixed-point real elements, one per input byte, and the
elements of a single stream take at most 256 distinct values. To study the
ciphertext with byte-granularity tools the elements are quantized by
empirical rank: sort the distinct values observed in the stream and replace
each element with its (scaled) rank. The map is a bijection on observed
values, so the derived bytes carry exactly the randomness the cipher
produced and none that the quantizer invented; a degenerate keystream shows
up immediately as structure in the derived bytes.
"""

import math

import numpy as np
from scipy.special import gammaincc

from ..errors import ValidationError


def bits_from_bytes(data):
    """Unpack bytes into an array of 0/1, most significant bit first."""
    return np.unpackbits(np.frombuffer(bytes(data), dtype=np.uint8))


def element_bytes(elements):
    """Quantize a cipher-element stream to one byte per element.

    Ranks the distinct element values and spreads the ranks over [0, 256).
    With the full 256-value alphabet present this is a pure relabeling of
    the stream's symbols.
    """
    elements = list(elements)
    if not elements:
        return np.zeros(0, dtype=np.uint8)
    ordered = sorted(set(elements))
    k = len(ordered)
    rank = {v: (i * 256) // k for i, v in enumerate(ordered)}
    return np.array([rank[e] for e in elements], dtype=np.uint8)


def element_bits(elements):
    """Bit stream of the quantized elements, MSB first."""
    return np.unpackbits(element_bytes(elements))


def element_image(elements, shape):
    """Quantized elements reshaped to a 2-D byte grid (an image)."""
    arr = element_bytes(elements)
    rows, cols = shape
    if arr.size != rows * cols:
        raise ValidationError(
            f"{arr.size} elements cannot fill a {rows}x{cols} grid")
    return arr.reshape(rows, cols)


_OFFSETS = {"h": (0, 1), "v": (1, 0), "d": (1, 1)}


def adjacent_correlation(image, direction, pair_count=16384, seed=0):
    """Signed Pearson correlation of randomly sampled adjacent pixel pairs.

    direction is 'h', 'v' or 'd' (horizontal, vertical, diagonal). Pairs are
    sampled without replacement with a seeded generator so a given call is
    reproducible. Raises on images too small for the requested sample or
    with zero variance in the sample.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValidationError("image must be a 2-D array")
    try:
        di, dj = _OFFSETS[direction.lower()]
    except KeyError:
        raise ValidationError(f"unknown direction {direction!r}") from None
    rows, cols = img.shape[0] - di, img.shape[1] - dj
    if rows < 1 or cols < 1:
        raise ValidationError("image too small for adjacency sampling")
    available = rows * cols
    count = min(pair_count, available)
    rng = np.random.default_rng(seed)
    flat = rng.choice(available, size=count, replace=False)
    i, j = flat // cols, flat % cols
    x = img[i, j]
    y = img[i + di, j + dj]
    vx = x.var()
    vy = y.var()
    if vx == 0.0 or vy == 0.0:
        raise ValidationError("sampled pixels have zero variance")
    cov = ((x - x.mean()) * (y - y.mean())).mean()
    return float(cov / math.sqrt(vx * vy))


def histogram_chi_square(data):
    """Chi-square uniformity of a byte stream over 256 bins.

    Returns (chi2, p_value, counts); 255 degrees of freedom. Constant input
    gives p close to zero rather than an error.
    """
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    if arr.size == 0:
        raise ValidationError("empty byte stream")
    counts = np.bincount(arr, minlength=256).astype(float)
    expected = arr.size / 256.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    p = float(gammaincc(255 / 2.0, chi2 / 2.0))
    return chi2, p, counts.astype(int)
