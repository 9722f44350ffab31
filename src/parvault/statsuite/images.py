"""Synthetic grayscale benchmark images and PGM (P5) file handling.

The evaluation pipeline measures how encryption destroys the neighbor
correlation natural photographs have. Real photographs are inputs we do
not ship, so this module builds stand-ins with the property that matters:
smoothed random fields whose adjacent-pixel correlation sits above 0.99
in all three directions, comfortably inside the >0.9 band the analysis
asserts for originals. Every image is a pure function of (kind, size,
seed).
"""

import numpy as np
from scipy.ndimage import gaussian_filter

from ..digests import digest64_text
from ..errors import ParvaultError, ValidationError

IMAGE_KINDS = ("terrain", "clouds", "ramp")


class PgmFormatError(ParvaultError):
    """Not a binary PGM, or the header disagrees with the payload."""


def _field(rng, size, sigma):
    noise = rng.standard_normal((size, size))
    return gaussian_filter(noise, sigma=sigma, mode="reflect")


def synthetic_image(kind="terrain", size=256, seed=0):
    """A deterministic smoothed-field image, uint8, full 0..255 range."""
    if kind not in IMAGE_KINDS:
        raise ValidationError(f"unknown image kind {kind!r}; "
                              f"choose from {IMAGE_KINDS}")
    if size < 16:
        raise ValidationError("size must be at least 16")
    rng = np.random.default_rng(digest64_text(f"{kind}/{size}/{seed}"))
    if kind == "terrain":
        f = _field(rng, size, sigma=size / 32)
    elif kind == "clouds":
        f = _field(rng, size, sigma=size / 16) \
            + 0.25 * _field(rng, size, sigma=size / 64)
    else:  # ramp: a smooth field over a diagonal trend
        yy, xx = np.mgrid[0:size, 0:size]
        trend = (xx + yy) / (2.0 * (size - 1))
        f = _field(rng, size, sigma=size / 24)
        f = f / max(f.std(), 1e-12) + 2.0 * (trend - 0.5)
    lo, hi = float(f.min()), float(f.max())
    if hi <= lo:
        raise ValidationError("degenerate field; widen sigma or size")
    scaled = (f - lo) * (255.0 / (hi - lo))
    return np.rint(scaled).astype(np.uint8)


# ---------------------------------------------------------------------------
# binary PGM
# ---------------------------------------------------------------------------

def save_pgm(path, image):
    """Write a 2-D uint8 array as binary PGM (P5, maxval 255)."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ValidationError("image must be 2-D")
    arr = arr.astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def _header_tokens(raw):
    # magic, width, height, maxval; '#' comments run to end of line
    pos, tokens = 0, []
    while len(tokens) < 4:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if pos == start:
            raise PgmFormatError("truncated PGM header")
        tokens.append(raw[start:pos])
    return tokens, pos + 1  # payload starts after one whitespace byte


def load_pgm(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    tokens, offset = _header_tokens(raw)
    if tokens[0] != b"P5":
        raise PgmFormatError(f"expected P5 magic, got {tokens[0]!r}")
    try:
        w, h, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise PgmFormatError("non-numeric PGM header field") from exc
    if not (0 < maxval <= 255):
        raise PgmFormatError(f"unsupported maxval {maxval}")
    if w < 1 or h < 1:
        raise PgmFormatError(f"PGM size {w}x{h} is not positive")
    body = raw[offset:offset + w * h]
    if len(body) != w * h:
        raise PgmFormatError(f"payload holds {len(body)} bytes, "
                             f"header promises {w * h}")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w).copy()
