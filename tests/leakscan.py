"""The needle scan for audited surfaces: which secrets occur in a byte
string, exactly, in one vectorized pass."""

import numpy as np

SEPARATOR = b"\n"


def leaked_needles(haystack, needles):
    """Which needles occur in haystack; equivalent to `n in haystack` for
    every n, but in one vectorized pass instead of hundreds over 100+ MB.

    No needle may hold the separator, so every occurrence lies inside one
    separator-delimited piece of the haystack, and scanning each distinct
    piece once finds exactly the same needles. Blob text repeats its lines
    (at most 256 distinct ones per key), so this shrinks a cloud of blobs
    many times over: criterion 9's 129 MB cloud has 3.3 MB of distinct
    pieces.

    Candidate positions come from matching each needle's first eight bytes
    against a sliding 64-bit window, then every candidate is verified
    byte-for-byte, so the result is exact (needles must be >= 8 bytes).
    """
    by_key = {}
    for needle in needles:
        assert len(needle) >= 8
        assert SEPARATOR not in needle
        by_key.setdefault(int.from_bytes(needle[:8], "big"),
                          []).append(needle)
    haystack = SEPARATOR.join(dict.fromkeys(haystack.split(SEPARATOR)))
    keys = np.fromiter(sorted(by_key), dtype=np.uint64, count=len(by_key))
    data = np.frombuffer(haystack, dtype=np.uint8)
    found = set()
    step = 1 << 25
    for start in range(0, len(data), step):
        chunk = data[start:start + step + 7].astype(np.uint64)
        if chunk.size < 8:
            break
        width = chunk.size - 7
        windows = np.zeros(width, dtype=np.uint64)
        for k in range(8):
            windows |= chunk[k:width + k] << np.uint64(8 * (7 - k))
        slot = np.searchsorted(keys, windows)
        slot[slot == keys.size] = 0
        for off in np.flatnonzero(keys[slot] == windows):
            pos = start + int(off)
            for needle in by_key[int(windows[off])]:
                if haystack[pos:pos + len(needle)] == needle:
                    found.add(needle)
    return found
