"""Output checks computed apart from the program under test.

Nothing here imports parvault. Each check recomputes what a correct
program must have produced (the cipher codebook with mpmath, the secret by
Lagrange interpolation, chi-square with scipy, the monobit p-value with
math.erfc) or tests a property the method must have, and returns a list
of problems; an empty list means the output passed.
"""

import math
import re
from collections import Counter
from decimal import Decimal

import mpmath
import numpy as np
from scipy import stats

BLOB_MAGIC = b"PVLT"
BLOB_HEADER_LEN = 30
PAD_BYTES = 16 + 8  # N1 prefix plus N2 suffix around every payload
NEEDLE_SUBSTRING_MIN = 12  # shorter needles are matched as whole numbers


# ---------------------------------------------------------------------------
# blobs and the cipher codebook
# ---------------------------------------------------------------------------

def read_blob(raw):
    """The header fields the checks use, and the element lines.

    Layout: magic(4) version(1) r_n(1) f_digits(2) fingerprint(8) n1(1)
    n2(1) epoch(4) count(8), then one decimal element per line.
    """
    if len(raw) < BLOB_HEADER_LEN or raw[:4] != BLOB_MAGIC:
        raise ValueError("missing blob magic")
    lines = raw[BLOB_HEADER_LEN:].split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    return {"r_n": raw[5], "f_digits": int.from_bytes(raw[6:8], "big"),
            "count": int.from_bytes(raw[22:30], "big"), "lines": lines}


def blob_problems(raw, plain_len, f_digits):
    """A stored blob must parse, hide the power and hold one element per
    padded byte."""
    try:
        blob = read_blob(raw)
    except ValueError as exc:
        return [str(exc)]
    out = []
    if blob["r_n"] != 0:
        out.append(f"blob header carries r_n={blob['r_n']}, not 0")
    if blob["f_digits"] != f_digits:
        out.append(f"blob has F={blob['f_digits']}, expected {f_digits}")
    want = plain_len + PAD_BYTES
    if blob["count"] != want or len(blob["lines"]) != want:
        out.append(f"blob holds {len(blob['lines'])} elements (header "
                   f"{blob['count']}), expected {want}")
    return out


def off_codebook(element_texts, pk_sk, r, f_digits):
    """Element texts that lie farther than 10**-F from every value
    f(x) = (pk_sk - x**(1/r))**r, x = 0..255, computed with mpmath.

    f is its own inverse, so the only codebook value an element v can be
    near is f(x) for x the integer nearest f(v); one pair of evaluations
    per distinct element replaces building all 256.
    """
    bad = []
    with mpmath.workdps(len(str(pk_sk ** r)) + f_digits + 20):
        k = mpmath.mpf(pk_sk)
        tol = mpmath.mpf(10) ** -f_digits

        def f(x):
            return (k - mpmath.root(x, r)) ** r

        for text in set(element_texts):
            v = mpmath.mpf(text.decode() if isinstance(text, bytes) else text)
            x = int(mpmath.nint(f(v))) if v >= 0 else -1
            if not 0 <= x <= 255 or abs(f(x) - v) > tol:
                bad.append(text)
    return bad


# ---------------------------------------------------------------------------
# secret sharing and key wrapping
# ---------------------------------------------------------------------------

def lagrange_at_zero(points, p):
    """F(0) mod p for the parabola through three (x, y) points."""
    total = 0
    for i, (xi, yi) in enumerate(points):
        num, den = 1, 1
        for j, (xj, _) in enumerate(points):
            if j != i:
                num = num * (-xj) % p
                den = den * (xi - xj) % p
        total = (total + yi * num * pow(den, -1, p)) % p
    return total


def unwrap_plain(c, d, n):
    """Textbook RSA decryption, the reference for the CRT path."""
    return pow(c, d, n)


# ---------------------------------------------------------------------------
# leak scan
# ---------------------------------------------------------------------------

def leaked(haystack, needles):
    """Needles (decimal digit strings) found in haystack.

    Needles of NEEDLE_SUBSTRING_MIN digits or more are searched as
    substrings, as the criterion-9 scan does. Shorter ones would turn up by
    chance inside the digit runs of the cipher elements, so they are
    matched as whole numbers only: a digit run that equals the needle.
    """
    longs = [n for n in needles if len(n) >= NEEDLE_SUBSTRING_MIN]
    shorts = [n for n in needles if len(n) < NEEDLE_SUBSTRING_MIN]
    found = _substring_hits(haystack, longs) if longs else set()
    if shorts:
        runs = set(re.findall(rb"\d+", haystack))
        found.update(n for n in shorts if n in runs)
    return found


_MIX = np.uint64(0x9E3779B97F4A7C15)


def _hash16(words):
    # multiplicative hash: the top 16 bits of word * odd constant mod 2**64
    return ((words * _MIX) >> np.uint64(48)).astype(np.intp)


def _substring_hits(haystack, needles):
    # an 8-byte window whose hash matches that of some needle's first eight
    # bytes is a candidate; candidates are then compared byte for byte
    by_prefix = {}
    for n in needles:
        by_prefix.setdefault(int.from_bytes(n[:8], "big"), []).append(n)
    table = np.zeros(1 << 16, dtype=bool)
    table[_hash16(np.array(list(by_prefix), dtype=np.uint64))] = True
    found = set()
    for off in range(8):
        count = (len(haystack) - off) // 8
        if count <= 0:
            continue
        win = np.frombuffer(haystack, dtype=">u8", count=count,
                            offset=off).astype(np.uint64)
        for i in np.flatnonzero(table[_hash16(win)]):
            pos = off + 8 * int(i)
            for n in by_prefix.get(int(win[i]), ()):
                if haystack[pos:pos + len(n)] == n:
                    found.add(n)
    return found


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def byte_counts(data):
    counts = Counter(data)
    return [counts.get(v, 0) for v in range(256)]


def chi_square(data):
    """(chi2, p) of byte uniformity over 256 bins, by scipy."""
    res = stats.chisquare(byte_counts(data))
    return float(res.statistic), float(res.pvalue)


def monobit_p(data):
    """erfc(|S_n| / sqrt(2n)) over the bits of data, MSB first."""
    ones = sum(bin(b).count("1") for b in data)
    n = 8 * len(data)
    return math.erfc(abs(2 * ones - n) / math.sqrt(2 * n))


def excursion_cycles(data):
    """Zero-to-zero cycles of the +/-1 walk over data's bits, the trailing
    partial cycle included (the J of the random excursion tests)."""
    bits = np.unpackbits(np.frombuffer(bytes(data), dtype=np.uint8))
    walk = np.cumsum(2 * bits.astype(np.int64) - 1)
    zeros = int(np.count_nonzero(walk == 0))
    return zeros + (0 if walk[-1] == 0 else 1)


def rank_bytes(element_texts):
    """Elements mapped to bytes by the rank of their value among the
    distinct values, spread over [0, 256)."""
    distinct = sorted(set(element_texts), key=lambda t: Decimal(t.decode()))
    k = len(distinct)
    rank = {t: (i * 256) // k for i, t in enumerate(distinct)}
    return bytes(rank[t] for t in element_texts)


EXCURSION_TESTS = ("random_excursions", "random_excursions_variant")
EXCURSION_MIN_CYCLES = 500
BATTERY = ("frequency", "block_frequency", "cumulative_sums", "runs",
           "longest_run", "rank", "dft", "non_overlapping", "overlapping",
           "universal", "approximate_entropy", "random_excursions",
           "random_excursions_variant", "linear_complexity", "serial_1",
           "serial_2")


def report_problems(report_text, data):
    """A battery report on data must list all sixteen tests, skip only the
    two excursion tests and only when the walk has under 500 cycles, and
    give the monobit p-value erfc(|S_n|/sqrt(2n)) to its six digits."""
    rows = {}
    for line in report_text.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] in BATTERY:
            rows[parts[0]] = line
    out = [f"report lacks {name}" for name in BATTERY if name not in rows]
    if out:
        return out
    few_cycles = excursion_cycles(data) < EXCURSION_MIN_CYCLES
    for name, line in rows.items():
        skipped = line.split()[1] == "SKIP"
        may_skip = name in EXCURSION_TESTS and few_cycles
        if skipped != may_skip:
            out.append(f"{name}: {'skipped' if skipped else 'ran'} but "
                       f"should have {'skipped' if may_skip else 'run'}")
    m = re.search(r"p=([0-9.]+)", rows["frequency"])
    want = monobit_p(data)
    if m is None or abs(float(m.group(1)) - want) > 6e-7:
        out.append(f"monobit p {m.group(1) if m else None} != {want:.6f}")
    return out


def hist_problems(stdout, csv_text, data):
    """`analyze hist` output against scipy over the benchmark's own byte
    counts: chi2 to two decimals, p to six, every histogram row exact."""
    chi2, p = chi_square(data)
    m = re.search(r"chi2 = ([0-9.]+)\s+p = ([0-9.]+)", stdout)
    out = []
    if m is None:
        return [f"no chi2/p in {stdout!r}"]
    if abs(float(m.group(1)) - chi2) > 0.006:
        out.append(f"chi2 {m.group(1)} != {chi2:.2f}")
    if abs(float(m.group(2)) - p) > 6e-7:
        out.append(f"p {m.group(2)} != {p:.6f}")
    rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
    if [int(c) for _, c in rows] != byte_counts(data):
        out.append("histogram.csv counts differ from the byte counts")
    return out


CORR_ORIGINAL_MIN = 0.9
# 16384 sampled pairs of independent uniform bytes give a coefficient with
# standard deviation 1/128; 0.06 is more than seven of them
CORR_ENCRYPTED_MAX = 0.06


def corr_problems(stdout):
    rows = re.findall(r"([hvd]): original ([-+][0-9.]+)\s+encrypted "
                      r"([-+][0-9.]+)", stdout)
    if len(rows) != 3:
        return [f"expected three correlation rows in {stdout!r}"]
    out = []
    for d, orig, enc in rows:
        if float(orig) <= CORR_ORIGINAL_MIN:
            out.append(f"{d}: original correlation {orig} <= 0.9")
        if abs(float(enc)) >= CORR_ENCRYPTED_MAX:
            out.append(f"{d}: encrypted correlation {enc} outside +/-0.06")
    return out
