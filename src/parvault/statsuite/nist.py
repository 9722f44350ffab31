"""SP800-22-style randomness battery over 0/1 bit arrays.

Sixteen tests: frequency, block frequency (M=128), cumulative sums (forward
and reverse as one entry), runs, longest run of ones, 32x32 binary matrix
rank, spectral (DFT), non-overlapping template matching (9-bit template),
overlapping template of all ones (9-bit), Maurer's universal statistic,
approximate entropy (10-bit), random excursions, random excursions variant,
linear complexity (500-bit blocks), and the two serial statistics (16-bit).

Inputs are bool or integer arrays of zeros and ones; anything else is a
ValidationError. Every test returns a TestResult carrying the test name,
the p-value (a list where the test produces several), and the verdict at
the requested significance level.
nist_battery runs whichever tests the sequence is long enough for and marks
the rest skipped; below 100 bits nothing is meaningful and the battery
refuses to run.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc, gammaincc, gammaln, ndtr

from ..errors import ParvaultError, ValidationError

ALPHA_DEFAULT = 0.01
HARD_FLOOR = 100


class SequenceTooShortError(ParvaultError):
    """Fewer than 100 bits; no test in the battery is meaningful."""


@dataclass
class TestResult:
    name: str
    p_value: object  # float, or list of floats for multi-statistic tests
    passed: object  # bool, or None when skipped
    status: str = "ok"  # "ok" or "skipped"
    note: str = ""
    stats: dict = field(default_factory=dict)


def _as_bits(bits, empty_ok=False):
    """Bits as a flat uint8 0/1 array; bool and integer 0/1 input only,
    and at least one bit unless empty_ok."""
    arr = np.asarray(bits).ravel()
    if arr.dtype != np.bool_ and arr.dtype.kind not in "iu":
        raise ValidationError(
            f"bit array must be bool or integer, got dtype {arr.dtype}")
    if not (arr.size or empty_ok):
        raise ValidationError("bit array is empty")
    if arr.dtype == np.bool_:
        return arr.view(np.uint8)
    if arr.size and (arr.min() < 0 or arr.max() > 1):
        raise ValidationError("bit array must contain only 0 and 1")
    return arr.astype(np.uint8, copy=False)


def _result(name, p, alpha, **stats):
    if isinstance(p, (list, tuple)):
        ok = all(v > alpha for v in p)
        p = [float(v) for v in p]
    else:
        ok = p > alpha
        p = float(p)
    return TestResult(name=name, p_value=p, passed=bool(ok), stats=stats)


def _skip(name, why):
    return TestResult(name=name, p_value=None, passed=None, status="skipped",
                      note=why)


# a window starting at any bit of a byte ends within that byte's 32-bit word
WINDOW_BITS = 25


def _pattern_values(bits, m_len, wrap):
    """The m_len-bit value of every window of bits, its first bit highest.

    wrap=True gives n windows over the sequence wrapped around, wrap=False
    the n - m_len + 1 windows inside it; m_len runs from 1 to WINDOW_BITS.
    The bits are packed big-endian and byte q with the three bytes after it
    read as one 32-bit word, which holds all eight windows that start in
    byte q: the window at bit r of the byte is that word shifted right by
    32 - m_len - r.
    """
    n = bits.size
    if wrap:
        bits = np.concatenate((bits, bits[: m_len - 1]))
        count = n
    else:
        count = n - m_len + 1
    packed = np.packbits(bits)
    buf = np.zeros(packed.size + 3, dtype=np.uint8)
    buf[: packed.size] = packed
    words = np.ndarray((packed.size,), dtype=">u4", buffer=buf,
                       strides=(1,)).astype(np.uint32)
    shifts = np.arange(32 - m_len, 24 - m_len, -1, dtype=np.uint32)
    mask = np.uint32((1 << m_len) - 1)
    return ((words[:, None] >> shifts) & mask).ravel()[:count]


# ---------------------------------------------------------------------------
# 1. frequency
# ---------------------------------------------------------------------------

def frequency_test(bits, alpha=ALPHA_DEFAULT):
    """Monobit test: S_n = sum of +/-1 symbols, p = erfc(|S_n|/sqrt(2n))."""
    bits = _as_bits(bits)
    n = bits.size
    s_n = 2 * int(bits.sum()) - n
    s_obs = abs(s_n) / math.sqrt(n)
    p = erfc(s_obs / math.sqrt(2))
    return _result("frequency", p, alpha, s_n=s_n)


# ---------------------------------------------------------------------------
# 2. block frequency
# ---------------------------------------------------------------------------

def block_frequency_test(bits, block_size=128, alpha=ALPHA_DEFAULT):
    bits = _as_bits(bits)
    n = bits.size
    if block_size < 1:
        raise ValidationError(
            f"block size must be positive, got {block_size}")
    n_blocks = n // block_size
    if n_blocks < 1:
        raise ValidationError("sequence shorter than one block")
    pi = bits[: n_blocks * block_size].reshape(n_blocks, block_size).mean(axis=1)
    chi2 = 4.0 * block_size * float(np.sum((pi - 0.5) ** 2))
    p = gammaincc(n_blocks / 2.0, chi2 / 2.0)
    return _result("block_frequency", p, alpha, chi2=chi2, blocks=n_blocks)


# ---------------------------------------------------------------------------
# 3. cumulative sums
# ---------------------------------------------------------------------------

def _walk(bits):
    """Partial sums S_1..S_n of the +/-1 symbols.

    Fewer than 2^31 symbols cannot carry a sum out of int32, whose cumsum
    runs more than twice as fast as int64's.
    """
    dtype = np.int32 if bits.size < 2**31 else np.int64
    return np.cumsum(bits.view(np.int8) * 2 - 1, dtype=dtype)


def _cusum_p(z, n):
    # two Phi sums over a k-range that shrinks as z grows; floor'd bounds
    sqn = math.sqrt(n)
    total = 1.0
    lo = int(math.floor((-n / z + 1) / 4))
    hi = int(math.floor((n / z - 1) / 4))
    for k in range(lo, hi + 1):
        total -= ndtr((4 * k + 1) * z / sqn) - ndtr((4 * k - 1) * z / sqn)
    lo = int(math.floor((-n / z - 3) / 4))
    for k in range(lo, hi + 1):
        total += ndtr((4 * k + 3) * z / sqn) - ndtr((4 * k + 1) * z / sqn)
    return total


def cumulative_sums_test(bits, alpha=ALPHA_DEFAULT):
    """Max excursion of the partial-sum walk, scanned forward and reverse.

    The reverse walk's partial sums are S_n - S_j for j = n-1 down to 0, so
    both maxima come from the forward sums S_1..S_n and S_0 = 0.
    """
    bits = _as_bits(bits)
    n = bits.size
    s = _walk(bits)
    total = int(s[-1])
    prefix = s[:-1]
    zs = (max(int(s.max()), -int(s.min())),
          max(total - int(prefix.min(initial=0)),
              int(prefix.max(initial=0)) - total))
    ps = [_cusum_p(z, n) if z else 0.0 for z in zs]
    return _result("cumulative_sums", ps, alpha)


# ---------------------------------------------------------------------------
# 4. runs
# ---------------------------------------------------------------------------

def runs_test(bits, alpha=ALPHA_DEFAULT):
    bits = _as_bits(bits)
    n = bits.size
    pi = float(bits.mean())
    # frequency precondition; a hopeless bias short-circuits to p = 0, as
    # does a constant sequence under 16 bits, which the bound lets through
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n) or pi in (0.0, 1.0):
        return _result("runs", 0.0, alpha, pi=pi, precheck=False)
    v_obs = 1 + int(np.count_nonzero(np.diff(bits)))
    num = abs(v_obs - 2.0 * n * pi * (1 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1 - pi)
    p = erfc(num / den)
    return _result("runs", p, alpha, v_obs=v_obs, pi=pi)


# ---------------------------------------------------------------------------
# 5. longest run of ones
# ---------------------------------------------------------------------------

_LONGEST_RUN_TABLES = (
    # (min n, M, class edges, class probabilities)
    (750000, 10000, (10, 11, 12, 13, 14, 15, 16),
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6272, 128, (4, 5, 6, 7, 8, 9),
     (0.1174035788, 0.242955959, 0.249363483,
      0.17517706, 0.102701071, 0.112398847)),
    (128, 8, (1, 2, 3, 4),
     (0.21484375, 0.3671875, 0.23046875, 0.1875)),
)


def _clipped_longest_runs(rows, lo, hi):
    """Longest run of ones in each row of a 0/1 array, clipped to lo..hi.

    Round k ANDs each position with the bit k - 1 after it, so a position
    stays set while a run of k ones starts there; a false column after each
    row keeps runs from joining across rows. A row's clipped longest run is
    lo plus the rounds past lo in which it still holds a set position.
    """
    n_rows, m_len = rows.shape
    runs = np.zeros((n_rows, m_len + 1), dtype=bool)
    runs[:, :m_len] = rows
    flat = runs.ravel()
    ones = flat.copy()
    longest = np.full(n_rows, lo, dtype=np.int64)
    for k in range(2, hi + 1):
        flat[: flat.size - k + 1] &= ones[k - 1:]
        if k > lo:
            longest += runs.any(axis=1)
    return longest


def longest_run_test(bits, alpha=ALPHA_DEFAULT):
    bits = _as_bits(bits)
    n = bits.size
    if n < 128:
        raise ValidationError("longest-run test needs at least 128 bits")
    for floor, m_len, edges, probs in _LONGEST_RUN_TABLES:
        if n >= floor:
            break
    n_blocks = n // m_len
    lo, hi = edges[0], edges[-1]
    clipped = _clipped_longest_runs(
        bits[: n_blocks * m_len].reshape(n_blocks, m_len), lo, hi)
    nu = np.bincount(clipped - lo, minlength=hi - lo + 1).astype(float)
    expect = n_blocks * np.asarray(probs)
    chi2 = float(np.sum((nu - expect) ** 2 / expect))
    p = gammaincc((len(probs) - 1) / 2.0, chi2 / 2.0)
    return _result("longest_run", p, alpha, chi2=chi2, block=m_len)


# ---------------------------------------------------------------------------
# 6. binary matrix rank
# ---------------------------------------------------------------------------

def _gf2_ranks(rows):
    """GF(2) rank of every 32-column matrix at once.

    rows is an (n_mat, n_rows) uint32 array, bit j of a row being column j.
    Gauss-Jordan elimination runs column by column over all matrices
    together: each matrix takes its first row at or below its current rank
    that holds the bit as pivot, swaps it up and clears the bit from every
    other row.
    """
    rows = rows.copy()
    n_mat, n_rows = rows.shape
    rank = np.zeros(n_mat, dtype=np.int64)
    row_no = np.arange(n_rows)
    for col in map(np.uint32, range(32)):
        eligible = ((rows >> col) & 1).astype(bool) & (row_no >= rank[:, None])
        mats = np.flatnonzero(eligible.any(axis=1))
        if mats.size == 0:
            continue
        top = rank[mats]
        pivot = eligible[mats].argmax(axis=1)
        sub = rows[mats]
        at = np.arange(mats.size)
        pivot_row = sub[at, pivot]
        sub[at, pivot] = sub[at, top]
        sub[at, top] = pivot_row
        clear = ((sub >> col) & 1).astype(bool)
        clear[at, top] = False
        sub ^= np.where(clear, pivot_row[:, None], np.uint32(0))
        rows[mats] = sub
        rank[mats] += 1
    return rank


def _rank_probabilities(m=32):
    # exact class probabilities for full rank, m-1, and the rest
    def p_of(r):
        log2p = float(r * (2 * m - r) - m * m)
        prod = 1.0
        for i in range(r):
            prod *= (1 - 2.0 ** (i - m)) ** 2 / (1 - 2.0 ** (i - r))
        return 2.0 ** log2p * prod

    p_full = p_of(m)
    p_minus1 = p_of(m - 1)
    return p_full, p_minus1, 1.0 - p_full - p_minus1


def rank_test(bits, alpha=ALPHA_DEFAULT):
    bits = _as_bits(bits)
    n = bits.size
    n_mat = n // 1024
    if n_mat < 1:
        raise ValidationError("rank test needs at least one 32x32 matrix")
    block = bits[: n_mat * 1024].reshape(n_mat, 32, 32)
    # each row becomes a 32-bit mask, bit j holding column j
    packed = np.packbits(block, axis=-1, bitorder="little").view("<u4")
    ranks = _gf2_ranks(packed[:, :, 0])
    full = int(np.count_nonzero(ranks == 32))
    minus1 = int(np.count_nonzero(ranks == 31))
    rest = n_mat - full - minus1
    probs = _rank_probabilities()
    obs = np.array([full, minus1, rest], dtype=float)
    expect = n_mat * np.asarray(probs)
    chi2 = float(np.sum((obs - expect) ** 2 / expect))
    p = math.exp(-chi2 / 2.0)
    return _result("rank", p, alpha, chi2=chi2, full=full, minus1=minus1)


# ---------------------------------------------------------------------------
# 7. spectral (DFT)
# ---------------------------------------------------------------------------

def _largest_prime_factor(n):
    largest, f = 1, 2
    while f * f <= n:
        while n % f == 0:
            largest, n = f, n // f
        f += 1
    return max(largest, n)


# the twiddle of row k1 = a + _TWIDDLE_ROWS * b is the product of row a of
# one small table and row b of another, which costs far fewer complex
# exponentials than the n / 2 of a whole table
_TWIDDLE_ROWS = 128


def _dft_magnitudes(x):
    """|X[k]| for k < n // 2, where X is the DFT of the real array x.

    pocketfft factors a length directly when its largest prime factor p has
    p * p <= n; otherwise it runs Bluestein's algorithm over buffers of about
    2n points. Such a length is split four-step (Cooley and Tukey 1965;
    Bailey 1990) as n = p * q, x[n1 * q + n2] read as row n1, column n2:
    p-point transforms down the columns, a twiddle W_n^(k1 * n2), q-point
    transforms along the rows. Then Z[k1, k2] = X[k1 + p * k2]. The columns
    are real, so only rows k1 <= p // 2 are computed; the rest follow from
    |X[k]| = |X[n - k]|, that is |Z[p - k1, q - 1 - k2]|.
    """
    n = x.size
    p = _largest_prime_factor(n)
    q = n // p
    if p * p <= n or q == 1:
        return np.abs(np.fft.rfft(x))[: n // 2]
    z = np.fft.rfft(x.reshape(p, q), axis=0)
    half = z.shape[0]
    # k1 * n2 < p * q = n, so no exponent needs reducing mod n
    n2 = np.arange(q)

    def twiddles(k1):
        return np.exp(-2j * math.pi / n * np.outer(k1, n2))

    low = twiddles(np.arange(_TWIDDLE_ROWS))
    for b, high in enumerate(twiddles(np.arange(0, half, _TWIDDLE_ROWS))):
        rows = z[b * _TWIDDLE_ROWS: (b + 1) * _TWIDDLE_ROWS]
        rows *= low[: rows.shape[0]] * high
    mags = np.abs(np.fft.fft(z, axis=1))
    full = np.empty((q, p))
    full[:, :half] = mags.T
    full[:, half:] = mags[half - 1: 0: -1, ::-1].T
    return full.ravel()[: n // 2]


def dft_test(bits, alpha=ALPHA_DEFAULT):
    bits = _as_bits(bits)
    n = bits.size
    mags = _dft_magnitudes(2.0 * bits - 1.0)
    threshold = math.sqrt(math.log(1 / 0.05) * n)
    n0 = 0.95 * n / 2.0
    n1 = int(np.count_nonzero(mags < threshold))
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    p = erfc(abs(d) / math.sqrt(2))
    return _result("dft", p, alpha, peaks_below=n1, threshold=threshold)


# ---------------------------------------------------------------------------
# 8. non-overlapping template matching
# ---------------------------------------------------------------------------

DEFAULT_TEMPLATE = "000000001"


def non_overlapping_test(bits, template=DEFAULT_TEMPLATE, n_blocks=8,
                         alpha=ALPHA_DEFAULT):
    """Count non-overlapping hits of one template per block.

    The scanner restarts one past a hit's final bit, so hits never share
    bits; the statistic compares per-block counts with the theoretical mean
    (M-m+1)/2^m and variance M(2^-m - (2m-1)2^-2m).
    """
    bits = _as_bits(bits)
    if not template or set(template) - {"0", "1"}:
        raise ValidationError(
            f"template must be a 0/1 string, got {template!r}")
    m_len = len(template)
    if m_len > WINDOW_BITS:
        raise ValidationError(f"template must be at most {WINDOW_BITS} bits, "
                              f"got {m_len}")
    if n_blocks < 1:
        raise ValidationError(f"block count must be positive, got {n_blocks}")
    n = bits.size
    block_len = n // n_blocks
    if block_len <= m_len + 1:
        raise ValidationError("blocks too short for the template")
    vals = _pattern_values(bits[: n_blocks * block_len], m_len, wrap=False)
    hits = np.flatnonzero(vals == int(template, 2))
    # windows that run past their block's end are not the block's
    hits = hits[hits % block_len <= block_len - m_len]
    # greedy non-overlapping count: a kept hit ends inside its own block, so
    # one cursor serves every block
    kept, cursor = [], -1
    for pos in hits.tolist():
        if pos > cursor:
            kept.append(pos)
            cursor = pos + m_len - 1
    counts = np.bincount(np.array(kept, dtype=np.int64) // block_len,
                         minlength=n_blocks).tolist()
    mu = (block_len - m_len + 1) / 2.0 ** m_len
    var = block_len * (2.0 ** -m_len - (2 * m_len - 1) * 2.0 ** (-2 * m_len))
    chi2 = float(sum((c - mu) ** 2 for c in counts) / var)
    p = gammaincc(n_blocks / 2.0, chi2 / 2.0)
    return _result("non_overlapping", p, alpha, chi2=chi2, counts=counts,
                   template=template)


# ---------------------------------------------------------------------------
# 9. overlapping template of all ones
# ---------------------------------------------------------------------------

def _overlap_pi(k_classes, eta, m_len):
    pis = [math.exp(-eta)]
    for ell in range(1, k_classes):
        total = 0.0
        for j in range(1, ell + 1):
            total += math.exp(-eta - ell * math.log(2) + j * math.log(eta)
                              - gammaln(j + 1) + gammaln(ell)
                              - gammaln(j) - gammaln(ell - j + 1))
        pis.append(total)
    pis.append(1.0 - sum(pis))
    return pis


def _all_ones_windows(rows, m_len):
    """Per row of a 0/1 array, the overlapping m_len-bit windows of ones."""
    n_rows, row_len = rows.shape
    # ones before each position of a row; a window of ones holds m_len
    ones = np.zeros((n_rows, row_len + 1), dtype=np.int32)
    np.cumsum(rows, axis=1, out=ones[:, 1:])
    return np.count_nonzero(ones[:, m_len:] - ones[:, :-m_len] == m_len,
                            axis=1)


def overlapping_test(bits, template_len=9, block_len=1032, k_classes=5,
                     alpha=ALPHA_DEFAULT):
    bits = _as_bits(bits)
    n = bits.size
    if block_len < 1:
        raise ValidationError(
            f"block length must be positive, got {block_len}")
    if not 1 <= template_len <= block_len:
        raise ValidationError(f"template length must be 1..{block_len}, "
                              f"got {template_len}")
    n_blocks = n // block_len
    if n_blocks < 1:
        raise ValidationError("sequence shorter than one block")
    per_block = _all_ones_windows(
        bits[: n_blocks * block_len].reshape(n_blocks, block_len),
        template_len)
    nu = np.bincount(np.clip(per_block, 0, k_classes),
                     minlength=k_classes + 1).astype(float)
    lam = (block_len - template_len + 1) / 2.0 ** template_len
    pis = np.asarray(_overlap_pi(k_classes, lam / 2.0, template_len))
    expect = n_blocks * pis
    chi2 = float(np.sum((nu - expect) ** 2 / expect))
    p = gammaincc(k_classes / 2.0, chi2 / 2.0)
    return _result("overlapping", p, alpha, chi2=chi2, nu=nu.tolist())


# ---------------------------------------------------------------------------
# 10. universal statistic
# ---------------------------------------------------------------------------

_UNIVERSAL_THRESHOLDS = (
    (1059061760, 16), (496435200, 15), (231669760, 14), (107560960, 13),
    (49643520, 12), (22753280, 11), (10342400, 10), (4654080, 9),
    (2068480, 8), (904960, 7), (387840, 6),
)
_UNIVERSAL_EXPECTED = {
    6: 5.2177052, 7: 6.1962507, 8: 7.1836656, 9: 8.1764248, 10: 9.1723243,
    11: 10.170032, 12: 11.168765, 13: 12.168070, 14: 13.167693,
    15: 14.167488, 16: 15.167379,
}
_UNIVERSAL_VARIANCE = {
    6: 2.954, 7: 3.125, 8: 3.238, 9: 3.311, 10: 3.356, 11: 3.384,
    12: 3.401, 13: 3.410, 14: 3.416, 15: 3.419, 16: 3.421,
}


def universal_test(bits, block_len=None, init_blocks=None,
                   alpha=ALPHA_DEFAULT):
    bits = _as_bits(bits)
    n = bits.size
    if block_len is None:
        for floor, candidate in _UNIVERSAL_THRESHOLDS:
            if n >= floor:
                block_len = candidate
                break
        else:
            raise ValidationError("universal test needs at least 387840 bits")
    L = block_len
    if L not in _UNIVERSAL_EXPECTED:
        raise ValidationError(f"universal block length must be 6..16, got {L}")
    Q = init_blocks if init_blocks is not None else 10 * (1 << L)
    if Q < 0:
        raise ValidationError(f"initialization blocks must be >= 0, got {Q}")
    total = n // L
    K = total - Q
    if K <= 0:
        raise ValidationError("not enough blocks after initialization")
    # 16-bit block values, which a stable argsort radix-sorts
    vals = np.zeros(total, dtype=np.uint16)
    trimmed = bits[: total * L].reshape(total, L)
    for j in range(L):
        vals = (vals << 1) | trimmed[:, j]
    # the stable sort puts each block right after the previous block with
    # the same value; a first occurrence counts from block -1
    order = np.argsort(vals, kind="stable")
    repeat = vals[order[1:]] == vals[order[:-1]]
    prev = np.full(total, -1, dtype=np.int64)
    prev[order[1:][repeat]] = order[:-1][repeat]
    gaps = np.arange(Q, total) - prev[Q:]
    # math.log once per distinct gap; np.log may differ in the last bit
    seen = np.flatnonzero(np.bincount(gaps))
    log2 = math.log(2)
    logs = np.zeros(seen[-1] + 1)
    logs[seen] = [math.log(g) / log2 for g in seen.tolist()]
    # accumulate adds left to right, as a running float sum does; np.sum
    # adds pairwise
    f_n = float(np.add.accumulate(logs[gaps])[-1]) / K
    expected = _UNIVERSAL_EXPECTED[L]
    var = _UNIVERSAL_VARIANCE[L]
    c = 0.7 - 0.8 / L + (4 + 32.0 / L) * K ** (-3.0 / L) / 15.0
    sigma = c * math.sqrt(var / K)
    p = erfc(abs(f_n - expected) / (math.sqrt(2) * sigma))
    return _result("universal", p, alpha, f_n=f_n, L=L, K=K)


# ---------------------------------------------------------------------------
# 11. approximate entropy
# ---------------------------------------------------------------------------

def _pattern_counts(bits, m_len):
    """Count of each overlapping m_len-bit pattern, the sequence wrapped
    around so that n bits give n patterns."""
    return np.bincount(_pattern_values(bits, m_len, wrap=True),
                       minlength=1 << m_len).astype(float)


def _fold(counts):
    """(m-1)-bit wrapped pattern counts from the m-bit ones: the first m-1
    bits of pattern v are v >> 1, so each adjacent pair sums into one."""
    return counts.reshape(-1, 2).sum(axis=1)


def _phi(counts, n):
    probs = counts[counts > 0] / n
    return float(np.sum(probs * np.log(probs)))


def approximate_entropy_test(bits, pattern_len=10, alpha=ALPHA_DEFAULT):
    bits = _as_bits(bits)
    n = bits.size
    if not 0 <= pattern_len < WINDOW_BITS:
        raise ValidationError(f"pattern length must be 0..{WINDOW_BITS - 1}, "
                              f"got {pattern_len}")
    longer = _pattern_counts(bits, pattern_len + 1)
    apen = _phi(_fold(longer), n) - _phi(longer, n)
    chi2 = 2.0 * n * (math.log(2) - apen)
    p = gammaincc(2 ** (pattern_len - 1), chi2 / 2.0)
    return _result("approximate_entropy", p, alpha, apen=apen, chi2=chi2)


# ---------------------------------------------------------------------------
# 12/13. random excursions (and variant)
# ---------------------------------------------------------------------------

def _excursion_visits(bits, top):
    """The zero-cycles of the partial-sum walk and their state visits.

    Returns (J, visits), visits[c, x + top] being the steps of cycle c at
    state x for |x| <= top. Each return to zero closes a cycle, and a walk
    that does not end on zero closes its last one through a virtual final
    zero; so a step's cycle is the number of returns to zero before it.
    """
    walk = _walk(bits)
    near = np.flatnonzero((walk >= -top) & (walk <= top))
    states = walk[near] + top
    zeros = near[states == top]
    open_tail = zeros.size == 0 or zeros[-1] != walk.size - 1
    j_cycles = zeros.size + int(open_tail)
    width = 2 * top + 1
    cycle = np.searchsorted(zeros, near)
    visits = np.bincount(cycle * width + states, minlength=j_cycles * width)
    return j_cycles, visits.reshape(j_cycles, width)


def _excursion_pi(x):
    ax = abs(x)
    base = 1 - 1.0 / (2 * ax)
    pis = [base]
    for k in range(1, 5):
        pis.append(base ** (k - 1) / (4.0 * ax * ax))
    pis.append(base ** 4 / (2.0 * ax))
    return pis


_EXCURSION_STATES = (-4, -3, -2, -1, 1, 2, 3, 4)
_VARIANT_STATES = tuple(x for x in range(-9, 10) if x != 0)


def random_excursions_test(bits, alpha=ALPHA_DEFAULT):
    """Per-state chi-square over visit multiplicities within zero-cycles."""
    bits = _as_bits(bits)
    n = bits.size
    top = _EXCURSION_STATES[-1]
    j_cycles, visits = _excursion_visits(bits, top)
    floor = max(500, int(0.005 * math.sqrt(n)))
    if j_cycles < floor:
        return _skip("random_excursions",
                     f"only {j_cycles} cycles, needs {floor}")
    ps = []
    for x in _EXCURSION_STATES:
        nu = np.bincount(np.clip(visits[:, x + top], 0, 5),
                         minlength=6).astype(float)
        expect = j_cycles * np.asarray(_excursion_pi(x))
        chi2 = float(np.sum((nu - expect) ** 2 / expect))
        ps.append(gammaincc(5 / 2.0, chi2 / 2.0))
    res = _result("random_excursions", ps, alpha)
    res.stats["cycles"] = j_cycles
    return res


def random_excursions_variant_test(bits, alpha=ALPHA_DEFAULT):
    bits = _as_bits(bits)
    n = bits.size
    top = _VARIANT_STATES[-1]
    j_cycles, visits = _excursion_visits(bits, top)
    floor = max(500, int(0.005 * math.sqrt(n)))
    if j_cycles < floor:
        return _skip("random_excursions_variant",
                     f"only {j_cycles} cycles, needs {floor}")
    totals = visits.sum(axis=0)
    ps = []
    for x in _VARIANT_STATES:
        xi = int(totals[x + top])
        denom = math.sqrt(2.0 * j_cycles * (4 * abs(x) - 2))
        ps.append(erfc(abs(xi - j_cycles) / denom))
    res = _result("random_excursions_variant", ps, alpha)
    res.stats["cycles"] = j_cycles
    return res


# ---------------------------------------------------------------------------
# 14. linear complexity
# ---------------------------------------------------------------------------

# first entry is truncated, not rounded; reference results depend on it
_LC_PI = (0.01047, 0.03125, 0.125, 0.5, 0.25, 0.0625, 0.020833)


def _linear_complexities(blocks):
    """Shortest LFSR length of every row of an (n_blocks, M) 0/1 array.

    Berlekamp-Massey, bit-sliced: bit k of word g in every array below
    belongs to block 64g + k, so one uint64 operation advances 64 blocks.
    C[j] holds the connection polynomial's coefficient c_j. B is kept already
    multiplied by x^(i - m), m being the lane's last length change, so the
    shift is the same in every lane: B is a window that slides one row down
    a zeroed buffer per step. Each lane's length L is a plain int.
    """
    n_blocks, m_len = blocks.shape
    n_words = -(-n_blocks // 64)
    # seq[t, g]: bit t of the 64 blocks of word g, lanes past the last block
    # zero; rev is seq upside down, so rev[M - i:] lists bits i-1 down to 0
    packed = np.zeros((n_words * 8, m_len), dtype=np.uint8)
    packed[: -(-n_blocks // 8)] = np.packbits(blocks, axis=0,
                                              bitorder="little")
    seq = packed.reshape(n_words, 8, m_len).transpose(2, 0, 1)
    seq = np.ascontiguousarray(seq).view("<u8")[:, :, 0]
    rev = seq[::-1].copy()
    c = np.zeros((m_len + 1, n_words), dtype=np.uint64)
    c[0] = ~np.uint64(0)
    b_buf = np.zeros((2 * m_len + 2, n_words), dtype=np.uint64)
    b_at = m_len + 1
    b_buf[b_at] = c[0]
    lengths = np.zeros(n_words * 64, dtype=np.int64)
    scratch = np.empty((m_len, n_words), dtype=np.uint64)
    for i in range(m_len):
        b_at -= 1  # B <- x * B
        d = seq[i] ^ np.bitwise_xor.reduce(
            np.bitwise_and(c[1:i + 1], rev[m_len - i:], out=scratch[:i]),
            axis=0)
        # degrees stay at most i + 1, so rows past i + 1 are zero
        top = min(i + 2, m_len + 1)
        b = b_buf[b_at:b_at + top]
        flip = np.unpackbits(d.view(np.uint8), bitorder="little").astype(bool)
        grow = flip & (2 * lengths <= i)
        lengths[grow] = i + 1 - lengths[grow]
        swap = (b ^ c[:top]) & np.packbits(grow, bitorder="little").view("<u8")
        c[:top] ^= b & d
        b ^= swap  # B <- old C where the length grew
    return lengths[:n_blocks]


def linear_complexity_test(bits, block_len=500, alpha=ALPHA_DEFAULT):
    bits = _as_bits(bits)
    n = bits.size
    if block_len < 1:
        raise ValidationError(
            f"block length must be positive, got {block_len}")
    n_blocks = n // block_len
    if n_blocks < 1:
        raise ValidationError("sequence shorter than one block")
    m_len = block_len
    mu = (m_len / 2.0 + (9 + (-1) ** (m_len + 1)) / 36.0
          - (m_len / 3.0 + 2.0 / 9.0) / 2.0 ** m_len)
    sign = (-1) ** m_len
    data = bits[: n_blocks * block_len].reshape(n_blocks, block_len)
    t = sign * (_linear_complexities(data) - mu) + 2.0 / 9.0
    # class k holds edge[k-1] < t <= edge[k]
    classes = np.searchsorted((-2.5, -1.5, -0.5, 0.5, 1.5, 2.5), t)
    nu = np.bincount(classes, minlength=7).astype(float)
    expect = n_blocks * np.asarray(_LC_PI)
    chi2 = float(np.sum((nu - expect) ** 2 / expect))
    p = gammaincc(3.0, chi2 / 2.0)
    return _result("linear_complexity", p, alpha, chi2=chi2)


# ---------------------------------------------------------------------------
# 15/16. serial
# ---------------------------------------------------------------------------

def _psi_squared(counts, m_len, n):
    if m_len == 0:
        return 0.0
    return float(2.0 ** m_len / n * np.sum(counts ** 2) - n)


def serial_test(bits, pattern_len=16, alpha=ALPHA_DEFAULT):
    """Returns (TestResult for nabla psi^2, TestResult for nabla^2 psi^2)."""
    bits = _as_bits(bits)
    n = bits.size
    if not 2 <= pattern_len <= WINDOW_BITS:
        raise ValidationError(f"pattern length must be 2..{WINDOW_BITS}, "
                              f"got {pattern_len}")
    counts_m = _pattern_counts(bits, pattern_len)
    counts_m1 = _fold(counts_m)
    psi_m = _psi_squared(counts_m, pattern_len, n)
    psi_m1 = _psi_squared(counts_m1, pattern_len - 1, n)
    psi_m2 = _psi_squared(_fold(counts_m1), pattern_len - 2, n)
    d1 = psi_m - psi_m1
    d2 = psi_m - 2 * psi_m1 + psi_m2
    p1 = gammaincc(2 ** (pattern_len - 2), d1 / 2.0)
    p2 = gammaincc(2 ** (pattern_len - 3), d2 / 2.0)
    r1 = _result("serial_1", p1, alpha, delta=d1)
    r2 = _result("serial_2", p2, alpha, delta2=d2)
    return r1, r2


# ---------------------------------------------------------------------------
# the battery
# ---------------------------------------------------------------------------

# minimum lengths at which each battery entry is attempted, at the battery's
# fixed parameterization; below its floor a test reports skipped
_FLOORS = {
    "frequency": 100,
    "block_frequency": 128,
    "cumulative_sums": 100,
    "runs": 100,
    "longest_run": 128,
    "rank": 38912,
    "dft": 1000,
    "non_overlapping": 8000,
    "overlapping": 103200,
    "universal": 387840,
    "approximate_entropy": 32768,
    "random_excursions": 1000000,
    "random_excursions_variant": 1000000,
    "linear_complexity": 100000,
    "serial": 262144,
}


def nist_battery(bits, alpha=ALPHA_DEFAULT):
    """Run every applicable test; returns the sixteen results in order."""
    bits = _as_bits(bits, empty_ok=True)
    n = bits.size
    if n < HARD_FLOOR:
        raise SequenceTooShortError(
            f"battery needs at least {HARD_FLOOR} bits, got {n}")

    results = []

    def attempt(key, fn):
        if n >= _FLOORS[key]:
            results.append(fn())
        else:
            results.append(_skip(key,
                                 f"needs {_FLOORS[key]} bits, got {n}"))

    attempt("frequency", lambda: frequency_test(bits, alpha))
    attempt("block_frequency", lambda: block_frequency_test(bits, alpha=alpha))
    attempt("cumulative_sums", lambda: cumulative_sums_test(bits, alpha))
    attempt("runs", lambda: runs_test(bits, alpha))
    attempt("longest_run", lambda: longest_run_test(bits, alpha))
    attempt("rank", lambda: rank_test(bits, alpha))
    attempt("dft", lambda: dft_test(bits, alpha))
    attempt("non_overlapping",
            lambda: non_overlapping_test(bits, alpha=alpha))
    attempt("overlapping", lambda: overlapping_test(bits, alpha=alpha))
    attempt("universal", lambda: universal_test(bits, alpha=alpha))
    attempt("approximate_entropy",
            lambda: approximate_entropy_test(bits, alpha=alpha))
    attempt("random_excursions", lambda: random_excursions_test(bits, alpha))
    attempt("random_excursions_variant",
            lambda: random_excursions_variant_test(bits, alpha))
    attempt("linear_complexity",
            lambda: linear_complexity_test(bits, alpha=alpha))
    if n >= _FLOORS["serial"]:
        results.extend(serial_test(bits, alpha=alpha))
    else:
        results.append(_skip("serial_1", f"needs {_FLOORS['serial']} bits"))
        results.append(_skip("serial_2", f"needs {_FLOORS['serial']} bits"))
    return results


def battery_passed(results):
    """True when every test that actually ran cleared its threshold."""
    ran = [r for r in results if r.status == "ok"]
    return bool(ran) and all(r.passed for r in ran)
