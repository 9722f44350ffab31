"""Statistical battery against the published SP800-22 reference expansions.

The pi and e binary expansions are the document's own worked material; its
printed six-decimal p-values are the anchor set. Full-precision regression
values (frozen from this implementation, cross-checked against the printed
ones) guard against silent numeric drift.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from parvault import prng
from parvault.errors import ValidationError
from parvault.statsuite import battery_report_text, bits_from_bytes, nist

GOLDEN = Path(__file__).parent / "golden"

BATTERY_ORDER = [
    "frequency", "block_frequency", "cumulative_sums", "runs", "longest_run",
    "rank", "dft", "non_overlapping", "overlapping", "universal",
    "approximate_entropy", "random_excursions", "random_excursions_variant",
    "linear_complexity", "serial_1", "serial_2",
]

# six-decimal p-values printed in the test-suite document for the first
# 1,000,000 bits of each expansion; cumulative_sums is (forward, reverse),
# random_excursions is anchored at state +1, the variant at state -1
PUBLISHED_PI = {
    "frequency": 0.578211,
    "block_frequency": 0.380615,
    "cumulative_sums": (0.628308, 0.663369),
    "runs": 0.419268,
    "longest_run": 0.024390,
    "rank": 0.083553,
    "dft": 0.010186,
    "non_overlapping": 0.165757,
    "overlapping": 0.296897,
    "universal": 0.669012,
    "approximate_entropy": 0.361595,
    "random_excursions": 0.844143,
    "random_excursions_variant": 0.760966,
    "linear_complexity": 0.255475,
    "serial_1": 0.143005,
}

PUBLISHED_E = {
    "frequency": 0.953749,
    "block_frequency": 0.211072,
    "cumulative_sums": (0.669887, 0.724266),
    "runs": 0.561917,
    "longest_run": 0.718945,
    "rank": 0.306156,
    "dft": 0.847187,
    "non_overlapping": 0.078790,
    "overlapping": 0.110434,
    "universal": 0.282568,
    "approximate_entropy": 0.700073,
    "random_excursions": 0.786868,
    "random_excursions_variant": 0.826009,
    "linear_complexity": 0.826335,
    "serial_1": 0.766182,
}

# full-precision outputs of this implementation on the same inputs
REGRESSION_PI = {
    "frequency": 0.5782108547724232,
    "block_frequency": 0.3806151975768745,
    "cumulative_sums": (0.6283080853765901, 0.6633686090204552),
    "runs": 0.41926842044315493,
    "longest_run": 0.024389698533896585,
    "rank": 0.08355314410059077,
    "dft": 0.010185826152692532,
    "non_overlapping": 0.16575745745522438,
    "overlapping": 0.2968971234000905,
    "universal": 0.669012438062546,
    "approximate_entropy": 0.36159493180381336,
    "random_excursions": 0.8441431008178453,
    "random_excursions_variant": 0.7609663253045831,
    "linear_complexity": 0.2554745740659604,
    "serial_1": 0.143005239581641,
    "serial_2": 0.034353591982495095,
}

REGRESSION_E = {
    "frequency": 0.9537486285283232,
    "block_frequency": 0.21107154370164066,
    "cumulative_sums": (0.6698864641681423, 0.724265309969807),
    "runs": 0.5619168850302545,
    "longest_run": 0.7189453298987654,
    "rank": 0.306155839634727,
    "dft": 0.8471867050687718,
    "non_overlapping": 0.07879013267666335,
    "overlapping": 0.11043368541387587,
    "universal": 0.282567947825744,
    "approximate_entropy": 0.700073388600442,
    "random_excursions": 0.7868679051783156,
    "random_excursions_variant": 0.8260090128330382,
    "linear_complexity": 0.8263347704038304,
    "serial_1": 0.766181646833394,
    "serial_2": 0.46292132409601383,
}

EXCURSION_PLUS_ONE = nist._EXCURSION_STATES.index(1)
VARIANT_MINUS_ONE = nist._VARIANT_STATES.index(-1)


def _anchored_p(result):
    if result.name == "random_excursions":
        return result.p_value[EXCURSION_PLUS_ONE]
    if result.name == "random_excursions_variant":
        return result.p_value[VARIANT_MINUS_ONE]
    return result.p_value


def _check_battery(battery, published, regression):
    by_name = battery["by_name"]
    assert [r.name for r in battery["results"]] == BATTERY_ORDER
    for name, expected in published.items():
        got = by_name[name].p_value
        if isinstance(expected, tuple):
            assert len(got) == 2
            for g, e in zip(got, expected):
                assert abs(g - e) < 1e-4, (name, g, e)
        else:
            got = _anchored_p(by_name[name])
            assert abs(got - expected) < 1e-4, (name, got, expected)
    for name, expected in regression.items():
        got = by_name[name].p_value
        if isinstance(expected, tuple):
            for g, e in zip(got, expected):
                assert abs(g - e) < 1e-9
        else:
            assert abs(_anchored_p(by_name[name]) - expected) < 1e-9, name


def test_pi_million_bit_anchors(pi_battery):
    _check_battery(pi_battery, PUBLISHED_PI, REGRESSION_PI)


def test_e_million_bit_anchors(e_battery):
    _check_battery(e_battery, PUBLISHED_E, REGRESSION_E)


def test_e_excursions_minus_one_matches_document(e_battery):
    # the document's own table shows x=-1 failing at alpha=0.01
    p = e_battery["by_name"]["random_excursions"].p_value[
        nist._EXCURSION_STATES.index(-1)]
    assert abs(p - 0.007779) < 1e-4
    assert not e_battery["by_name"]["random_excursions"].passed


# keystream inputs by golden name: 1,000,000 bits, and the analyze blob's
# 1,000,312 = 2^3 * 19 * 6581 bits, on which the FFT takes its Bluestein
# path and the block tails are ragged
KEYSTREAM_BYTES = {"keystream": 125_000, "keystream_1000312": 125_039}


@pytest.mark.parametrize("source", ["pi", "e", *KEYSTREAM_BYTES])
def test_battery_report_matches_golden(source, request):
    # the whole report, each frozen before the kernels it guards were
    # batched: it holds every statistic the report prints (chi2, counts,
    # deltas) at full repr, which the 1e-9 p-value tables above do not
    if source in KEYSTREAM_BYTES:
        bits = bits_from_bytes(prng.generate_bytes(prng.DEFAULT_CONFIG,
                                                   KEYSTREAM_BYTES[source]))
        results = nist.nist_battery(bits)
    else:
        results = request.getfixturevalue(f"{source}_battery")["results"]
    golden = (GOLDEN / f"nist_report_{source}.txt").read_text()
    assert battery_report_text(results) == golden


def test_pi_battery_all_pass(pi_battery):
    assert nist.battery_passed(pi_battery["results"])


# ---------------------------------------------------------------------------
# short worked examples from the same document
# ---------------------------------------------------------------------------

def test_spectral_on_first_hundred_e_bits(e_bits):
    assert abs(nist.dft_test(e_bits[:100]).p_value - 0.168669) < 1e-4


def test_rank_on_first_hundred_thousand_e_bits(e_bits):
    assert abs(nist.rank_test(e_bits[:100_000]).p_value - 0.532069) < 1e-4


def test_linear_complexity_block_thousand_on_e(e_bits):
    p = nist.linear_complexity_test(e_bits, block_len=1000).p_value
    assert abs(p - 0.845406) < 1e-4


def test_frequency_on_first_hundred_pi_bits(pi_bits):
    assert abs(nist.frequency_test(pi_bits[:100]).p_value - 0.109599) < 1e-4


def test_block_frequency_on_first_hundred_pi_bits(pi_bits):
    p = nist.block_frequency_test(pi_bits[:100], block_size=10).p_value
    assert abs(p - 0.706438) < 1e-4


def test_runs_on_first_hundred_pi_bits(pi_bits):
    assert abs(nist.runs_test(pi_bits[:100]).p_value - 0.500798) < 1e-4


def test_overlapping_fifty_bit_worked_example():
    s = "10111011110010110100011100101110111110000101101001"
    bits = np.frombuffer(s.encode(), dtype=np.uint8) - ord("0")
    p = nist.overlapping_test(bits, template_len=2, block_len=10,
                              k_classes=5).p_value
    assert abs(p - 0.409632) < 1e-4
    assert abs(p - 0.40963462458096367) < 1e-9


# ---------------------------------------------------------------------------
# degenerate and structural behavior
# ---------------------------------------------------------------------------

def test_all_ones_fails_frequency():
    ones = np.ones(1_000_000, dtype=np.uint8)
    res = nist.frequency_test(ones)
    assert res.p_value < 1e-10
    assert not res.passed


def test_alternating_is_perfectly_balanced():
    alt = np.tile(np.array([0, 1], dtype=np.uint8), 500_000)
    assert nist.frequency_test(alt).p_value == 1.0
    # but maximally non-random in runs
    assert not nist.runs_test(alt).passed


def test_complement_symmetry_of_frequency(pi_bits):
    sample = pi_bits[:10_000]
    a = nist.frequency_test(sample).p_value
    b = nist.frequency_test(1 - sample).p_value
    assert a == b


def test_too_short_sequence_rejected():
    with pytest.raises(nist.SequenceTooShortError):
        nist.nist_battery(np.array([0, 1] * 40, dtype=np.uint8))


def test_non_binary_input_rejected():
    with pytest.raises(ValidationError):
        nist.frequency_test(np.array([0, 1, 2], dtype=np.uint8))


@pytest.mark.parametrize("bad", [
    [0.6, 1.4] * 60,  # a cast to uint8 would read [0, 1] * 60, p = 1.0
    np.array([0.0, 1.0] * 60),  # integral floats are still not bits
    [-1, 0] * 60,  # a cast to uint8 raises OverflowError
    np.array([0, 256] * 60, dtype=np.int64),  # uint8 would wrap 256 to 0
    ["0", "1"] * 60,
    [None, 1] * 60,
])
def test_input_that_is_not_bits_is_a_validation_error(bad):
    with pytest.raises(ValidationError):
        nist.frequency_test(bad)


@pytest.mark.parametrize("good", [
    [False, True] * 60,
    [0, 1] * 60,
    np.array([0, 1] * 60, dtype=np.int8),
    np.array([[0, 1]] * 60, dtype=np.uint64),
])
def test_bool_and_integer_bits_are_accepted(good):
    assert nist.frequency_test(good).p_value == 1.0


@pytest.mark.parametrize("call", [
    lambda b: nist.block_frequency_test(b, block_size=0),
    lambda b: nist.linear_complexity_test(b, block_len=0),
    lambda b: nist.serial_test(b, pattern_len=1),
    lambda b: nist.serial_test(b, pattern_len=nist.WINDOW_BITS + 1),
    lambda b: nist.approximate_entropy_test(b, pattern_len=-1),
    lambda b: nist.approximate_entropy_test(b, pattern_len=nist.WINDOW_BITS),
    lambda b: nist.non_overlapping_test(b, template="0" * nist.WINDOW_BITS
                                        + "1"),
    lambda b: nist.non_overlapping_test(b, template=""),
    lambda b: nist.non_overlapping_test(b, template="0120"),
    lambda b: nist.non_overlapping_test(b, n_blocks=0),
    lambda b: nist.overlapping_test(b, block_len=0),
    lambda b: nist.overlapping_test(b, template_len=0, block_len=100),
    lambda b: nist.overlapping_test(b, template_len=101, block_len=100),
    lambda b: nist.universal_test(b, block_len=5, init_blocks=10),
    lambda b: nist.universal_test(b, block_len=17, init_blocks=0),
    lambda b: nist.universal_test(b, block_len=6, init_blocks=-1),
], ids=["block_size_0", "lc_block_0", "serial_1", "serial_past_window",
        "apen_negative", "apen_past_window", "template_past_window",
        "template_empty", "template_not_bits", "template_blocks_0",
        "overlap_block_0", "overlap_template_0", "overlap_template_long",
        "universal_5", "universal_17", "universal_init_negative"])
def test_bad_parameters_are_validation_errors(call):
    bits = prng.generate_bits(prng.DEFAULT_CONFIG, 4000)
    with pytest.raises(ValidationError):
        call(bits)


def test_medium_sequence_skips_heavy_tests():
    bits = prng.generate_bits(prng.DEFAULT_CONFIG, 5000)
    results = nist.nist_battery(bits)
    assert [r.name for r in results] == BATTERY_ORDER
    status = {r.name: r.status for r in results}
    assert status["frequency"] == "ok"
    assert status["runs"] == "ok"
    for heavy in ("rank", "overlapping", "universal", "random_excursions",
                  "linear_complexity", "serial_1", "serial_2"):
        assert status[heavy] == "skipped"
        assert results[BATTERY_ORDER.index(heavy)].passed is None


def test_p_values_lie_in_unit_interval(pi_battery):
    for r in pi_battery["results"]:
        ps = r.p_value if isinstance(r.p_value, list) else [r.p_value]
        assert all(0.0 <= p <= 1.0 for p in ps)


def test_battery_is_deterministic():
    bits = prng.generate_bits(prng.DEFAULT_CONFIG, 2048)
    a = nist.nist_battery(bits)
    b = nist.nist_battery(bits)
    assert [(r.name, r.p_value, r.status) for r in a] == \
           [(r.name, r.p_value, r.status) for r in b]


def test_battery_passed_requires_a_run_test():
    assert not nist.battery_passed([])


# ---------------------------------------------------------------------------
# batched kernels against the per-block and per-matrix references
# ---------------------------------------------------------------------------

def _berlekamp_massey_length(block):
    """Shortest LFSR length for one block, connection masks held in ints.

    Bit j of the mask c is the coefficient c_j; the rolling window int keeps
    the last bits reversed so the discrepancy is one AND plus a popcount.
    """
    c, b = 1, 1
    L, m_last = 0, -1
    window = 0
    for i, s in enumerate(int(v) for v in block):
        d = s ^ (((c >> 1) & window).bit_count() & 1)
        if d:
            t = c
            c ^= b << (i - m_last)
            if 2 * L <= i:
                L = i + 1 - L
                m_last = i
                b = t
        window = (window << 1) | s
    return L


def _gf2_rank(rows):
    """Rank over GF(2) of a matrix given as a list of row bitmasks."""
    rank = 0
    for col in range(32):
        pivot = None
        bit = 1 << col
        for i in range(rank, len(rows)):
            if rows[i] & bit:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & bit:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


# rows that the random draw would hardly ever produce
_SPECIAL_BLOCKS = {
    "zeros": lambda m: np.zeros(m, dtype=np.uint8),
    "ones": lambda m: np.ones(m, dtype=np.uint8),
    "last_bit": lambda m: np.eye(1, m, m - 1, dtype=np.uint8)[0],
}


@settings(derandomize=True, max_examples=15, deadline=None)
@given(block_len=st.sampled_from([500, 1000, 37]),
       n_blocks=st.integers(1, 100),
       density=st.sampled_from([0.5, 0.05, 0.95]),
       seed=st.integers(0, 2**32 - 1),
       special=st.lists(st.sampled_from(sorted(_SPECIAL_BLOCKS)),
                        max_size=3))
@example(block_len=500, n_blocks=63, density=0.5, seed=1,
         special=["zeros", "ones", "last_bit"])
@example(block_len=1000, n_blocks=1, density=0.5, seed=2, special=[])
@example(block_len=1000, n_blocks=70, density=0.05, seed=4, special=["ones"])
@example(block_len=37, n_blocks=65, density=0.5, seed=3,
         special=["last_bit", "zeros"])
def test_bit_sliced_lengths_match_reference(block_len, n_blocks, density,
                                            seed, special):
    rng = np.random.default_rng(seed)
    blocks = (rng.random((n_blocks, block_len)) < density).astype(np.uint8)
    for row, kind in zip(rng.permutation(n_blocks), special):
        blocks[row] = _SPECIAL_BLOCKS[kind](block_len)
    want = [_berlekamp_massey_length(row) for row in blocks]
    assert nist._linear_complexities(blocks).tolist() == want


def _matrix_of_rank(rng, rank):
    # 32 random combinations of `rank` random rows: rank at most `rank`,
    # so every rank below 32 is drawn
    basis = rng.integers(0, 1 << 32, size=rank, dtype=np.uint64)
    picks = rng.integers(0, 2, size=(32, rank), dtype=np.uint64)
    return np.bitwise_xor.reduce(picks * basis, axis=1,
                                 initial=np.uint64(0)).astype(np.uint32)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n_mat=st.integers(1, 120), seed=st.integers(0, 2**32 - 1))
@example(n_mat=1, seed=0)
@example(n_mat=63, seed=1)
def test_batched_ranks_match_reference(n_mat, seed):
    rng = np.random.default_rng(seed)
    mats = np.stack([_matrix_of_rank(rng, int(r))
                     for r in rng.integers(0, 33, size=n_mat)])
    mats[rng.integers(n_mat)] = 0
    want = [_gf2_rank([int(v) for v in mat]) for mat in mats]
    assert nist._gf2_ranks(mats).tolist() == want


# ---------------------------------------------------------------------------
# whole-array kernels against the loops they replaced
# ---------------------------------------------------------------------------

def _draw_bits(seed, n, density):
    rng = np.random.default_rng(seed)
    return (rng.random(n) < density).astype(np.uint8)


def _pattern_counts_by_shifts(bits, m_len):
    """Wrapped m_len-bit pattern counts, one int64 shift per pattern bit."""
    n = bits.size
    ext = np.concatenate((bits, bits[: m_len - 1])) if m_len > 1 else bits
    vals = np.zeros(n, dtype=np.int64)
    for j in range(m_len):
        vals = (vals << 1) | ext[j:j + n]
    return np.bincount(vals, minlength=1 << m_len).astype(float)


# lengths that are not a multiple of 8 or 64, a few that are, and the
# all-zeros and all-ones sequences through density 0 and 1
_LENGTHS = st.sampled_from([25, 63, 65, 200, 1001, 4099, 4096])
_DENSITIES = st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0])


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n=_LENGTHS, density=_DENSITIES, seed=st.integers(0, 2**32 - 1),
       m_len=st.integers(1, 16))
def test_pattern_counts_match_shifted_windows(n, density, seed, m_len):
    bits = _draw_bits(seed, n, density)
    assert np.array_equal(nist._pattern_counts(bits, m_len),
                          _pattern_counts_by_shifts(bits, m_len))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n=_LENGTHS, density=_DENSITIES, seed=st.integers(0, 2**32 - 1),
       m_len=st.integers(1, nist.WINDOW_BITS), wrap=st.booleans())
@example(n=63, density=0.5, seed=1, m_len=nist.WINDOW_BITS, wrap=True)
@example(n=65, density=1.0, seed=2, m_len=nist.WINDOW_BITS, wrap=False)
def test_window_values_match_sliding_windows(n, density, seed, m_len, wrap):
    bits = _draw_bits(seed, n, density)
    ext = np.concatenate((bits, bits[: m_len - 1])) if wrap else bits
    weights = 1 << np.arange(m_len - 1, -1, -1, dtype=np.int64)
    want = np.lib.stride_tricks.sliding_window_view(
        ext.astype(np.int64), m_len) @ weights
    assert np.array_equal(nist._pattern_values(bits, m_len, wrap), want)


def _template_counts(bits, template, n_blocks):
    """Greedy non-overlapping hits per block, block by block."""
    tmpl = np.array([int(c) for c in template], dtype=np.uint8)
    block_len = bits.size // n_blocks
    counts = []
    for b in range(n_blocks):
        seg = bits[b * block_len:(b + 1) * block_len]
        win = np.lib.stride_tricks.sliding_window_view(seg, tmpl.size)
        count, cursor = 0, -1
        for pos in np.flatnonzero(np.all(win == tmpl, axis=1)):
            if pos > cursor:
                count += 1
                cursor = pos + tmpl.size - 1
        counts.append(count)
    return counts


@settings(derandomize=True, max_examples=25, deadline=None)
@given(n=st.sampled_from([1001, 4099, 8000, 9999]), density=_DENSITIES,
       seed=st.integers(0, 2**32 - 1), n_blocks=st.integers(1, 9),
       template=st.text("01", min_size=1, max_size=nist.WINDOW_BITS))
@example(n=9999, density=1.0, seed=0, n_blocks=7, template="111")
@example(n=9999, density=0.0, seed=0, n_blocks=8, template="0" * 9)
@example(n=8000, density=0.5, seed=3, n_blocks=8, template="000000001")
@example(n=4099, density=0.5, seed=4, n_blocks=3, template="1")
def test_template_counts_match_block_scan(n, density, seed, n_blocks,
                                          template):
    bits = _draw_bits(seed, n, density)
    res = nist.non_overlapping_test(bits, template=template, n_blocks=n_blocks)
    assert res.stats["counts"] == _template_counts(bits, template, n_blocks)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(rows=st.integers(1, 40), row_len=st.sampled_from([9, 63, 130, 1032]),
       density=_DENSITIES, seed=st.integers(0, 2**32 - 1),
       m_len=st.integers(1, 12))
def test_all_ones_windows_match_sliding_windows(rows, row_len, density, seed,
                                                m_len):
    blocks = _draw_bits(seed, rows * row_len, density).reshape(rows, row_len)
    m_len = min(m_len, row_len)
    win = np.lib.stride_tricks.sliding_window_view(blocks, m_len, axis=1)
    want = np.sum(np.all(win == 1, axis=2), axis=1)
    assert np.array_equal(nist._all_ones_windows(blocks, m_len), want)


def _longest_one_run(row):
    if not row.any():
        return 0
    padded = np.concatenate(([0], row, [0]))
    edges = np.flatnonzero(np.diff(padded))
    return int(np.max(edges[1::2] - edges[::2]))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(table=st.sampled_from(nist._LONGEST_RUN_TABLES),
       rows=st.integers(1, 30), density=_DENSITIES,
       seed=st.integers(0, 2**32 - 1))
@example(table=nist._LONGEST_RUN_TABLES[0], rows=2, density=1.0, seed=0)
def test_clipped_longest_runs_match_row_scan(table, rows, density, seed):
    _, m_len, edges, _ = table
    lo, hi = edges[0], edges[-1]
    blocks = _draw_bits(seed, rows * m_len, density).reshape(rows, m_len)
    # runs that straddle rows must not join: a row ending and one starting
    # in ones
    blocks[0, -3:] = 1
    if rows > 1:
        blocks[1, :3] = 1
    want = np.clip([_longest_one_run(r) for r in blocks], lo, hi)
    assert np.array_equal(nist._clipped_longest_runs(blocks, lo, hi), want)


def _universal_f_n(bits, L, Q):
    """Maurer's statistic by the scalar loop over blocks."""
    total = bits.size // L
    vals = np.zeros(total, dtype=np.int64)
    trimmed = bits[: total * L].reshape(total, L)
    for j in range(L):
        vals = (vals << 1) | trimmed[:, j]
    last = [0] * (1 << L)
    ivals = vals.tolist()
    for i in range(Q):
        last[ivals[i]] = i + 1
    total_log = 0.0
    for i in range(Q, total):
        v = ivals[i]
        total_log += math.log(i + 1 - last[v]) / math.log(2)
        last[v] = i + 1
    return total_log / (total - Q)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(L=st.integers(6, 8), Q=st.sampled_from([0, 1, 100, 640]),
       K=st.integers(1, 3000), tail=st.integers(0, 7), density=_DENSITIES,
       seed=st.integers(0, 2**32 - 1))
@example(L=6, Q=0, K=2000, tail=5, density=0.5, seed=0)
def test_universal_statistic_matches_scalar_loop(L, Q, K, tail, density,
                                                 seed):
    bits = _draw_bits(seed, L * (Q + K) + tail, density)
    res = nist.universal_test(bits, block_len=L, init_blocks=Q)
    assert res.stats["f_n"] == _universal_f_n(bits, L, Q)


def _cycle_visits(bits, top):
    """Visits to each nonzero state -top..top, per zero-cycle, from the
    list of cycle arrays; the open last cycle gets a virtual final zero."""
    walk = np.cumsum(2 * bits.astype(np.int64) - 1)
    zeros = np.flatnonzero(walk == 0)
    bounds = np.concatenate(([-1], zeros))
    cycles = [walk[a + 1:b + 1] for a, b in zip(bounds[:-1], bounds[1:])]
    if zeros.size == 0 or zeros[-1] != walk.size - 1:
        start = zeros[-1] if zeros.size else -1
        cycles.append(np.concatenate((walk[start + 1:], [0])))
    states = [x for x in range(-top, top + 1) if x]
    return np.array([[np.count_nonzero(c == x) for x in states]
                     for c in cycles])


def _walk_ending_on_zero(seed, n):
    bits = _draw_bits(seed, n, 0.5)
    excess = 2 * int(bits.sum()) - n
    pad = np.full(abs(excess), int(excess < 0), dtype=np.uint8)
    return np.concatenate((bits, pad))


_WALKS = {
    "random": lambda seed, n: _draw_bits(seed, n, 0.5),
    "never_returns": lambda seed, n: np.ones(n, dtype=np.uint8),
    "drifts_away": lambda seed, n: _draw_bits(seed, n, 0.7),
    "ends_on_zero": _walk_ending_on_zero,
    "returns_every_second_step": lambda seed, n: np.arange(n) % 2,
    "zeros": lambda seed, n: np.zeros(n, dtype=np.uint8),
}


@settings(derandomize=True, max_examples=20, deadline=None)
@given(walk=st.sampled_from(sorted(_WALKS)), n=st.sampled_from([1, 63, 1001,
                                                                 20_003]),
       top=st.sampled_from([4, 9]), seed=st.integers(0, 2**32 - 1))
@example(walk="ends_on_zero", n=20_003, top=4, seed=5)
@example(walk="never_returns", n=1001, top=9, seed=0)
def test_excursion_visits_match_cycle_list(walk, n, top, seed):
    bits = _WALKS[walk](seed, n).astype(np.uint8)
    want = _cycle_visits(bits, top)
    j_cycles, visits = nist._excursion_visits(bits, top)
    assert j_cycles == len(want)
    assert np.array_equal(np.delete(visits, top, axis=1), want)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(walk=st.sampled_from(sorted(_WALKS)), n=st.sampled_from([1, 2, 63,
                                                                 1001]),
       seed=st.integers(0, 2**32 - 1))
def test_cumulative_sums_match_two_scans(walk, n, seed):
    bits = _WALKS[walk](seed, n).astype(np.uint8)
    x = 2 * bits.astype(np.int64) - 1
    zs = [int(np.max(np.abs(np.cumsum(seq)))) for seq in (x, x[::-1])]
    want = [nist._cusum_p(z, bits.size) if z else 0.0 for z in zs]
    assert nist.cumulative_sums_test(bits).p_value == want


def _largest_prime_factor_by_division(n):
    return max((f for f in range(2, n + 1)
                if n % f == 0 and all(f % d for d in range(2, f))), default=1)


def test_largest_prime_factor_matches_trial_division():
    assert ([nist._largest_prime_factor(n) for n in range(1, 600)]
            == [_largest_prime_factor_by_division(n) for n in range(1, 600)])


_SPLIT_PRIMES = (101, 1009, 4099)
# smooth lengths (largest prime p with p * p <= n) and primes stay on rfft;
# 2 * prime and prime * q with q < prime take the four-step split
_DFT_LENGTHS = st.one_of(
    st.sampled_from([1, 2, 100, 1024, 2310, 6000]),
    st.sampled_from((3, 7919) + _SPLIT_PRIMES),
    st.sampled_from((3, 5) + _SPLIT_PRIMES).map(lambda p: 2 * p),
    st.builds(lambda p, q: p * q, st.sampled_from(_SPLIT_PRIMES),
              st.integers(3, 60)),
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=_DFT_LENGTHS, density=_DENSITIES, seed=st.integers(0, 2**32 - 1))
@example(n=6581 * 19, density=0.5, seed=3)
def test_dft_magnitudes_match_rfft(n, density, seed):
    x = 2.0 * _draw_bits(seed, n, density) - 1.0
    want = np.abs(np.fft.rfft(x))[: n // 2]  # what dft_test ran before the split
    got = nist._dft_magnitudes(x)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-9 * math.sqrt(n)
    stats = nist.dft_test(x > 0).stats
    assert stats["peaks_below"] == int(np.count_nonzero(
        want < stats["threshold"]))


@pytest.mark.parametrize("test", [
    nist.frequency_test, nist.cumulative_sums_test, nist.runs_test,
    nist.dft_test, nist.serial_test, nist.approximate_entropy_test,
])
def test_empty_bit_array_is_a_validation_error(test):
    with pytest.raises(ValidationError, match="empty"):
        test(np.zeros(0, dtype=np.uint8))


@pytest.mark.parametrize("n", [1, 2, 15, 16])
@pytest.mark.parametrize("bit", [0, 1])
def test_runs_on_a_constant_sequence_fails_its_precheck(n, bit):
    result = nist.runs_test(np.full(n, bit, dtype=np.uint8))
    assert result.p_value == 0.0
    assert result.stats["precheck"] is False
