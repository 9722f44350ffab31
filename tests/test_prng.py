"""Generator recurrence, bit extraction, and the padding frame."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parvault import prng
from parvault.errors import ValidationError
from parvault.statsuite import nist

GOLDEN = Path(__file__).parent / "golden" / "km_generator_default.txt"


def small_config(seed):
    # I = 3/2, the hand-checkable rational
    return prng.GeneratorConfig(seed=seed, m=2, i_num=3, i_den=2, n=7)


def test_recurrence_floor_of_one_and_a_half_times_two():
    assert prng.next_state(small_config(1), 1) == 3


def test_recurrence_second_worked_value():
    # floor(3 * 2 * 1.5) = 9, reduced mod 7
    assert prng.next_state(small_config(3), 3) == 2


def test_golden_vector_matches_frozen_file():
    expected = [int(line) for line in GOLDEN.read_text().split()]
    assert prng.generate_values(prng.DEFAULT_CONFIG, 8) == expected


def test_golden_vector_agrees_with_rational_oracle():
    cfg = prng.DEFAULT_CONFIG
    state = cfg.seed % cfg.n
    oracle = []
    for _ in range(8):
        state = math.floor(Fraction(state * cfg.m * cfg.i_num, cfg.i_den))
        state %= cfg.n
        oracle.append(state)
    assert oracle == [int(line) for line in GOLDEN.read_text().split()]


def test_exactness_against_rational_oracle_ten_thousand_steps():
    cfg = prng.DEFAULT_CONFIG
    state = cfg.seed % cfg.n
    for produced in prng.generate_values(cfg, 10_000):
        state = math.floor(Fraction(state * cfg.m * cfg.i_num, cfg.i_den))
        state %= cfg.n
        assert produced == state


def test_outputs_stay_in_range():
    cfg = prng.DEFAULT_CONFIG
    assert all(0 <= v < cfg.n for v in prng.generate_values(cfg, 500))


def test_determinism_across_calls():
    a = prng.generate_bits(prng.DEFAULT_CONFIG, 4096)
    b = prng.generate_bits(prng.DEFAULT_CONFIG, 4096)
    assert np.array_equal(a, b)


def test_degenerate_zero_state_is_rejected():
    # 3 * 2 * 3 // 2 = 9 which is 0 mod 9
    cfg = prng.GeneratorConfig(seed=3, m=2, i_num=3, i_den=2, n=9)
    with pytest.raises(prng.DegenerateStateError):
        prng.next_state(cfg, 3)


@pytest.mark.parametrize("kwargs", [
    dict(seed=0, m=2, i_num=3, i_den=2, n=11),     # zero seed
    dict(seed=11, m=2, i_num=3, i_den=2, n=11),    # seed divisible by n
    dict(seed=1, m=1, i_num=3, i_den=2, n=11),     # multiplier too small
    dict(seed=1, m=2, i_num=4, i_den=2, n=11),     # I collapses to an integer
    dict(seed=1, m=2, i_num=0, i_den=2, n=11),     # nonpositive numerator
    dict(seed=1, m=2, i_num=3, i_den=2, n=1),      # modulus too small
])
def test_config_invariants_rejected(kwargs):
    with pytest.raises(ValidationError):
        prng.GeneratorConfig(**kwargs)


def test_narrow_modulus_fine_for_values_not_bits():
    cfg = small_config(1)
    assert prng.generate_values(cfg, 4)
    with pytest.raises(ValidationError):
        prng.generate_bits(cfg, 8)


def test_bits_per_step_drops_two_guard_bits():
    assert prng.DEFAULT_CONFIG.bits_per_step == 58
    cfg = prng.GeneratorConfig(seed=1, m=2, i_num=3, i_den=2, n=(1 << 16) + 1)
    assert cfg.bits_per_step == 14


def test_zero_bit_count_rejected():
    with pytest.raises(ValidationError):
        prng.generate_bits(prng.DEFAULT_CONFIG, 0)
    with pytest.raises(ValidationError):
        prng.generate_bits(prng.DEFAULT_CONFIG, -5)


def test_fourteen_bits_are_low_bits_of_one_iteration():
    cfg = prng.GeneratorConfig(seed=5, m=2, i_num=3, i_den=2, n=(1 << 16) + 1)
    first = prng.generate_values(cfg, 1)[0]
    expected = [(first >> j) & 1 for j in range(13, -1, -1)]
    assert prng.generate_bits(cfg, 14).tolist() == expected


def _reference_bits(cfg, count):
    # each state's low bits_per_step bits, most significant first
    k = cfg.bits_per_step
    words = prng.generate_values(cfg, -(-count // k))
    return [(w >> j) & 1 for w in words for j in range(k - 1, -1, -1)][:count]


@pytest.mark.parametrize("n, seed", [
    ((1 << 4) + 1, 4),      # 2 bits a step
    ((1 << 7) - 1, 1),      # 4
    (2039, 1),              # 8, one whole byte
    ((1 << 61) - 1, 1),     # 58, the default width
    ((1 << 67) - 1, 1),     # 64
    ((1 << 89) - 1, 1),     # 86, wider than a machine word
    ((1 << 127) - 1, 1),    # 124
])
def test_bits_match_per_bit_reference_at_every_width(n, seed):
    cfg = prng.GeneratorConfig(seed=seed, m=3, i_num=7, i_den=4, n=n)
    for count in (1, cfg.bits_per_step, 3 * cfg.bits_per_step + 1):
        bits = prng.generate_bits(cfg, count)
        assert bits.dtype == np.uint8
        assert bits.tolist() == _reference_bits(cfg, count)


def test_bits_from_a_collapsing_state_are_rejected():
    # the first step is 3 * 2 * 3 // 2 = 9, which is 0 mod 9
    cfg = prng.GeneratorConfig(seed=3, m=2, i_num=3, i_den=2, n=9)
    with pytest.raises(prng.DegenerateStateError):
        prng.generate_bits(cfg, 4)


def test_bytes_pack_the_same_bits():
    cfg = prng.DEFAULT_CONFIG
    raw = prng.generate_bytes(cfg, 32)
    bits = prng.generate_bits(cfg, 256)
    assert np.packbits(bits).tobytes() == raw


def test_matrix_ones_density_near_half():
    mat = prng.generate_bits(prng.DEFAULT_CONFIG, 65536).reshape(256, 256)
    # independent popcount: pack to a big integer and count set bits there
    packed = int.from_bytes(np.packbits(mat.ravel()).tobytes(), "big")
    ones = bin(packed).count("1")
    assert ones == int(mat.sum())
    assert abs(ones / 65536 - 0.5) < 0.01


def test_million_bit_stream_clears_basic_battery():
    bits = prng.generate_bits(prng.DEFAULT_CONFIG, 1_000_000)
    assert nist.frequency_test(bits).passed
    assert nist.block_frequency_test(bits).passed
    assert nist.runs_test(bits).passed


# ---------------------------------------------------------------------------
# padding frame
# ---------------------------------------------------------------------------

def test_pad_layout_length():
    padded = prng.pad_message(b"AB", prng.DEFAULT_CONFIG)
    assert len(padded) == 2 + prng.N1_LENGTH + prng.N2_REPEATS == 26


def test_pad_unpad_kilobyte():
    rng = np.random.default_rng(11)
    data = rng.integers(0, 256, 1024, dtype=np.uint8).tobytes()
    assert prng.unpad_message(prng.pad_message(data, prng.DEFAULT_CONFIG)) == data


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=512), st.integers(0, 5))
def test_unpad_inverts_pad(data, epoch):
    padded = prng.pad_message(data, prng.DEFAULT_CONFIG, epoch=epoch)
    assert prng.unpad_message(padded) == data


def test_empty_message_cannot_be_padded():
    with pytest.raises(ValidationError):
        prng.pad_message(b"", prng.DEFAULT_CONFIG)


def test_epochs_change_the_prefix():
    a = prng.pad_message(b"same", prng.DEFAULT_CONFIG, epoch=0)
    b = prng.pad_message(b"same", prng.DEFAULT_CONFIG, epoch=1)
    assert a[:prng.N1_LENGTH] != b[:prng.N1_LENGTH]
    assert prng.unpad_message(a) == prng.unpad_message(b) == b"same"


def test_suffix_must_repeat_one_byte():
    padded = bytearray(prng.pad_message(b"payload", prng.DEFAULT_CONFIG))
    padded[-1] ^= 0xFF
    with pytest.raises(prng.PaddingError):
        prng.unpad_message(bytes(padded))


def test_short_buffer_is_not_a_padded_message():
    with pytest.raises(prng.PaddingError):
        prng.unpad_message(b"x" * (prng.N1_LENGTH + prng.N2_REPEATS))
