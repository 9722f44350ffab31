"""Keystream generator built on a truncated multiplicative recurrence.

State update, in exact integer arithmetic:

    state_{t+1} = floor(state_t * m * (i_num / i_den)) mod n

where m is an integer multiplier and i_num/i_den is a deliberately
non-integral rational (default scale i_den = 2^32). The floor is taken on the
exact product before reduction, i.e. ((state * m * i_num) // i_den) % n, so
every implementation of the recurrence agrees bit for bit.

Each iteration contributes the floor(log2(n)) - 2 low-order bits of the new
state to the output stream (two guard bits dropped below the modulus width).
The update is not a permutation of Z_n; a state of exactly zero would absorb,
so it is rejected with DegenerateStateError and callers must reseed.

Default constants were chosen empirically so that the default configuration
clears the full statistical battery in statsuite; they are an artifact of this
implementation, not magic numbers with external meaning.
"""

import configparser
import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ParvaultError, ValidationError

# epoch salt for padding draws, odd 64-bit constant (golden-ratio derived)
_EPOCH_SALT = 0x9E3779B97F4A7C15

N1_LENGTH = 16  # fresh prefix bytes
N2_REPEATS = 8  # one byte repeated this many times as suffix


class DegenerateStateError(ParvaultError):
    """The recurrence reached state 0 and cannot continue; reseed."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the recurrence. Field names match the config-file keys."""

    seed: int
    m: int
    i_num: int
    i_den: int = 1 << 32
    n: int = (1 << 61) - 1

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("modulus n must be at least 2")
        if self.m < 2:
            raise ValidationError("multiplier m must be at least 2")
        if self.i_num <= 0 or self.i_den <= 0:
            raise ValidationError("i_num and i_den must be positive")
        if self.i_num % self.i_den == 0:
            raise ValidationError("I = i_num/i_den must not be an integer")
        if self.seed <= 0 or self.seed % self.n == 0:
            raise ValidationError("seed must be positive and nonzero mod n")

    @property
    def bits_per_step(self):
        # floor(log2 n) - 2, the two guard bits dropped
        return self.n.bit_length() - 3

    def reseeded(self, value):
        """This config with seed value reduced mod n (0 maps to 1). Callers
        derive value by their own mix of seed, tags and epochs."""
        return dataclasses.replace(self, seed=(value % self.n) or 1)


DEFAULT_CONFIG = GeneratorConfig(
    seed=123456789,
    m=6364136223846793005,
    i_num=6949403065,  # golden ratio at scale 2^32
)


def next_state(config, state):
    """One exact floor-then-reduce step of the recurrence."""
    nxt = (state * config.m * config.i_num) // config.i_den % config.n
    if nxt == 0:
        raise DegenerateStateError("generator state collapsed to zero")
    return nxt


def iter_states(config):
    """Yield successive states starting from the (reduced) seed."""
    state = config.seed % config.n
    while True:
        state = next_state(config, state)
        yield state


def generate_values(config, count):
    """The first `count` raw states as a list of ints."""
    if count < 0:
        raise ValidationError("count must be nonnegative")
    it = iter_states(config)
    return [next(it) for _ in range(count)]


def generate_bits(config, count):
    """Exactly `count` output bits as a numpy uint8 array of 0/1.

    Each state contributes its low bits_per_step bits, most significant of
    that slice first; the final state's contribution is truncated to fit.
    The states are written as fixed-width big-endian words and unpacked
    into one row of bits each, of which the low bits_per_step columns are
    kept.
    """
    if count < 1:
        raise ValidationError("bit count must be positive")
    k = config.bits_per_step
    if k < 1:
        raise ValidationError("modulus too narrow for bit extraction")
    steps = -(-count // k)
    width = -(-k // 8)
    mask = (1 << k) - 1
    it = iter_states(config)
    words = b"".join((next(it) & mask).to_bytes(width, "big")
                     for _ in range(steps))
    bits = np.unpackbits(np.frombuffer(words, dtype=np.uint8))
    return bits.reshape(steps, 8 * width)[:, 8 * width - k:].ravel()[:count]


def generate_bytes(config, nbytes):
    """Pack 8*nbytes generated bits into bytes, MSB first."""
    bits = generate_bits(config, nbytes * 8)
    return np.packbits(bits).tobytes()


def generate_matrix(config, rows, cols):
    """Bit matrix reshape of the stream; same bits as generate_bits."""
    return generate_bits(config, rows * cols).reshape(rows, cols)


def _epoch_subconfig(config, epoch):
    # independent draw stream for padding material at a given logical epoch
    return config.reseeded(config.seed + (epoch + 1) * _EPOCH_SALT)


class PaddingError(ParvaultError):
    """Padded layout missing or suffix bytes not all equal."""


def pad_message(data, config, epoch=0):
    """Frame data as N1 || data || N2 for the given logical epoch.

    N1 is 16 fresh generator bytes, N2 one generator byte repeated 8 times;
    both come from an epoch-salted draw stream so successive epochs of the
    same payload are framed differently.
    """
    if not data:
        raise ValidationError("cannot pad an empty message")
    if epoch < 0:
        raise ValidationError("epoch must be nonnegative")
    sub = _epoch_subconfig(config, epoch)
    material = generate_bytes(sub, N1_LENGTH + 1)
    n1 = material[:N1_LENGTH]
    n2 = bytes([material[N1_LENGTH]]) * N2_REPEATS
    return n1 + bytes(data) + n2


def unpad_message(padded):
    """Strip the N1/N2 framing, checking the repeated suffix."""
    if len(padded) < N1_LENGTH + N2_REPEATS + 1:
        raise PaddingError("padded message shorter than framing")
    suffix = padded[-N2_REPEATS:]
    if len(set(suffix)) != 1:
        raise PaddingError("suffix bytes are not a single repeated value")
    return bytes(padded[N1_LENGTH:-N2_REPEATS])


# ---------------------------------------------------------------------------
# config and golden-vector files
# ---------------------------------------------------------------------------

def load_generator_config(path):
    """Read a [prng] section with keys seed, m, i_num, i_den, n."""
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    if "prng" not in parser:
        raise ValidationError("config file has no [prng] section")
    sec = parser["prng"]
    try:
        return GeneratorConfig(
            seed=int(sec["seed"]),
            m=int(sec["m"]),
            i_num=int(sec["i_num"]),
            i_den=int(sec.get("i_den", str(1 << 32))),
            n=int(sec.get("n", str((1 << 61) - 1))),
        )
    except KeyError as exc:
        raise ValidationError(f"config missing key {exc}") from exc


def save_generator_config(config, path):
    parser = configparser.ConfigParser()
    parser["prng"] = {
        "seed": str(config.seed),
        "m": str(config.m),
        "i_num": str(config.i_num),
        "i_den": str(config.i_den),
        "n": str(config.n),
    }
    with open(path, "w") as fh:
        parser.write(fh)


def write_vector(config, count, path):
    """Golden-vector file: one decimal state per line."""
    values = generate_values(config, count)
    with open(path, "w") as fh:
        for v in values:
            fh.write(f"{v}\n")
    return values


def read_vector(path):
    with open(path) as fh:
        return [int(line) for line in fh if line.strip()]
