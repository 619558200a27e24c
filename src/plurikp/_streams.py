"""Per-trial random streams as arrays: default_rng without per-trial objects.

Trial t of a check draws from np.random.default_rng([seed, crc32(check_id),
t]), a PCG64 generator seeded through SeedSequence.  Streams holds the 128-bit
PCG64 state and increment of every trial as uint64 rows (high and low halves)
and reproduces that generator bit for bit:

- SeedSequence's hash/mix pool and generate_state(4, uint64) run on uint32
  arrays over the trial axis; the hash constants do not depend on the data,
  so every trial walks the same sequence of them;
- PCG64's srandom turns the four words into (state, inc);
- the j-th draw ahead of a state s is the output of M^j s + (sum_{i<j} M^i) inc
  (mod 2^128), with M the PCG64 multiplier, so any number of draws of every
  trial comes out of one broadcast multiply, and a stream moves to any later
  position in one more;
- the XSL-RR output and (x >> 11) * 2^-53 give Generator.random(), and
  uniform(a, b) is a + (b - a) * random().

The 128-bit products split the low halves into 32-bit limbs; everything else
wraps in uint64.  Every constant is an np.uint64 (or np.uint32 in the seeding),
so numpy's old and new promotion rules give the same dtypes.
"""

from __future__ import annotations

import functools
import operator
import zlib
from typing import Iterable

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1

# SeedSequence (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

# PCG64 (numpy/random/src/pcg64): the 128-bit LCG multiplier.
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

_U32 = np.uint64(32)
_LOW32 = np.uint64(_MASK32)
_ONE = np.uint64(1)
_63 = np.uint64(63)
_64 = np.uint64(64)
_ROTATION = np.uint64(58)  # state >> 122 is the high half >> 58
_MANTISSA = np.uint64(11)
_UNIT = 1.0 / 9007199254740992.0  # 2^-53


def _words(n: int) -> list[int]:
    """SeedSequence's split of a non-negative int into 32-bit words."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.mix_entropy over uint32 columns, one row per trial."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    zero = np.zeros_like(entropy[0])
    mixer = [
        hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixer[dst] = _mix(mixer[dst], hashmix(mixer[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            mixer[dst] = _mix(mixer[dst], hashmix(entropy[src]))
    return mixer


def _generate_state(pool: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.generate_state(4, np.uint64): four uint64 columns."""
    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    return [words[2 * i] | (words[2 * i + 1] << _U32) for i in range(_POOL_SIZE)]


# --- 128-bit arithmetic on (high, low) uint64 pairs ---------------------------


def _mul(a_hi, a_lo, b_hi, b_lo):
    """(a * b) mod 2^128: the full 64x64 product of the low halves in 32-bit
    limbs, plus the cross terms, whose low 64 bits uint64 wraps to."""
    a0, a1 = a_lo & _LOW32, a_lo >> _U32
    b0, b1 = b_lo & _LOW32, b_lo >> _U32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    lo = (p00 & _LOW32) | (mid << _U32)
    hi = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return hi + a_hi * b_lo + a_lo * b_hi, lo


def _add(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def _split(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & 0xFFFFFFFFFFFFFFFF for v in values], dtype=np.uint64),
    )


@functools.lru_cache(maxsize=None)
def _jump_table(size: int) -> tuple[np.ndarray, ...]:
    """(M^j, sum_{i<j} M^i) mod 2^128 for j < size, as read-only (high, low)
    arrays of each."""
    power, series = [1], [0]
    for _ in range(size - 1):
        series.append((series[-1] + power[-1]) & _MASK128)
        power.append((power[-1] * _MULTIPLIER) & _MASK128)
    arrays = (*_split(power), *_split(series))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _jumps(count: int) -> tuple[np.ndarray, ...]:
    """A jump table reaching `count` draws ahead; sizes run over powers of
    two, so only a few tables are ever built."""
    return _jump_table(max(64, 1 << count.bit_length()))


def _output(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's XSL-RR output of a state, as Generator.random() reads it."""
    x = hi ^ lo
    r = hi >> _ROTATION
    x = (x >> r) | (x << ((_64 - r) & _63))
    return (x >> _MANTISSA).astype(np.float64) * _UNIT


class Streams:
    """The generators default_rng([seed, crc32(check_id), t]) of a run of
    trials t, one uint64 row each.  A stream is read ahead with peek and moved
    on with skip, so a caller can look at several candidates and then commit
    each trial's stream to just after the one it keeps."""

    def __init__(self, seed: int, check_id: str, trials: Iterable[int]) -> None:
        self.check_id = check_id
        self.trials = np.array(list(trials), dtype=np.uint64)
        n = len(self.trials)
        self._hi, self._lo = np.zeros(n, np.uint64), np.zeros(n, np.uint64)
        self._inc_hi, self._inc_lo = np.zeros(n, np.uint64), np.zeros(n, np.uint64)
        fixed = _words(operator.index(seed)) + _words(zlib.crc32(check_id.encode()))
        # The entropy of a trial index past 2^32 is two words, not one.
        wide = self.trials > np.uint64(_MASK32)
        for rows in (np.flatnonzero(~wide), np.flatnonzero(wide)):
            if rows.size:
                self._seed(rows, fixed)

    def _seed(self, rows: np.ndarray, fixed: list[int]) -> None:
        trials = self.trials[rows]
        entropy = [np.full(len(rows), w, dtype=np.uint32) for w in fixed]
        entropy.append((trials & _LOW32).astype(np.uint32))
        if trials[0] > np.uint64(_MASK32):
            entropy.append((trials >> _U32).astype(np.uint32))
        s_hi, s_lo, q_hi, q_lo = _generate_state(_pool(entropy))
        # srandom: inc = 2 * initseq + 1, then two LCG steps from state 0 with
        # the seed added in between.
        inc_hi, inc_lo = (q_hi << _ONE) | (q_lo >> _63), (q_lo << _ONE) | _ONE
        m_hi, m_lo = _split([_MULTIPLIER])
        hi, lo = _add(inc_hi, inc_lo, s_hi, s_lo)
        hi, lo = _add(*_mul(hi, lo, m_hi, m_lo), inc_hi, inc_lo)
        self._hi[rows], self._lo[rows] = hi, lo
        self._inc_hi[rows], self._inc_lo[rows] = inc_hi, inc_lo

    def __len__(self) -> int:
        return len(self.trials)

    def _ahead(self, rows, a_hi, a_lo, c_hi, c_lo, shape=(-1,)):
        # M^j s + (sum_{i<j} M^i) inc, broadcast over the rows' states.
        s_hi, s_lo = self._hi[rows].reshape(shape), self._lo[rows].reshape(shape)
        i_hi = self._inc_hi[rows].reshape(shape)
        i_lo = self._inc_lo[rows].reshape(shape)
        return _add(*_mul(a_hi, a_lo, s_hi, s_lo), *_mul(c_hi, c_lo, i_hi, i_lo))

    def peek(self, rows: np.ndarray, count: int) -> np.ndarray:
        """The next `count` random() draws of each listed stream, as a
        (len(rows), count) array; the streams do not move."""
        a_hi, a_lo, c_hi, c_lo = _jumps(count)
        ahead = slice(1, count + 1)
        hi, lo = self._ahead(
            rows, a_hi[ahead], a_lo[ahead], c_hi[ahead], c_lo[ahead], (-1, 1)
        )
        return _output(hi, lo)

    def skip(self, rows: np.ndarray, steps: np.ndarray) -> None:
        """Move each listed stream past its number of draws in `steps`."""
        a_hi, a_lo, c_hi, c_lo = _jumps(int(np.max(steps, initial=0)))
        self._hi[rows], self._lo[rows] = self._ahead(
            rows, a_hi[steps], a_lo[steps], c_hi[steps], c_lo[steps]
        )
