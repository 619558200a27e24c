"""Per-trial streams against the generators of verify._rng, bit for bit."""

import zlib

import numpy as np
import pytest

from plurikp._streams import Streams
from plurikp.verify import SuiteConfig, _rng

# Seeds of one to four 32-bit words; with the check id and the trial index,
# the last ones give SeedSequence more entropy words than its pool of four.
SEEDS = [
    0, 1, 7, 2024, 2**31, 2**32 - 1, 2**32, 12345678901, 2**40 + 3, 2**64, 2**96 + 7,
]
CHECK_IDS = ["corner-ambo-black", "gradient-cube4", "negative-control", "x"]
TRIALS = [0, 1, 2, 999, 2**31, 2**32 - 1, 2**32, 2**40 + 1, 2**63]


def _oracle(seed, check_id, trials):
    cfg = SuiteConfig(seed=seed)
    return [_rng(cfg, check_id, t) for t in trials]


def test_check_ids_cover_both_halves_of_the_crc_range():
    crcs = [zlib.crc32(c.encode()) for c in CHECK_IDS]
    assert min(crcs) < 2**31 <= max(crcs)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_streams_match_default_rng(seed, check_id):
    streams = Streams(seed, check_id, TRIALS)
    rows = np.arange(len(TRIALS))
    draws = streams.peek(rows, 12)
    for row, rng in zip(draws, _oracle(seed, check_id, TRIALS)):
        assert row.tolist() == rng.random(12).tolist()


def _after(seed, check_id, trial, consumed):
    rng = _oracle(seed, check_id, [trial])[0]
    rng.random(consumed)
    return rng


def test_partial_draws_in_a_row_follow_the_generator():
    seed, check_id = 2**32 - 1, "corner-cube"
    trials = [0, 5, 17, 2**32 + 9, 40]
    streams = Streams(seed, check_id, trials)
    consumed = [0] * len(trials)
    everyone = np.arange(len(trials))
    # Moves of different lengths per trial, on subsets, several times over;
    # the longest one grows the table of jumps.
    for rows, steps in [
        (everyone, [0, 1, 2, 3, 4]),
        (np.array([1, 3]), [7, 0]),
        (np.array([4, 0, 2]), [3000, 11, 1]),
        (everyone, [5, 5, 5, 5, 5]),
    ]:
        ahead = streams.peek(everyone, 6)
        # A peek never moves a stream.
        assert streams.peek(everyone, 6).tolist() == ahead.tolist()
        for r, row in enumerate(ahead):
            rng = _after(seed, check_id, trials[r], consumed[r])
            assert row.tolist() == rng.random(6).tolist()
        streams.skip(rows, np.array(steps))
        for r, step in zip(rows, steps):
            consumed[r] += step
    final = streams.peek(everyone, 4)
    for r, row in enumerate(final):
        rng = _after(seed, check_id, trials[r], consumed[r])
        assert row.tolist() == rng.random(4).tolist()
