import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopsim.rng import MASK64, SplitMix64


def _reference_stream(seed: int, n: int) -> list[int]:
    """Direct transcription of the published splitmix64 recurrence."""
    out, state = [], seed & MASK64
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def test_known_answer_seed_zero():
    # First outputs for seed 0, frozen from the reference recurrence.
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_matches_reference_for_many_seeds():
    for seed in (1, 42, 2**63, MASK64):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(8)] == _reference_stream(seed, 8)


def test_below_is_unbiased_over_small_range():
    rng = SplitMix64(7)
    counts = [0] * 4
    n = 40_000
    for _ in range(n):
        counts[rng.below(4)] += 1
    for c in counts:
        assert abs(c / n - 0.25) < 0.02


def test_random_in_unit_interval():
    rng = SplitMix64(3)
    values = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert abs(sum(values) / len(values) - 0.5) < 0.05


def _one_word_below(rng: SplitMix64, n: int) -> int:
    """The single-word rejection sampler, as `below` was for n <= 2**64."""
    limit = (1 << 64) - ((1 << 64) % n)
    while True:
        x = rng.next_u64()
        if x < limit:
            return x % n


@given(st.integers(0, MASK64), st.integers(1, 1 << 64))
def test_below_one_word_bounds_match_single_word_sampler(seed, n):
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    assert [rng.below(n) for _ in range(4)] == [_one_word_below(ref, n) for _ in range(4)]
    assert rng.state == ref.state


@given(st.integers(0, MASK64), st.integers(65, 128))
def test_below_beyond_64_bits_draws_whole_words(seed, bits):
    # A bound of 2**bits needs ceil(bits / 64) words per try and never
    # rejects, so each draw advances the stream by exactly that many.
    n = 1 << bits
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    words = -(-bits // 64)
    for _ in range(3):
        x = rng.below(n)
        expected = 0
        for _ in range(words):
            expected = (expected << 64) | ref.next_u64()
        assert x == expected % n
        assert rng.state == ref.state


def test_below_large_bound_covers_high_bits():
    rng = SplitMix64(11)
    n = 3 << 70  # not a power of two, so some tries are rejected
    draws = [rng.below(n) for _ in range(2000)]
    assert all(0 <= x < n for x in draws)
    assert max(draws) > n * 0.9 and min(draws) < n * 0.1
    assert sum(x >= n // 2 for x in draws) / len(draws) == pytest.approx(0.5, abs=0.05)
