import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopsim.addressing import Address, IPVersion, Prefix, PrefixPool
from hopsim.errors import InvalidPool, LengthMismatch
from hopsim.hopping import (
    EXACT_COLLISION_LIMIT,
    _draw,
    build_schedule,
    collision_probability,
    generate_unique_addresses,
)
from hopsim.rng import SplitMix64
from hopsim.values import left_sum


def addresses(seed, pool, n):
    """The addresses of `generate_unique_addresses`, without their prefixes."""
    return [a for a, _ in generate_unique_addresses(seed, pool, n)]


class TestGenerateAddresses:
    """The schedule's address draw, `generate_unique_addresses`."""

    def test_empty_request(self, pool24):
        assert generate_unique_addresses(7, pool24, 0) == []

    def test_paper_scale_draw_contained_in_pool(self, pool24):
        addrs = addresses(42, pool24, 111)
        assert len(addrs) == 111
        assert all(pool24.contains(a) for a in addrs)

    def test_determinism(self, pool24):
        first = generate_unique_addresses(42, pool24, 10)
        assert generate_unique_addresses(42, pool24, 10) == first

    def test_small_prefix_hits_every_member(self, pool30):
        # Oracle: enumerate the /30's four member addresses directly.
        base = pool30.prefixes[0].base.bits
        members = {Address(IPVersion.V4, base + i) for i in range(4)}
        addrs = addresses(7, pool30, 4)
        assert len(addrs) == 4
        assert set(addrs) == members

    def test_prefix_extension(self, pool24):
        short = generate_unique_addresses(9, pool24, 20)
        long = generate_unique_addresses(9, pool24, 50)
        assert long[:20] == short

    def test_single_address_pool_rejected_for_multiple_draws(self):
        pool = PrefixPool((Prefix.parse("192.0.2.1/32"),))
        assert len(generate_unique_addresses(1, pool, 1)) == 1
        with pytest.raises(InvalidPool):
            generate_unique_addresses(1, pool, 2)

    def test_multi_prefix_pool_draws_from_all(self):
        pool = PrefixPool.parse("184.164.243.0/24, 184.164.242.0/24")
        hit = {prefix for _, prefix in generate_unique_addresses(23, pool, 400)}
        assert hit == set(pool.prefixes)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 40))
    def test_containment_property(self, seed, n):
        pool = PrefixPool.parse("198.51.100.0/28, 203.0.113.64/26")
        for a in addresses(seed, pool, n):
            assert pool.contains(a)


def linear_draw(rng, pool):
    """Reference draw: walk the prefixes, subtracting each one's size."""
    slot = rng.below(pool.total_addresses)
    for prefix in pool.prefixes:
        if slot < prefix.num_addresses:
            return Address(prefix.version, prefix.base.bits | slot), prefix
        slot -= prefix.num_addresses
    raise AssertionError("slot out of range")


@st.composite
def pool_prefixes(draw):
    """1-12 disjoint prefixes of one version and mixed lengths, unsorted.

    Each prefix sits in its own /16 (v4) or /56 (v6), in generated
    order. v6 prefixes stay at /80 or longer: `SplitMix64.below` draws
    below 2**64 only.
    """
    version = draw(st.sampled_from(list(IPVersion)))
    specs = draw(
        st.lists(
            st.tuples(st.integers(0, 255), st.integers(0, 16)),
            min_size=1, max_size=12, unique_by=lambda spec: spec[0],
        )
    )
    if version is IPVersion.V4:
        return [Prefix(Address(version, (10 << 24) | (i << 16)), 32 - host) for i, host in specs]
    return [
        Prefix(Address(version, (0x20010DB8 << 96) | (i << 72)), 128 - 3 * host)
        for i, host in specs
    ]


class TestDraw:
    @given(pool_prefixes(), st.integers(0, 2**64 - 1))
    def test_bisection_matches_linear_walk(self, prefixes, seed):
        pool = PrefixPool(tuple(prefixes))
        assert pool.offsets == tuple(
            sum(p.num_addresses for p in prefixes[:i]) for i in range(len(prefixes))
        )
        rng, reference = SplitMix64(seed), SplitMix64(seed)
        for _ in range(64):
            assert _draw(rng, pool) == linear_draw(reference, pool)


class TestGenerateUnique:
    """No address repeats within one draw."""

    def test_all_distinct(self, pool24):
        addrs = addresses(42, pool24, 111)
        assert len(set(addrs)) == 111

    def test_shares_prefix_extension(self, pool24):
        assert (
            generate_unique_addresses(42, pool24, 50)
            == generate_unique_addresses(42, pool24, 111)[:50]
        )

    def test_rejects_oversized_request(self, pool30):
        with pytest.raises(InvalidPool):
            generate_unique_addresses(1, pool30, 5)

    def test_exhausts_tiny_pool(self, pool30):
        addrs = addresses(11, pool30, 4)
        assert len(set(addrs)) == 4


class TestBuildSchedule:
    def test_empty(self, pool24):
        schedule = build_schedule(1, pool24, 0, [])
        assert len(schedule) == 0
        assert schedule.total_ms == 0

    def test_dwells_passed_through(self, pool24):
        schedule = build_schedule(1, pool24, 3, [10_000.0] * 3)
        assert [e.dwell_ms for e in schedule.entries] == [10_000.0] * 3

    def test_total_is_sum_of_dwells(self, pool24):
        dwells = [float(d) for d in range(1, 112)]
        schedule = build_schedule(42, pool24, 111, dwells)
        assert schedule.total_ms == pytest.approx(sum(dwells))

    def test_total_adds_dwells_left_to_right(self, pool24):
        # 1e16 + 1.0 rounds back to 1e16, twice; a compensated sum (built-in
        # `sum` from Python 3.12 on) gives 1e16 + 2. The total sets the auto
        # gap, so it must be the same float on every interpreter.
        dwells = [1e16, 1.0, 1.0]
        assert left_sum(dwells) == 1e16
        assert build_schedule(1, pool24, 3, dwells).total_ms == 1e16

    @given(pool_prefixes(), st.integers(0, 2**64 - 1), st.integers(0, 40))
    def test_each_entry_keeps_the_one_prefix_that_holds_its_address(self, prefixes, seed, n):
        pool = PrefixPool(tuple(prefixes))
        n = min(n, pool.total_addresses)
        schedule = build_schedule(seed, pool, n, [1.0] * n)
        for entry in schedule.entries:
            assert [p for p in pool.prefixes if p.contains(entry.address)] == [entry.prefix]

    def test_addresses_are_globally_distinct(self, pool30):
        schedule = build_schedule(11, pool30, 4, [1.0] * 4)
        assert len({e.address for e in schedule.entries}) == 4

    def test_length_mismatch(self, pool24):
        with pytest.raises(LengthMismatch):
            build_schedule(1, pool24, 3, [1.0, 2.0])

    def test_nonpositive_dwell_rejected(self, pool24):
        with pytest.raises(ValueError):
            build_schedule(1, pool24, 2, [1.0, 0.0])

    def test_windows_partition_total(self, pool24):
        dwells = [3.0, 4.0, 5.0, 2.5]
        schedule = build_schedule(8, pool24, 4, dwells)
        starts = schedule.start_times()
        assert starts == [0.0, 3.0, 7.0, 12.0]
        assert starts[-1] + dwells[-1] == schedule.total_ms


def _enumeration_oracle(n: int, m: int) -> float:
    """Exhaustive count of colliding ordered draws (tiny cases only)."""
    total = m**n
    collide = sum(1 for draw in itertools.product(range(m), repeat=n) if len(set(draw)) < n)
    return collide / total


def _exact_oracle(n: int, space_bits: int) -> float:
    """Falling-factorial collision probability in exact rational arithmetic."""
    m = 1 << space_bits
    if n > m:
        return 1.0
    p_clear = Fraction(1)
    for k in range(n):
        p_clear *= Fraction(m - k, m)
    return float(1 - p_clear)


class TestCollisionProbability:
    def test_single_draw_cannot_collide(self):
        assert collision_probability(1, 32) == 0.0
        assert collision_probability(0, 8) == 0.0

    def test_two_draws_tiny_space_brute_force(self):
        # 16 ordered pairs over a 4-element space, 4 of them collide.
        assert _enumeration_oracle(2, 4) == 0.25
        assert collision_probability(2, 2) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("n,bits", [(2, 2), (3, 2), (2, 3), (4, 3), (3, 4)])
    def test_agrees_with_enumeration(self, n, bits):
        expected = _enumeration_oracle(n, 1 << bits)
        assert collision_probability(n, bits) == pytest.approx(expected, abs=1e-12)

    def test_exact_grid_small_spaces(self):
        for bits in range(1, 9):
            for n in range(0, 17):
                expected = _exact_oracle(n, bits)
                assert collision_probability(n, bits) == pytest.approx(
                    expected, abs=1e-12
                ), (n, bits)

    def test_pigeonhole(self):
        assert collision_probability(5, 2) == 1.0

    def test_tiny_probability_stays_nonzero(self):
        # Mapping the full v4 space into v6: roughly 2**-65, far below
        # float epsilon of 1, so a naive 1 - exp(...) would round to 0.
        p = collision_probability(2**32, 128)
        assert 0.0 < p < 1e-18
        assert p == pytest.approx(2.0**-65, rel=1e-6)

    def test_large_n_uses_birthday_approximation(self):
        import math

        n = EXACT_COLLISION_LIMIT + 10
        expected = -math.expm1(-(n * (n - 1)) / 2.0**65)
        assert collision_probability(n, 64) == pytest.approx(expected, rel=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            collision_probability(-1, 8)
        with pytest.raises(ValueError):
            collision_probability(2, 0)
        with pytest.raises(ValueError):
            collision_probability(2, 129)
