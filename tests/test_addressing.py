import copy
import ipaddress
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopsim.addressing import (
    Address,
    IPVersion,
    Prefix,
    PrefixPool,
    parse_reverse_pointer,
)
from hopsim.errors import InvalidPool


class TestAddress:
    def test_parse_v4_round_trip(self):
        a = Address.parse("184.164.243.0")
        assert a.version is IPVersion.V4
        assert str(a) == "184.164.243.0"

    def test_parse_v6_round_trip(self):
        a = Address.parse("2001:db8::1")
        assert a.version is IPVersion.V6
        assert a.width == 128
        assert str(a) == "2001:db8::1"

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**128 - 1))
    def test_text_matches_ipaddress(self, v4_bits, v6_bits):
        assert str(Address(IPVersion.V4, v4_bits)) == str(ipaddress.ip_address(v4_bits))
        assert str(Address(IPVersion.V6, v6_bits)) == str(ipaddress.IPv6Address(v6_bits))
        assert Address.parse(str(Address(IPVersion.V4, v4_bits))).bits == v4_bits

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            Address(IPVersion.V4, 1 << 32)

    def test_reverse_pointer_round_trip(self):
        for text in ("192.0.2.7", "2001:db8::42"):
            a = Address.parse(text)
            assert parse_reverse_pointer(a.reverse_pointer()) == a

    @given(st.sampled_from(list(IPVersion)), st.integers(0, 2**128 - 1))
    def test_cached_text_is_not_part_of_the_value(self, version, bits):
        bits &= (1 << version.width) - 1
        cached, plain = Address(version, bits), Address(version, bits)
        v4 = version is IPVersion.V4
        text = str(ipaddress.ip_address(bits) if v4 else ipaddress.IPv6Address(bits))
        assert str(cached) == text  # formats and caches
        assert str(cached) == text  # reads the cache
        assert "key" not in repr(cached) and "_text" not in repr(cached)
        clones = (copy.copy(cached), copy.deepcopy(cached), pickle.loads(pickle.dumps(cached)),
                  cached.replace())
        for value in (cached,) + clones:
            assert value == plain and hash(value) == hash(plain) and repr(value) == repr(plain)
            assert value.key == plain.key
        assert pickle.dumps(cached) == pickle.dumps(plain)
        assert [str(c) for c in clones] == [text] * len(clones)


@st.composite
def shared_bit_pairs(draw):
    """(version, bits, length) twice, often with equal bits and length and
    the other version, so that only the version tells the two apart."""
    bits, length = draw(st.integers(0, (1 << 32) - 1)), draw(st.integers(0, 32))
    return [
        (draw(st.sampled_from(list(IPVersion))), draw(st.sampled_from([bits, bits ^ 1])),
         draw(st.sampled_from([length, 32 - length])))
        for _ in range(2)
    ]


class TestKeys:
    @given(shared_bit_pairs())
    def test_address_key_is_injective(self, pair):
        a, b = (Address(version, bits) for version, bits, _ in pair)
        assert (a.key == b.key) is (a == b)

    @given(shared_bit_pairs())
    def test_prefix_key_is_injective(self, pair):
        def prefix(version, bits, length):
            host = version.width - length
            return Prefix(Address(version, bits >> host << host), length)

        a, b = (prefix(*spec) for spec in pair)
        assert (a.key == b.key) is (a == b)


class TestPrefix:
    def test_parse_and_contains(self):
        p = Prefix.parse("184.164.243.0/24")
        assert p.contains(Address.parse("184.164.243.200"))
        assert not p.contains(Address.parse("184.164.242.200"))
        assert p.num_addresses == 256

    def test_rejects_noncanonical_base(self):
        with pytest.raises(ValueError):
            Prefix(Address.parse("184.164.243.1"), 24)

    def test_v6_prefix(self):
        p = Prefix.parse("2001:db8::/32")
        assert p.contains(Address.parse("2001:db8:ffff::1"))
        assert not p.contains(Address.parse("2001:db9::1"))

    def test_contains_is_version_strict(self):
        p = Prefix.parse("0.0.0.0/0")
        assert not p.contains(Address.parse("::1"))

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1), st.integers(0, 32))
    def test_contains_matches_top_bits_definition(self, bits, length):
        base = Address(IPVersion.V4, bits & ~((1 << (32 - length)) - 1) & 0xFFFFFFFF)
        p = Prefix(base, length)
        probe = Address(IPVersion.V4, bits)
        shift = 32 - length
        assert p.contains(probe) == (probe.bits >> shift == base.bits >> shift)


class TestPrefixPool:
    def test_rejects_empty(self):
        with pytest.raises(InvalidPool):
            PrefixPool(())

    def test_rejects_mixed_version(self):
        with pytest.raises(InvalidPool):
            PrefixPool((Prefix.parse("10.0.0.0/8"), Prefix.parse("2001:db8::/32")))

    def test_rejects_nested_prefixes(self):
        with pytest.raises(InvalidPool):
            PrefixPool((Prefix.parse("10.0.0.0/8"), Prefix.parse("10.1.0.0/16")))

    def test_total_addresses_sums_members(self):
        pool = PrefixPool.parse("184.164.243.0/24, 184.164.242.0/24")
        assert pool.total_addresses == 512

    def test_covering_prefix(self):
        pool = PrefixPool.parse("184.164.243.0/24, 184.164.242.0/24")
        a = Address.parse("184.164.242.9")
        assert pool.covering_prefix(a) == Prefix.parse("184.164.242.0/24")
        with pytest.raises(InvalidPool):
            pool.covering_prefix(Address.parse("184.164.241.9"))

    @given(
        st.sampled_from(list(IPVersion)),
        st.lists(st.tuples(st.integers(0, 255), st.integers(0, 8)), min_size=1, max_size=10),
        st.integers(0, 255),
    )
    def test_neighbour_check_rejects_what_pairwise_check_rejects(self, version, specs, probe):
        # Prefixes inside one /24 (v4) or /120 (v6), so that they often nest.
        net = Prefix.parse("198.51.100.0/24" if version is IPVersion.V4 else "2001:db8::/120")
        width = net.base.width
        prefixes = tuple(
            Prefix(Address(version, net.base.bits | (low >> host << host)), width - host)
            for low, host in specs
        )
        overlapping = any(
            a.covers(b) or b.covers(a)
            for i, a in enumerate(prefixes)
            for b in prefixes[i + 1 :]
        )
        if overlapping:
            with pytest.raises(InvalidPool, match="overlapping prefixes"):
                PrefixPool(prefixes)
            return
        pool = PrefixPool(prefixes)
        assert pool.total_addresses == sum(p.num_addresses for p in prefixes)
        address = Address(version, net.base.bits | probe)
        covering = [p for p in prefixes if p.contains(address)]
        assert pool.contains(address) == bool(covering)
        if covering:
            assert pool.covering_prefix(address) == covering[0]
