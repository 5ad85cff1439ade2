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
    PrefixIndex,
    PrefixPool,
    longest_match,
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


# --- text parsing ----------------------------------------------------------
#
# Canonical v4 text is parsed without `ipaddress`; all other text goes to
# it. Either way a parse must give what `ipaddress` gives for the same
# text (stripped, as `parse` strips it): the same value, or the same
# exception type with the same message.

_OCTETS = st.one_of(
    st.integers(0, 255).map(str),
    st.integers(0, 999).map(str),  # above 255
    st.integers(0, 99).map(lambda i: f"0{i}"),  # leading zeros
    st.sampled_from(["", "00", "0x1", "+1", "-1", "1_0", "1 ", "\u0663", "\uff11", "\u00b2", "1\u0663"]),
)
_LENGTHS = st.one_of(
    st.none(),  # no slash
    st.integers(0, 40).map(str),  # /33 and above too
    st.sampled_from([
        "", "024", "00", "033", "+8", " 8", "8 ", "\u0661\u0666",
        "255.0.0.0", "255.255.255.0", "0.0.0.255", "255.0.255.0", "255.255.255.255",
    ]),
)
_DOTTED = st.one_of(
    st.lists(_OCTETS, min_size=4, max_size=4),
    st.lists(_OCTETS, min_size=1, max_size=6),
).map(".".join)
# Canonical networks, most of which the hand-written path accepts.
_NETWORKS = st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 32)).map(
    lambda t: str(ipaddress.IPv4Network((t[0] >> (32 - t[1]) << (32 - t[1]), t[1])))
)
_V6 = st.sampled_from([
    "::", "::1", "2001:db8::", "2001:db8::1", "::ffff:1.2.3.4", "1.2.3.4::",
    "2001:db8::/32", "2001:db8::1/32", "2001:db8::/129", "fe80::1%eth0", "2001:db8:::1",
])
_SPACE = st.sampled_from(["", " ", "\t", "\n "])


_BASES = _NETWORKS.map(lambda n: n.split("/")[0])


def _pad_octet(network: str, i: int) -> str:
    octets = network.split(".")
    octets[i] = "0" + octets[i]
    return ".".join(octets)


# Canonical networks but for a leading zero in one octet.
_PADDED = st.tuples(_NETWORKS, st.integers(0, 3)).map(lambda t: _pad_octet(*t))


@st.composite
def address_texts(draw) -> str:
    text = draw(st.one_of(_DOTTED, _BASES, _PADDED.map(lambda n: n.split("/")[0]), _V6))
    return draw(_SPACE) + text + draw(_SPACE)


@st.composite
def prefix_texts(draw) -> str:
    if draw(st.booleans()):
        text = draw(st.one_of(_NETWORKS, _PADDED, _V6))
    else:
        length = draw(_LENGTHS)
        text = draw(st.one_of(_DOTTED, _BASES)) + ("" if length is None else "/" + length)
    return draw(_SPACE) + text + draw(_SPACE)


def _outcome(parse, text):
    """`parse(text)`, or the type and message of the ValueError it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return exc.__class__, str(exc)


def _assert_address_parity(text: str) -> None:
    def ours(t):
        a = Address.parse(t)
        return a.version.value, a.bits

    def theirs(t):
        a = ipaddress.ip_address(t)
        return a.version, int(a)

    assert _outcome(ours, text) == _outcome(theirs, text.strip())


def _assert_prefix_parity(text: str) -> None:
    def ours(t):
        p = Prefix.parse(t)
        return p.version.value, p.base.bits, p.length

    def theirs(t):
        n = ipaddress.ip_network(t, strict=True)
        return n.version, int(n.network_address), n.prefixlen

    assert _outcome(ours, text) == _outcome(theirs, text.strip())


class TestParseMatchesIpaddress:
    @given(address_texts())
    def test_address(self, text):
        _assert_address_parity(text)

    @given(prefix_texts())
    def test_prefix(self, text):
        _assert_prefix_parity(text)

    @pytest.mark.parametrize("text", [
        "10.0.0.1/024", "10.0.0.0/33", "10.0.0.0/", "/", "10.0.0.0/255.0.0.0", "10.0.0.1/24",
        "010.0.0.0/8", "10.0.0.256", "10..0.1", "\u0661.2.3.4", " 10.0.0.0/8 ", "10.0.0.0 /8",
        "0.0.0.0/0", "2001:db8::/32", "::ffff:10.0.0.1",
    ])
    def test_examples(self, text):
        _assert_address_parity(text)
        _assert_prefix_parity(text)


@st.composite
def twin_prefixes(draw):
    """Up to 4 prefixes among the lowest 256 addresses, from host length
    to /0, each as a v4 and a v6 twin with equal bits: they often nest,
    and only the version tells twins apart."""
    prefixes = []
    for host, low in draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 255)),
                                   min_size=1, max_size=4)):
        for version in IPVersion:
            h = host if host <= 8 else version.width  # 9 stands for /0
            prefixes.append(Prefix(Address(version, low >> h << h), version.width - h))
    return prefixes


class TestLongestMatch:
    @given(
        twin_prefixes(),
        st.lists(st.tuples(st.booleans(), st.integers(0, 7)), max_size=30),
        st.lists(st.integers(0, 255), max_size=4),
    )
    def test_agrees_with_brute_force_under_adds_and_discards(self, prefixes, ops, lows):
        probes = [
            Address(version, low)
            for low in [p.base.bits for p in prefixes] + lows
            for version in IPVersion
        ]
        index, held = PrefixIndex(), set()
        for add, i in ops:
            prefix = prefixes[i % len(prefixes)]
            if add:
                index.add(prefix)
                held.add(prefix)
            else:
                index.discard(prefix)
                held.discard(prefix)
            for address in probes:
                expected = sorted(
                    (p for p in held if p.contains(address)), key=lambda p: -p.length
                )
                assert longest_match(index, address) == (expected[0] if expected else None)


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
