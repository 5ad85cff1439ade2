"""IP addresses, CIDR prefixes and prefix pools.

Addresses are plain unsigned integers tagged with an IP version, so the
same arithmetic drives v4 (32-bit) and v6 (128-bit) hopping. Canonical
v4 text (dotted-quad octets without leading zeros, an optional decimal
length) is parsed and formatted here; any other text, v6 included, is
parsed by the stdlib ``ipaddress`` module, which also formats v6. Both
paths accept the same text, give the same values and, through
``ipaddress``, the same errors.
"""

from __future__ import annotations

import ipaddress
from collections.abc import Iterable
from enum import Enum

from .errors import InvalidPool
from .values import Frozen, _set


def _decimal(text: str, limit: int) -> int | None:
    """`text` as an int if it is 1-3 ASCII digits, no leading zero, <= `limit`."""
    if text.isdigit() and text.isascii() and len(text) <= 3 and (text[0] != "0" or text == "0"):
        value = int(text)
        if value <= limit:
            return value
    return None


def _v4_bits(text: str) -> int | None:
    """The value of canonical dotted-quad `text`, or None for any other text."""
    octets = text.split(".")
    if len(octets) != 4:
        return None
    bits = 0
    for octet in octets:
        value = _decimal(octet, 255)
        if value is None:
            return None
        bits = bits << 8 | value
    return bits


class IPVersion(Enum):
    V4 = 4
    V6 = 6

    # Members compare by identity, so the identity hash agrees with
    # equality and runs in C; Enum's own hashes the name in Python.
    __hash__ = object.__hash__

    @property
    def width(self) -> int:
        return 32 if self is IPVersion.V4 else 128


class Address(Frozen):
    # `key` is one int that equal addresses share and unequal ones do not,
    # so the per-packet dicts key by it and hash in C. `_text` caches
    # `str()`: rewrites reuse a few address objects for many packets.
    __slots__ = ("version", "bits", "key", "_text")
    _fields = ("version", "bits")

    def __init__(self, version: IPVersion, bits: int):
        if not 0 <= bits < (1 << version.width):
            raise ValueError(f"address value out of range for {version.name}")
        _set(self, "version", version)
        _set(self, "bits", bits)
        _set(self, "key", bits << 1 | (version is IPVersion.V6))
        _set(self, "_text", None)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.bits == other.bits and self.version is other.version
        return NotImplemented

    def __hash__(self) -> int:
        # v4 and v6 addresses with equal bits collide here and differ in `==`.
        return hash(self.bits)

    @property
    def width(self) -> int:
        return self.version.width

    @classmethod
    def parse(cls, text: str) -> "Address":
        text = text.strip()
        bits = _v4_bits(text)
        if bits is not None:
            return cls(IPVersion.V4, bits)
        addr = ipaddress.ip_address(text)
        version = IPVersion.V4 if addr.version == 4 else IPVersion.V6
        return cls(version, int(addr))

    def reverse_pointer(self) -> str:
        """Reverse-DNS name (in-addr.arpa / ip6.arpa) for this address."""
        if self.version is IPVersion.V4:
            return ipaddress.IPv4Address(self.bits).reverse_pointer
        return ipaddress.IPv6Address(self.bits).reverse_pointer

    def __str__(self) -> str:
        text = self._text
        if text is None:
            b = self.bits
            if self.version is IPVersion.V4:
                text = f"{b >> 24}.{b >> 16 & 255}.{b >> 8 & 255}.{b & 255}"
            else:
                text = str(ipaddress.IPv6Address(b))
            _set(self, "_text", text)
        return text


def parse_reverse_pointer(name: str) -> Address:
    """Inverse of :meth:`Address.reverse_pointer`."""
    name = name.strip().rstrip(".")
    if name.endswith(".in-addr.arpa"):
        octets = name[: -len(".in-addr.arpa")].split(".")
        if len(octets) != 4:
            raise ValueError(f"bad v4 reverse pointer: {name}")
        return Address.parse(".".join(reversed(octets)))
    if name.endswith(".ip6.arpa"):
        nibbles = name[: -len(".ip6.arpa")].split(".")
        if len(nibbles) != 32:
            raise ValueError(f"bad v6 reverse pointer: {name}")
        hexstr = "".join(reversed(nibbles))
        return Address(IPVersion.V6, int(hexstr, 16))
    raise ValueError(f"not a reverse pointer: {name}")


class Prefix(Frozen):
    """CIDR prefix in canonical form (all host bits of `base` zero)."""

    # `key` is one int per prefix, as `Address.key` is per address; the
    # length takes the low 8 bits (it is at most 128).
    __slots__ = ("base", "length", "key")
    _fields = ("base", "length")

    def __init__(self, base: Address, length: int):
        width = base.width
        if not 0 <= length <= width:
            raise ValueError(f"prefix length {length} out of range")
        if base.bits & ((1 << (width - length)) - 1):
            raise ValueError(f"prefix base {base} has nonzero host bits")
        _set(self, "base", base)
        _set(self, "length", length)
        _set(self, "key", base.key << 8 | length)

    def __hash__(self) -> int:
        return hash((self.base.bits, self.length))

    @property
    def version(self) -> IPVersion:
        return self.base.version

    @property
    def host_bits(self) -> int:
        return self.base.width - self.length

    @property
    def host_mask(self) -> int:
        return (1 << self.host_bits) - 1

    @property
    def num_addresses(self) -> int:
        return 1 << self.host_bits

    def contains(self, address: Address) -> bool:
        if address.version is not self.version:
            return False
        return (address.bits & ~self.host_mask) == self.base.bits

    def covers(self, other: "Prefix") -> bool:
        """True if every address of `other` is inside this prefix."""
        return self.length <= other.length and self.contains(other.base)

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        text = text.strip()
        base, slash, length_text = text.partition("/")
        bits = _v4_bits(base)
        length = _decimal(length_text, 32) if slash else 32
        if bits is not None and length is not None and not bits & ((1 << (32 - length)) - 1):
            return cls(Address(IPVersion.V4, bits), length)
        net = ipaddress.ip_network(text, strict=True)
        version = IPVersion.V4 if net.version == 4 else IPVersion.V6
        return cls(Address(version, int(net.network_address)), net.prefixlen)

    def __str__(self) -> str:
        return f"{self.base}/{self.length}"


class PrefixIndex:
    """Prefixes bucketed by (version, length), longest first.

    Finding the longest prefix that contains an address costs at most one
    dict probe per distinct length held, keyed by the address's top bits,
    instead of a containment test per prefix.
    """

    __slots__ = ("buckets",)

    def __init__(self, prefixes: Iterable[Prefix] = ()):
        # (version, host bits, {base bits >> host bits: prefix}), host bits ascending.
        self.buckets: list[tuple[IPVersion, int, dict[int, Prefix]]] = []
        for prefix in prefixes:
            self.add(prefix)

    def add(self, prefix: Prefix) -> None:
        version, host = prefix.version, prefix.host_bits
        for v, h, table in self.buckets:
            if v is version and h == host:
                table[prefix.base.bits >> host] = prefix
                return
        self.buckets.append((version, host, {prefix.base.bits >> host: prefix}))
        self.buckets.sort(key=lambda bucket: bucket[1])

    def discard(self, prefix: Prefix) -> None:
        version, host = prefix.version, prefix.host_bits
        for i, (v, h, table) in enumerate(self.buckets):
            if v is version and h == host:
                table.pop(prefix.base.bits >> host, None)
                if not table:
                    del self.buckets[i]
                return


def longest_match(index: PrefixIndex, address: Address) -> Prefix | None:
    """The longest prefix in `index` that contains `address`, or None."""
    version, bits = address.version, address.bits
    for v, host, table in index.buckets:
        if v is version:
            prefix = table.get(bits >> host)
            if prefix is not None:
                return prefix
    return None


class PrefixPool(Frozen):
    """Non-empty, same-version, pairwise disjoint set of prefixes."""

    # `offsets` holds the slot of each prefix's first address in the pool's
    # union, in `prefixes` order: offsets[i] = sum of the sizes of prefixes[:i].
    __slots__ = ("prefixes", "total_addresses", "offsets", "_index")
    _fields = ("prefixes",)

    def __init__(self, prefixes: tuple[Prefix, ...]):
        if not prefixes:
            raise InvalidPool("pool must contain at least one prefix")
        version = prefixes[0].version
        for p in prefixes:
            if p.version is not version:
                raise InvalidPool("pool mixes IP versions")
        # CIDR prefixes are nested or disjoint, so in (base, length) order a
        # prefix that covers another also covers its next neighbour.
        ordered = sorted(prefixes, key=lambda p: (p.base.bits, p.length))
        for a, b in zip(ordered, ordered[1:]):
            if a.covers(b):
                raise InvalidPool(f"overlapping prefixes {a} and {b}")
        offsets, total = [], 0
        for p in prefixes:
            offsets.append(total)
            total += p.num_addresses
        super().__init__(prefixes)
        _set(self, "total_addresses", total)
        _set(self, "offsets", tuple(offsets))
        _set(self, "_index", PrefixIndex(prefixes))

    @property
    def version(self) -> IPVersion:
        return self.prefixes[0].version

    def contains(self, address: Address) -> bool:
        return longest_match(self._index, address) is not None

    @classmethod
    def parse(cls, text: str) -> "PrefixPool":
        parts = [p for p in (s.strip() for s in text.split(",")) if p]
        return cls(tuple(Prefix.parse(p) for p in parts))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.prefixes)
