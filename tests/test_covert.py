import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopsim.addressing import Address, IPVersion, Prefix, PrefixPool
from hopsim.covert import (
    PtrRecordSet,
    ReverseZone,
    SyncPayload,
    decode_payload,
    encode_payload,
    parse_zone,
    zone_lines,
)
from hopsim.errors import (
    CovertDecodeError,
    IncompleteSet,
    IntegrityFailure,
    MalformedRecord,
    PayloadTooLarge,
)
from hopsim.rng import SplitMix64

ANCHOR = Address.parse("203.0.113.9")

_LABEL_RE = re.compile(r"^[a-z0-9]([a-z0-9-]{0,61}[a-z0-9])?$")


def dns_name_valid(name: str) -> bool:
    """Independent validator: label charset/length rules, total length."""
    if len(name) > 253:
        return False
    labels = name.split(".")
    return all(_LABEL_RE.fullmatch(label) for label in labels)


def minimal_payload() -> SyncPayload:
    return SyncPayload(0, PrefixPool.parse("192.0.2.0/24"), "fixed:1000.0", 0.0)


def random_payload(rng: SplitMix64) -> SyncPayload:
    version = IPVersion.V4 if rng.below(2) else IPVersion.V6
    width = version.width
    prefixes = []
    n_prefixes = rng.below(4) + 1
    length = 16 + rng.below(9)  # /16../24 keeps blocks disjoint by top bits
    for _ in range(n_prefixes):
        top = rng.below(1 << 14)
        base_bits = top << (width - 14)
        mask = ((1 << length) - 1) << (width - length)
        candidate = Prefix(Address(version, base_bits & mask), length)
        if not any(p.covers(candidate) or candidate.covers(p) for p in prefixes):
            prefixes.append(candidate)
    model = "".join("abcdefgh"[rng.below(8)] for _ in range(rng.below(12) + 1))
    return SyncPayload(
        rng.next_u64(), PrefixPool(tuple(prefixes)), model, float(rng.below(10_000_000))
    )


class TestEncode:
    def test_minimal_payload_round_trips(self):
        payload = minimal_payload()
        records = encode_payload(payload, ANCHOR)
        assert len(records.names) >= 1
        assert decode_payload(records) == payload

    def test_every_name_is_dns_valid(self):
        rng = SplitMix64(88)
        for _ in range(50):
            records = encode_payload(random_payload(rng), ANCHOR)
            for name in records.names:
                assert dns_name_valid(name), name

    def test_volume_bound_small_payload(self):
        # <= 512 serialized bytes must fit in <= 16 names of <= 253 chars.
        prefixes = tuple(
            Prefix(Address(IPVersion.V6, i << 100), 28) for i in range(28)
        )
        payload = SyncPayload(1, PrefixPool(prefixes), "m" * 10, 5.0)
        assert len(payload.to_bytes()) <= 512
        records = encode_payload(payload, ANCHOR)
        assert len(records.names) <= 16
        assert all(len(n) <= 253 for n in records.names)

    def test_size_boundary(self):
        def payload_with_bytes(total: int) -> SyncPayload:
            # v6 prefix entries cost 17 bytes; the fixed head is 21 bytes
            # plus the model id.
            k = (total - 21) // 17
            model_len = total - 21 - 17 * k
            prefixes = tuple(Prefix(Address(IPVersion.V6, i << 96), 32) for i in range(k))
            return SyncPayload(7, PrefixPool(prefixes), "x" * model_len, 1.0)

        fits = payload_with_bytes(4096)
        assert len(fits.to_bytes()) == 4096
        encode_payload(fits, ANCHOR)
        too_big = payload_with_bytes(4097)
        assert len(too_big.to_bytes()) == 4097
        with pytest.raises(PayloadTooLarge):
            encode_payload(too_big, ANCHOR)

    def test_custom_domain_tail(self):
        records = encode_payload(minimal_payload(), ANCHOR, "cdn-static.example")
        assert all(n.endswith(".cdn-static.example") for n in records.names)
        assert decode_payload(records, "cdn-static.example") == minimal_payload()


class TestDecode:
    def test_permutation_invariant(self):
        rng = SplitMix64(5)
        payload = random_payload(rng)
        records = encode_payload(payload, ANCHOR)
        names = list(records.names)
        for _ in range(10):
            # Fisher-Yates with the deterministic rng
            for i in range(len(names) - 1, 0, -1):
                j = rng.below(i + 1)
                names[i], names[j] = names[j], names[i]
            shuffled = PtrRecordSet(ANCHOR, tuple(names))
            assert decode_payload(shuffled) == payload

    def test_random_payloads_round_trip(self):
        rng = SplitMix64(99)
        for _ in range(1000):
            payload = random_payload(rng)
            assert decode_payload(encode_payload(payload, ANCHOR)) == payload

    def test_missing_chunk_detected(self):
        prefixes = tuple(Prefix(Address(IPVersion.V6, i << 96), 32) for i in range(20))
        payload = SyncPayload(3, PrefixPool(prefixes), "big", 2.0)
        records = encode_payload(payload, ANCHOR)
        assert len(records.names) > 2
        truncated = PtrRecordSet(ANCHOR, records.names[:-1])
        with pytest.raises(IncompleteSet):
            decode_payload(truncated)

    def test_single_character_flip_detected(self):
        payload = minimal_payload()
        records = encode_payload(payload, ANCHOR)
        name = records.names[0]
        flipped = name.replace(name[4], "z" if name[4] != "z" else "q", 1)
        damaged = PtrRecordSet(ANCHOR, (flipped,) + records.names[1:])
        with pytest.raises((MalformedRecord, IntegrityFailure, IncompleteSet)):
            decode_payload(damaged)

    def test_empty_set(self):
        with pytest.raises(IncompleteSet):
            decode_payload(PtrRecordSet(ANCHOR, ()))

    def test_duplicate_chunk_rejected(self):
        records = encode_payload(minimal_payload(), ANCHOR)
        doubled = PtrRecordSet(ANCHOR, records.names + (records.names[0],))
        with pytest.raises(MalformedRecord):
            decode_payload(doubled)

    def test_wrong_tail_rejected(self):
        records = encode_payload(minimal_payload(), ANCHOR)
        with pytest.raises(MalformedRecord):
            decode_payload(records, "other-tail.net")

    @given(st.integers(0, 2**64 - 1), st.floats(0, 1e9), st.text("abcdefgh", min_size=1, max_size=20))
    def test_round_trip_property(self, seed, epoch, model):
        payload = SyncPayload(seed, PrefixPool.parse("198.51.100.0/24"), model, epoch)
        assert decode_payload(encode_payload(payload, ANCHOR)) == payload


class TestCorruptionSweep:
    def test_detection_rate_over_random_single_flips(self):
        rng = SplitMix64(123)
        payload = random_payload(rng)
        records = encode_payload(payload, ANCHOR)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-."
        trials, detected = 2000, 0
        for _ in range(trials):
            names = list(records.names)
            which = rng.below(len(names))
            name = names[which]
            pos = rng.below(len(name))
            replacement = alphabet[rng.below(len(alphabet))]
            while replacement == name[pos]:
                replacement = alphabet[rng.below(len(alphabet))]
            names[which] = name[:pos] + replacement + name[pos + 1 :]
            try:
                result = decode_payload(PtrRecordSet(ANCHOR, tuple(names)))
                if result != payload:
                    detected += 1  # silent corruption would be the real failure
            except CovertDecodeError:
                detected += 1
        assert detected / trials >= 0.999


class TestReverseZone:
    def test_unregistered_lookup_is_empty(self):
        zone = ReverseZone()
        assert zone.lookup(ANCHOR).names == ()

    def test_register_then_lookup(self):
        zone = ReverseZone()
        records = encode_payload(minimal_payload(), ANCHOR)
        zone.register(records)
        assert zone.lookup(ANCHOR) == records

    def test_two_anchors_independent(self):
        zone = ReverseZone()
        other_anchor = Address.parse("203.0.113.77")
        rng = SplitMix64(6)
        p1, p2 = random_payload(rng), random_payload(rng)
        zone.register(encode_payload(p1, ANCHOR))
        zone.register(encode_payload(p2, other_anchor))
        assert decode_payload(zone.lookup(ANCHOR)) == p1
        assert decode_payload(zone.lookup(other_anchor)) == p2


class TestZoneFiles:
    def test_lines_round_trip(self):
        records = encode_payload(minimal_payload(), ANCHOR)
        lines = zone_lines(records)
        assert all(" PTR " in line for line in lines)
        assert lines[0].startswith("9.113.0.203.in-addr.arpa")
        assert parse_zone("\n".join(lines)) == records

    def test_v6_anchor(self):
        anchor6 = Address.parse("2001:db8::5")
        records = encode_payload(minimal_payload(), anchor6)
        parsed = parse_zone("\n".join(zone_lines(records)))
        assert parsed.anchor_ip == anchor6

    def test_mixed_anchors_rejected(self):
        a = zone_lines(encode_payload(minimal_payload(), ANCHOR))
        b = zone_lines(encode_payload(minimal_payload(), Address.parse("203.0.113.8")))
        with pytest.raises(MalformedRecord):
            parse_zone("\n".join(a + b))

    def test_garbage_line_rejected(self):
        with pytest.raises(MalformedRecord):
            parse_zone("what is this\n")
