import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopsim.addressing import Address, IPVersion
from hopsim.errors import VersionMismatch
from hopsim.flowtable import (
    AddrField,
    Direction,
    FlowRule,
    HOP_RULE_PRIORITY,
    PEER_RULE_PRIORITY,
    PERMIT_RULE_PRIORITY,
    FlowTable,
    Packet,
    apply_detail,
    endpoint_table,
    expire_external,
    install_hop_rules,
    install_peer_rules,
)
from hopsim.session import _apply_chain

from conftest import rewritten_inbound

INTERNAL = Address.parse("10.0.0.1")
EXT1 = Address.parse("184.164.243.7")
EXT2 = Address.parse("184.164.243.99")
CLIENT = Address.parse("184.164.242.5")


def packet(src=CLIENT, dst=INTERNAL):
    return Packet(src, dst)


def installed(install, internal, external, table=None, **options):
    """`table` (by default a new empty one) once `install` has written to it."""
    table = FlowTable() if table is None else table
    assert install(table, internal, external, **options) is None
    return table


class TestInstallHopRules:
    def test_empty_table_gets_two_rules(self):
        table = installed(install_hop_rules, INTERNAL, EXT1)
        assert len(table.rules) == 2
        assert {r.direction for r in table.rules} == set(Direction)

    def test_idempotent(self):
        table = installed(install_hop_rules, INTERNAL, EXT1)
        before = list(table.rules)
        install_hop_rules(table, INTERNAL, EXT1)
        assert table.rules == before

    def test_reinstall_removes_old_external(self):
        table = installed(install_hop_rules, INTERNAL, EXT1)
        install_hop_rules(table, INTERNAL, EXT2)
        referenced = {r.value for r in table.rules} | {r.target for r in table.rules if r.target}
        assert EXT1 not in referenced
        assert len(table.rules) == 2

    def test_version_mismatch(self):
        table = endpoint_table(INTERNAL)
        before = list(table.rules)
        with pytest.raises(VersionMismatch):
            install_hop_rules(table, INTERNAL, Address.parse("2001:db8::1"))
        assert table.rules == before

    def test_equal_addresses_rejected(self):
        table = endpoint_table(INTERNAL)
        before = list(table.rules)
        with pytest.raises(ValueError):
            install_hop_rules(table, INTERNAL, INTERNAL)
        assert table.rules == before

    def test_preserves_unrelated_rules(self):
        table = endpoint_table(INTERNAL)
        base = list(table.rules)
        install_hop_rules(table, INTERNAL, EXT1)
        assert len(table.rules) == len(base) + 2
        assert table.rules[:len(base)] == base


class TestApply:
    def test_outbound_rewrites_src_only(self):
        table = installed(install_hop_rules, INTERNAL, EXT1)
        before = packet(src=INTERNAL, dst=CLIENT)
        after = apply_detail(table, before, Direction.OUTBOUND)[0]
        assert after.src == EXT1
        assert after.dst == before.dst

    def test_inbound_restores_internal(self):
        table = installed(install_hop_rules, INTERNAL, EXT1)
        after = apply_detail(table, packet(dst=EXT1), Direction.INBOUND)[0]
        assert after.dst == INTERNAL

    def test_no_match_default_drop(self):
        table = FlowTable()
        assert apply_detail(table, packet(), Direction.INBOUND)[0] is None

    def test_round_trip_composition(self):
        # Outbound rewrite at the tracking sender, inbound rewrite at the
        # hopping receiver: the application-layer addressing is restored.
        sender = installed(install_peer_rules, INTERNAL, EXT1)
        receiver = installed(install_hop_rules, INTERNAL, EXT1)
        wire = apply_detail(sender, packet(dst=INTERNAL), Direction.OUTBOUND)[0]
        assert wire.dst == EXT1
        delivered = apply_detail(receiver, wire, Direction.INBOUND)[0]
        assert delivered.dst == INTERNAL

    def test_priority_wins(self):
        low = FlowRule(1, Direction.INBOUND, AddrField.DST, EXT1)
        table = installed(install_hop_rules, INTERNAL, EXT1, FlowTable(rules=(low,)))
        assert apply_detail(table, packet(dst=EXT1), Direction.INBOUND)[0].dst == INTERNAL

    def test_deterministic(self):
        table = installed(install_hop_rules, INTERNAL, EXT1, endpoint_table(INTERNAL))
        pkt = packet(dst=EXT1)
        results = {apply_detail(table, pkt, Direction.INBOUND)[0] for _ in range(5)}
        assert len(results) == 1

    @given(st.integers(0, 2**32 - 1))
    def test_rewrite_preserves_every_other_field(self, dst_bits):
        table = installed(install_hop_rules, INTERNAL, EXT1)
        before = Packet(INTERNAL, Address(IPVersion.V4, dst_bits))
        after = apply_detail(table, before, Direction.OUTBOUND)[0]
        assert after.src == EXT1
        assert after.dst == before.dst


# A few addresses per version, so that generated rules share match keys
# and packets hit rules on both fields.
UNIVERSE = {
    IPVersion.V4: [Address.parse(f"10.0.0.{i}") for i in range(1, 4)],
    IPVersion.V6: [Address.parse(f"2001:db8::{i}") for i in range(1, 4)],
}


@st.composite
def flow_rules(draw):
    version = draw(st.sampled_from(list(IPVersion)))
    direction = draw(st.sampled_from(list(Direction)))
    field = draw(st.sampled_from(list(AddrField)))
    value = draw(st.sampled_from(UNIVERSE[version]))
    target = draw(st.none() | st.sampled_from(UNIVERSE[version]))
    priority = draw(st.sampled_from([PERMIT_RULE_PRIORITY, PEER_RULE_PRIORITY, HOP_RULE_PRIORITY]))
    return FlowRule(priority, direction, field, value, target)


# Every packet the universe allows, in every direction.
PROBES = [
    (Packet(src, dst), direction)
    for direction in Direction
    for addresses in UNIVERSE.values()
    for src in addresses
    for dst in addresses
]


def scan_lookup(table, packet, direction):
    """Reference classifier: a linear scan, insertion order breaks ties.

    No match drops the packet, a permit passes it, and a rewrite sets the
    matched field to the rule's target.
    """
    best = None
    for rule in table.rules:
        observed = packet.src if rule.field is AddrField.SRC else packet.dst
        hits = rule.direction is direction and observed == rule.value
        if hits and (best is None or rule.priority > best.priority):
            best = rule
    if best is None:
        return None, None
    if best.target is None:
        return packet, best
    if best.field is AddrField.SRC:
        return Packet(best.target, packet.dst), best
    return Packet(packet.src, best.target), best


class TestIndexedLookup:
    @given(st.lists(flow_rules(), max_size=24, unique_by=lambda r: (r.key, r.priority)))
    def test_matches_linear_scan(self, rules):
        table = FlowTable(rules)
        for pkt, direction in PROBES:
            result, rule = apply_detail(table, pkt, direction)
            expected, expected_rule = scan_lookup(table, pkt, direction)
            assert rule is expected_rule
            assert result == expected


# Writes: the rules an install replaces, chosen by predicates on each
# rule's direction, field and target rather than by the rule's key.


def _own_hop_rule(rule):
    return rule.target is not None and (
        (rule.direction is Direction.OUTBOUND and rule.field is AddrField.SRC)
        or (rule.direction is Direction.INBOUND and rule.field is AddrField.DST)
    )


def _peer_rule(rule):
    return rule.target is not None and (
        (rule.direction is Direction.OUTBOUND and rule.field is AddrField.DST)
        or (rule.direction is Direction.INBOUND and rule.field is AddrField.SRC)
    )


def _match_and_priority(rule):
    return rule.direction, rule.field, rule.value, rule.priority


def reference_install(table, internal, external, *, mirror, grace):
    if internal.version is not external.version:
        raise VersionMismatch("versions differ")
    if internal == external:
        raise ValueError("addresses must differ")
    selector = _peer_rule if mirror else _own_hop_rule
    priority = PEER_RULE_PRIORITY if mirror else HOP_RULE_PRIORITY
    kept = [
        r for r in table.rules
        if not selector(r)
        or (grace and r.direction is Direction.INBOUND and r.value != external)
    ]
    out_field, in_field = (AddrField.DST, AddrField.SRC) if mirror else (AddrField.SRC, AddrField.DST)
    fresh = [
        FlowRule(priority, Direction.OUTBOUND, out_field, internal, external),
        FlowRule(priority, Direction.INBOUND, in_field, external, internal),
    ]
    existing = {_match_and_priority(r) for r in kept}
    kept.extend(r for r in fresh if _match_and_priority(r) not in existing)
    return FlowTable(kept)


def reference_expire(table, external):
    return FlowTable(
        r for r in table.rules
        if not (
            r.target is not None
            and r.direction is Direction.INBOUND
            and r.value == external
        )
    )


# v6 addresses with the bits of the v4 ones: keys that differ only in version.
WRITE_UNIVERSE = {
    IPVersion.V4: UNIVERSE[IPVersion.V4],
    IPVersion.V6: [Address(IPVersion.V6, a.bits) for a in UNIVERSE[IPVersion.V4]],
}
WRITE_PROBES = [
    (Packet(src, dst), direction)
    for direction in Direction
    for addresses in WRITE_UNIVERSE.values()
    for src in addresses
    for dst in addresses
]


@st.composite
def writes(draw):
    version = draw(st.sampled_from(list(IPVersion)))
    internal = draw(st.sampled_from(WRITE_UNIVERSE[version]))
    external = draw(st.sampled_from(WRITE_UNIVERSE[version]))
    return draw(st.sampled_from(["hop", "peer", "expire"])), internal, external, draw(st.booleans())


def _write(op, table, internal, external, grace, reference):
    """The reference returns a new table; the write under test edits `table`."""
    if op == "expire":
        return (reference_expire if reference else expire_external)(table, external)
    if reference:
        return reference_install(table, internal, external, mirror=op == "peer", grace=grace)
    install = install_peer_rules if op == "peer" else install_hop_rules
    return install(table, internal, external, grace=grace)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except (ValueError, VersionMismatch) as exc:
        return None, type(exc)


class TestKeyedWrites:
    @given(
        st.lists(flow_rules(), max_size=12, unique_by=lambda r: (r.key, r.priority)),
        st.lists(writes(), min_size=1, max_size=8),
    )
    def test_matches_predicate_selection(self, rules, ops):
        table = FlowTable(rules)
        for op, internal, external, grace in ops:
            for pkt, direction in WRITE_PROBES:
                _apply_chain(table, pkt, direction)
            before = FlowTable(table.rules)
            memo = dict(table.memo)
            result, error = _outcome(_write, op, table, internal, external, grace, False)
            expected, expected_error = _outcome(
                _write, op, before, internal, external, grace, True
            )
            assert error is expected_error and result is None
            if error is not None:
                assert table.rules == before.rules
                continue
            assert table.rules == expected.rules
            if op == "expire":
                assert_expiry_kept_exact_entries(table, memo, external)
            else:
                assert not table.memo
            assert [r.key for r in table.rules] == [r.key for r in expected.rules]
            for pkt, direction in WRITE_PROBES:
                assert apply_detail(table, pkt, direction) == apply_detail(expected, pkt, direction)

    def test_key_is_the_match(self):
        rule = FlowRule(5, Direction.INBOUND, AddrField.SRC, EXT1)
        assert rule.key == (Direction.INBOUND, AddrField.SRC, EXT1.key)
        assert "key" not in repr(rule)
        assert rule == rule.replace() and hash(rule) == hash(rule.replace())


def uncached_chain(table, packet, direction):
    """The two-lookup rewrite chain with no memo."""
    result, rule = apply_detail(table, packet, direction)
    if result is None or rule is None or rule.target is None:
        return result
    second, rule2 = apply_detail(table, result, direction)
    if second is not None and rule2 is not None and rule2.target is not None:
        return second
    return result


def assert_expiry_kept_exact_entries(table, memo_before, external):
    """After an expiry of `external`: the memo kept every outbound entry
    and no inbound one that names `external` in its header or result, and
    each entry it kept is the uncached answer for the rules now held."""
    for header, result in memo_before.items():
        if header[0] is Direction.OUTBOUND:
            assert table.memo[header] == result
    for header, result in table.memo.items():
        assert memo_before[header] == result
        if header[0] is Direction.INBOUND:
            named = {header[1], header[2]}
            if result is not None:
                named |= {result.src.key, result.dst.key}
            assert external.key not in named
    for pkt, direction in WRITE_PROBES:
        key = (direction, pkt.src.key, pkt.dst.key)
        if key in table.memo:
            assert table.memo[key] == uncached_chain(table, pkt, direction)


class TestDecisionCache:
    @given(
        st.lists(flow_rules(), max_size=16, unique_by=lambda r: (r.key, r.priority)),
        st.lists(writes(), max_size=4),
    )
    def test_matches_uncached_chain(self, rules, ops):
        table = FlowTable(rules)
        for write in [None, *ops]:
            if write is not None:
                op, internal, external, grace = write
                memo = dict(table.memo)
                _, error = _outcome(_write, op, table, internal, external, grace, False)
                if error is None and op == "expire":
                    assert_expiry_kept_exact_entries(table, memo, external)
                elif error is None:
                    assert not table.memo
            for pkt, direction in WRITE_PROBES:
                assert _apply_chain(table, pkt, direction) == uncached_chain(table, pkt, direction)
            # The memo keeps each answer by header value, so an equal but
            # distinct packet, probed as the packet path probes, hits it.
            for pkt, direction in WRITE_PROBES:
                key = (direction, pkt.src.key, pkt.dst.key)
                assert table.memo[key] == uncached_chain(table, pkt.replace(), direction)
            assert len(table.memo) == len(WRITE_PROBES)

    def test_expiry_keeps_the_entries_it_cannot_change(self):
        # The session's expiry: after a hop from EXT1 to EXT2 with grace,
        # EXT1's inbound rule goes, and only EXT1's entries with it.
        table = installed(install_hop_rules, INTERNAL, EXT1, endpoint_table(INTERNAL))
        install_hop_rules(table, INTERNAL, EXT2, grace=True)
        headers = [
            (packet(src=INTERNAL, dst=CLIENT), Direction.OUTBOUND),
            (packet(dst=EXT1), Direction.INBOUND),
            (packet(dst=EXT2), Direction.INBOUND),
        ]
        for pkt, direction in headers:
            _apply_chain(table, pkt, direction)
        expire_external(table, EXT1)
        assert set(table.memo) == {
            (Direction.OUTBOUND, INTERNAL.key, CLIENT.key),
            (Direction.INBOUND, CLIENT.key, EXT2.key),
        }
        assert table.memo[(Direction.INBOUND, CLIENT.key, EXT2.key)] == packet()

    def test_expiry_of_a_chain_middle_drops_every_inbound_entry(self):
        # dst A -> B, then dst B -> C: the memo keeps (s, A) -> (s, C), and
        # neither names B. Expiring B ends the chain at (s, B), so an
        # inbound rule rewriting to the expired address empties the
        # inbound memo.
        a, b, c = INTERNAL, EXT1, EXT2
        inbound, dst = Direction.INBOUND, AddrField.DST
        table = FlowTable([
            FlowRule(HOP_RULE_PRIORITY, inbound, dst, a, b),
            FlowRule(HOP_RULE_PRIORITY, inbound, dst, b, c),
            FlowRule(PERMIT_RULE_PRIORITY, Direction.OUTBOUND, AddrField.SRC, a),
        ])
        assert _apply_chain(table, packet(dst=a), inbound) == packet(dst=c)
        _apply_chain(table, packet(src=a), Direction.OUTBOUND)
        expire_external(table, b)
        assert list(table.memo) == [(Direction.OUTBOUND, a.key, INTERNAL.key)]
        assert _apply_chain(table, packet(dst=a), inbound) == packet(dst=b)

    def test_memo_stays_out_of_identity(self):
        # Tables with equal rules are distinct holders: each has its own
        # memo, and a write to one leaves the other as it was.
        table = installed(install_hop_rules, INTERNAL, EXT1, endpoint_table(INTERNAL))
        install_peer_rules(table, CLIENT, EXT2)
        twin = FlowTable(table.rules)
        assert twin.rules == table.rules and twin.rules is not table.rules
        _apply_chain(table, packet(src=EXT2, dst=EXT1), Direction.INBOUND)
        assert table.memo and not twin.memo
        expire_external(twin, EXT1)
        assert table.memo and twin.rules != table.rules
        assert rewritten_inbound(table, INTERNAL, (EXT1,)) == {EXT1}


class TestGraceSet:
    def test_fresh_install(self):
        table = installed(install_hop_rules, INTERNAL, EXT1)
        assert rewritten_inbound(table, INTERNAL, (EXT1, EXT2)) == {EXT1}

    def test_empty_table(self):
        assert rewritten_inbound(FlowTable(), INTERNAL, (EXT1, EXT2)) == set()

    def test_grace_window_holds_both_addresses(self):
        table = installed(install_hop_rules, INTERNAL, EXT1)
        install_hop_rules(table, INTERNAL, EXT2, grace=True)
        # Old external still accepts in-flight packets...
        assert rewritten_inbound(table, INTERNAL, (EXT1, EXT2)) == {EXT1, EXT2}
        # ...until the grace window expires.
        assert expire_external(table, EXT1) is None
        assert rewritten_inbound(table, INTERNAL, (EXT1, EXT2)) == {EXT2}

    def test_outside_grace_single_resident(self):
        table = FlowTable()
        for ext in (EXT1, EXT2, EXT1):
            install_hop_rules(table, INTERNAL, ext)
            assert rewritten_inbound(table, INTERNAL, (EXT1, EXT2)) == {ext}


class TestEndpointTable:
    def test_unmatched_inbound_dropped(self):
        table = endpoint_table(INTERNAL)
        probe = packet(dst=Address.parse("184.164.243.250"))
        assert apply_detail(table, probe, Direction.INBOUND)[0] is None

    def test_own_egress_permitted(self):
        table = endpoint_table(INTERNAL)
        before = packet(src=INTERNAL, dst=CLIENT)
        assert apply_detail(table, before, Direction.OUTBOUND)[0] == before

    def test_fixed_internal_reachable(self):
        table = endpoint_table(INTERNAL)
        own = packet(dst=INTERNAL)
        assert apply_detail(table, own, Direction.INBOUND)[0] == own


class TestValidation:
    def test_duplicate_match_priority_rejected(self):
        rule = FlowRule(5, Direction.INBOUND, AddrField.DST, EXT1)
        with pytest.raises(ValueError):
            FlowTable(rules=(rule, rule))
        with pytest.raises(ValueError):
            FlowTable(rules=(rule, rule.replace(target=EXT2)))
        # Not adjacent: a rule of another priority on the same match between them.
        with pytest.raises(ValueError):
            FlowTable(rules=(rule, rule.replace(priority=7), rule))

    def test_rewrite_rule_version_checked(self):
        with pytest.raises(VersionMismatch):
            FlowRule(5, Direction.INBOUND, AddrField.DST, EXT1, Address.parse("2001:db8::9"))

    def test_packet_versions_must_agree(self):
        with pytest.raises(VersionMismatch):
            Packet(INTERNAL, Address.parse("2001:db8::9"))
