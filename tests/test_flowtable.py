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
    apply,
    apply_detail,
    endpoint_table,
    expire_external,
    grace_set,
    install_hop_rules,
    install_peer_rules,
)
from hopsim.session import _apply_chain

INTERNAL = Address.parse("10.0.0.1")
EXT1 = Address.parse("184.164.243.7")
EXT2 = Address.parse("184.164.243.99")
CLIENT = Address.parse("184.164.242.5")


def packet(src=CLIENT, dst=INTERNAL, pkt_id=1):
    return Packet(src, dst, pkt_id)


class TestInstallHopRules:
    def test_empty_table_gets_two_rules(self):
        table = install_hop_rules(FlowTable(), INTERNAL, EXT1)
        assert len(table.rules) == 2
        assert {r.direction for r in table.rules} == set(Direction)

    def test_idempotent(self):
        table = install_hop_rules(FlowTable(), INTERNAL, EXT1)
        assert install_hop_rules(table, INTERNAL, EXT1) == table

    def test_reinstall_removes_old_external(self):
        t1 = install_hop_rules(FlowTable(), INTERNAL, EXT1)
        t2 = install_hop_rules(t1, INTERNAL, EXT2)
        referenced = {r.value for r in t2.rules} | {r.target for r in t2.rules if r.target}
        assert EXT1 not in referenced
        assert len(t2.rules) == 2

    def test_version_mismatch(self):
        with pytest.raises(VersionMismatch):
            install_hop_rules(FlowTable(), INTERNAL, Address.parse("2001:db8::1"))

    def test_equal_addresses_rejected(self):
        with pytest.raises(ValueError):
            install_hop_rules(FlowTable(), INTERNAL, INTERNAL)

    def test_preserves_unrelated_rules(self):
        base = endpoint_table(INTERNAL)
        table = install_hop_rules(base, INTERNAL, EXT1)
        assert len(table.rules) == len(base.rules) + 2


class TestApply:
    def test_outbound_rewrites_src_only(self):
        table = install_hop_rules(FlowTable(), INTERNAL, EXT1)
        before = packet(src=INTERNAL, dst=CLIENT, pkt_id=9)
        after = apply(table, before, Direction.OUTBOUND)
        assert after.src == EXT1
        assert (after.dst, after.id) == (before.dst, before.id)

    def test_inbound_restores_internal(self):
        table = install_hop_rules(FlowTable(), INTERNAL, EXT1)
        after = apply(table, packet(dst=EXT1), Direction.INBOUND)
        assert after.dst == INTERNAL

    def test_no_match_default_drop(self):
        table = FlowTable()
        assert apply(table, packet(), Direction.INBOUND) is None

    def test_round_trip_composition(self):
        # Outbound rewrite at the tracking sender, inbound rewrite at the
        # hopping receiver: the application-layer addressing is restored.
        sender = install_peer_rules(FlowTable(), INTERNAL, EXT1)
        receiver = install_hop_rules(FlowTable(), INTERNAL, EXT1)
        wire = apply(sender, packet(dst=INTERNAL), Direction.OUTBOUND)
        assert wire.dst == EXT1
        delivered = apply(receiver, wire, Direction.INBOUND)
        assert delivered.dst == INTERNAL

    def test_priority_wins(self):
        low = FlowRule(1, Direction.INBOUND, AddrField.DST, EXT1)
        table = install_hop_rules(FlowTable(rules=(low,)), INTERNAL, EXT1)
        assert apply(table, packet(dst=EXT1), Direction.INBOUND).dst == INTERNAL

    def test_deterministic(self):
        table = install_hop_rules(endpoint_table(INTERNAL), INTERNAL, EXT1)
        pkt = packet(dst=EXT1)
        results = {apply(table, pkt, Direction.INBOUND) for _ in range(5)}
        assert len(results) == 1

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1))
    def test_rewrite_preserves_every_other_field(self, dst_bits, pkt_id):
        table = install_hop_rules(FlowTable(), INTERNAL, EXT1)
        before = Packet(INTERNAL, Address(IPVersion.V4, dst_bits), pkt_id)
        after = apply(table, before, Direction.OUTBOUND)
        assert after.src == EXT1
        assert (after.dst, after.id) == (before.dst, before.id)


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
    (Packet(src, dst, 7), direction)
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
        return Packet(best.target, packet.dst, packet.id), best
    return Packet(packet.src, best.target, packet.id), best


class TestIndexedLookup:
    @given(st.lists(flow_rules(), max_size=24, unique_by=lambda r: (r.key, r.priority)))
    def test_matches_linear_scan(self, rules):
        table = FlowTable(tuple(rules))
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
    return FlowTable(tuple(kept))


def reference_expire(table, external):
    return FlowTable(tuple(
        r for r in table.rules
        if not (
            r.target is not None
            and r.direction is Direction.INBOUND
            and r.value == external
        )
    ))


# v6 addresses with the bits of the v4 ones: keys that differ only in version.
WRITE_UNIVERSE = {
    IPVersion.V4: UNIVERSE[IPVersion.V4],
    IPVersion.V6: [Address(IPVersion.V6, a.bits) for a in UNIVERSE[IPVersion.V4]],
}
WRITE_PROBES = [
    (Packet(src, dst, 7), direction)
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
        table = FlowTable(tuple(rules))
        for op, internal, external, grace in ops:
            new, error = _outcome(_write, op, table, internal, external, grace, False)
            expected, expected_error = _outcome(
                _write, op, table, internal, external, grace, True
            )
            assert error is expected_error
            if error is not None:
                continue
            assert new.rules == expected.rules
            assert [r.key for r in new.rules] == [r.key for r in expected.rules]
            for pkt, direction in WRITE_PROBES:
                assert apply_detail(new, pkt, direction) == apply_detail(expected, pkt, direction)
            table = new

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


class TestDecisionCache:
    @given(
        st.lists(flow_rules(), max_size=16, unique_by=lambda r: (r.key, r.priority)),
        st.lists(writes(), max_size=4),
    )
    def test_matches_uncached_chain(self, rules, ops):
        tables = [FlowTable(tuple(rules))]
        for op, internal, external, grace in ops:
            new, _ = _outcome(_write, op, tables[-1], internal, external, grace, False)
            if new is not None:
                assert not new.memo
                tables.append(new)
        for table in tables:
            # The second round hits the memo with packets of other ids.
            for round_id in (7, 8):
                for pkt, direction in WRITE_PROBES:
                    pkt = pkt.replace(id=round_id)
                    assert _apply_chain(table, pkt, direction) == uncached_chain(
                        table, pkt, direction
                    )
            assert len(table.memo) == len(WRITE_PROBES)

    def test_memo_stays_out_of_identity(self):
        table = install_peer_rules(install_hop_rules(endpoint_table(INTERNAL), INTERNAL, EXT1),
                                   CLIENT, EXT2)
        twin = FlowTable(table.rules)
        _apply_chain(table, packet(src=EXT2, dst=EXT1), Direction.INBOUND)
        assert table.memo and not twin.memo
        assert table == twin and hash(table) == hash(twin) and repr(table) == repr(twin)
        assert "memo" not in repr(table)


class TestGraceSet:
    def test_fresh_install(self):
        table = install_hop_rules(FlowTable(), INTERNAL, EXT1)
        assert grace_set(table) == {EXT1}

    def test_empty_table(self):
        assert grace_set(FlowTable()) == frozenset()

    def test_grace_window_holds_both_addresses(self):
        t1 = install_hop_rules(FlowTable(), INTERNAL, EXT1)
        t2 = install_hop_rules(t1, INTERNAL, EXT2, grace=True)
        assert grace_set(t2) == {EXT1, EXT2}
        # Old external still accepts in-flight packets...
        assert apply(t2, packet(dst=EXT1), Direction.INBOUND).dst == INTERNAL
        # ...until the grace window expires.
        t3 = expire_external(t2, EXT1)
        assert grace_set(t3) == {EXT2}

    def test_outside_grace_single_resident(self):
        table = FlowTable()
        for ext in (EXT1, EXT2, EXT1):
            table = install_hop_rules(table, INTERNAL, ext)
            assert len(grace_set(table)) == 1


class TestEndpointTable:
    def test_unmatched_inbound_dropped(self):
        table = endpoint_table(INTERNAL)
        probe = packet(dst=Address.parse("184.164.243.250"))
        assert apply(table, probe, Direction.INBOUND) is None

    def test_own_egress_permitted(self):
        table = endpoint_table(INTERNAL)
        before = packet(src=INTERNAL, dst=CLIENT)
        assert apply(table, before, Direction.OUTBOUND) == before

    def test_fixed_internal_reachable(self):
        table = endpoint_table(INTERNAL)
        assert apply(table, packet(dst=INTERNAL), Direction.INBOUND) == packet(dst=INTERNAL)


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
            Packet(INTERNAL, Address.parse("2001:db8::9"), 0)
