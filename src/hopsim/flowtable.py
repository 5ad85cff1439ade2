"""Flow tables that permit or rewrite packets by one address field.

Models the switch state that swaps a fixed internal address for the
hop schedule's current external address.

Tables are immutable values: installs return new tables, so no packet
event can observe a half-updated table.

A rule matches one address field exactly, on packets going one
direction, and then either lets the packet through unchanged (a
permit) or rewrites that same field to its target. A packet that no
rule matches is dropped. Each rule computes its match as a key once,
when it is made. A table holds a handful of rules (the benchmark
workloads reach 5, or 8 in two-way mode), so a lookup scans them for
the packet's source key and destination key; installs and expiries
read the same key instead of the rule's fields.

Since a table never changes once built, it also carries a `memo` that
the session's two-lookup rewrite chain fills per packet header with the
packet that leaves the chain, or None for a drop, as Open vSwitch puts
an exact-match cache in front of its classifier (Pfaff et al., NSDI
2015); a lookup scans only on a memo miss. A new table starts with an
empty memo.
"""

from __future__ import annotations

from enum import Enum

from .addressing import Address
from .errors import VersionMismatch
from .values import Frozen, _set

# All hop-rewrite rules share one priority; endpoint self-permits sit
# below them so rewrites always win.
HOP_RULE_PRIORITY = 100
PEER_RULE_PRIORITY = 90
PERMIT_RULE_PRIORITY = 10


# The Enums in rule keys hash by identity, which agrees with their
# identity equality and runs in C (Enum's own hashes the name in Python).


class Direction(Enum):
    OUTBOUND = "out"
    INBOUND = "in"
    __hash__ = object.__hash__


class AddrField(Enum):
    SRC = "src"
    DST = "dst"
    __hash__ = object.__hash__


class Packet(Frozen):
    """The header a table matches; the session passes a packet's id apart."""

    __slots__ = _fields = ("src", "dst")

    def __init__(self, src: Address, dst: Address):
        if src.version is not dst.version:
            raise VersionMismatch(f"src {src} vs dst {dst}")
        _set(self, "src", src)
        _set(self, "dst", dst)


class FlowRule(Frozen):
    """Match `field == value` going `direction`; rewrite it to `target`.

    With no target the rule is a permit: the packet passes unchanged.
    """

    # `key` is the match as (direction, field, `Address.key`): equal keys
    # are equal matches, and the key hashes and compares in C.
    __slots__ = ("priority", "direction", "field", "value", "target", "key")
    _fields = ("priority", "direction", "field", "value", "target")

    def __init__(self, priority: int, direction: Direction, field: AddrField,
                 value: Address, target: Address | None = None):
        if target is not None and target.version is not value.version:
            raise VersionMismatch(f"rewrite target {target} vs match {value}")
        _set(self, "priority", priority)
        _set(self, "direction", direction)
        _set(self, "field", field)
        _set(self, "value", value)
        _set(self, "target", target)
        _set(self, "key", (direction, field, value.key))


class FlowTable(Frozen):
    """Priority-ordered rules; a packet that none matches is dropped.

    Among the rules that match a packet the highest priority wins, and
    among equal priorities the earliest in `rules`.
    """

    # `memo` is the decision cache that `session._apply_chain` fills: the
    # packet that leaves the chain for a header, or None for a drop. It is
    # exact because the table never changes, and it is not part of the
    # table's value.
    __slots__ = ("rules", "memo")
    _fields = ("rules",)

    def __init__(self, rules: tuple[FlowRule, ...] = ()):
        seen = set()
        for r in rules:
            if (r.key, r.priority) in seen:
                raise ValueError(f"duplicate rule for {r}")
            seen.add((r.key, r.priority))
        _set(self, "rules", rules)
        _set(self, "memo", {})


def _install(
    table: FlowTable,
    internal: Address,
    external: Address,
    *,
    mirror: bool,
    grace: bool,
    priority: int,
) -> FlowTable:
    if internal.version is not external.version:
        raise VersionMismatch(f"{internal} vs {external}")
    if internal == external:
        raise ValueError("internal and external addresses must differ")
    # A hop install rewrites sources out and destinations in. A mirrored
    # (tracking peer) install rewrites destinations out and sources in,
    # so the local application only ever sees the peer's fixed internal
    # address. The rewrite rules an install replaces match the same fields.
    src, dst = AddrField.SRC, AddrField.DST
    out_field, in_field = (dst, src) if mirror else (src, dst)
    outbound = Direction.OUTBOUND
    external_key = external.key
    kept = []
    for r in table.rules:
        direction, fld, key = r.key
        if r.target is None or (direction is outbound) is not (fld is out_field):
            kept.append(r)
        elif grace and direction is not outbound and key != external_key:
            kept.append(r)  # old inbound rules survive until grace expiry
    existing = {(r.key, r.priority) for r in kept}
    fresh = (
        FlowRule(priority, outbound, out_field, internal, external),
        FlowRule(priority, Direction.INBOUND, in_field, external, internal),
    )
    kept.extend(r for r in fresh if (r.key, priority) not in existing)
    return FlowTable(tuple(kept))


def install_hop_rules(
    table: FlowTable, internal: Address, external: Address, *, grace: bool = False
) -> FlowTable:
    """Install the hopping endpoint's two rewrite rules.

    Outbound src internal->external and inbound dst external->internal.
    Replaces previous hop rules in one step; with `grace` the previous
    external's inbound rules stay until explicitly expired.
    """
    return _install(table, internal, external, mirror=False, grace=grace,
                    priority=HOP_RULE_PRIORITY)


def install_peer_rules(
    table: FlowTable, peer_internal: Address, peer_external: Address, *, grace: bool = False
) -> FlowTable:
    """Install the tracking side's mirror rules for a hopping peer."""
    return _install(table, peer_internal, peer_external, mirror=True, grace=grace,
                    priority=PEER_RULE_PRIORITY)


def expire_external(table: FlowTable, external: Address) -> FlowTable:
    """Remove inbound rewrite rules for `external` (end of its grace window)."""
    external_key, inbound = external.key, Direction.INBOUND
    kept = [
        r for r in table.rules
        if not (r.key[2] == external_key and r.key[0] is inbound and r.target is not None)
    ]
    return FlowTable(tuple(kept))


def endpoint_table(internal: Address) -> FlowTable:
    """Fresh endpoint table: permit self, drop everything else.

    Unmatched inbound traffic at an endpoint is exactly what an address
    scanner probes with, so it is dropped; low-priority permits keep the
    endpoint's own egress and its fixed internal address reachable.
    """
    return FlowTable((
        FlowRule(PERMIT_RULE_PRIORITY, Direction.OUTBOUND, AddrField.SRC, internal),
        FlowRule(PERMIT_RULE_PRIORITY, Direction.INBOUND, AddrField.DST, internal),
    ))


def apply_detail(
    table: FlowTable, packet: Packet, direction: Direction
) -> tuple[Packet | None, FlowRule | None]:
    """Apply the best-matching rule; returns (result, rule), (None, None) on no match."""
    src, dst = packet.src, packet.dst
    keys = (
        (direction, AddrField.SRC, src.key),
        (direction, AddrField.DST, dst.key),
    )
    best = None
    for r in table.rules:
        # Strictly greater, so that among equal priorities the earliest rule wins.
        if r.key in keys and (best is None or r.priority > best.priority):
            best = r
    if best is None:
        return None, None
    target = best.target
    if target is None:
        return packet, best
    if best.field is AddrField.SRC:
        return Packet(target, dst), best
    return Packet(src, target), best


def apply(table: FlowTable, packet: Packet, direction: Direction) -> Packet | None:
    """Pure single-lookup application; None means the packet was dropped."""
    result, _ = apply_detail(table, packet, direction)
    return result


def grace_set(table: FlowTable) -> frozenset[Address]:
    """External addresses whose inbound rewrite rules are currently live."""
    return frozenset(
        r.value for r in table.rules
        if r.target is not None and r.direction is Direction.INBOUND
    )
