"""Flow tables that permit or rewrite packets by one address field.

Models the switch state that swaps a fixed internal address for the
hop schedule's current external address.

A table is one switch's state, written in place: an install or an
expiry edits its rules, as a flow-mod edits an Open vSwitch table. Each
write is one call between packet events, so no packet sees a
half-written table.

A rule matches one address field exactly, on packets going one
direction, and then either lets the packet through unchanged (a
permit) or rewrites that same field to its target. A packet that no
rule matches is dropped. Each rule computes its match as a key once,
when it is made. A table holds a handful of rules (the benchmark
workloads reach 5, or 8 in two-way mode), so a lookup scans them for
the packet's source key and destination key; installs and expiries
read the same key instead of the rule's fields.

A table also carries a `memo` that the session's two-lookup rewrite
chain fills per packet header with the packet that leaves the chain,
or None for a drop, as Open vSwitch puts an exact-match cache in front
of its classifier (Pfaff et al., NSDI 2015); a lookup scans only on a
memo miss. An install clears the memo, as Open vSwitch drops its cache
on a flow-mod. An expiry only removes inbound rules that match the
expired external, and such a rule only decides lookups of packets that
hold that address: an inbound header, or a packet that an inbound rule
rewrote to it. So an expiry drops the inbound entries whose header
holds the address, or every inbound entry when some inbound rule
rewrites to it. Either way no entry outlives the rules that gave it.
"""

from __future__ import annotations

from collections.abc import Iterable
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


class FlowTable:
    """Priority-ordered rules; a packet that none matches is dropped.

    Among the rules that match a packet the highest priority wins, and
    among equal priorities the earliest in `rules`.
    """

    # `memo` is the decision cache that `session._apply_chain` fills: the
    # packet that leaves the chain for a header, or None for a drop. The
    # writes below edit `rules` in place and drop every entry they could
    # change (see the module docstring), so it stays exact.
    __slots__ = ("rules", "memo")

    def __init__(self, rules: Iterable[FlowRule] = ()):
        self.rules: list[FlowRule] = list(rules)
        seen = set()
        for r in self.rules:
            if (r.key, r.priority) in seen:
                raise ValueError(f"duplicate rule for {r}")
            seen.add((r.key, r.priority))
        self.memo: dict[tuple, Packet | None] = {}


def _install(
    table: FlowTable,
    internal: Address,
    external: Address,
    *,
    mirror: bool,
    grace: bool,
    priority: int,
) -> None:
    if internal.version is not external.version:
        raise VersionMismatch(f"{internal} vs {external}")
    if internal == external:
        raise ValueError("internal and external addresses must differ")
    # A hop install rewrites sources out and destinations in. A mirrored
    # (tracking peer) install rewrites destinations out and sources in,
    # so the local application only ever sees the peer's fixed internal
    # address. The rewrite rules an install replaces match the same fields.
    # A fresh rule is added unless a kept rule has its key and priority.
    src, dst = AddrField.SRC, AddrField.DST
    out_field, in_field = (dst, src) if mirror else (src, dst)
    outbound = Direction.OUTBOUND
    fresh_out = FlowRule(priority, outbound, out_field, internal, external)
    fresh_in = FlowRule(priority, Direction.INBOUND, in_field, external, internal)
    out_key, in_key = fresh_out.key, fresh_in.key
    external_key = external.key
    kept = []
    add_out = add_in = True
    for r in table.rules:
        direction, fld, key = rule_key = r.key
        if r.target is None or (direction is outbound) is not (fld is out_field):
            kept.append(r)
        elif grace and direction is not outbound and key != external_key:
            kept.append(r)  # old inbound rules survive until grace expiry
        else:
            continue
        if r.priority == priority:
            if rule_key == out_key:
                add_out = False
            elif rule_key == in_key:
                add_in = False
    if add_out:
        kept.append(fresh_out)
    if add_in:
        kept.append(fresh_in)
    table.rules[:] = kept
    table.memo.clear()


def install_hop_rules(
    table: FlowTable, internal: Address, external: Address, *, grace: bool = False
) -> None:
    """Install the hopping endpoint's two rewrite rules in `table`.

    Outbound src internal->external and inbound dst external->internal.
    Replaces previous hop rules in one step; with `grace` the previous
    external's inbound rules stay until explicitly expired.
    """
    _install(table, internal, external, mirror=False, grace=grace, priority=HOP_RULE_PRIORITY)


def install_peer_rules(
    table: FlowTable, peer_internal: Address, peer_external: Address, *, grace: bool = False
) -> None:
    """Install the tracking side's mirror rules for a hopping peer in `table`."""
    _install(table, peer_internal, peer_external, mirror=True, grace=grace,
             priority=PEER_RULE_PRIORITY)


def expire_external(table: FlowTable, external: Address) -> None:
    """Remove `table`'s inbound rewrite rules for `external` (end of its grace window)."""
    external_key, inbound = external.key, Direction.INBOUND
    kept = []
    chained = False  # some inbound rule rewrites to `external`
    for r in table.rules:
        direction, _, key = r.key
        target = r.target
        if direction is inbound and target is not None:
            if key == external_key:
                continue
            chained = chained or target.key == external_key
        kept.append(r)
    table.rules[:] = kept
    memo = table.memo
    stale = [
        header for header in memo
        if header[0] is inbound and (chained or external_key in (header[1], header[2]))
    ]
    for header in stale:
        del memo[header]


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

