"""Match-action flow tables for address rewriting.

Models the switch state that swaps a fixed internal address for the
hop schedule's current external address. ARP is a packet kind with the
same address fields, not a resolution state machine; its rules exist
for rewrite parity with IP.

Tables are immutable values: installs return new tables, so no packet
event can observe a half-updated table.

Lookups are tuple-space search (Srinivasan, Suri and Varghese, SIGCOMM
1999), as in Open vSwitch's classifier: every match is exact on one
address field, so a table indexes its best rule per (kind, direction,
field, address) once, when it is built, and a lookup probes the source
key and the destination key instead of scanning the rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .addressing import Address, IPVersion
from .errors import VersionMismatch

# All hop-rewrite rules share one priority; endpoint self-permits sit
# below them so rewrites always win.
HOP_RULE_PRIORITY = 100
PEER_RULE_PRIORITY = 90
PERMIT_RULE_PRIORITY = 10


# The Enums in lookup keys hash by identity, which agrees with their
# identity equality and runs in C (Enum's own hashes the name in Python).


class PacketKind(Enum):
    IP = "ip"
    ARP = "arp"
    __hash__ = object.__hash__


class Direction(Enum):
    OUTBOUND = "out"
    INBOUND = "in"
    __hash__ = object.__hash__


class AddrField(Enum):
    SRC = "src"
    DST = "dst"
    __hash__ = object.__hash__


class ActionKind(Enum):
    REWRITE_SRC = "rewrite_src"
    REWRITE_DST = "rewrite_dst"
    FORWARD = "forward"
    DROP = "drop"


@dataclass(frozen=True)
class Packet:
    kind: PacketKind
    src: Address
    dst: Address
    id: int
    payload_len: int
    sent_at: float

    def __post_init__(self):
        if self.src.version is not self.dst.version:
            raise VersionMismatch(f"src {self.src} vs dst {self.dst}")


@dataclass(frozen=True)
class Match:
    kind: PacketKind
    direction: Direction
    field: AddrField
    value: Address


@dataclass(frozen=True)
class Action:
    kind: ActionKind
    arg: Address | None = None

    def __post_init__(self):
        needs_arg = self.kind in (ActionKind.REWRITE_SRC, ActionKind.REWRITE_DST)
        if needs_arg != (self.arg is not None):
            raise ValueError(f"action {self.kind.value} argument mismatch")

    @property
    def is_rewrite(self) -> bool:
        return self.arg is not None


@dataclass(frozen=True)
class FlowRule:
    priority: int
    match: Match
    action: Action

    def __post_init__(self):
        if self.action.arg is not None and self.action.arg.version is not self.match.value.version:
            raise VersionMismatch(f"rewrite target {self.action.arg} vs match {self.match.value}")


LookupKey = tuple[PacketKind, Direction, AddrField, IPVersion, int]


@dataclass(frozen=True)
class FlowTable:
    """Priority-ordered rules plus a default for unmatched packets.

    Among the rules that match a packet the highest priority wins, and
    among equal priorities the earliest in `rules`.
    """

    rules: tuple[FlowRule, ...] = ()
    default_action: ActionKind = ActionKind.FORWARD
    # Per match key, the winning rule's (-priority, position in `rules`, rule):
    # tuples order the same way the rules win.
    index: dict[LookupKey, tuple[int, int, FlowRule]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.default_action not in (ActionKind.FORWARD, ActionKind.DROP):
            raise ValueError("default action must be forward or drop")
        index: dict[LookupKey, tuple[int, int, FlowRule]] = {}
        seen = set()
        for position, r in enumerate(self.rules):
            m = r.match
            key = (m.kind, m.direction, m.field, m.value.version, m.value.bits)
            if (key, r.priority) in seen:
                raise ValueError(f"duplicate rule for {(m, r.priority)}")
            seen.add((key, r.priority))
            held = index.get(key)
            if held is None or -r.priority < held[0]:
                index[key] = (-r.priority, position, r)
        object.__setattr__(self, "index", index)


def _hop_rules(internal: Address, external: Address, priority: int, *, mirror: bool) -> list[FlowRule]:
    rules = []
    for kind in (PacketKind.IP, PacketKind.ARP):
        if mirror:
            # Tracking peer: rewrite destinations on the way out, sources
            # on the way in, so the local application only ever sees the
            # peer's fixed internal address.
            out = Match(kind, Direction.OUTBOUND, AddrField.DST, internal)
            inb = Match(kind, Direction.INBOUND, AddrField.SRC, external)
            rules.append(FlowRule(priority, out, Action(ActionKind.REWRITE_DST, external)))
            rules.append(FlowRule(priority, inb, Action(ActionKind.REWRITE_SRC, internal)))
        else:
            out = Match(kind, Direction.OUTBOUND, AddrField.SRC, internal)
            inb = Match(kind, Direction.INBOUND, AddrField.DST, external)
            rules.append(FlowRule(priority, out, Action(ActionKind.REWRITE_SRC, external)))
            rules.append(FlowRule(priority, inb, Action(ActionKind.REWRITE_DST, internal)))
    return rules


def _is_own_hop_rule(rule: FlowRule) -> bool:
    return rule.action.is_rewrite and (
        (rule.match.direction is Direction.OUTBOUND and rule.match.field is AddrField.SRC)
        or (rule.match.direction is Direction.INBOUND and rule.match.field is AddrField.DST)
    )


def _is_peer_rule(rule: FlowRule) -> bool:
    return rule.action.is_rewrite and (
        (rule.match.direction is Direction.OUTBOUND and rule.match.field is AddrField.DST)
        or (rule.match.direction is Direction.INBOUND and rule.match.field is AddrField.SRC)
    )


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
    selector = _is_peer_rule if mirror else _is_own_hop_rule
    kept = []
    for r in table.rules:
        if not selector(r):
            kept.append(r)
        elif grace and r.match.direction is Direction.INBOUND and r.match.value != external:
            kept.append(r)  # old inbound rules survive until grace expiry
    fresh = _hop_rules(internal, external, priority, mirror=mirror)
    existing = {(r.match, r.priority) for r in kept}
    kept.extend(r for r in fresh if (r.match, r.priority) not in existing)
    return FlowTable(tuple(kept), table.default_action)


def install_hop_rules(
    table: FlowTable, internal: Address, external: Address, *, grace: bool = False
) -> FlowTable:
    """Install the hopping endpoint's four rewrite rules.

    {IP, ARP} x {outbound src internal->external, inbound dst
    external->internal}. Replaces previous hop rules in one step;
    with `grace` the previous external's inbound rules stay until
    explicitly expired.
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
    kept = tuple(
        r
        for r in table.rules
        if not (
            r.action.is_rewrite
            and r.match.direction is Direction.INBOUND
            and r.match.value == external
        )
    )
    return FlowTable(kept, table.default_action)


def endpoint_table(internal: Address) -> FlowTable:
    """Fresh endpoint table: drop unmatched inbound traffic, permit self.

    Unmatched inbound traffic at an endpoint is exactly what an address
    scanner probes with, so the default is drop; low-priority permits
    keep the endpoint's own egress and its fixed internal address
    reachable.
    """
    permits = []
    for kind in (PacketKind.IP, PacketKind.ARP):
        permits.append(FlowRule(
            PERMIT_RULE_PRIORITY,
            Match(kind, Direction.OUTBOUND, AddrField.SRC, internal),
            Action(ActionKind.FORWARD),
        ))
        permits.append(FlowRule(
            PERMIT_RULE_PRIORITY,
            Match(kind, Direction.INBOUND, AddrField.DST, internal),
            Action(ActionKind.FORWARD),
        ))
    return FlowTable(tuple(permits), ActionKind.DROP)


def apply_detail(
    table: FlowTable, packet: Packet, direction: Direction
) -> tuple[Packet | None, FlowRule | None]:
    """Apply the best-matching rule; returns (result, rule) with rule None on default."""
    kind, src, dst = packet.kind, packet.src, packet.dst
    hit = table.index.get((kind, direction, AddrField.SRC, src.version, src.bits))
    dst_hit = table.index.get((kind, direction, AddrField.DST, dst.version, dst.bits))
    if hit is None or (dst_hit is not None and dst_hit < hit):
        hit = dst_hit
    if hit is None:
        if table.default_action is ActionKind.DROP:
            return None, None
        return packet, None
    best = hit[2]
    action = best.action
    if action.kind is ActionKind.DROP:
        return None, best
    if action.kind is ActionKind.FORWARD:
        return packet, best
    if action.kind is ActionKind.REWRITE_SRC:
        return Packet(kind, action.arg, dst, packet.id, packet.payload_len, packet.sent_at), best
    return Packet(kind, src, action.arg, packet.id, packet.payload_len, packet.sent_at), best


def apply(table: FlowTable, packet: Packet, direction: Direction) -> Packet | None:
    """Pure single-lookup application; None means the packet was dropped."""
    result, _ = apply_detail(table, packet, direction)
    return result


def grace_set(table: FlowTable) -> frozenset[Address]:
    """External addresses whose inbound rewrite rules are currently live."""
    return frozenset(
        r.match.value
        for r in table.rules
        if r.action.is_rewrite and r.match.direction is Direction.INBOUND
    )


def dump_lines(table: FlowTable) -> list[str]:
    """One rule per line: ``prio,kind,dir,field,match_addr,action,arg``."""
    lines = []
    for r in table.rules:
        arg = str(r.action.arg) if r.action.arg is not None else "-"
        lines.append(
            f"{r.priority},{r.match.kind.value},{r.match.direction.value},"
            f"{r.match.field.value},{r.match.value},{r.action.kind.value},{arg}"
        )
    return lines
