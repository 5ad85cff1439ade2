"""Match-action flow tables for address rewriting.

Models the switch state that swaps a fixed internal address for the
hop schedule's current external address.

Tables are immutable values: installs return new tables, so no packet
event can observe a half-updated table.

Lookups are tuple-space search (Srinivasan, Suri and Varghese, SIGCOMM
1999), as in Open vSwitch's classifier: every match is exact on one
address field, so a table indexes its best rule per (direction, field,
address) once, when it is built, and a lookup probes the source key
and the destination key instead of scanning the rules. Each rule
computes its lookup key once, when it is made, and the index build,
installs and expiries read that key instead of the rule's fields.

Since a table never changes once built, it also carries a `memo` that
the session's two-lookup rewrite chain fills per packet shape, as Open
vSwitch puts an exact-match cache in front of its classifier (Pfaff et
al., NSDI 2015). A new table starts with an empty memo.
"""

from __future__ import annotations

from enum import Enum

from .addressing import Address, IPVersion
from .errors import VersionMismatch
from .values import Frozen, _set

# All hop-rewrite rules share one priority; endpoint self-permits sit
# below them so rewrites always win.
HOP_RULE_PRIORITY = 100
PEER_RULE_PRIORITY = 90
PERMIT_RULE_PRIORITY = 10


# The Enums in lookup keys hash by identity, which agrees with their
# identity equality and runs in C (Enum's own hashes the name in Python).


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


class Packet(Frozen):
    __slots__ = _fields = ("src", "dst", "id")

    def __init__(self, src: Address, dst: Address, id: int):
        if src.version is not dst.version:
            raise VersionMismatch(f"src {src} vs dst {dst}")
        _set(self, "src", src)
        _set(self, "dst", dst)
        _set(self, "id", id)


class Match(Frozen):
    __slots__ = _fields = ("direction", "field", "value")

    def __init__(self, direction: Direction, field: AddrField, value: Address):
        _set(self, "direction", direction)
        _set(self, "field", field)
        _set(self, "value", value)


class Action(Frozen):
    __slots__ = _fields = ("kind", "arg")

    def __init__(self, kind: ActionKind, arg: Address | None = None):
        needs_arg = kind in (ActionKind.REWRITE_SRC, ActionKind.REWRITE_DST)
        if needs_arg != (arg is not None):
            raise ValueError(f"action {kind.value} argument mismatch")
        _set(self, "kind", kind)
        _set(self, "arg", arg)

    @property
    def is_rewrite(self) -> bool:
        return self.arg is not None


LookupKey = tuple[Direction, AddrField, IPVersion, int]


class FlowRule(Frozen):
    # `key` is the match as (direction, field, address version, address
    # bits): equal keys are equal matches, and the key hashes and compares in C.
    __slots__ = ("priority", "match", "action", "key")
    _fields = ("priority", "match", "action")

    def __init__(self, priority: int, match: Match, action: Action):
        value, arg = match.value, action.arg
        if arg is not None and arg.version is not value.version:
            raise VersionMismatch(f"rewrite target {arg} vs match {value}")
        _set(self, "priority", priority)
        _set(self, "match", match)
        _set(self, "action", action)
        _set(self, "key", (match.direction, match.field, value.version, value.bits))


class FlowTable(Frozen):
    """Priority-ordered rules plus a default for unmatched packets.

    Among the rules that match a packet the highest priority wins, and
    among equal priorities the earliest in `rules`.
    """

    # `index` maps each match key to the winning rule's (-priority, position
    # in `rules`, rule): tuples order the same way the rules win. `memo` is
    # the decision cache that `session._apply_chain` fills; it is exact
    # because the table never changes, and it is not part of the table's value.
    __slots__ = ("rules", "default_action", "index", "memo")
    _fields = ("rules", "default_action")

    def __init__(
        self, rules: tuple[FlowRule, ...] = (), default_action: ActionKind = ActionKind.FORWARD
    ):
        if default_action not in (ActionKind.FORWARD, ActionKind.DROP):
            raise ValueError("default action must be forward or drop")
        index: dict[LookupKey, tuple[int, int, FlowRule]] = {}
        shared = set()  # (key, rank) of every rule whose key another rule has too
        for position, r in enumerate(rules):
            key, rank = r.key, -r.priority
            held = index.get(key)
            if held is None:
                index[key] = (rank, position, r)
                continue
            # The first rule on a key is held at the key's first collision,
            # so `shared` has every earlier rank on this key.
            shared.add((key, held[0]))
            if (key, rank) in shared:
                raise ValueError(f"duplicate rule for {(r.match, r.priority)}")
            shared.add((key, rank))
            if rank < held[0]:
                index[key] = (rank, position, r)
        _set(self, "rules", rules)
        _set(self, "default_action", default_action)
        _set(self, "index", index)
        _set(self, "memo", {})


def _hop_rules(internal: Address, external: Address, priority: int, *, mirror: bool) -> list[FlowRule]:
    if mirror:
        # Tracking peer: rewrite destinations on the way out, sources on
        # the way in, so the local application only ever sees the peer's
        # fixed internal address.
        out_field, in_field = AddrField.DST, AddrField.SRC
        out_action = Action(ActionKind.REWRITE_DST, external)
        in_action = Action(ActionKind.REWRITE_SRC, internal)
    else:
        out_field, in_field = AddrField.SRC, AddrField.DST
        out_action = Action(ActionKind.REWRITE_SRC, external)
        in_action = Action(ActionKind.REWRITE_DST, internal)
    return [
        FlowRule(priority, Match(Direction.OUTBOUND, out_field, internal), out_action),
        FlowRule(priority, Match(Direction.INBOUND, in_field, external), in_action),
    ]


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
    # The rewrite rules an install replaces match this field outbound and
    # the other one inbound: sources out for hop rules, destinations out
    # for the mirrored peer rules.
    out_field = AddrField.DST if mirror else AddrField.SRC
    outbound = Direction.OUTBOUND
    version, bits = external.version, external.bits
    kept = []
    for r in table.rules:
        direction, fld, v, b = r.key
        if r.action.arg is None or (direction is outbound) is not (fld is out_field):
            kept.append(r)
        elif grace and direction is not outbound and (b != bits or v is not version):
            kept.append(r)  # old inbound rules survive until grace expiry
    existing = {(r.key, r.priority) for r in kept}
    kept.extend(
        r for r in _hop_rules(internal, external, priority, mirror=mirror)
        if (r.key, priority) not in existing
    )
    return FlowTable(tuple(kept), table.default_action)


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
    version, bits = external.version, external.bits
    inbound = Direction.INBOUND
    kept = [
        r for r in table.rules
        if not (r.key[3] == bits and r.key[0] is inbound and r.key[2] is version
                and r.action.arg is not None)
    ]
    return FlowTable(tuple(kept), table.default_action)


def endpoint_table(internal: Address) -> FlowTable:
    """Fresh endpoint table: drop unmatched inbound traffic, permit self.

    Unmatched inbound traffic at an endpoint is exactly what an address
    scanner probes with, so the default is drop; low-priority permits
    keep the endpoint's own egress and its fixed internal address
    reachable.
    """
    permit = Action(ActionKind.FORWARD)
    return FlowTable((
        FlowRule(PERMIT_RULE_PRIORITY, Match(Direction.OUTBOUND, AddrField.SRC, internal), permit),
        FlowRule(PERMIT_RULE_PRIORITY, Match(Direction.INBOUND, AddrField.DST, internal), permit),
    ), ActionKind.DROP)


def apply_detail(
    table: FlowTable, packet: Packet, direction: Direction
) -> tuple[Packet | None, FlowRule | None]:
    """Apply the best-matching rule; returns (result, rule) with rule None on default."""
    src, dst = packet.src, packet.dst
    hit = table.index.get((direction, AddrField.SRC, src.version, src.bits))
    dst_hit = table.index.get((direction, AddrField.DST, dst.version, dst.bits))
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
        return Packet(action.arg, dst, packet.id), best
    return Packet(src, action.arg, packet.id), best


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
    """One rule per line: ``prio,dir,field,match_addr,action,arg``."""
    lines = []
    for r in table.rules:
        arg = str(r.action.arg) if r.action.arg is not None else "-"
        lines.append(
            f"{r.priority},{r.match.direction.value},"
            f"{r.match.field.value},{r.match.value},{r.action.kind.value},{arg}"
        )
    return lines
