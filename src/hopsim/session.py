"""Scenario orchestration: agents, schedules, metrics, the event loop.

A scenario wires the other modules together on one virtual clock: the
server publishes sync material over the covert reverse-DNS channel, both
ends derive bit-identical hop schedules from it, prefixes are announced
ahead of each dwell window and withdrawn after use, flow tables rewrite
addresses at every hop, and the client's traffic is delivered across the
simulated AS graph while optional observers watch and filter.

Everything, including the adversary, runs deterministically from the
parsed scenario config (`hopsim.config`), without reading a file; two
runs of one config produce byte-identical traces.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from enum import Enum

from .addressing import Address, Prefix, longest_match
from .adversary import (
    BlockPolicy,
    ObserverTap,
    Verdict,
    extract_hop_intervals,
    filter_packet,
    timing_detect,
)
from .config import ScenarioConfig
from .covert import SyncPayload, decode_payload, ReverseZone
from .covert import encode_payload  # not called: bench/tracer.py wraps it by name
from .dwell import DwellSource, FixedDwell, UniformDwell, start_sampler
from .errors import ScenarioError, VersionMismatch
from .events import EventQueue, TraceLog
from .flowtable import (
    Direction,
    FlowTable,
    Packet,
    apply_detail,
    endpoint_table,
    expire_external,
    install_hop_rules,
    install_peer_rules,
)
from .hopping import HopEntry, HopSchedule, build_schedule
from .rng import DWELL_SEED_SALT, SplitMix64
from .routing import AsGraph, announce, process_message, withdraw
from .values import Frozen, left_sum

OUTBOUND, INBOUND = Direction.OUTBOUND, Direction.INBOUND


class Role(Enum):
    CLIENT = "client"
    SERVER = "server"


class EndpointAgent:
    """One session endpoint; `schedule` stays None for a static address.

    `peer` is the other end, whose flow table tracks this end's external
    addresses.
    """

    __slots__ = ("role", "internal_ip", "attached_as", "peer", "schedule", "flow_table")

    def __init__(self, role: Role, internal_ip: Address, attached_as: int):
        self.role = role
        self.internal_ip = internal_ip
        self.attached_as = attached_as
        self.peer: EndpointAgent | None = None
        self.schedule: HopSchedule | None = None
        self.flow_table = endpoint_table(internal_ip)


def dwell_sequence(source: DwellSource, seed: int, n: int) -> list[float]:
    """Deterministic dwell list; the stream is salted so it never collides
    with the address stream drawn from the same session seed."""
    if isinstance(source, FixedDwell):
        return [source.ms] * n
    if isinstance(source, UniformDwell):
        rng = SplitMix64(seed ^ DWELL_SEED_SALT)
        return [rng.uniform(source.low_ms, source.high_ms) for _ in range(n)]
    sampler = start_sampler(source.model, seed ^ DWELL_SEED_SALT)
    return sampler.take(n)


def synchronize(
    agent: EndpointAgent, payload: SyncPayload, dwell_source: DwellSource, n_hops: int
) -> HopSchedule:
    """Derive the hop schedule an endpoint follows from shared sync material.

    Any two agents given the same payload and dwell source compute
    bit-identical schedules; that is the whole synchronization contract.
    Addresses are drawn globally distinct so the external-address count
    of a session is exact.
    """
    if agent.internal_ip.version is not payload.pool.version:
        raise VersionMismatch(
            f"agent {agent.internal_ip} vs pool version {payload.pool.version.name}"
        )
    dwells = dwell_sequence(dwell_source, payload.seed, n_hops)
    return build_schedule(payload.seed, payload.pool, n_hops, dwells)


def hop(agent: EndpointAgent, entry: HopEntry, graph: AsGraph, *, grace: bool) -> None:
    """Move `agent` to the address of schedule `entry`.

    First checks that the agent's AS announces the entry's prefix (lead
    time earlier), which its rib then holds with path `()`; then installs
    the flow rules, keeping the previous address in grace if `grace`. The
    caller schedules the timed follow-ups: grace expiry and withdrawal of
    the previous address.
    """
    asn = agent.attached_as
    if graph.nodes[asn].rib.get(entry.prefix.key) != ():
        raise ScenarioError(f"{entry.address}: AS {asn} does not announce {entry.prefix}")
    install_hop_rules(agent.flow_table, agent.internal_ip, entry.address, grace=grace)


# --- metrics ---------------------------------------------------------------


class SessionMetrics(Frozen):
    __slots__ = _fields = (
        "packets_sent", "packets_delivered", "distinct_external_ips_used", "hop_count",
        "mean_dwell_ms", "per_hop_delivery",
    )

    def __init__(
        self,
        packets_sent: int,
        packets_delivered: int,
        distinct_external_ips_used: int,
        hop_count: int,
        mean_dwell_ms: float,
        per_hop_delivery: tuple[tuple[int, int], ...],
    ):
        if packets_delivered > packets_sent:
            raise ValueError("delivered exceeds sent")
        if distinct_external_ips_used > hop_count + 1:
            raise ValueError("distinct addresses exceed windows entered")
        super().__init__(
            packets_sent, packets_delivered, distinct_external_ips_used, hop_count,
            mean_dwell_ms, per_hop_delivery,
        )

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self._fields}
        out["per_hop_delivery"] = [list(p) for p in self.per_hop_delivery]
        return out


# --- the simulation --------------------------------------------------------


def _apply_chain(table: FlowTable, packet: Packet, direction: Direction) -> Packet | None:
    """Up to two rewrite lookups, modeling a chained SDN pipeline.

    Two-way sessions rewrite both address fields of a packet (own hop
    rules then peer-tracking rules); the second lookup is only honored
    if it performs another rewrite, so a packet that the first lookup
    rewrote is never dropped by the second.

    A packet is only its header, so the table's memo keeps what the
    chain returns for it, by `(direction, src key, dst key)`: None for a
    drop, else the packet that leaves the chain, which a hit returns as
    is. The packet path probes the memo and calls this on a miss. The
    flowtable module docstring says which entries each write drops, so
    that the memo stays exact.
    """
    result, rule = apply_detail(table, packet, direction)
    if rule is not None and rule.target is not None:
        second, rule2 = apply_detail(table, result, direction)
        if rule2 is not None and rule2.target is not None:
            result = second
    table.memo[(direction, packet.src.key, packet.dst.key)] = result
    return result


class SimulationResult:
    __slots__ = ("metrics", "trace", "verdicts")

    def __init__(self, metrics: SessionMetrics, trace: list[str], verdicts: list[str]):
        self.metrics = metrics
        self.trace = trace
        self.verdicts = verdicts

    def trace_text(self) -> str:
        return "\n".join(self.trace) + ("\n" if self.trace else "")


class Simulation:
    """One run of `config`; the trace goes to `trace`, by default kept in memory."""

    def __init__(self, config: ScenarioConfig, trace: TraceLog | None = None):
        self.config = config
        self.queue = EventQueue()
        self.trace = TraceLog() if trace is None else trace
        self.graph = AsGraph.from_edges(config.edges)
        self.zone = ReverseZone()

        self.server = EndpointAgent(Role.SERVER, config.server_ip, config.server_as)
        self.client = EndpointAgent(Role.CLIENT, config.client_ip, config.client_as)
        self.server.peer, self.client.peer = self.client, self.server
        self._agents_by_as = {config.server_as: self.server, config.client_as: self.client}
        # Every send starts from this header; the client's table rewrites it.
        self._outbound = Packet(config.client_ip, config.server_ip)
        self._outbound_key = (OUTBOUND, config.client_ip.key, config.server_ip.key)

        adv = config.adversary
        # The tap's log is read only by timing analysis, so a tap exists only
        # where a timing model will read it.
        self.tap: ObserverTap | None = (
            ObserverTap() if adv and adv.timing_model is not None else None
        )
        # The tapped link as {a: b, b: a}: a crossing from `asn` is tapped
        # when it goes to `_tap_next[asn]`.
        self._tap_next = dict((adv.tap, adv.tap[::-1])) if adv else {}
        self.policy: BlockPolicy | None = None
        if adv and adv.mode is not None:
            self.policy = BlockPolicy(adv.blocked, adv.mode, adv.detect_delay_ms, adv.trigger_count)

        self._prefix_refs: dict[int, int] = {}  # by prefix key
        self._hop_starts_abs: list[float] = []
        self._sent = 0
        self._delivered = 0
        self._resolved = 0
        self._traffic_end = 0.0  # when the last send resolved
        self._send_gap = 0.0
        self._send_seq = 0  # the queue slot of send 0; send j takes the slot j after it
        self._next_send = math.inf  # when the next send not yet made is due
        self._deliveries_by_window: dict[int, int] = {}

    # -- event helpers --

    def _emit_trace(self, component: str, event: str, details: str = "") -> None:
        self.trace.emit(self.queue.now, component, event, details)

    def _flush_routing(self) -> None:
        # One delivery instant per link delay, carrying the slots opened
        # since the last flush; an update that replaces a queued one rides
        # in that one's slot (see the routing module). Nothing can run
        # between the slots of one instant, so they fire in the order that
        # one event per slot would give. An announcement or withdrawal
        # queues its first instant here; `_deliver_routing` takes each
        # later one inline when it can.
        slots = self.graph.take_slots()
        if slots:
            at = self.queue.now + self.config.link_delay_ms
            self.queue.schedule_at(at, self._deliver_routing, slots)

    def _deliver_routing(self, slots: list) -> None:
        # A wave's next instant runs inline, as a link crossing does, when
        # no queued event is due by then; else it is queued. The event
        # loop does nothing after this returns, so the order of events is
        # the one queueing every instant would give.
        graph, queue, delay = self.graph, self.queue, self.config.link_delay_ms
        pending = graph.pending
        while True:
            for key in slots:
                process_message(graph, pending.pop(key), key[1])
            slots = graph.take_slots()
            if not slots:
                return
            at = queue.now + delay
            if not queue.advance_to(at):
                queue.schedule_at(at, self._deliver_routing, slots)
                return

    def _acquire_prefix(self, prefix: Prefix, origin: int) -> None:
        key = prefix.key
        count = self._prefix_refs.get(key, 0) + 1
        self._prefix_refs[key] = count
        if count == 1:
            announce(self.graph, prefix, origin)
            self._emit_trace("route", "announce", f"prefix={prefix};origin={origin}")
            self._flush_routing()

    def _release_prefix(self, prefix: Prefix, origin: int) -> None:
        key = prefix.key
        count = self._prefix_refs.get(key, 0) - 1
        self._prefix_refs[key] = count
        if count == 0:
            withdraw(self.graph, prefix, origin)
            self._emit_trace("route", "withdraw", f"prefix={prefix};origin={origin}")
            self._flush_routing()

    # -- setup --

    def _bootstrap(self) -> None:
        cfg = self.config
        if not cfg.server_hopping:
            # Static baseline: the server's fixed address gets one host
            # route for the whole run and no covert exchange happens.
            host = Prefix(cfg.server_ip, cfg.server_ip.width)
            self._acquire_prefix(host, cfg.server_as)
            self._emit_trace("session", "static_server", f"address={cfg.server_ip}")
            self._schedule_traffic(cfg.gap_ms)
            return

        # The config encoded the records; publishing, fetching and decoding
        # them is the simulated covert exchange.
        records = cfg.sync_records
        self.zone.register(records)
        self._emit_trace("dns", "register", f"anchor={cfg.anchor_ip};names={len(records.names)}")
        fetched = self.zone.lookup(cfg.anchor_ip)
        decoded = decode_payload(fetched, cfg.domain_tail)
        if decoded != cfg.sync_payload:
            raise ScenarioError("the covert round trip changed the sync payload")
        self._emit_trace("dns", "decode", f"seed={decoded.seed};model={decoded.dwell_model_id}")

        # Both ends derive this schedule from the one payload; `synchronize`
        # is a pure function of it, so it is derived once. The payload
        # names the config's own dwell source, as the check above proves.
        schedule = self.server.schedule = synchronize(self.server, decoded, cfg.dwell, cfg.n_hops)
        self._emit_trace(
            "session",
            "sync",
            f"hops={len(schedule)};total_ms={schedule.total_ms:.3f}",
        )

        self._setup_hopping_end(self.server)
        if cfg.two_way:
            client_payload = SyncPayload(
                cfg.client_seed, cfg.client_pool, cfg.dwell.model_id, cfg.lead_time_ms
            )
            self.client.schedule = synchronize(self.client, client_payload, cfg.dwell, cfg.n_hops)
            self._setup_hopping_end(self.client)

        gap = cfg.gap_ms
        if gap is None:
            gap = schedule.total_ms / cfg.packets if cfg.packets else 0.0
            self._emit_trace("session", "auto_gap", f"gap_ms={gap:.3f}")
        self._schedule_traffic(gap)

    def _setup_hopping_end(self, agent: EndpointAgent) -> None:
        cfg = self.config
        epoch = cfg.lead_time_ms
        schedule = agent.schedule
        starts = schedule.start_times()
        if agent is self.server:
            self._hop_starts_abs = [epoch + s for s in starts]
        origin = agent.attached_as
        for k, entry in enumerate(schedule.entries):
            self.queue.schedule_at(
                epoch + starts[k] - cfg.lead_time_ms, self._acquire_prefix, entry.prefix, origin
            )
            self.queue.schedule_at(epoch + starts[k], self._do_hop, agent, k)
            self.queue.schedule_at(
                epoch + starts[k] + entry.dwell_ms + cfg.withdraw_lag_ms,
                self._release_prefix, entry.prefix, origin,
            )

    def _do_hop(self, agent: EndpointAgent, k: int) -> None:
        cfg = self.config
        entries = agent.schedule.entries
        entry = entries[k]
        use_grace = k > 0 and cfg.grace_window_ms > 0
        hop(agent, entry, self.graph, grace=use_grace)
        self._emit_trace(
            "session", "hop", f"role={agent.role.value};index={k};external={entry.address}"
        )

        queue = self.queue
        if cfg.clock_skew_ms > 0 and agent.peer is self.client:
            queue.schedule_at(
                queue.now + cfg.clock_skew_ms, self._update_peer, agent, entry.address, use_grace
            )
        else:
            self._update_peer(agent, entry.address, use_grace)
        if use_grace:
            prev = entries[k - 1].address
            queue.schedule_at(queue.now + cfg.grace_window_ms, self._expire_grace, agent, prev)

    def _update_peer(self, agent: EndpointAgent, external: Address, grace: bool) -> None:
        install_peer_rules(agent.peer.flow_table, agent.internal_ip, external, grace=grace)

    def _expire_grace(self, agent: EndpointAgent, old: Address) -> None:
        expire_external(agent.flow_table, old)
        expire_external(agent.peer.flow_table, old)
        self._emit_trace("session", "grace_expire", f"external={old}")

    def _schedule_traffic(self, gap_ms: float) -> None:
        # The sends keep the queue slots they would take if all were queued
        # here, but each is made inline or queued only when the one before
        # it is made (see `_emit_packet`).
        self._send_gap = gap_ms
        self._send_seq = self.queue.reserve(self.config.packets)
        if self.config.packets:
            self._next_send = self.config.lead_time_ms
            self._queue_send(0)

    def _queue_send(self, j: int) -> None:
        # Send j is the next one not yet made, so it is due at `_next_send`.
        self.queue.schedule_reserved(self._next_send, self._send_seq + j, self._emit_packet, j)

    # -- packet path --

    def _emit_packet(self, pkt_id: int) -> None:
        # Sends follow the rule link crossings follow: after this packet's
        # pass, the next send is made in this call if no queued event is
        # due by its time (a crossing of this packet that `_forward` queued
        # counts), else it is queued in its reserved slot. Until it is made,
        # `_forward` refuses every crossing due at or after `_next_send`,
        # as that queued send would. So the event order is the one
        # queueing every send would give.
        cfg, queue = self.config, self.queue
        packets, start, gap = cfg.packets, cfg.lead_time_ms, self._send_gap
        client_as = self.client.attached_as
        while True:
            nxt = pkt_id + 1
            last = nxt == packets
            self._next_send = math.inf if last else start + nxt * gap
            self._sent += 1
            self._forward(self._outbound, pkt_id, client_as, -1)
            if last:
                return
            if not queue.advance_to(self._next_send):
                self._queue_send(nxt)
                return
            pkt_id = nxt

    def _forward(self, packet: Packet, pkt_id: int, asn: int, hops: int) -> None:
        # One pass per packet: a send (hops -1) first leaves the client
        # through its table, then each turn of the loop is one AS, until
        # the packet is delivered or dropped. A link crossing is taken
        # inline when it arrives before the next send and no queued event
        # is due by then; else it is queued to resume here. At a tie the
        # send goes first: its reserved slot is lower. Callers do nothing
        # after this returns but make the next send under the same rule,
        # so nothing could run in between, and the event order is the one
        # queueing every crossing would give. A table's memo is probed
        # here; `_apply_chain` is the miss path.
        queue = self.queue
        trace = self.trace
        nodes = self.graph.nodes
        max_hops = len(nodes)  # a packet that crossed more links is looping
        delay = self.config.link_delay_ms
        next_send = self._next_send
        tap, tap_next = self.tap, self._tap_next
        while True:
            now = queue.now
            if hops < 0:
                table, key = self.client.flow_table, self._outbound_key
                memo = table.memo
                packet = memo[key] if key in memo else _apply_chain(table, packet, OUTBOUND)
                if packet is None:
                    trace.emit(now, "traffic", "drop", f"id={pkt_id};reason=egress")
                    break
                trace.emit(now, "traffic", "send", f"id={pkt_id};src={packet.src};dst={packet.dst}")
                hops = 0
            if hops > max_hops:
                trace.emit(now, "traffic", "drop", f"id={pkt_id};reason=loop;at={asn}")
                break
            node = nodes[asn]
            prefix = longest_match(node.index, packet.dst)
            if prefix is None:
                trace.emit(now, "traffic", "drop", f"id={pkt_id};reason=unroutable;at={asn}")
                break
            as_path = node.rib[prefix.key]
            if not as_path:
                agent = self._agents_by_as.get(asn)
                if agent is None:
                    trace.emit(now, "traffic", "drop", f"id={pkt_id};reason=no_endpoint;at={asn}")
                    break
                table, key = agent.flow_table, (INBOUND, packet.src.key, packet.dst.key)
                memo = table.memo
                result = memo[key] if key in memo else _apply_chain(table, packet, INBOUND)
                if result is None:
                    trace.emit(now, "traffic", "drop", f"id={pkt_id};reason=no_rule;at={asn}")
                elif result.dst.key != agent.internal_ip.key:
                    # Half rewritten: a peer-tracking rule rewrote the source, but the
                    # hop rule for this destination expired (a skewed peer still sent to it).
                    trace.emit(now, "traffic", "drop", f"id={pkt_id};reason=stale_rewrite;at={asn}")
                else:
                    self._delivered += 1
                    window = max(0, bisect_right(self._hop_starts_abs, now) - 1)
                    by_window = self._deliveries_by_window
                    by_window[window] = by_window.get(window, 0) + 1
                    trace.emit(now, "traffic", "deliver", f"id={pkt_id};window={window}")
                break
            nxt = as_path[0]
            if tap_next.get(asn) == nxt:
                if tap is not None:
                    tap.observe(now, packet)
                policy = self.policy
                if policy is not None and filter_packet(policy, packet, at=now) is Verdict.BLOCK:
                    trace.emit(
                        now, "adversary", "block", f"id={pkt_id};dst={packet.dst};link={asn}-{nxt}"
                    )
                    break
            hops += 1
            at = now + delay
            if at >= next_send or not queue.advance_to(at):
                queue.schedule_at(at, self._forward, packet, pkt_id, nxt, hops)
                return
            asn = nxt
        self._resolved += 1
        if self._resolved == self.config.packets:
            self._traffic_end = queue.now

    # -- run --

    def run(self) -> SimulationResult:
        self.queue.schedule_at(0.0, self._bootstrap)
        self.queue.run()
        metrics = self._build_metrics()
        self._emit_trace(
            "session", "end", f"sent={metrics.packets_sent};delivered={metrics.packets_delivered}"
        )
        verdicts = self._analyze_timing()
        return SimulationResult(metrics, self.trace.lines, verdicts)

    def _build_metrics(self) -> SessionMetrics:
        cfg = self.config
        if self._sent == 0:
            return SessionMetrics(0, 0, 0, 0, 0.0, ())
        if not cfg.server_hopping:
            return SessionMetrics(
                self._sent, self._delivered, 1, 0, 0.0,
                ((0, self._deliveries_by_window.get(0, 0)),),
            )
        entered = [k for k, t in enumerate(self._hop_starts_abs) if t <= self._traffic_end]
        schedule = self.server.schedule
        addresses = {schedule.entries[k].address.key for k in entered}
        dwells = [schedule.entries[k].dwell_ms for k in entered]
        per_hop = tuple((k, self._deliveries_by_window.get(k, 0)) for k in entered)
        return SessionMetrics(
            packets_sent=self._sent,
            packets_delivered=self._delivered,
            distinct_external_ips_used=len(addresses),
            hop_count=max(0, len(entered) - 1),
            mean_dwell_ms=left_sum(dwells) / len(dwells) if dwells else 0.0,
            per_hop_delivery=per_hop,
        )

    def _analyze_timing(self) -> list[str]:
        adv = self.config.adversary
        if not adv or adv.timing_model is None:
            return []
        intervals = extract_hop_intervals(self.tap, self.config.server_pool)
        if not intervals:
            return [f"nan,{adv.detect_threshold!r},no-hops-observed"]
        stat = timing_detect(intervals, adv.timing_model)
        verdict = "detected" if stat > adv.detect_threshold else "clean"
        return [f"{stat!r},{adv.detect_threshold!r},{verdict}"]
