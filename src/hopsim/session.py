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

from bisect import bisect_right
from enum import Enum

from .addressing import Address, Prefix, PrefixPool
from .adversary import (
    BlockPolicy,
    ObserverTap,
    Verdict,
    extract_hop_intervals,
    filter_packet,
    timing_detect,
)
from .config import DeploymentMode, ScenarioConfig
from .covert import SyncPayload, decode_payload, ReverseZone
from .covert import encode_payload  # not called: bench/tracer.py wraps it by name
from .dwell import (
    DhmmDwell,
    DwellSource,
    FixedDwell,
    UniformDwell,
    resolve_dwell_source,
    start_sampler,
)
from .errors import ScenarioError, ScheduleExhausted, VersionMismatch
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
from .hopping import HopSchedule, build_schedule
from .rng import DWELL_SEED_SALT, SplitMix64
from .routing import AsGraph, announce, longest_match, originates, process_message, withdraw
from .values import Frozen


class Role(Enum):
    CLIENT = "client"
    SERVER = "server"


class EndpointAgent:
    """One session endpoint; `schedule` stays None for a static address."""

    __slots__ = ("role", "internal_ip", "attached_as", "deployment", "schedule", "flow_table")

    def __init__(
        self,
        role: Role,
        internal_ip: Address,
        attached_as: int,
        deployment: DeploymentMode = DeploymentMode.HOST_AGENT,
    ):
        self.role = role
        self.internal_ip = internal_ip
        self.attached_as = attached_as
        self.deployment = deployment
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


def hop(
    agent: EndpointAgent,
    index: int,
    *,
    graph: AsGraph | None = None,
    grace_window_ms: float = 0.0,
) -> None:
    """Execute one scheduled address transition on `agent`.

    With a `graph`, first checks that the new address's route was
    announced (lead-time earlier) from the agent's AS; then installs its
    flow rules. The caller schedules the timed follow-ups: grace expiry
    and withdrawal of the previous address.
    """
    schedule = agent.schedule
    if schedule is None:
        raise ScenarioError("agent has no hop schedule")
    if index >= len(schedule):
        raise ScheduleExhausted(f"hop {index} of {len(schedule)}")
    address = schedule.entries[index].address
    if graph is not None and not originates(graph, agent.attached_as, address):
        raise ScenarioError(
            f"hop {index}: {address} has no announced route from AS {agent.attached_as}"
        )
    agent.flow_table = install_hop_rules(
        agent.flow_table, agent.internal_ip, address, grace=index > 0 and grace_window_ms > 0
    )


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
        return {
            "packets_sent": self.packets_sent,
            "packets_delivered": self.packets_delivered,
            "distinct_external_ips_used": self.distinct_external_ips_used,
            "hop_count": self.hop_count,
            "mean_dwell_ms": self.mean_dwell_ms,
            "per_hop_delivery": [list(p) for p in self.per_hop_delivery],
        }


# --- the simulation --------------------------------------------------------


def _apply_chain(table: FlowTable, packet: Packet, direction: Direction) -> Packet | None:
    """Up to two rewrite lookups, modeling a chained SDN pipeline.

    Two-way sessions rewrite both address fields of a packet (own hop
    rules then peer-tracking rules); the second lookup is only honored
    if it performs another rewrite, so a packet that the first lookup
    rewrote is never dropped by the second.

    A packet is only its header, so the table's memo keeps what the
    chain returns for it: None for a drop, else the packet that leaves
    the chain, which a hit returns as is. Tables never change, which
    makes the memo exact.
    """
    key = (direction, packet.src.key, packet.dst.key)
    memo = table.memo
    if key in memo:
        return memo[key]
    result, rule = apply_detail(table, packet, direction)
    if rule is not None and rule.target is not None:
        second, rule2 = apply_detail(table, result, direction)
        if rule2 is not None and rule2.target is not None:
            result = second
    memo[key] = result
    return result


class _HopEnd:
    """Internal: one hopping endpoint plus the peer tracking it."""

    __slots__ = ("agent", "peer", "pool")

    def __init__(self, agent: EndpointAgent, peer: EndpointAgent, pool: PrefixPool):
        self.agent = agent
        self.peer = peer
        self.pool = pool


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

        self.server = EndpointAgent(
            Role.SERVER, config.server_ip, config.server_as, config.server_deployment
        )
        self.client = EndpointAgent(
            Role.CLIENT, config.client_ip, config.client_as, config.client_deployment
        )
        self._agents_by_as = {config.server_as: self.server, config.client_as: self.client}
        # Every send starts from this header; the client's table rewrites it.
        self._outbound = Packet(config.client_ip, config.server_ip)

        adv = config.adversary
        self.tap: ObserverTap | None = ObserverTap(adv.tap) if adv else None
        self.policy: BlockPolicy | None = None
        if adv and adv.mode is not None:
            self.policy = BlockPolicy(adv.blocked, adv.mode, adv.detect_delay_ms, adv.trigger_count)

        self._prefix_refs: dict[int, int] = {}  # by prefix key
        self._hop_starts_abs: list[float] = []
        self._sent = 0
        self._delivered = 0
        self._resolved = 0
        self._traffic_end: float | None = None
        self._send_gap = 0.0
        self._send_seq = 0  # the queue slot of send 0; send j takes the slot j after it
        self._deliveries_by_window: dict[int, int] = {}

    # -- event helpers --

    def _emit_trace(self, component: str, event: str, details: str = "") -> None:
        self.trace.emit(self.queue.now, component, event, details)

    def _flush_routing(self) -> None:
        # One event per delivery instant, carrying the slots opened since
        # the last flush; an update that replaces a queued one rides in
        # that one's slot (see the routing module). Nothing can run
        # between the slots of one event, so they fire in the order that
        # one event per slot would give.
        slots = self.graph.take_slots()
        if slots:
            self.queue.schedule_in(self.config.link_delay_ms, self._deliver_routing, slots)

    def _deliver_routing(self, slots: list) -> None:
        graph = self.graph
        for key in slots:
            process_message(graph, graph.take(key))
        self._flush_routing()

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
        # is a pure function of it, so it is derived once.
        models = {cfg.dwell.name: cfg.dwell.model} if isinstance(cfg.dwell, DhmmDwell) else {}
        source = resolve_dwell_source(decoded.dwell_model_id, models)
        schedule = self.server.schedule = synchronize(self.server, decoded, source, cfg.n_hops)
        self._emit_trace(
            "session",
            "sync",
            f"hops={len(schedule)};total_ms={schedule.total_ms:.3f}",
        )

        ends = [_HopEnd(self.server, self.client, cfg.server_pool)]
        if cfg.two_way:
            client_payload = SyncPayload(
                cfg.client_seed, cfg.client_pool, cfg.dwell.model_id, cfg.lead_time_ms
            )
            self.client.schedule = synchronize(self.client, client_payload, source, cfg.n_hops)
            ends.append(_HopEnd(self.client, self.server, cfg.client_pool))

        for end in ends:
            self._setup_hopping_end(end)

        gap = cfg.gap_ms
        if gap is None:
            gap = schedule.total_ms / cfg.packets if cfg.packets else 0.0
            self._emit_trace("session", "auto_gap", f"gap_ms={gap:.3f}")
        self._schedule_traffic(gap)

    def _setup_hopping_end(self, end: _HopEnd) -> None:
        cfg = self.config
        epoch = cfg.lead_time_ms
        schedule = end.agent.schedule
        starts = schedule.start_times()
        if end.agent is self.server:
            self._hop_starts_abs = [epoch + s for s in starts]
        for k, entry in enumerate(schedule.entries):
            prefix = end.pool.covering_prefix(entry.address)
            origin = end.agent.attached_as
            self.queue.schedule_at(
                epoch + starts[k] - cfg.lead_time_ms, self._acquire_prefix, prefix, origin
            )
            self.queue.schedule_at(epoch + starts[k], self._do_hop, end, k)
            self.queue.schedule_at(
                epoch + starts[k] + entry.dwell_ms + cfg.withdraw_lag_ms,
                self._release_prefix, prefix, origin,
            )

    def _do_hop(self, end: _HopEnd, k: int) -> None:
        cfg = self.config
        entries = end.agent.schedule.entries
        entry = entries[k]
        prev = entries[k - 1].address if k > 0 else None
        hop(end.agent, k, graph=self.graph, grace_window_ms=cfg.grace_window_ms)
        self._emit_trace(
            "session",
            "hop",
            f"role={end.agent.role.value};index={k};external={entry.address}"
            f";via={end.agent.deployment.value}",
        )

        use_grace = prev is not None and cfg.grace_window_ms > 0
        if cfg.clock_skew_ms > 0 and end.peer is self.client:
            self.queue.schedule_in(
                cfg.clock_skew_ms, self._update_peer, end, entry.address, use_grace
            )
        else:
            self._update_peer(end, entry.address, use_grace)
        if use_grace and prev != entry.address:
            self.queue.schedule_in(cfg.grace_window_ms, self._expire_grace, end, prev)

    def _update_peer(self, end: _HopEnd, external: Address, grace: bool) -> None:
        peer = end.peer
        peer.flow_table = install_peer_rules(
            peer.flow_table, end.agent.internal_ip, external, grace=grace
        )

    def _expire_grace(self, end: _HopEnd, old: Address) -> None:
        own, peer = end.agent, end.peer
        own.flow_table = expire_external(own.flow_table, old)
        peer.flow_table = expire_external(peer.flow_table, old)
        self._emit_trace("session", "grace_expire", f"external={old}")

    def _schedule_traffic(self, gap_ms: float | None) -> None:
        # The sends keep the queue slots they would take if all were queued
        # here, but each is queued only when the one before it fires.
        self._send_gap = gap_ms or 0.0
        self._send_seq = self.queue.reserve(self.config.packets)
        if self.config.packets:
            self._queue_send(0)

    def _queue_send(self, j: int) -> None:
        self.queue.schedule_reserved(
            self.config.lead_time_ms + j * self._send_gap,
            self._send_seq + j, self._emit_packet, j,
        )

    # -- packet path --

    def _emit_packet(self, pkt_id: int) -> None:
        # Queue the next send before forwarding this one, so that
        # `advance_to` sees the queue it would see had every send been queued.
        if pkt_id + 1 < self.config.packets:
            self._queue_send(pkt_id + 1)
        self._sent += 1
        out = _apply_chain(self.client.flow_table, self._outbound, Direction.OUTBOUND)
        if out is None:
            self._emit_trace("traffic", "drop", f"id={pkt_id};reason=egress")
            self._resolve()
            return
        self._emit_trace("traffic", "send", f"id={pkt_id};src={out.src};dst={out.dst}")
        self._forward(out, pkt_id, self.client.attached_as, 0)

    def _forward(self, packet: Packet, pkt_id: int, asn: int, hops: int) -> None:
        # One pass per AS. A link crossing is taken inline when no queued
        # event is due by the arrival time. Callers do nothing after this
        # returns, so nothing could run in between, and the event order
        # is the one queueing the crossing would give.
        nodes = self.graph.nodes
        queue = self.queue
        delay = self.config.link_delay_ms
        tap = self.tap
        while True:
            if hops > len(nodes):
                self._emit_trace("traffic", "drop", f"id={pkt_id};reason=loop;at={asn}")
                self._resolve()
                return
            node = nodes[asn]
            prefix = longest_match(node, packet.dst)
            if prefix is None:
                self._emit_trace("traffic", "drop", f"id={pkt_id};reason=unroutable;at={asn}")
                self._resolve()
                return
            as_path = node.rib[prefix.key]
            if not as_path:
                self._deliver_local(packet, pkt_id, asn)
                return
            nxt = as_path[0]
            now = queue.now
            if tap is not None and tap.watches(asn, nxt):
                tap.observe(now, packet)
                if self.policy is not None:
                    if filter_packet(self.policy, packet, at=now) is Verdict.BLOCK:
                        self._emit_trace(
                            "adversary", "block",
                            f"id={pkt_id};dst={packet.dst};link={asn}-{nxt}",
                        )
                        self._resolve()
                        return
            hops += 1
            if not queue.advance_to(now + delay):
                queue.schedule_in(delay, self._forward, packet, pkt_id, nxt, hops)
                return
            asn = nxt

    def _deliver_local(self, packet: Packet, pkt_id: int, asn: int) -> None:
        agent = self._agents_by_as.get(asn)
        if agent is None:
            self._emit_trace("traffic", "drop", f"id={pkt_id};reason=no_endpoint;at={asn}")
            self._resolve()
            return
        result = _apply_chain(agent.flow_table, packet, Direction.INBOUND)
        if result is None:
            self._emit_trace("traffic", "drop", f"id={pkt_id};reason=no_rule;at={asn}")
            self._resolve()
            return
        if result.dst.key != agent.internal_ip.key:
            # Half rewritten: a peer-tracking rule rewrote the source, but the
            # hop rule for this destination expired (a skewed peer still sent to it).
            self._emit_trace("traffic", "drop", f"id={pkt_id};reason=stale_rewrite;at={asn}")
            self._resolve()
            return
        self._delivered += 1
        window = self._window_at(self.queue.now)
        self._deliveries_by_window[window] = self._deliveries_by_window.get(window, 0) + 1
        self._emit_trace("traffic", "deliver", f"id={pkt_id};window={window}")
        self._resolve()

    def _window_at(self, t: float) -> int:
        if not self._hop_starts_abs:
            return 0
        return max(0, bisect_right(self._hop_starts_abs, t) - 1)

    def _resolve(self) -> None:
        self._resolved += 1
        if self._resolved == self.config.packets:
            self._traffic_end = self.queue.now

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
        end_t = self._traffic_end if self._traffic_end is not None else 0.0
        entered = [k for k, t in enumerate(self._hop_starts_abs) if t <= end_t]
        schedule = self.server.schedule
        addresses = {schedule.entries[k].address.key for k in entered}
        dwells = [schedule.entries[k].dwell_ms for k in entered]
        per_hop = tuple((k, self._deliveries_by_window.get(k, 0)) for k in entered)
        return SessionMetrics(
            packets_sent=self._sent,
            packets_delivered=self._delivered,
            distinct_external_ips_used=len(addresses),
            hop_count=max(0, len(entered) - 1),
            mean_dwell_ms=sum(dwells) / len(dwells) if dwells else 0.0,
            per_hop_delivery=per_hop,
        )

    def _analyze_timing(self) -> list[str]:
        adv = self.config.adversary
        if not adv or adv.timing_model is None:
            return []
        intervals = extract_hop_intervals(self.tap, flow_src=self.client.internal_ip)
        if not intervals:
            return [f"nan,{adv.detect_threshold!r},no-hops-observed"]
        stat = timing_detect(intervals, adv.timing_model, adv.timing_model.alphabet)
        verdict = "detected" if stat > adv.detect_threshold else "clean"
        return [f"{stat!r},{adv.detect_threshold!r},{verdict}"]
