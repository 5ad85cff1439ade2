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

from enum import Enum

from .addressing import Address, Prefix, PrefixIndex, longest_match
from .adversary import (
    BlockPolicy,
    ObserverTap,
    Verdict,
    extract_hop_intervals,
    filter_packet,
    timing_detect,
)
from .config import ScenarioConfig
from .covert import SyncPayload, decode_payload
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
from .hopping import HopEntry, build_schedule
from .rng import DWELL_SEED_SALT, SplitMix64
from .routing import AsGraph, RouteMessage, announce, process_message, withdraw
from .values import Frozen, left_sum

OUTBOUND, INBOUND = Direction.OUTBOUND, Direction.INBOUND
_MISS = object()  # a decision-cache probe that found no entry


class Role(Enum):
    CLIENT = "client"
    SERVER = "server"


class EndpointAgent:
    """One session endpoint; `schedule` stays empty for a static address.

    `peer_table` is the other end's flow table, which tracks this end's
    external addresses. It is the table, not the other agent, so that
    the two ends hold no cycle and a finished run is freed by reference
    counting alone. A hopping end's `window` is the index of the window
    its last hop entered, and `first_slot` is the first of its reserved
    queue slots.
    """

    __slots__ = ("role", "internal_ip", "attached_as", "peer_table", "schedule", "flow_table",
                 "window", "first_slot")

    def __init__(self, role: Role, internal_ip: Address, attached_as: int):
        self.role = role
        self.internal_ip = internal_ip
        self.attached_as = attached_as
        self.peer_table: FlowTable | None = None
        self.schedule: tuple[HopEntry, ...] = ()
        self.flow_table = endpoint_table(internal_ip)
        self.window = 0
        self.first_slot = 0


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
) -> tuple[HopEntry, ...]:
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

        self.server = EndpointAgent(Role.SERVER, config.server_ip, config.server_as)
        self.client = EndpointAgent(Role.CLIENT, config.client_ip, config.client_as)
        self.server.peer_table = self.client.flow_table
        self.client.peer_table = self.server.flow_table
        self._agents_by_as = {config.server_as: self.server, config.client_as: self.client}
        # Every prefix the run can announce: the server's pool and, two-way,
        # the client's, or a static server's one host route. The config
        # keeps them pairwise disjoint, so the one that holds a destination
        # is the only one any rib can route it by.
        if config.server_hopping:
            announced = config.server_pool.prefixes
            if config.two_way:
                announced += config.client_pool.prefixes
        else:
            announced = (Prefix(config.server_ip, config.server_ip.width),)
        self._announced = PrefixIndex(announced)
        # Every send starts from this header; the client's table rewrites it.
        self._outbound = Packet(config.client_ip, config.server_ip)
        self._outbound_key = (OUTBOUND, config.client_ip.key, config.server_ip.key)
        # The last header the client's table gave a send, its route key and
        # its trace text. The memo hands back one object per header until a
        # table write drops it, so an identity check finds a new header.
        self._sent_header: tuple[Packet | None, int | None, str] = (None, None, "")

        adv = config.adversary
        # Only timing analysis reads the tap, so a tap exists only where a
        # timing model will read it.
        self.tap: ObserverTap | None = (
            ObserverTap(config.server_pool) if adv and adv.timing_model is not None else None
        )
        # The tapped link as {a: b, b: a}: a crossing from `asn` is tapped
        # when it goes to `_tap_next[asn]`.
        self._tap_next = dict((adv.tap, adv.tap[::-1])) if adv else {}
        self.policy: BlockPolicy | None = None
        if adv and adv.mode is not None:
            self.policy = BlockPolicy(adv.blocked, adv.mode, adv.detect_delay_ms, adv.trigger_count)

        self._prefix_refs: dict[int, int] = {}  # by prefix key
        self._unlanded: set[int] = set()  # prefix keys whose wave has yet to reach its first layer
        self._delivered = 0
        # The server's window when the last send resolved: each resolution
        # writes it. Deliveries by server window; a static server has one.
        self._end_window = 0
        self._deliveries_by_window = [0]

    # -- event helpers --

    def _emit_trace(self, component: str, event: str, details: str = "") -> None:
        self.trace.emit(self.queue.now, component, event, details)

    def _launch_wave(self, prefix: Prefix, origin: int) -> None:
        # Carry an announcement or withdrawal just made at `origin` down
        # its tree: the first layer, the origin's children (every AS of the
        # graph has a link, so it has some), gets it one link delay from
        # now. An action made before the last wave on the prefix reached
        # its first layer rides that wave, which reads the origin's entry
        # when it lands. With one global link delay, a later wave runs
        # behind the earlier ones at every layer, so the first layer is the
        # only place where two actions' updates could meet.
        key = prefix.key
        if key not in self._unlanded:
            self._unlanded.add(key)
            at = self.queue.now + self.config.link_delay_ms
            self.queue.schedule_at(at, self._deliver_routing, prefix, [origin])

    def _deliver_routing(self, prefix: Prefix, senders: list[int]) -> None:
        # One layer of a wave per instant: each sender's entry goes to its
        # tree children, and those whose entry changed and that have
        # children of their own send the next layer. A wave's next layer
        # runs inline, as a link crossing does, when it is due before the
        # queue's horizon; else it is queued. The event loop does nothing
        # after this returns, so the order of events is the one queueing
        # every layer would give.
        graph, queue, delay = self.graph, self.queue, self.config.link_delay_ms
        nodes, key = graph.nodes, prefix.key
        origin = graph.origins[key]
        if senders[0] == origin:  # the first layer: a later action starts a new wave
            self._unlanded.discard(key)
        tree = graph.children(origin)
        while True:
            layer = []
            for sender in senders:
                path = nodes[sender].rib.get(key)
                msg = RouteMessage(sender, prefix, None if path is None else (sender,) + path)
                for child in tree[sender]:
                    if process_message(graph, msg, child) and child in tree:
                        layer.append(child)
            if not layer:
                return
            senders = layer
            at = queue.now + delay
            if at >= queue.horizon():
                queue.schedule_at(at, self._deliver_routing, prefix, layer)
                return
            queue.now = at

    def _acquire_prefix(self, prefix: Prefix, origin: int) -> None:
        key = prefix.key
        count = self._prefix_refs.get(key, 0) + 1
        self._prefix_refs[key] = count
        if count == 1:
            announce(self.graph, prefix, origin)
            self._emit_trace("route", "announce", f"prefix={prefix};origin={origin}")
            self._launch_wave(prefix, origin)

    def _release_prefix(self, prefix: Prefix, origin: int) -> None:
        key = prefix.key
        count = self._prefix_refs.get(key, 0) - 1
        self._prefix_refs[key] = count
        if count == 0:
            withdraw(self.graph, prefix, origin)
            self._emit_trace("route", "withdraw", f"prefix={prefix};origin={origin}")
            self._launch_wave(prefix, origin)

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

        # The config encoded the records; publishing and decoding them is
        # the simulated covert exchange.
        records = cfg.sync_records
        self._emit_trace("dns", "register", f"anchor={cfg.anchor_ip};names={len(records.names)}")
        decoded = decode_payload(records, cfg.domain_tail)
        if decoded != cfg.sync_payload:
            raise ScenarioError("the covert round trip changed the sync payload")
        self._emit_trace("dns", "decode", f"seed={decoded.seed};model={decoded.dwell_model_id}")

        # Both ends derive this schedule from the one payload; `synchronize`
        # is a pure function of it, so it is derived once. The payload
        # names the config's own dwell source, as the check above proves.
        schedule = self.server.schedule = synchronize(self.server, decoded, cfg.dwell, cfg.n_hops)
        total_ms = left_sum(e.dwell_ms for e in schedule)
        self._emit_trace("session", "sync", f"hops={len(schedule)};total_ms={total_ms:.3f}")

        self._setup_hopping_end(self.server)
        self._deliveries_by_window = [0] * len(schedule)
        if cfg.two_way:
            client_payload = SyncPayload(
                cfg.client_seed, cfg.client_pool, cfg.dwell.model_id, cfg.lead_time_ms
            )
            self.client.schedule = synchronize(self.client, client_payload, cfg.dwell, cfg.n_hops)
            self._setup_hopping_end(self.client)

        gap = cfg.gap_ms
        if gap is None:
            gap = total_ms / cfg.packets if cfg.packets else 0.0
            self._emit_trace("session", "auto_gap", f"gap_ms={gap:.3f}")
        self._schedule_traffic(gap)

    def _setup_hopping_end(self, agent: EndpointAgent) -> None:
        # Window k's acquire, hop and release take the queue slots seq + 3k,
        # + 1 and + 2, which queueing all 3n here would give them. The
        # acquires and the hops are streams, and each hop queues its
        # window's release. Releases are no stream: with dwells below the
        # clock's resolution, a release can round to before the one before it.
        lead = self.config.lead_time_ms
        starts, s = [], 0.0
        for entry in agent.schedule:
            starts.append(lead + s)
            s += entry.dwell_ms
        queue = self.queue
        seq = agent.first_slot = queue.reserve(3 * len(starts))
        queue.stream(seq, 3, len(starts), lambda k: starts[k] - lead, self._acquire, agent)
        queue.stream(seq + 1, 3, len(starts), starts.__getitem__, self._hop_and_release, agent)

    def _acquire(self, agent: EndpointAgent, k: int) -> None:
        self._acquire_prefix(agent.schedule[k].prefix, agent.attached_as)

    def _hop_and_release(self, agent: EndpointAgent, k: int) -> None:
        entry = agent.schedule[k]
        queue = self.queue
        queue.schedule_reserved(
            queue.now + entry.dwell_ms + self.config.withdraw_lag_ms,
            agent.first_slot + 3 * k + 2, self._release_prefix, entry.prefix, agent.attached_as,
        )
        self._do_hop(agent, k)

    def _do_hop(self, agent: EndpointAgent, k: int) -> None:
        cfg = self.config
        entries = agent.schedule
        entry = entries[k]
        agent.window = k
        use_grace = k > 0 and cfg.grace_window_ms > 0
        hop(agent, entry, self.graph, grace=use_grace)
        self._emit_trace(
            "session", "hop", f"role={agent.role.value};index={k};external={entry.address}"
        )

        queue = self.queue
        if cfg.clock_skew_ms > 0 and agent is self.server:
            queue.schedule_at(
                queue.now + cfg.clock_skew_ms, self._update_peer, agent, entry.address, use_grace
            )
        else:
            self._update_peer(agent, entry.address, use_grace)
        if use_grace:
            prev = entries[k - 1].address
            queue.schedule_at(queue.now + cfg.grace_window_ms, self._expire_grace, agent, prev)

    def _update_peer(self, agent: EndpointAgent, external: Address, grace: bool) -> None:
        install_peer_rules(agent.peer_table, agent.internal_ip, external, grace=grace)

    def _expire_grace(self, agent: EndpointAgent, old: Address) -> None:
        expire_external(agent.flow_table, old)
        expire_external(agent.peer_table, old)
        self._emit_trace("session", "grace_expire", f"external={old}")

    def _schedule_traffic(self, gap_ms: float) -> None:
        # The sends are a stream, so a walk's horizon holds the next send.
        lead, packets = self.config.lead_time_ms, self.config.packets
        queue = self.queue
        queue.stream(queue.reserve(packets), 1, packets, lambda j: lead + j * gap_ms, self._do_send)

    # -- packet path --

    def _do_send(self, pkt_id: int) -> None:
        # A send leaves the client through its table (the memo, else
        # `_apply_chain`). Each header that pass gives takes its route key,
        # the one announced prefix that holds its destination, and its
        # trace text once: the sends that get the same header object reuse
        # them.
        table = self.client.flow_table
        packet = table.memo.get(self._outbound_key, _MISS)
        if packet is _MISS:
            packet = _apply_chain(table, self._outbound, OUTBOUND)
        now = self.queue.now
        if packet is None:
            self.trace.emit(now, "traffic", "drop", f"id={pkt_id};reason=egress")
            self._end_window = self.server.window
            return
        header, pkey, text = self._sent_header
        if packet is not header:
            prefix = longest_match(self._announced, packet.dst)
            pkey = None if prefix is None else prefix.key
            text = f";src={packet.src};dst={packet.dst}"
            self._sent_header = packet, pkey, text
        self.trace.emit(now, "traffic", "send", f"id={pkt_id}{text}")
        self._forward(packet, pkt_id, self.client.attached_as, 0, pkey)

    def _forward(self, packet: Packet, pkt_id: int, asn: int, hops: int, pkey: int | None) -> None:
        # One turn of the loop per AS the packet reaches, until it is
        # delivered or dropped. A link crossing is taken inline when it
        # arrives before the queue's horizon, which holds the next send;
        # else it is queued to resume here. The event loop does nothing
        # after this returns, so the event order is the one queueing every
        # crossing would give. Nothing the walk does queues an event, so it
        # reads the horizon once and moves the clock itself. A table's memo
        # is probed here; `_apply_chain` is the miss path.
        #
        # Each AS probes its rib by `pkey`, the send's route key, which a
        # queued crossing carries: nothing in transit rewrites the
        # destination, and the announced prefixes are fixed for the run. A
        # rib entry is the AS's path up the origin's tree, so each crossing
        # goes one layer nearer the origin, or the packet drops as
        # `unroutable`: no packet crosses more links than the tree is deep,
        # and the loop branch stays as a guard.
        queue = self.queue
        trace = self.trace
        nodes = self.graph.nodes
        max_hops = len(nodes)  # a packet that crossed more links is looping
        delay = self.config.link_delay_ms
        horizon = queue.horizon()
        tap, tap_next = self.tap, self._tap_next
        now = queue.now
        while True:
            if hops > max_hops:
                trace.emit(now, "traffic", "drop", f"id={pkt_id};reason=loop;at={asn}")
                break
            as_path = nodes[asn].rib.get(pkey)
            if as_path is None:
                trace.emit(now, "traffic", "drop", f"id={pkt_id};reason=unroutable;at={asn}")
                break
            if not as_path:
                agent = self._agents_by_as.get(asn)
                if agent is None:
                    trace.emit(now, "traffic", "drop", f"id={pkt_id};reason=no_endpoint;at={asn}")
                    break
                table, key = agent.flow_table, (INBOUND, packet.src.key, packet.dst.key)
                result = table.memo.get(key, _MISS)
                if result is _MISS:
                    result = _apply_chain(table, packet, INBOUND)
                if result is None:
                    trace.emit(now, "traffic", "drop", f"id={pkt_id};reason=no_rule;at={asn}")
                elif result.dst.key != agent.internal_ip.key:
                    # Half rewritten: a peer-tracking rule rewrote the source, but the
                    # hop rule for this destination expired (a skewed peer still sent to it).
                    trace.emit(now, "traffic", "drop", f"id={pkt_id};reason=stale_rewrite;at={asn}")
                else:
                    self._delivered += 1
                    window = self.server.window
                    self._deliveries_by_window[window] += 1
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
            if at >= horizon:
                queue.schedule_at(at, self._forward, packet, pkt_id, nxt, hops, pkey)
                return
            queue.now = now = at
            asn = nxt
        self._end_window = self.server.window

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
        sent = cfg.packets  # every send is made once the queue drains
        if sent == 0:
            return SessionMetrics(0, 0, 0, 0, 0.0, ())
        entered = self._end_window + 1  # a static server stays in its one window, 0
        dwells = [e.dwell_ms for e in self.server.schedule[:entered]]
        by_window = self._deliveries_by_window
        per_hop = tuple((k, by_window[k]) for k in range(entered))
        return SessionMetrics(
            packets_sent=sent,
            packets_delivered=self._delivered,
            # The draw never repeats an address, so each window entered
            # holds one of its own.
            distinct_external_ips_used=entered,
            hop_count=entered - 1,
            mean_dwell_ms=left_sum(dwells) / len(dwells) if dwells else 0.0,
            per_hop_delivery=per_hop,
        )

    def _analyze_timing(self) -> list[str]:
        adv = self.config.adversary
        if not adv or adv.timing_model is None:
            return []
        intervals = extract_hop_intervals(self.tap)
        if not intervals:
            return [f"nan,{adv.detect_threshold!r},no-hops-observed"]
        stat = timing_detect(intervals, adv.timing_model)
        verdict = "detected" if stat > adv.detect_threshold else "clean"
        return [f"{stat!r},{adv.detect_threshold!r},{verdict}"]
