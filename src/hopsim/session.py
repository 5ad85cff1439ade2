"""Scenario orchestration: agents, schedules, metrics, the event loop.

A scenario wires the other modules together on one virtual clock: the
server publishes sync material over the covert reverse-DNS channel, both
ends derive bit-identical hop schedules from it, prefixes are announced
ahead of each dwell window and withdrawn after use, flow tables rewrite
addresses at every hop, and the client's traffic is delivered across the
simulated AS graph while optional observers watch and filter.

Everything, including the adversary, runs deterministically from the
scenario config; two runs of one config produce byte-identical traces.
"""

from __future__ import annotations

import configparser
import hashlib
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .addressing import Address, Prefix, PrefixPool
from .adversary import (
    BlockMode,
    BlockPolicy,
    ObserverTap,
    Verdict,
    extract_hop_intervals,
    filter_packet,
    timing_detect,
)
from .covert import SyncPayload, decode_payload, encode_payload, ReverseZone
from .dwell import DhmmModel, start_sampler
from .errors import (
    ConfigError,
    ScenarioError,
    ScheduleExhausted,
    UnknownModel,
    VersionMismatch,
)
from .events import EventQueue, TraceLog
from .flowtable import (
    Direction,
    FlowTable,
    Packet,
    PacketKind,
    apply_detail,
    endpoint_table,
    expire_external,
    install_hop_rules,
    install_peer_rules,
)
from .hopping import HopSchedule, build_schedule
from .rng import DWELL_SEED_SALT, SplitMix64
from .routing import AsGraph, announce, longest_match, process_message, withdraw

_REQUIRED = object()


class Role(Enum):
    CLIENT = "client"
    SERVER = "server"


class DeploymentMode(Enum):
    HOST_AGENT = "host"
    GATEWAY = "gateway"


@dataclass
class EndpointAgent:
    """One session endpoint; `schedule` is None for a static address."""

    role: Role
    internal_ip: Address
    attached_as: int
    deployment: DeploymentMode = DeploymentMode.HOST_AGENT
    schedule: HopSchedule | None = None
    flow_table: FlowTable = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.flow_table is None:
            self.flow_table = endpoint_table(self.internal_ip)


# --- dwell sources ---------------------------------------------------------


@dataclass(frozen=True)
class FixedDwell:
    ms: float

    @property
    def model_id(self) -> str:
        return f"fixed:{self.ms!r}"


@dataclass(frozen=True)
class UniformDwell:
    low_ms: float
    high_ms: float

    @property
    def model_id(self) -> str:
        return f"uniform:{self.low_ms!r}:{self.high_ms!r}"


@dataclass(frozen=True)
class DhmmDwell:
    name: str
    model: DhmmModel

    @property
    def model_id(self) -> str:
        return self.name


DwellSource = FixedDwell | UniformDwell | DhmmDwell


def resolve_dwell_source(model_id: str, models: dict[str, DhmmModel]) -> DwellSource:
    """Turn a payload's dwell-model id back into a usable source."""
    if model_id.startswith("fixed:"):
        return FixedDwell(float(model_id.split(":", 1)[1]))
    if model_id.startswith("uniform:"):
        _, lo, hi = model_id.split(":")
        return UniformDwell(float(lo), float(hi))
    if model_id in models:
        return DhmmDwell(model_id, models[model_id])
    raise UnknownModel(f"no dwell model registered under {model_id!r}")


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
    return build_schedule(payload.seed, payload.pool, n_hops, dwells, unique=True)


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
    if graph is not None:
        announced = any(
            p.contains(address) and origin == agent.attached_as
            for p, origin in graph.origins.items()
        )
        if not announced:
            raise ScenarioError(
                f"hop {index}: {address} has no announced route from AS {agent.attached_as}"
            )
    agent.flow_table = install_hop_rules(
        agent.flow_table, agent.internal_ip, address, grace=index > 0 and grace_window_ms > 0
    )


# --- metrics ---------------------------------------------------------------


@dataclass(frozen=True)
class SessionMetrics:
    packets_sent: int
    packets_delivered: int
    distinct_external_ips_used: int
    hop_count: int
    mean_dwell_ms: float
    per_hop_delivery: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.packets_delivered > self.packets_sent:
            raise ValueError("delivered exceeds sent")
        if self.distinct_external_ips_used > self.hop_count + 1:
            raise ValueError("distinct addresses exceed windows entered")

    def to_dict(self) -> dict:
        return {
            "packets_sent": self.packets_sent,
            "packets_delivered": self.packets_delivered,
            "distinct_external_ips_used": self.distinct_external_ips_used,
            "hop_count": self.hop_count,
            "mean_dwell_ms": self.mean_dwell_ms,
            "per_hop_delivery": [list(p) for p in self.per_hop_delivery],
        }


# --- scenario configuration ------------------------------------------------


@dataclass(frozen=True)
class AdversaryConfig:
    tap: tuple[int, int]
    policy: str = "none"  # none | static | reactive
    blocked: tuple[Address | Prefix, ...] = ()
    detect_delay_ms: float = 5000.0
    trigger_count: int = 1
    timing_model: str | None = None  # model id in the registry
    detect_threshold: float = 0.05


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    n_hops: int
    topology_text: str
    server_ip: Address
    server_as: int
    server_pool: PrefixPool
    client_ip: Address
    client_as: int
    dwell_kind: str  # fixed | uniform | dhmm
    packets: int
    gap_ms: float | None  # None = spread traffic across the schedule
    raw_text: str
    server_deployment: DeploymentMode = DeploymentMode.HOST_AGENT
    client_deployment: DeploymentMode = DeploymentMode.HOST_AGENT
    server_hopping: bool = True
    dwell_fixed_ms: float = 5000.0
    dwell_low_ms: float = 1000.0
    dwell_high_ms: float = 10000.0
    dwell_model_path: str | None = None
    grace_window_ms: float = 200.0
    lead_time_ms: float = 1000.0
    withdraw_lag_ms: float = 500.0
    link_delay_ms: float = 10.0
    clock_skew_ms: float = 0.0
    two_way: bool = False
    client_seed: int = 0
    client_pool: PrefixPool | None = None
    payload_len: int = 64
    anchor_ip: Address = Address.parse("203.0.113.53")
    domain_tail: str = "example-cdn.net"
    adversary: AdversaryConfig | None = None

    def dwell_model_id(self) -> str:
        if self.dwell_kind == "fixed":
            return FixedDwell(self.dwell_fixed_ms).model_id
        if self.dwell_kind == "uniform":
            return UniformDwell(self.dwell_low_ms, self.dwell_high_ms).model_id
        return Path(self.dwell_model_path).stem

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(str(path), "config file not found")
        return cls.from_text(path.read_text(), base_dir=path.parent)

    @classmethod
    def from_text(cls, text: str, base_dir: str | Path = ".") -> "ScenarioConfig":
        base = Path(base_dir)
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError("<config>", f"parse error: {exc}") from exc

        def need(section: str, key: str, cast, default=_REQUIRED):
            where = f"[{section}] {key}"
            if not cp.has_option(section, key):
                if default is _REQUIRED:
                    raise ConfigError(where, "missing required key")
                return default
            raw = cp.get(section, key)
            try:
                return cast(raw)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(where, f"bad value {raw!r}: {exc}") from exc

        as_bool = lambda raw: raw.strip().lower() in ("1", "true", "yes", "on")

        seed = need("scenario", "seed", lambda r: int(r, 0))
        if not 0 <= seed < (1 << 64):
            raise ConfigError("[scenario] seed", "must fit in 64 bits")
        n_hops = need("scenario", "n_hops", int)
        server_hopping = need("server", "hopping", as_bool, True)
        if server_hopping and n_hops < 1:
            raise ConfigError("[scenario] n_hops", "must be >= 1 for a hopping server")

        topo_file = need("topology", "file", str)
        topo_path = base / topo_file
        if not topo_path.is_file():
            raise ConfigError("[topology] file", f"{topo_path} not found")
        topology_text = topo_path.read_text()
        try:
            graph = AsGraph.from_text(topology_text)
        except ValueError as exc:
            raise ConfigError("[topology] file", str(exc)) from exc

        server_ip = need("server", "internal_ip", Address.parse)
        server_as = need("server", "attached_as", int)
        server_pool = need("server", "pool", PrefixPool.parse)
        client_ip = need("client", "internal_ip", Address.parse)
        client_as = need("client", "attached_as", int)
        deployment = lambda raw: DeploymentMode(raw.strip().lower())
        server_dep = need("server", "deployment", deployment, DeploymentMode.HOST_AGENT)
        client_dep = need("client", "deployment", deployment, DeploymentMode.HOST_AGENT)

        for asn, where in ((server_as, "[server] attached_as"), (client_as, "[client] attached_as")):
            if asn not in graph.nodes:
                raise ConfigError(where, f"AS {asn} not present in topology")
        if server_as == client_as:
            raise ConfigError("[client] attached_as", "endpoints must attach to distinct ASes")
        if server_ip.version is not client_ip.version:
            raise ConfigError("[client] internal_ip", "endpoint IP versions differ")
        if server_pool.version is not server_ip.version:
            raise ConfigError("[server] pool", "pool version differs from internal_ip")

        dwell_kind = need("dwell", "source", lambda r: r.strip().lower())
        if dwell_kind not in ("fixed", "uniform", "dhmm"):
            raise ConfigError("[dwell] source", f"unknown source {dwell_kind!r}")
        dwell_fixed = need("dwell", "fixed_ms", float, 5000.0)
        dwell_low = need("dwell", "low_ms", float, 1000.0)
        dwell_high = need("dwell", "high_ms", float, 10000.0)
        model_path = None
        if dwell_kind == "dhmm":
            model_file = need("dwell", "model", str)
            resolved = base / model_file
            if not resolved.is_file():
                raise ConfigError("[dwell] model", f"{resolved} not found")
            model_path = str(resolved)
        if dwell_kind == "fixed" and dwell_fixed <= 0:
            raise ConfigError("[dwell] fixed_ms", "must be positive")
        if dwell_kind == "uniform" and not 0 < dwell_low < dwell_high:
            raise ConfigError("[dwell] low_ms", "need 0 < low_ms < high_ms")

        packets = need("traffic", "packets", int)
        if packets < 0:
            raise ConfigError("[traffic] packets", "must be >= 0")
        raw_gap = need("traffic", "gap_ms", str)
        if raw_gap.strip().lower() == "auto":
            gap_ms = None
            if not server_hopping:
                raise ConfigError("[traffic] gap_ms", "auto requires a hopping server")
        else:
            gap_ms = float(raw_gap)
            if gap_ms <= 0:
                raise ConfigError("[traffic] gap_ms", "must be positive or 'auto'")

        two_way = need("scenario", "two_way", as_bool, False)
        client_seed = need("scenario", "client_seed", lambda r: int(r, 0), 0)
        client_pool = need("client", "pool", PrefixPool.parse, None)
        if two_way:
            if not server_hopping:
                raise ConfigError("[scenario] two_way", "two_way requires a hopping server")
            if client_pool is None:
                raise ConfigError("[client] pool", "two_way requires a client pool")
            if client_pool.version is not client_ip.version:
                raise ConfigError("[client] pool", "pool version differs from internal_ip")
            for c in client_pool.prefixes:
                for p in server_pool.prefixes:
                    if c.covers(p) or p.covers(c):
                        raise ConfigError("[client] pool", f"{c} overlaps [server] pool prefix {p}")

        # Each hopping end draws n_hops distinct addresses from its pool.
        for role, pool, hopping in (
            ("server", server_pool, server_hopping), ("client", client_pool, two_way)
        ):
            if hopping and n_hops > pool.total_addresses:
                raise ConfigError(
                    "[scenario] n_hops",
                    f"{n_hops} hops need distinct addresses; "
                    f"[{role}] pool holds {pool.total_addresses}",
                )

        adversary = None
        if cp.has_section("adversary"):
            raw_tap = need("adversary", "tap", str)
            try:
                a, b = (int(x) for x in raw_tap.replace("-", " ").split())
            except ValueError as exc:
                raise ConfigError("[adversary] tap", f"expected 'asn-asn': {exc}") from exc
            if not graph.has_link(a, b):
                raise ConfigError("[adversary] tap", f"link {a}-{b} not in topology")
            policy = need("adversary", "policy", lambda r: r.strip().lower(), "none")
            if policy not in ("none", "static", "reactive"):
                raise ConfigError("[adversary] policy", f"unknown policy {policy!r}")
            blocked: list[Address | Prefix] = []
            raw_blocked = need("adversary", "blocked", str, "")
            for item in (s.strip() for s in raw_blocked.split(",")):
                if not item:
                    continue
                try:
                    blocked.append(Prefix.parse(item) if "/" in item else Address.parse(item))
                except ValueError as exc:
                    raise ConfigError("[adversary] blocked", str(exc)) from exc
            timing_model = need("adversary", "timing_model", str, None)
            if timing_model is not None:
                resolved = base / timing_model
                if not resolved.is_file():
                    raise ConfigError("[adversary] timing_model", f"{resolved} not found")
                timing_model = str(resolved)
            adversary = AdversaryConfig(
                tap=(a, b),
                policy=policy,
                blocked=tuple(blocked),
                detect_delay_ms=need("adversary", "detect_delay_ms", float, 5000.0),
                trigger_count=need("adversary", "trigger_count", int, 1),
                timing_model=timing_model,
                detect_threshold=need("adversary", "detect_threshold", float, 0.05),
            )

        positive = {
            "grace_window_ms": (need("scenario", "grace_window_ms", float, 200.0), True),
            "lead_time_ms": (need("scenario", "lead_time_ms", float, 1000.0), False),
            "withdraw_lag_ms": (need("scenario", "withdraw_lag_ms", float, 500.0), True),
            "link_delay_ms": (need("scenario", "link_delay_ms", float, 10.0), True),
            "clock_skew_ms": (need("scenario", "clock_skew_ms", float, 0.0), True),
        }
        for key, (value, zero_ok) in positive.items():
            if value < 0 or (value == 0 and not zero_ok):
                raise ConfigError(f"[scenario] {key}", "must be positive")

        return cls(
            seed=seed,
            n_hops=n_hops,
            topology_text=topology_text,
            server_ip=server_ip,
            server_as=server_as,
            server_pool=server_pool,
            client_ip=client_ip,
            client_as=client_as,
            dwell_kind=dwell_kind,
            packets=packets,
            gap_ms=gap_ms,
            raw_text=text,
            server_deployment=server_dep,
            client_deployment=client_dep,
            server_hopping=server_hopping,
            dwell_fixed_ms=dwell_fixed,
            dwell_low_ms=dwell_low,
            dwell_high_ms=dwell_high,
            dwell_model_path=model_path,
            grace_window_ms=positive["grace_window_ms"][0],
            lead_time_ms=positive["lead_time_ms"][0],
            withdraw_lag_ms=positive["withdraw_lag_ms"][0],
            link_delay_ms=positive["link_delay_ms"][0],
            clock_skew_ms=positive["clock_skew_ms"][0],
            two_way=two_way,
            client_seed=client_seed,
            client_pool=client_pool,
            payload_len=need("traffic", "payload_len", int, 64),
            anchor_ip=need("covert", "anchor_ip", Address.parse, Address.parse("203.0.113.53")),
            domain_tail=need("covert", "domain_tail", str, "example-cdn.net"),
            adversary=adversary,
        )

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)


def canonical_config_hash(text: str) -> str:
    """Stable digest of a config: sections and keys sorted, values stripped."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.read_string(text)
    lines = []
    for section in sorted(cp.sections()):
        for key in sorted(cp.options(section)):
            lines.append(f"[{section}] {key}={cp.get(section, key).strip()}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# --- the simulation --------------------------------------------------------


def _apply_chain(table: FlowTable, packet: Packet, direction: Direction) -> Packet | None:
    """Up to two rewrite lookups, modeling a chained SDN pipeline.

    Two-way sessions rewrite both address fields of a packet (own hop
    rules then peer-tracking rules); the second lookup is only honored
    if it performs another rewrite, so a rewritten packet never falls
    through to the table default.
    """
    result, rule = apply_detail(table, packet, direction)
    if result is None or rule is None or not rule.action.is_rewrite:
        return result
    second, rule2 = apply_detail(table, result, direction)
    if second is not None and rule2 is not None and rule2.action.is_rewrite:
        return second
    return result


@dataclass
class _HopEnd:
    """Internal: one hopping endpoint plus the peer tracking it."""

    agent: EndpointAgent
    peer: EndpointAgent
    pool: PrefixPool
    schedule: HopSchedule = None  # type: ignore[assignment]


@dataclass
class SimulationResult:
    metrics: SessionMetrics
    trace: list[str]
    verdicts: list[str]

    def trace_text(self) -> str:
        return "\n".join(self.trace) + ("\n" if self.trace else "")


class Simulation:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.queue = EventQueue()
        self.trace = TraceLog()
        self.graph = AsGraph.from_text(config.topology_text)
        self.zone = ReverseZone()
        self.models: dict[str, DhmmModel] = {}
        if config.dwell_model_path:
            path = Path(config.dwell_model_path)
            self.models[path.stem] = DhmmModel.from_text(path.read_text())
        self._timing_model: DhmmModel | None = None
        if config.adversary and config.adversary.timing_model:
            self._timing_model = DhmmModel.from_text(
                Path(config.adversary.timing_model).read_text()
            )

        self.server = EndpointAgent(
            Role.SERVER, config.server_ip, config.server_as, config.server_deployment
        )
        self.client = EndpointAgent(
            Role.CLIENT, config.client_ip, config.client_as, config.client_deployment
        )
        self._agents_by_as = {config.server_as: self.server, config.client_as: self.client}

        self.taps: list[ObserverTap] = []
        self.policy: BlockPolicy | None = None
        if config.adversary:
            self.taps.append(ObserverTap(config.adversary.tap))
            if config.adversary.policy == "static":
                self.policy = BlockPolicy(set(config.adversary.blocked), BlockMode.STATIC)
            elif config.adversary.policy == "reactive":
                self.policy = BlockPolicy(
                    set(config.adversary.blocked),
                    BlockMode.REACTIVE,
                    detect_delay_ms=config.adversary.detect_delay_ms,
                    trigger_count=config.adversary.trigger_count,
                )

        self._prefix_refs: dict[Prefix, int] = {}
        self._hops_entered: list[tuple[int, float]] = []  # server-side windows
        self._hop_starts_abs: list[float] = []
        self._sent = 0
        self._delivered = 0
        self._resolved = 0
        self._traffic_end: float | None = None
        self._deliveries_by_window: dict[int, int] = {}

    # -- event helpers --

    def _emit_trace(self, component: str, event: str, details: str = "") -> None:
        self.trace.emit(self.queue.now, component, event, details)

    def _flush_routing(self) -> None:
        for msg in self.graph.drain_pending():
            self.queue.schedule_in(
                self.config.link_delay_ms, lambda m=msg: self._deliver_routing(m)
            )

    def _deliver_routing(self, msg) -> None:
        process_message(self.graph, msg)
        self._flush_routing()

    def _acquire_prefix(self, prefix: Prefix, origin: int) -> None:
        count = self._prefix_refs.get(prefix, 0) + 1
        self._prefix_refs[prefix] = count
        if count == 1:
            announce(self.graph, prefix, origin)
            self._emit_trace("route", "announce", f"prefix={prefix};origin={origin}")
            self._flush_routing()

    def _release_prefix(self, prefix: Prefix, origin: int) -> None:
        count = self._prefix_refs.get(prefix, 0) - 1
        self._prefix_refs[prefix] = count
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

        payload = SyncPayload(
            cfg.seed, cfg.server_pool, self.config.dwell_model_id(), cfg.lead_time_ms
        )
        records = encode_payload(payload, cfg.anchor_ip, cfg.domain_tail)
        self.zone.register(records)
        self._emit_trace("dns", "register", f"anchor={cfg.anchor_ip};names={len(records.names)}")
        fetched = self.zone.lookup(cfg.anchor_ip)
        decoded = decode_payload(fetched, cfg.domain_tail)
        self._emit_trace("dns", "decode", f"seed={decoded.seed};model={decoded.dwell_model_id}")

        source = resolve_dwell_source(decoded.dwell_model_id, self.models)
        server_view = synchronize(self.server, decoded, source, cfg.n_hops)
        client_view = synchronize(self.client, decoded, source, cfg.n_hops)
        if server_view != client_view:
            raise ScenarioError("endpoints derived different schedules from one payload")
        self.server.schedule = server_view
        self._emit_trace(
            "session",
            "sync",
            f"hops={len(server_view)};total_ms={server_view.total_ms:.3f}",
        )

        ends = [_HopEnd(self.server, self.client, cfg.server_pool, server_view)]
        if cfg.two_way:
            client_payload = SyncPayload(
                cfg.client_seed, cfg.client_pool, self.config.dwell_model_id(), cfg.lead_time_ms
            )
            client_sched = synchronize(self.client, client_payload, source, cfg.n_hops)
            self.client.schedule = client_sched
            ends.append(_HopEnd(self.client, self.server, cfg.client_pool, client_sched))

        for end in ends:
            self._setup_hopping_end(end)

        gap = cfg.gap_ms
        if gap is None:
            gap = server_view.total_ms / cfg.packets if cfg.packets else 0.0
            self._emit_trace("session", "auto_gap", f"gap_ms={gap:.3f}")
        self._schedule_traffic(gap)

    def _setup_hopping_end(self, end: _HopEnd) -> None:
        cfg = self.config
        epoch = cfg.lead_time_ms
        starts = end.schedule.start_times()
        if end.agent is self.server:
            self._hop_starts_abs = [epoch + s for s in starts]
        for k, entry in enumerate(end.schedule.entries):
            prefix = end.pool.covering_prefix(entry.address)
            origin = end.agent.attached_as
            self.queue.schedule_at(
                epoch + starts[k] - cfg.lead_time_ms,
                lambda p=prefix, o=origin: self._acquire_prefix(p, o),
            )
            self.queue.schedule_at(epoch + starts[k], lambda e=end, i=k: self._do_hop(e, i))
            self.queue.schedule_at(
                epoch + starts[k] + entry.dwell_ms + cfg.withdraw_lag_ms,
                lambda p=prefix, o=origin: self._release_prefix(p, o),
            )

    def _do_hop(self, end: _HopEnd, k: int) -> None:
        cfg = self.config
        entry = end.schedule.entries[k]
        prev = end.schedule.entries[k - 1].address if k > 0 else None
        hop(end.agent, k, graph=self.graph, grace_window_ms=cfg.grace_window_ms)
        if end.agent is self.server:
            self._hops_entered.append((k, self.queue.now))
        self._emit_trace(
            "session",
            "hop",
            f"role={end.agent.role.value};index={k};external={entry.address}"
            f";via={end.agent.deployment.value}",
        )

        use_grace = prev is not None and cfg.grace_window_ms > 0

        def update_peer(peer=end.peer, internal=end.agent.internal_ip, ext=entry.address):
            peer.flow_table = install_peer_rules(peer.flow_table, internal, ext, grace=use_grace)

        if cfg.clock_skew_ms > 0 and end.peer is self.client:
            self.queue.schedule_in(cfg.clock_skew_ms, update_peer)
        else:
            update_peer()

        if use_grace and prev != entry.address:
            def expire(old=prev, own=end.agent, peer=end.peer):
                own.flow_table = expire_external(own.flow_table, old)
                peer.flow_table = expire_external(peer.flow_table, old)
                self._emit_trace("session", "grace_expire", f"external={old}")

            self.queue.schedule_in(cfg.grace_window_ms, expire)

    def _schedule_traffic(self, gap_ms: float | None) -> None:
        cfg = self.config
        epoch = cfg.lead_time_ms
        gap = gap_ms or 0.0
        for j in range(cfg.packets):
            self.queue.schedule_at(epoch + j * gap, lambda i=j: self._emit_packet(i))

    # -- packet path --

    def _emit_packet(self, pkt_id: int) -> None:
        cfg = self.config
        now = self.queue.now
        packet = Packet(
            PacketKind.IP, self.client.internal_ip, self.server.internal_ip,
            pkt_id, cfg.payload_len, now,
        )
        self._sent += 1
        out = _apply_chain(self.client.flow_table, packet, Direction.OUTBOUND)
        if out is None:
            self._emit_trace("traffic", "drop", f"id={pkt_id};reason=egress")
            self._resolve()
            return
        self._emit_trace("traffic", "send", f"id={pkt_id};src={out.src};dst={out.dst}")
        self._forward(out, self.client.attached_as, hops=0)

    def _forward(self, packet: Packet, asn: int, hops: int) -> None:
        if hops > len(self.graph.nodes):
            self._emit_trace("traffic", "drop", f"id={packet.id};reason=loop;at={asn}")
            self._resolve()
            return
        node = self.graph.nodes[asn]
        prefix = longest_match(node, packet.dst)
        if prefix is None:
            self._emit_trace("traffic", "drop", f"id={packet.id};reason=unroutable;at={asn}")
            self._resolve()
            return
        route = node.rib[prefix]
        if not route.path:
            self._deliver_local(packet, asn)
            return
        nxt = route.next_hop
        now = self.queue.now
        for tap in self.taps:
            if tap.watches(asn, nxt):
                tap.observe(now, packet)
                if self.policy is not None:
                    if filter_packet(self.policy, packet, at=now) is Verdict.BLOCK:
                        self._emit_trace(
                            "adversary", "block", f"id={packet.id};dst={packet.dst};link={asn}-{nxt}"
                        )
                        self._resolve()
                        return
        self.queue.schedule_in(
            self.config.link_delay_ms, lambda p=packet, n=nxt, h=hops + 1: self._forward(p, n, h)
        )

    def _deliver_local(self, packet: Packet, asn: int) -> None:
        agent = self._agents_by_as.get(asn)
        if agent is None:
            self._emit_trace("traffic", "drop", f"id={packet.id};reason=no_endpoint;at={asn}")
            self._resolve()
            return
        result = _apply_chain(agent.flow_table, packet, Direction.INBOUND)
        if result is None:
            self._emit_trace("traffic", "drop", f"id={packet.id};reason=no_rule;at={asn}")
            self._resolve()
            return
        if result.dst != agent.internal_ip:
            raise ScenarioError(
                f"packet {packet.id} reached the application with dst {result.dst}; "
                f"the fixed internal address was {agent.internal_ip}"
            )
        self._delivered += 1
        window = self._window_at(self.queue.now)
        self._deliveries_by_window[window] = self._deliveries_by_window.get(window, 0) + 1
        self._emit_trace("traffic", "deliver", f"id={packet.id};window={window}")
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
        entered = [(k, t) for k, t in self._hops_entered if t <= end_t]
        schedule = self.server.schedule
        addresses = {schedule.entries[k].address for k, _ in entered}
        dwells = [schedule.entries[k].dwell_ms for k, _ in entered]
        per_hop = tuple(
            (k, self._deliveries_by_window.get(k, 0)) for k, _ in entered
        )
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
        if not adv or self._timing_model is None or not self.taps:
            return []
        intervals = extract_hop_intervals(self.taps[0], flow_src=self.client.internal_ip)
        if not intervals:
            return [f"nan,{adv.detect_threshold!r},no-hops-observed"]
        stat = timing_detect(intervals, self._timing_model, self._timing_model.alphabet)
        verdict = "detected" if stat > adv.detect_threshold else "clean"
        return [f"{stat!r},{adv.detect_threshold!r},{verdict}"]


def run_scenario(config: ScenarioConfig) -> SessionMetrics:
    """Execute one scenario; a pure, deterministic function of the config."""
    return Simulation(config).run().metrics
