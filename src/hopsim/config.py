"""Scenario configuration: one INI file parsed into the values a run uses.

`ScenarioConfig.from_text` reads every file a config names, and lists
them in `inputs`, so the simulation reads none, and raises each input error as a `ConfigError`
naming its `[section] key`. It parses the topology into an edge list,
and the `ScenarioConfig` constructor encodes the hopping server's sync
payload: each is built once, here, and a run uses what was built, so
a config that parses runs to completion.
"""

from __future__ import annotations

import configparser
import math
from functools import lru_cache
from pathlib import Path

# The config digest is the only hash a run takes. `hashlib` maps OpenSSL's
# libcrypto to provide it (several MB of resident set and a few ms of
# start-up), so take sha256 from CPython's built-in module, as `random`
# does for sha512, and fall back to `hashlib` only where none is built in.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .addressing import Address, Prefix, PrefixPool
from .adversary import BlockMode
from .covert import DEFAULT_ANCHOR, DEFAULT_DOMAIN_TAIL, SyncPayload, encode_payload
from .dwell import DhmmDwell, DhmmModel, FixedDwell, UniformDwell, check_walkable
from .errors import ConfigError, HopsimError, InvalidDomainTail, InvalidPool, PayloadTooLarge
from .routing import parse_asn, parse_edges
from .values import Frozen, _set

_REQUIRED = object()

# The most packets and hops a config may ask for. At about 8 us a packet
# and 35 us and 0.47 KB a hop (measured through the CLI from 40,000 to
# 160,000 packets and 20,000 to 100,000 hops, on 2 vCPUs, Python 3.11.7),
# a run at either cap takes minutes at most and about 0.5 GB. A tap holds
# one time per hop it sees, not one entry per packet.
MAX_PACKETS = 10_000_000
MAX_HOPS = 1_000_000


class AdversaryConfig(Frozen):
    __slots__ = _fields = (
        "tap",
        "mode",  # None: the tap only observes
        "blocked", "detect_delay_ms", "trigger_count", "timing_model", "detect_threshold",
    )


class ScenarioConfig(Frozen):
    # `sync_payload` and `sync_records` are derived from the fields and are
    # not fields: `replace` (a seed override) runs `__init__` again, so the
    # records a run publishes always carry the config's own seed. Both are
    # None for a static server.
    _fields = (
        "seed", "n_hops",
        "edges",  # the topology's (asn, asn) links, in file order
        "server_ip", "server_as", "server_pool", "client_ip", "client_as", "dwell", "packets",
        "gap_ms",  # None = spread traffic across the schedule
        "config_sha256",  # canonical digest of the config text
        "inputs",  # (`[section] key`, path) of each file the config read, in that order
        "server_hopping", "grace_window_ms", "lead_time_ms", "withdraw_lag_ms",
        "link_delay_ms", "clock_skew_ms", "two_way", "client_seed", "client_pool",
        "anchor_ip", "domain_tail", "adversary",
    )
    __slots__ = _fields + ("sync_payload", "sync_records")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        payload = records = None
        if self.server_hopping:
            payload = SyncPayload(
                self.seed, self.server_pool, self.dwell.model_id, self.lead_time_ms
            )
            records = encode_payload(payload, self.anchor_ip, self.domain_tail)
        _set(self, "sync_payload", payload)
        _set(self, "sync_records", records)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        return cls.from_text(_read(path, "config"), base_dir=path.parent)

    @classmethod
    def from_text(cls, text: str, base_dir: str | Path = ".") -> "ScenarioConfig":
        base = Path(base_dir)
        cp = _parse_ini(text)
        config_sha256 = _digest(cp)

        def need(section: str, key: str, cast, default=_REQUIRED):
            where = f"[{section}] {key}"
            if not cp.has_option(section, key):
                if default is _REQUIRED:
                    raise ConfigError(where, "missing required key")
                return default
            raw = cp.get(section, key)
            try:
                return cast(raw)
            except (ValueError, HopsimError) as exc:
                raise ConfigError(where, f"bad value {raw!r}: {exc}") from exc

        as_bool = lambda raw: raw.strip().lower() in ("1", "true", "yes", "on")

        seed = need("scenario", "seed", _u64)
        n_hops = need("scenario", "n_hops", int)
        if n_hops > MAX_HOPS:
            raise ConfigError("[scenario] n_hops", f"must be <= {MAX_HOPS}")
        server_hopping = need("server", "hopping", as_bool, True)
        if server_hopping and n_hops < 1:
            raise ConfigError("[scenario] n_hops", "must be >= 1 for a hopping server")

        topology_file = base / need("topology", "file", str)
        inputs = [("[topology] file", topology_file)]
        try:
            edges = parse_edges(read_input(topology_file))
        except ValueError as exc:
            raise ConfigError("[topology] file", str(exc)) from exc
        ases = {asn for edge in edges for asn in edge}

        server_ip = need("server", "internal_ip", Address.parse)
        server_as = need("server", "attached_as", parse_asn)
        server_pool = need("server", "pool", PrefixPool.parse)
        client_ip = need("client", "internal_ip", Address.parse)
        client_as = need("client", "attached_as", parse_asn)

        for asn, where in ((server_as, "[server] attached_as"), (client_as, "[client] attached_as")):
            if asn not in ases:
                raise ConfigError(where, f"AS {asn} not present in topology")
        if server_as == client_as:
            raise ConfigError("[client] attached_as", "endpoints must attach to distinct ASes")
        if server_ip.version is not client_ip.version:
            raise ConfigError("[client] internal_ip", "endpoint IP versions differ")
        if server_pool.version is not server_ip.version:
            raise ConfigError("[server] pool", "pool version differs from internal_ip")

        # `longest_key` names the key that bounds the longest dwell drawn.
        dwell_kind = need("dwell", "source", lambda r: r.strip().lower())
        if dwell_kind == "fixed":
            dwell = FixedDwell(need("dwell", "fixed_ms", _positive, 5000.0))
            longest_key, longest_ms = "[dwell] fixed_ms", dwell.ms
        elif dwell_kind == "uniform":
            dwell = UniformDwell(
                need("dwell", "low_ms", _number, 1000.0), need("dwell", "high_ms", _number, 10000.0)
            )
            if not 0 < dwell.low_ms < dwell.high_ms:
                raise ConfigError("[dwell] low_ms", "need 0 < low_ms < high_ms")
            longest_key, longest_ms = "[dwell] high_ms", dwell.high_ms
        elif dwell_kind == "dhmm":
            model_file = need("dwell", "model", str)
            inputs.append(("[dwell] model", base / model_file))
            model = _load_model(base / model_file, "[dwell] model")
            dwell = DhmmDwell(Path(model_file).stem, model)
            longest_key, longest_ms = "[dwell] model", model.alphabet.bins[-1].upper_ms
        else:
            raise ConfigError("[dwell] source", f"unknown source {dwell_kind!r}")

        packets = need("traffic", "packets", int)
        if not 0 <= packets <= MAX_PACKETS:
            raise ConfigError("[traffic] packets", f"must be in 0..{MAX_PACKETS}")
        gap = lambda raw: None if raw.strip().lower() == "auto" else _positive(raw)
        gap_ms = need("traffic", "gap_ms", gap)
        if gap_ms is None and not server_hopping:
            raise ConfigError("[traffic] gap_ms", "auto requires a hopping server")

        two_way = need("scenario", "two_way", as_bool, False)
        client_seed = need("scenario", "client_seed", _u64, 0)
        client_pool = need("client", "pool", PrefixPool.parse, None)
        if two_way:
            if not server_hopping:
                raise ConfigError("[scenario] two_way", "two_way requires a hopping server")
            if client_pool is None:
                raise ConfigError("[client] pool", "two_way requires a client pool")
            if client_pool.version is not client_ip.version:
                raise ConfigError("[client] pool", "pool version differs from internal_ip")
            try:
                PrefixPool(client_pool.prefixes + server_pool.prefixes)
            except InvalidPool as exc:
                raise ConfigError("[client] pool", f"overlaps the [server] pool: {exc}") from exc

        # Each hopping end draws n_hops distinct addresses from its pool,
        # and a drawn address must differ from the end's internal one.
        for role, ip, pool, hopping in (
            ("server", server_ip, server_pool, server_hopping),
            ("client", client_ip, client_pool, two_way),
        ):
            if not hopping:
                continue
            if n_hops > pool.total_addresses:
                raise ConfigError(
                    "[scenario] n_hops",
                    f"{n_hops} hops need distinct addresses; "
                    f"[{role}] pool holds {pool.total_addresses}",
                )
            if pool.contains(ip):
                raise ConfigError(f"[{role}] internal_ip", f"{ip} lies inside the [{role}] pool")

        adversary = None
        if cp.has_section("adversary"):
            a, b = need("adversary", "tap", _tap)
            if (a, b) not in edges and (b, a) not in edges:
                raise ConfigError("[adversary] tap", f"link {a}-{b} not in topology")
            policy = need("adversary", "policy", lambda r: r.strip().lower(), "none")
            if policy not in ("none", "static", "reactive"):
                raise ConfigError("[adversary] policy", f"unknown policy {policy!r}")
            mode = None if policy == "none" else BlockMode(policy)
            blocked = need("adversary", "blocked", _blocklist, frozenset())
            detect_delay_ms = need("adversary", "detect_delay_ms", _number, 5000.0)
            if mode is BlockMode.REACTIVE and detect_delay_ms <= 0:
                raise ConfigError("[adversary] detect_delay_ms", "a reactive policy needs a delay > 0")
            trigger_count = need("adversary", "trigger_count", int, 1)
            if trigger_count < 1:
                raise ConfigError("[adversary] trigger_count", "must be >= 1")
            timing_file = need("adversary", "timing_model", str, None)
            if timing_file is not None:
                inputs.append(("[adversary] timing_model", base / timing_file))
            adversary = AdversaryConfig(
                tap=(a, b),
                mode=mode,
                blocked=blocked,
                detect_delay_ms=detect_delay_ms,
                trigger_count=trigger_count,
                timing_model=(
                    None if timing_file is None
                    else _load_model(base / timing_file, "[adversary] timing_model")
                ),
                detect_threshold=need("adversary", "detect_threshold", _number, 0.05),
            )

        lead_time_ms = need("scenario", "lead_time_ms", _positive, 1000.0)
        anchor_ip = need("covert", "anchor_ip", Address.parse, Address.parse(DEFAULT_ANCHOR))
        domain_tail = need("covert", "domain_tail", str, DEFAULT_DOMAIN_TAIL)

        # Every event time must be a finite number: an infinite schedule
        # makes the auto gap infinite and stamps packets at 0 * inf = nan.
        grace_window_ms = need("scenario", "grace_window_ms", _non_negative, 200.0)
        withdraw_lag_ms = need("scenario", "withdraw_lag_ms", _non_negative, 500.0)
        if server_hopping and not math.isfinite(
            lead_time_ms + n_hops * longest_ms + withdraw_lag_ms + grace_window_ms
        ):
            raise ConfigError(longest_key, f"{n_hops} dwells of {longest_ms!r} ms overflow")
        if gap_ms is not None and not _finite_sum(lead_time_ms, packets - 1, gap_ms):
            raise ConfigError("[traffic] gap_ms", f"{packets} sends {gap_ms!r} ms apart overflow")

        link_delay_ms = need("scenario", "link_delay_ms", _non_negative, 10.0)
        clock_skew_ms = need("scenario", "clock_skew_ms", _non_negative, 0.0)
        # The constructor encodes the sync payload a run publishes, which
        # turns an unencodable one into an input error here.
        try:
            return cls(
                seed=seed,
                n_hops=n_hops,
                edges=edges,
                server_ip=server_ip,
                server_as=server_as,
                server_pool=server_pool,
                client_ip=client_ip,
                client_as=client_as,
                dwell=dwell,
                packets=packets,
                gap_ms=gap_ms,
                config_sha256=config_sha256,
                server_hopping=server_hopping,
                grace_window_ms=grace_window_ms,
                lead_time_ms=lead_time_ms,
                withdraw_lag_ms=withdraw_lag_ms,
                link_delay_ms=link_delay_ms,
                clock_skew_ms=clock_skew_ms,
                two_way=two_way,
                client_seed=client_seed,
                client_pool=client_pool,
                anchor_ip=anchor_ip,
                domain_tail=domain_tail,
                adversary=adversary,
                inputs=tuple(inputs),
            )
        except InvalidDomainTail as exc:
            raise ConfigError("[covert] domain_tail", str(exc)) from exc
        except PayloadTooLarge as exc:
            raise ConfigError("[server] pool", str(exc)) from exc
        except ValueError as exc:  # a `SyncPayload` check: the model id's length
            raise ConfigError("[dwell] model", str(exc)) from exc


def _u64(raw: str) -> int:
    value = int(raw, 0)
    if not 0 <= value < (1 << 64):
        raise ValueError("must fit in 64 bits")
    return value


def _tap(raw: str) -> tuple[int, int]:
    ends = raw.split("-")
    if len(ends) != 2:
        raise ValueError("expected two ASNs joined by one '-'")
    return parse_asn(ends[0]), parse_asn(ends[1])


def _number(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _positive(raw: str) -> float:
    value = _number(raw)
    if value <= 0:
        raise ValueError("must be positive")
    return value


def _non_negative(raw: str) -> float:
    value = _number(raw)
    if value < 0:
        raise ValueError("must not be negative")
    return value


def _finite_sum(start: float, count: int, step: float) -> bool:
    """True if `start + count * step` is a finite float."""
    try:
        return math.isfinite(start + count * step)
    except OverflowError:  # `count` is too large for a float
        return False


def _blocklist(raw: str) -> frozenset[Address | Prefix]:
    items = (s.strip() for s in raw.split(","))
    return frozenset(Prefix.parse(i) if "/" in i else Address.parse(i) for i in items if i)


def read_input(path: Path) -> str:
    """`path`'s text; a missing or unreadable file raises ValueError naming it."""
    if not path.is_file():
        raise ValueError(f"{path} not found")
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _read(path: Path, where: str) -> str:
    try:
        return read_input(path)
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


def _load_model(path: Path, where: str) -> DhmmModel:
    """A DHMM file whose model can start a walk in any state and keep going."""
    text = _read(path, where)
    try:
        return _walkable_model(text)
    except (ValueError, KeyError, HopsimError) as exc:
        raise ConfigError(where, f"unusable model {path.name}: {exc!r}") from exc


@lru_cache(maxsize=None)
def _walkable_model(text: str) -> DhmmModel:
    # One model per distinct text for the life of the process: a model is
    # immutable and `from_text` pure, and a text that fails raises again
    # on every call, as a raise is not cached.
    model = DhmmModel.from_text(text)
    check_walkable(model)
    return model


def _parse_ini(text: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("<config>", f"parse error: {exc}") from exc
    return cp


def _digest(cp: configparser.ConfigParser) -> str:
    lines = []
    for section in sorted(cp.sections()):
        for key in sorted(cp.options(section)):
            where = f"[{section}] {key}"
            try:
                value = cp.get(section, key)
            except configparser.Error as exc:  # a '%' interpolation that fails
                raise ConfigError(where, f"bad value: {exc}") from exc
            lines.append(f"{where}={value.strip()}")
    return sha256("\n".join(lines).encode()).hexdigest()
