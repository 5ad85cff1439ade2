"""Span recorder for the traced benchmark run.

The benchmark measures hopsim's layers from outside: it replaces the
names that ``hopsim.session`` calls (and a few class methods on the
event, trace, observer, dwell-model, config and CLI paths) with
wrappers that record one span per call, and puts the originals back
afterwards. Nothing inside ``src/`` changes.

Spans are kept in memory, in per-thread arrays (``--jobs 2`` runs
configs on two threads), and written out once the run has ended. A
span's self time is its duration minus the durations of the wrapped
spans nested directly inside it. ``addressing`` and ``rng`` are not
wrapped: wrapping ``Address.__hash__`` would distort every layer, so
their cost shows in the self time of the layers that call them.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from array import array
from pathlib import Path


def _probe_lookup(counters, args, result):
    if result[1] is None:
        counters["flowtable.defaults"] = counters.get("flowtable.defaults", 0) + 1
    rules = len(args[0].rules)
    if rules > counters.get("flowtable.rules_max", 0):
        counters["flowtable.rules_max"] = rules


def _probe_message(counters, args, result):
    if args[1].path is None:
        counters["routing.withdraw_messages"] = counters.get("routing.withdraw_messages", 0) + 1
    if result:  # follow-up messages are sent only when the best route changed
        counters["routing.best_changes"] = counters.get("routing.best_changes", 0) + 1


def _probe_filter(counters, args, result):
    if result.value == "block":
        counters["adversary.blocked"] = counters.get("adversary.blocked", 0) + 1


def _adder(key, measure):
    def probe(counters, args, result):
        counters[key] = counters.get(key, 0) + measure(result)

    return probe


# (owner, attribute, span name, counter probe). The owner is a module,
# or "module:Class" for a method. A probe gets (counters, args, result)
# and adds counts that only the call's arguments or result show.
TARGETS = (
    ("hopsim.session", "apply_detail", "flowtable.lookup", _probe_lookup),
    ("hopsim.session", "install_hop_rules", "flowtable.install", None),
    ("hopsim.session", "install_peer_rules", "flowtable.install", None),
    ("hopsim.session", "expire_external", "flowtable.expire", None),
    ("hopsim.session", "process_message", "routing.process", _probe_message),
    ("hopsim.session", "longest_match", "routing.lookup", None),
    ("hopsim.session", "announce", "routing.announce", None),
    ("hopsim.session", "withdraw", "routing.withdraw", None),
    ("hopsim.session", "hop", "session.hop", None),
    ("hopsim.session", "synchronize", "session.synchronize", None),
    ("hopsim.session", "build_schedule", "hopping.schedule", _adder("hopping.addresses", len)),
    ("hopsim.session", "dwell_sequence", "dwell.sample", _adder("dwell.samples", len)),
    ("hopsim.session", "encode_payload", "covert.encode",
     _adder("covert.records", lambda r: len(r.names))),
    ("hopsim.session", "decode_payload", "covert.decode", None),
    ("hopsim.session", "filter_packet", "adversary.filter", _probe_filter),
    ("hopsim.session", "extract_hop_intervals", "adversary.extract", None),
    ("hopsim.session", "timing_detect", "adversary.timing", None),
    ("hopsim.events:EventQueue", "run", "events.run", _adder("events.processed", int)),
    ("hopsim.events:TraceLog", "emit", "trace.emit", None),
    ("hopsim.adversary:ObserverTap", "observe", "adversary.observe", None),
    ("hopsim.dwell:DhmmModel", "from_text", "dwell.model_load", None),
    ("hopsim.session:ScenarioConfig", "from_file", "session.config_parse", None),
    ("hopsim.session:Simulation", "__init__", "session.init", None),
    ("hopsim.session:Simulation", "run", "session.run", None),
    ("hopsim.cli", "_run_one", "cli.run_one", None),
)
SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))


def resolve_owner(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class _Buffer:
    """One thread's spans, parallel arrays indexed by span number."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}


class Recorder:
    """Installs the wrappers, collects spans, restores the originals."""

    def __init__(self):
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, fn, span_id: int, probe):
        clock = time.perf_counter
        buffer = self._buffer

        def wrapper(*args, **kwargs):
            buf = buffer()
            i = len(buf.name)
            stack = buf.stack
            buf.name.append(span_id)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0.0)
            stack.append(i)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[i] = clock()
                stack.pop()
            if probe is not None:
                probe(buf.counters, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner_name, attr, span, probe in TARGETS:
            owner = resolve_owner(owner_name)
            original = vars(owner)[attr]
            span_id = SPAN_NAMES.index(span)
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, span_id, probe))
            else:
                patched = self._wrap(original, span_id, probe)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, directory: Path) -> None:
        """Dump the spans: a JSON index plus one binary file per array."""
        index = {"names": list(SPAN_NAMES), "counters": {}, "threads": []}
        for t, buf in enumerate(self._buffers):
            for key, value in buf.counters.items():
                if key.endswith("_max"):
                    index["counters"][key] = max(index["counters"].get(key, 0), value)
                else:
                    index["counters"][key] = index["counters"].get(key, 0) + value
            index["threads"].append(len(buf.name))
            for field in ("name", "parent", "start", "end"):
                with open(directory / f"spans.{t}.{field}", "wb") as fh:
                    getattr(buf, field).tofile(fh)
        (directory / "spans.json").write_text(json.dumps(index))


def load_stats(directory: Path) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
    """Per span name: count, total and self seconds; plus the counters."""
    index = json.loads((directory / "spans.json").read_text())
    names = index["names"]
    stats = {n: {"count": 0, "total_s": 0.0, "self_s": 0.0} for n in names}
    for t, n in enumerate(index["threads"]):
        cols = {}
        for field, code in (("name", "H"), ("parent", "l"), ("start", "d"), ("end", "d")):
            cols[field] = array(code)
            with open(directory / f"spans.{t}.{field}", "rb") as fh:
                cols[field].fromfile(fh, n)
        durations = [e - s for s, e in zip(cols["start"], cols["end"])]
        nested = [0.0] * n
        for i, parent in enumerate(cols["parent"]):
            if parent >= 0:
                nested[parent] += durations[i]
        for i, name_id in enumerate(cols["name"]):
            entry = stats[names[name_id]]
            entry["count"] += 1
            entry["total_s"] += durations[i]
            entry["self_s"] += durations[i] - nested[i]
    return stats, index["counters"]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    stats: dict[str, dict[str, float]],
    counters: dict[str, int],
    *,
    traced_wall_s: float,
    untraced_wall_s: float,
    packets_sent: int,
    trace_bytes: int,
    jobs: int,
) -> dict[str, float]:
    """The per-layer metrics of one traced run, by metric name."""

    def n(span):
        return stats[span]["count"]

    def s(*spans):
        return sum(stats[span]["self_s"] for span in spans)

    def c(key):
        return counters.get(key, 0)

    messages = n("routing.process")
    actions = n("routing.announce") + n("routing.withdraw")
    return {
        "flowtable.lookups": n("flowtable.lookup"),
        "flowtable.lookup_s": s("flowtable.lookup"),
        "flowtable.lookup_us": 1e6 * _ratio(s("flowtable.lookup"), n("flowtable.lookup")),
        "flowtable.default_ratio": _ratio(c("flowtable.defaults"), n("flowtable.lookup")),
        "flowtable.rules_max": c("flowtable.rules_max"),
        "flowtable.installs": n("flowtable.install"),
        "flowtable.install_s": s("flowtable.install"),
        "flowtable.install_us": 1e6 * _ratio(s("flowtable.install"), n("flowtable.install")),
        "flowtable.expires": n("flowtable.expire"),
        "flowtable.expire_s": s("flowtable.expire"),
        "routing.messages": messages,
        "routing.withdraw_messages": c("routing.withdraw_messages"),
        "routing.best_changes": c("routing.best_changes"),
        "routing.useful_ratio": _ratio(c("routing.best_changes"), messages),
        "routing.announces": n("routing.announce"),
        "routing.withdraws": n("routing.withdraw"),
        "routing.messages_per_action": _ratio(messages, actions),
        "routing.process_s": s("routing.process"),
        "routing.lookups": n("routing.lookup"),
        "routing.lookup_s": s("routing.lookup"),
        "routing.origin_s": s("routing.announce", "routing.withdraw"),
        "adversary.filtered": n("adversary.filter"),
        # The tap's observe runs just before every filter call, on the same packet.
        "adversary.filter_s": s("adversary.filter", "adversary.observe"),
        "adversary.blocked": c("adversary.blocked"),
        "adversary.block_ratio": _ratio(c("adversary.blocked"), n("adversary.filter")),
        "adversary.observed": n("adversary.observe"),
        "adversary.timing_s": s("adversary.extract", "adversary.timing"),
        "events.processed": c("events.processed"),
        "events.per_packet": _ratio(c("events.processed"), packets_sent),
        "trace.lines": n("trace.emit"),
        "trace.bytes": trace_bytes,
        "trace.emit_s": s("trace.emit"),
        "session.config_parse_s": s("session.config_parse"),
        "session.hop_calls": n("session.hop"),
        "session.hop_s": s("session.hop"),
        "session.self_s": s("session.init", "session.run", "events.run", "session.synchronize"),
        "hopping.schedule_s": s("hopping.schedule"),
        "hopping.addresses": c("hopping.addresses"),
        "dwell.sample_s": s("dwell.sample"),
        "dwell.samples": c("dwell.samples"),
        "dwell.model_load_s": s("dwell.model_load"),
        "covert.encode_s": s("covert.encode"),
        "covert.decode_s": s("covert.decode"),
        "covert.records": c("covert.records"),
        # What _run_one does besides parsing and simulating: hashing the
        # config and rendering and writing the trace and report.
        "cli.write_s": s("cli.run_one"),
        "cli.configs": n("cli.run_one"),
        "cli.parallel_efficiency": _ratio(stats["cli.run_one"]["total_s"], traced_wall_s * jobs),
        "trace_overhead": _ratio(traced_wall_s, untraced_wall_s),
    }
