"""Randomised differential oracles for the scheduling and routing shortcuts.

A session takes a link crossing or a routing wave's next instant inline
when no queued event is due first, `converge` delivers the slots one
handed-over batch at a time, and routing sends each update down the
origin's shortest-path tree only. Each is checked here against the
plain form it replaces, on seeded random inputs: the path-vector router
of `reference_routing` is the plain form of the last.
"""

from collections import Counter
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopsim import routing, session
from hopsim.addressing import IPVersion
from hopsim.config import ScenarioConfig
from hopsim.dwell import DhmmDwell
from hopsim.errors import ConfigError
from hopsim.rng import SplitMix64
from hopsim.session import Simulation

import reference_routing as ref
from scenario_gen import random_scenario
from test_routing import P16, P24, P_OTHER, random_connected_graph
from test_session import _QueueEveryCrossing

CONFIGS = 500
# The least number of the CONFIGS seeds whose config parses: 232 do.
LEGAL = 200
# Every key a generated config is rejected on.
REJECTED = {
    "[scenario] client_seed", "[scenario] n_hops", "[server] internal_ip",
    "[client] internal_ip", "[client] pool", "[dwell] low_ms", "[dwell] model",
    "[covert] domain_tail", "[adversary] detect_delay_ms", "[adversary] timing_model",
    "[traffic] gap_ms", "[traffic] packets", "[scenario] two_way",
}


def legal_configs(tmp_path, rejected: set):
    """The configs of `random_scenario` seeds 0 to CONFIGS - 1 that parse,
    each given while the files it names are on disk; the key each of the
    rest is rejected on goes into `rejected`."""
    for seed in range(CONFIGS):
        text, files = random_scenario(seed)
        for name, body in files.items():
            (tmp_path / name).write_bytes(body)
        try:
            config = ScenarioConfig.from_text(text, base_dir=tmp_path)
        except ConfigError as exc:
            rejected.add(exc.field)
            continue
        yield seed, config


def test_random_configs_run_alike_inline_and_queued(tmp_path, monkeypatch):
    messages = []

    def counted(*args, _real=session.process_message):
        messages[-1] += 1
        return _real(*args)

    monkeypatch.setattr(session, "process_message", counted)
    seen, rejected = Counter(), set()
    for seed, config in legal_configs(tmp_path, rejected):
        runs = []
        for queue in (None, _QueueEveryCrossing()):
            sim = Simulation(config)
            if queue is not None:
                sim.queue = queue
            messages.append(0)
            runs.append(sim.run())
        inline, queued = runs
        assert inline.trace_text() == queued.trace_text(), seed
        assert inline.metrics.to_dict() == queued.metrics.to_dict(), seed
        assert inline.verdicts == queued.verdicts, seed
        assert messages[-2] == messages[-1], seed
        seen.update(ln.split(",", 3)[2] for ln in inline.trace)
        seen.update(ln.split(";")[1] for ln in inline.trace if ";reason=" in ln)
        seen.update(legal=1, two_way=config.two_way, verdicts=bool(inline.verdicts),
                    v6=config.server_ip.version is IPVersion.V6,
                    static_server=not config.server_hopping,
                    dhmm=isinstance(config.dwell, DhmmDwell), zero_packets=config.packets == 0)
    # The oracle is not vacuous: enough configs run, among them v6 pools,
    # static servers, DHMM dwells, zero packets and two-way runs; they
    # deliver, drop for every reason a legal config reaches, block and
    # judge timing; and the rest are rejected on every key drawn to fail.
    assert seen["legal"] >= LEGAL, seen["legal"]
    for what in ("v6", "static_server", "dhmm", "zero_packets", "two_way", "deliver", "block",
                 "reason=unroutable", "reason=no_rule", "reason=stale_rewrite", "verdicts"):
        assert seen[what] > 0, what
    assert REJECTED <= rejected, REJECTED - rejected
    assert sum(messages) > 0


def routed_run(config, router):
    """Run `config` with `router` in place of `hopsim.routing`; give the
    result and the run's rib log: each (instant, AS, prefix key, rib
    entry) where an entry ends an instant other than it ended the last
    one it changed in."""
    changes = []

    def record(graph, prefix, asn):
        changes.append((sim.queue.now, asn, prefix.key, graph.nodes[asn].rib.get(prefix.key)))

    def announce(graph, prefix, origin):
        router.announce(graph, prefix, origin)
        record(graph, prefix, origin)

    def withdraw(graph, prefix, origin):
        router.withdraw(graph, prefix, origin)
        record(graph, prefix, origin)

    def process_message(graph, msg, receiver):
        changed = router.process_message(graph, msg, receiver)
        record(graph, msg.prefix, receiver)
        return changed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(session, "AsGraph", router.AsGraph)
        for fn in (announce, withdraw, process_message):
            mp.setattr(session, fn.__name__, fn)
        sim = Simulation(config)
        result = sim.run()
    last = {}  # in order of time: the log's times never fall
    for now, asn, key, entry in changes:
        last[now, asn, key] = entry
    held, log = {}, set()
    for (now, asn, key), entry in last.items():
        if held.get((asn, key)) != entry:
            held[asn, key] = entry
            log.add((now, asn, key, entry))
    return result, log


def test_tree_routes_as_the_reference(tmp_path):
    # On the shipped configs and the legal generated ones, the tree
    # router and the path-vector reference hold the same rib entries at
    # the end of every instant, so the packets fare alike: equal metrics,
    # verdicts and trace bytes. Only the `session,end` line may differ:
    # its time is the last event's, and the tree sends no last wave of
    # updates that change nothing, so it may come earlier.
    shipped = Path(__file__).parents[1] / "configs"
    configs = [(path.stem, ScenarioConfig.from_file(path)) for path in sorted(shipped.glob("*.ini"))]
    seen = Counter()
    for name, config in chain(configs, legal_configs(tmp_path, set())):
        tree, tree_log = routed_run(config, routing)
        reference, reference_log = routed_run(config, ref)
        assert tree_log == reference_log, name
        assert tree.metrics.to_dict() == reference.metrics.to_dict(), name
        assert tree.verdicts == reference.verdicts, name
        *lines, end = tree.trace
        *reference_lines, reference_end = reference.trace
        assert lines == reference_lines, name
        at, text = end.split(",", 1)
        reference_at, reference_text = reference_end.split(",", 1)
        assert text == reference_text and text.startswith("session,end,"), name
        assert float(at) <= float(reference_at), name
        seen.update(runs=1, rib_changes=len(tree_log), earlier_end=float(at) < float(reference_at))
    # Not vacuous: every shipped config and enough generated ones ran,
    # routes changed, and some runs ended earlier.
    assert seen["runs"] >= len(configs) + LEGAL, seen
    assert seen["rib_changes"] > 0 and seen["earlier_end"] > 0, seen


def fifo_converge(graph, deliveries: list) -> int:
    """The drain `converge` replaced: one slot at a time from the front,
    each delivery's new slots queued behind the rest."""
    steps = 0
    while graph.slots:
        key = graph.slots.pop(0)
        msg = graph.pending.pop(key)
        deliveries.append((key, msg))
        ref.process_message(graph, msg, key[1])
        steps += 1
    return steps


@settings(max_examples=300)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.sampled_from([P24, P_OTHER, P16]), st.integers(0, 4)), max_size=10),
)
def test_converge_delivers_in_fifo_order(seed, actions):
    # The actions of `test_process_message_reports_exactly_the_rib_changes`,
    # applied to two copies of one random graph: each announces a prefix,
    # re-announces it from its holder or withdraws it, then delivers a
    # few slots from the front. After an action that delivers three or
    # more, and at the end, one copy converges and the other drains first
    # in, first out; both make the same deliveries in the same order and
    # count the same steps.
    rng = SplitMix64(seed)
    size = 2 + rng.below(8)
    graph_seed = rng.next_u64()
    graphs = [random_connected_graph(SplitMix64(graph_seed), size, ref.AsGraph) for _ in range(2)]
    batch, fifo = [], []

    def recorded(graph, msg, receiver, _real=ref.process_message):
        batch.append(((msg.sender, receiver, msg.prefix.key), msg))
        return _real(graph, msg, receiver)

    def converge_both():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ref, "process_message", recorded)
            steps = ref.converge(graphs[0])
        assert steps == fifo_converge(graphs[1], fifo)
        assert batch == fifo
        assert not graphs[0].pending and not graphs[0].slots

    for prefix, deliveries in actions:
        holder = graphs[0].origins.get(prefix.key)
        origin = 1 + rng.below(size)
        for g in graphs:
            if holder is None:
                ref.announce(g, prefix, origin)
            elif deliveries % 2:
                ref.announce(g, prefix, holder)
            else:
                ref.withdraw(g, prefix, holder)
            for _ in range(min(deliveries, len(g.slots))):
                key = g.slots.pop(0)
                ref.process_message(g, g.pending.pop(key), key[1])
        if deliveries >= 3:
            converge_both()
    converge_both()
    assert [n.rib for n in graphs[0].nodes.values()] == [n.rib for n in graphs[1].nodes.values()]
