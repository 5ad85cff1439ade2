"""Randomised differential oracles for the scheduling and routing shortcuts.

A session takes a link crossing or a routing wave's next instant inline
when no queued event is due first, queues each hop stream's next step
and the next send only when a step or send runs, and carries each route update down the origin's
shortest-path tree only, as one wave. Each is checked here against the
plain form it replaces, on seeded random inputs. The plain form of the
last is the path-vector router of `reference_routing`, run in
`_SlotDriven`, a session that drives that router's update queue; its
`converge`, which delivers the slots one handed-over batch at a time, is
checked against a first-in, first-out drain. The tree router's graph,
built from an edge list in one pass, is checked against the reference's,
built one link at a time.
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
from hopsim.rng import SplitMix64
from hopsim.session import Simulation

import reference_routing as ref
from conftest import make_config
from scenario_gen import LEGAL, legal_configs, random_edges
from test_routing import P16, P24, P_OTHER, random_connected_graph, tree_paths
from test_session import _QueueEveryCrossing, _SendsQueuedAtBootstrap

# Every key a generated config is rejected on.
REJECTED = {
    "[scenario] client_seed", "[scenario] n_hops", "[server] internal_ip",
    "[client] internal_ip", "[client] pool", "[dwell] low_ms", "[dwell] model",
    "[covert] domain_tail", "[adversary] detect_delay_ms", "[adversary] timing_model",
    "[traffic] gap_ms", "[traffic] packets", "[scenario] two_way",
}


def test_random_configs_run_alike_inline_and_queued(tmp_path, monkeypatch):
    messages, resumed = [], []

    def counted(*args, _real=session.process_message):
        messages[-1] += 1
        return _real(*args)

    def forward(sim, packet, pkt_id, asn, hops, pkey, _real=Simulation._forward):
        if hops:  # a crossing resumed from the queue; a send's own call has crossed none
            resumed[-1] += 1
        _real(sim, packet, pkt_id, asn, hops, pkey)

    monkeypatch.setattr(session, "process_message", counted)
    monkeypatch.setattr(Simulation, "_forward", forward)
    seen, rejected = Counter(), set()
    for seed, config in legal_configs(tmp_path, rejected):
        runs = []
        for queue in (None, _QueueEveryCrossing()):
            sim = Simulation(config)
            if queue is not None:
                sim.queue = queue
            messages.append(0)
            resumed.append(0)
            runs.append(sim.run())
        inline, queued = runs
        assert inline.trace_text() == queued.trace_text(), seed
        assert inline.metrics.to_dict() == queued.metrics.to_dict(), seed
        assert inline.verdicts == queued.verdicts, seed
        assert messages[-2] == messages[-1], seed
        # The queued side resumes every crossing from the queue, the inline
        # side only those a queued event (the next send among them) holds
        # back.
        assert resumed[-2] <= resumed[-1], seed
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
    # The queued side resumed crossings from the queue that the inline
    # side ran inline.
    assert sum(resumed[1::2]) > sum(resumed[::2]) > 0, resumed


def window_starts(schedule):
    """Each window's start, from 0.0: the dwells before it, added left to right."""
    starts, t = [], 0.0
    for entry in schedule:
        starts.append(t)
        t += entry.dwell_ms
    return starts


class _QueuedAtBootstrap(_SendsQueuedAtBootstrap):
    """A run that queues every acquire, hop, release and send at bootstrap."""

    def _setup_hopping_end(self, agent):
        cfg = self.config
        epoch = cfg.lead_time_ms
        starts = window_starts(agent.schedule)
        origin = agent.attached_as
        for k, entry in enumerate(agent.schedule):
            self.queue.schedule_at(
                epoch + starts[k] - cfg.lead_time_ms, self._acquire_prefix, entry.prefix, origin
            )
            self.queue.schedule_at(epoch + starts[k], self._do_hop, agent, k)
            self.queue.schedule_at(
                epoch + starts[k] + entry.dwell_ms + cfg.withdraw_lag_ms,
                self._release_prefix, entry.prefix, origin,
            )


def test_hop_streams_run_as_queued_at_bootstrap(tmp_path):
    # Queueing each hop stream's next step, and the next send, only when
    # a step or send runs gives the run that queueing every one of them at
    # bootstrap gives: the same trace bytes, metrics and verdicts, on the
    # shipped configs, the legal generated ones, and a run whose dwells lie
    # below the clock's resolution at its epoch, where a release rounds to
    # before the one before it.
    shipped = Path(__file__).parents[1] / "configs"
    configs = [(path.stem, ScenarioConfig.from_file(path)) for path in sorted(shipped.glob("*.ini"))]
    tiny_dir = tmp_path / "sub_resolution"
    tiny_dir.mkdir()
    tiny = ScenarioConfig.from_file(make_config(
        tiny_dir, n_hops=60, dwell="uniform", low_ms=1e-14, high_ms=3e-13, packets=30, gap_ms="auto"
    ))
    configs.append(("sub_resolution", tiny))
    seen = Counter()
    for name, config in chain(configs, legal_configs(tmp_path, set())):
        sim = Simulation(config)
        streamed = sim.run()
        queued = _QueuedAtBootstrap(config).run()
        assert streamed.trace_text() == queued.trace_text(), name
        assert streamed.metrics.to_dict() == queued.metrics.to_dict(), name
        assert streamed.verdicts == queued.verdicts, name
        if name == "sub_resolution":
            lead = config.lead_time_ms
            releases = [
                ((lead + start) + entry.dwell_ms) + config.withdraw_lag_ms
                for start, entry in zip(window_starts(sim.server.schedule), sim.server.schedule)
            ]
            seen.update(falling_releases=sum(b < a for a, b in zip(releases, releases[1:])))
        seen.update(runs=1, two_way=config.two_way, hops=streamed.metrics.hop_count)
    # Not vacuous: every shipped config and enough generated ones ran, two-way
    # runs among them, ends hopped, and a release fell before the one before it.
    assert seen["runs"] >= len(configs) + LEGAL, seen
    for what in ("two_way", "hops", "falling_releases"):
        assert seen[what] > 0, what


class _SlotDriven(Simulation):
    """A session that drives the update queue of `reference_routing`:
    one delivery instant per link delay, carrying the slots opened since
    the last. An update that replaces a queued one rides in that one's
    slot. An announcement or withdrawal queues its first instant, and
    each later one runs inline when it is due before the queue's
    `horizon()`, else is queued, as a wave's instants are."""

    def _launch_wave(self, prefix, origin):
        slots = self.graph.take_slots()
        if slots:
            self.queue.schedule_at(
                self.queue.now + self.config.link_delay_ms, self._deliver_routing, slots
            )

    def _deliver_routing(self, slots):
        graph, queue, delay = self.graph, self.queue, self.config.link_delay_ms
        pending = graph.pending
        while True:
            for key in slots:
                session.process_message(graph, pending.pop(key), key[1])
            slots = graph.take_slots()
            if not slots:
                return
            at = queue.now + delay
            if at >= queue.horizon():
                queue.schedule_at(at, self._deliver_routing, slots)
                return
            queue.now = at


def routed_run(config, router, simulation=Simulation):
    """Run `config` in `simulation` with `router` in place of
    `hopsim.routing`; give the result and the run's rib log: each
    (instant, AS, prefix key, rib entry) where an entry ends an instant
    other than it ended the last one it changed in."""
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
        sim = simulation(config)
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
        reference, reference_log = routed_run(config, ref, _SlotDriven)
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


def bfs_children(graph, origin: int) -> dict[int, tuple[int, ...]]:
    """Each AS's children, sorted, in the BFS tree of `origin` that gives
    every other AS its lowest-ASN neighbour one hop nearer as parent."""
    children = {}
    for asn, path in tree_paths(graph, origin).items():
        if path:
            children.setdefault(path[0], []).append(asn)
    return {parent: tuple(sorted(kids)) for parent, kids in children.items()}


@settings(max_examples=200)
@given(st.data(), st.integers(0, 2**32 - 1), st.integers(2, 24))
def test_graph_builds_as_the_reference(data, seed, size):
    # `from_edges` builds the peers in one pass; the reference adds one
    # link at a time. Repeated and reversed links, in any order, change
    # neither, and each origin's tree is the lowest-ASN-parent BFS tree.
    edges = random_edges(SplitMix64(seed), size, size)
    copies = data.draw(st.lists(st.tuples(st.sampled_from(edges), st.booleans()), max_size=8))
    edges = data.draw(st.permutations(edges + [e[::-1] if flip else e for e, flip in copies]))
    graph, reference = routing.AsGraph.from_edges(edges), ref.AsGraph.from_edges(edges)
    assert list(graph.nodes) == list(reference.nodes)
    for asn, node in graph.nodes.items():
        assert node.asn == asn and node.peers == reference.nodes[asn].peers
        assert node.peers
    for origin in graph.nodes:
        assert graph.children(origin) == bfs_children(reference, origin), origin
    a = data.draw(st.sampled_from(list(graph.nodes)))
    at = data.draw(st.integers(0, len(edges)))
    for build in (routing.AsGraph.from_edges, ref.AsGraph.from_edges):
        with pytest.raises(ValueError):
            build(edges[:at] + [(a, a)] + edges[at:])


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
