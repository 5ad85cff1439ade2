"""Randomised differential oracles for the scheduling and routing shortcuts.

A session takes a link crossing or a routing wave's next instant inline
when no queued event is due first, and `converge` delivers the slots one
handed-over batch at a time. Each is checked here against the plain
form it replaces, on seeded random inputs.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopsim import routing, session
from hopsim.addressing import IPVersion
from hopsim.config import ScenarioConfig
from hopsim.dwell import DhmmDwell
from hopsim.errors import ConfigError
from hopsim.routing import announce, converge, process_message, withdraw
from hopsim.rng import SplitMix64
from hopsim.session import Simulation

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


def test_random_configs_run_alike_inline_and_queued(tmp_path, monkeypatch):
    messages = []

    def counted(*args, _real=session.process_message):
        messages[-1] += 1
        return _real(*args)

    monkeypatch.setattr(session, "process_message", counted)
    seen, rejected = Counter(), set()
    for seed in range(CONFIGS):
        text, files = random_scenario(seed)
        for name, body in files.items():
            (tmp_path / name).write_bytes(body)
        try:
            config = ScenarioConfig.from_text(text, base_dir=tmp_path)
        except ConfigError as exc:
            rejected.add(exc.field)
            continue
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


def fifo_converge(graph, deliveries: list) -> int:
    """The drain `converge` replaced: one slot at a time from the front,
    each delivery's new slots queued behind the rest."""
    steps = 0
    while graph.slots:
        key = graph.slots.pop(0)
        msg = graph.pending.pop(key)
        deliveries.append((key, msg))
        process_message(graph, msg, key[1])
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
    graphs = [random_connected_graph(SplitMix64(graph_seed), size) for _ in range(2)]
    batch, fifo = [], []

    def recorded(graph, msg, receiver, _real=process_message):
        batch.append(((msg.sender, receiver, msg.prefix.key), msg))
        return _real(graph, msg, receiver)

    def converge_both():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(routing, "process_message", recorded)
            steps = converge(graphs[0])
        assert steps == fifo_converge(graphs[1], fifo)
        assert batch == fifo
        assert not graphs[0].pending and not graphs[0].slots

    for prefix, deliveries in actions:
        holder = graphs[0].origins.get(prefix.key)
        origin = 1 + rng.below(size)
        for g in graphs:
            if holder is None:
                announce(g, prefix, origin)
            elif deliveries % 2:
                announce(g, prefix, holder)
            else:
                withdraw(g, prefix, holder)
            for _ in range(min(deliveries, len(g.slots))):
                key = g.slots.pop(0)
                process_message(g, g.pending.pop(key), key[1])
        if deliveries >= 3:
            converge_both()
    converge_both()
    assert [n.rib for n in graphs[0].nodes.values()] == [n.rib for n in graphs[1].nodes.values()]
