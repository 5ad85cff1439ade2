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
from hopsim.config import ScenarioConfig
from hopsim.routing import announce, converge, process_message, withdraw
from hopsim.rng import SplitMix64
from hopsim.session import Simulation

from test_dwell import symbol_chain
from test_routing import P16, P24, P_OTHER, random_connected_graph
from test_session import _QueueEveryCrossing

CONFIGS = 300
LINK_DELAYS = (0, 1, 5, 11)


def random_config(seed: int, root) -> ScenarioConfig:
    """A legal config drawn from `seed`: 3 to 12 ASes on a random tree plus
    up to 2n extra links, 1 to 4 /24s per pool, two-way mode half the time,
    uniform dwells or fixed ones whose round times make events tie, and
    random link delay, clock skew, grace and lead time, sometimes with a
    tap and a reactive block or timing judge on it."""
    rng = SplitMix64(seed)
    pick = lambda options: options[rng.below(len(options))]
    n = 3 + rng.below(10)
    edges = {(1 + rng.below(i), i + 1) for i in range(1, n)}
    for _ in range(rng.below(2 * n + 1)):
        a, b = 1 + rng.below(n), 1 + rng.below(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edges = sorted(edges)
    (root / "topo.txt").write_text("".join(f"{a} {b}\n" for a, b in edges))
    server_as = 1 + rng.below(n)
    client_as = 1 + (server_as + rng.below(n - 1)) % n
    pool = lambda octet: ",".join(f"100.{octet}.{i}.0/24" for i in range(1 + rng.below(4)))
    two_way = rng.below(2) == 1
    client = f"pool = {pool(65)}\n" if two_way else ""
    if rng.below(2):
        low = 50 + rng.below(400)
        dwell = f"source = uniform\nlow_ms = {low}\nhigh_ms = {low + 1 + rng.below(900)}"
    else:
        dwell = f"source = fixed\nfixed_ms = {pick((100, 250, 1000))}"
    gap = pick(("auto", "7", "10", "22", "25", "100"))
    adversary = ""
    if rng.below(3) == 0:
        a, b = pick(edges)
        tap = f"{a}-{b}" if rng.below(2) else f"{b}-{a}"
        adversary = f"[adversary]\ntap = {tap}\n"
        if rng.below(2):
            adversary += f"policy = reactive\ndetect_delay_ms = {pick((20, 300))}\n"
        if rng.below(2):
            adversary += "timing_model = bg.model\n"
    text = f"""
[scenario]
seed = {rng.below(1 << 32)}
n_hops = {2 + rng.below(7)}
grace_window_ms = {pick((0, 50, 200, 700))}
clock_skew_ms = {pick((0, 30, 300))}
link_delay_ms = {pick(LINK_DELAYS)}
lead_time_ms = {pick((5, 40, 1000))}
withdraw_lag_ms = {pick((0, 20, 500))}
two_way = {str(two_way).lower()}
client_seed = {rng.below(1 << 32)}

[topology]
file = topo.txt

[server]
internal_ip = 10.0.0.1
attached_as = {server_as}
pool = {pool(64)}

[client]
internal_ip = 10.0.0.2
attached_as = {client_as}
{client}
[dwell]
{dwell}

[traffic]
packets = {1 + rng.below(40)}
gap_ms = {gap}

{adversary}"""
    return ScenarioConfig.from_text(text, base_dir=root)


def test_random_configs_run_alike_inline_and_queued(tmp_path, monkeypatch):
    messages = []

    def counted(*args, _real=session.process_message):
        messages[-1] += 1
        return _real(*args)

    monkeypatch.setattr(session, "process_message", counted)
    model = symbol_chain(3, {i: {j: 1 / 3 for j in range(3)} for i in range(3)})
    (tmp_path / "bg.model").write_text(model.to_text())
    seen = Counter()
    for seed in range(CONFIGS):
        config = random_config(seed, tmp_path)
        runs = []
        for queue in (None, _QueueEveryCrossing()):
            sim = Simulation(config)
            if queue is not None:
                sim.queue = queue
            messages.append(0)
            runs.append(sim.run())
        inline, queued = runs
        text = inline.trace_text()
        assert text == queued.trace_text(), seed
        assert inline.metrics.to_dict() == queued.metrics.to_dict(), seed
        assert inline.verdicts == queued.verdicts, seed
        assert messages[-2] == messages[-1], seed
        seen.update(ln.split(",", 3)[2] for ln in inline.trace)
        seen.update(ln.split(";")[1] for ln in inline.trace if ";reason=" in ln)
        seen["two_way"] += config.two_way
        seen["verdicts"] += bool(inline.verdicts)
    # The oracle is not vacuous: the configs deliver, drop for every reason
    # a legal config reaches, block, judge timing and hop both ways.
    for what in ("deliver", "block", "reason=unroutable", "reason=no_rule",
                 "reason=stale_rewrite", "two_way", "verdicts"):
        assert seen[what] > 0, what
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
