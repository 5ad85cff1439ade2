import copy
from collections import Counter, deque
from functools import cache
from itertools import chain, combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopsim import session
from hopsim.addressing import Address, Prefix, PrefixIndex, longest_match
from hopsim.config import ScenarioConfig
from hopsim.errors import MoasConflict, NotAnnounced, UnknownAs
from hopsim.flowtable import Packet
from hopsim.routing import (
    AsGraph,
    RouteMessage,
    announce,
    parse_edges,
    process_message,
    withdraw,
)
from hopsim.rng import SplitMix64
from hopsim.session import Simulation

import conftest
import reference_routing as ref
from conftest import flood
from scenario_gen import LEGAL, legal_configs, random_edges

P24 = Prefix.parse("184.164.243.0/24")
P_OTHER = Prefix.parse("184.164.242.0/24")
P16 = Prefix.parse("184.164.0.0/16")
DST = Address.parse("184.164.243.9")


def bfs_distances(graph: AsGraph, origin: int) -> dict[int, int]:
    dist = {origin: 0}
    frontier = deque([origin])
    while frontier:
        node = frontier.popleft()
        for nbr in graph.nodes[node].peers:
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                frontier.append(nbr)
    return dist


def route_lookup(
    graph: AsGraph, from_asn: int, dst: Address, announced: tuple[Prefix, ...]
) -> list[int] | None:
    """The ASes a packet from `from_asn` to `dst` crosses up to the
    origin, as `Simulation._forward` routes it: each rib is probed by the
    key of the longest prefix of `announced` that holds `dst`. None where
    it finds no route or loops."""
    prefix = longest_match(PrefixIndex(announced), dst)
    path, current = [], from_asn
    while True:
        as_path = graph.nodes[current].rib.get(None if prefix is None else prefix.key)
        if as_path is None:
            return None
        if not as_path:
            return path
        current = as_path[0]
        if current == from_asn or current in path:
            return None
        path.append(current)


def deliver_slot(g: ref.AsGraph, key) -> bool:
    """Deliver the reference router's update queued on `key` (sender,
    receiver, prefix key)."""
    return ref.process_message(g, g.pending.pop(key), key[1])


@cache
def _line_config() -> ScenarioConfig:
    return ScenarioConfig.from_file(Path(__file__).parents[1] / "configs" / "one_way_hop111.ini")


def wave_session(graph: AsGraph) -> Simulation:
    """A session over `graph`, with a link delay of 10 ms, whose queue
    runs only what a test puts in it: say, the routing waves that
    `Simulation._launch_wave` launches."""
    sim = Simulation(_line_config())
    sim.graph = graph
    return sim


def random_connected_graph(rng: SplitMix64, size: int, graph_type=AsGraph):
    """Random spanning tree plus a sprinkle of extra edges."""
    return graph_type.from_edges(random_edges(rng, size, size))


class TestAnnounce:
    def test_single_node_routes_own_prefix(self):
        # Until the wave carries it, only the origin holds the route.
        g = AsGraph.from_edges([(1, 2)])
        announce(g, P24, 1)
        assert g.nodes[1].rib[P24.key] == ()
        assert P24.key not in g.nodes[2].rib
        assert flood(g, P24) == 1
        assert g.nodes[2].rib[P24.key] == (1,)

    def test_line_propagation(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 3)
        flood(g, P24)
        assert g.nodes[1].rib[P24.key] == (2, 3)
        assert g.nodes[2].rib[P24.key] == (3,)

    def test_reannounce_is_idempotent(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 3)
        flood(g, P24)
        snapshot = {asn: dict(n.rib) for asn, n in g.nodes.items()}
        announce(g, P24, 3)
        assert {asn: dict(n.rib) for asn, n in g.nodes.items()} == snapshot  # nothing to carry
        assert flood(g, P24) == 0
        assert {asn: dict(n.rib) for asn, n in g.nodes.items()} == snapshot

    def test_unknown_as(self):
        g = AsGraph.from_edges([(1, 2)])
        with pytest.raises(UnknownAs):
            announce(g, P24, 9)

    def test_moas_rejected(self):
        g = AsGraph.from_edges([(1, 2)])
        announce(g, P24, 1)
        with pytest.raises(MoasConflict):
            announce(g, P24, 2)


class TestVersions:
    def test_v4_and_v6_prefixes_with_equal_bits_route_apart(self):
        v4, v6 = Prefix.parse("0.0.0.0/8"), Prefix.parse("::/8")
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, v4, 1)
        announce(g, v6, 3)
        flood(g, v4)
        flood(g, v6)
        assert route_lookup(g, 2, Address.parse("0.0.0.1"), (v4, v6)) == [1]
        assert route_lookup(g, 2, Address.parse("::1"), (v4, v6)) == [3]
        withdraw(g, v4, 1)
        flood(g, v4)
        assert route_lookup(g, 1, Address.parse("::1"), (v4, v6)) == [2, 3]
        assert route_lookup(g, 3, Address.parse("0.0.0.1"), (v4, v6)) is None
        assert g.nodes[3].rib[v6.key] == ()
        assert v4.key not in g.nodes[1].rib


class TestWithdraw:
    def test_line_withdraw_clears_all_ribs(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 3)
        flood(g, P24)
        withdraw(g, P24, 3)
        flood(g, P24)
        assert all(P24.key not in n.rib for n in g.nodes.values())

    def test_withdraw_unannounced(self):
        g = AsGraph.from_edges([(1, 2)])
        with pytest.raises(NotAnnounced):
            withdraw(g, P24, 1)

    def test_other_prefixes_untouched(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 3)
        announce(g, P_OTHER, 1)
        flood(g, P24)
        flood(g, P_OTHER)
        before = {asn: n.rib[P_OTHER.key] for asn, n in g.nodes.items()}
        withdraw(g, P24, 3)
        flood(g, P24)
        assert {asn: n.rib[P_OTHER.key] for asn, n in g.nodes.items()} == before

    def test_round_trip_restores_initial_ribs(self):
        g = AsGraph.from_edges([(1, 2), (2, 3), (3, 4), (1, 4)])
        announce(g, P_OTHER, 2)
        flood(g, P_OTHER)
        baseline = copy.deepcopy({asn: n.rib for asn, n in g.nodes.items()})
        announce(g, P24, 4)
        flood(g, P24)
        withdraw(g, P24, 4)
        flood(g, P24)
        assert {asn: n.rib for asn, n in g.nodes.items()} == baseline


class TestConverge:
    def test_no_pending_zero_steps(self):
        g = AsGraph.from_edges([(1, 2)])
        assert flood(g, P24) == 0

    def test_ring_shortest_paths_with_tie_break(self):
        g = AsGraph.from_edges([(1, 2), (2, 3), (3, 4), (4, 1)])
        announce(g, P24, 3)
        flood(g, P24)
        # Node 1 sits opposite the origin: both ring directions have
        # length 2, the lower neighbor ASN (2) wins the tie.
        assert g.nodes[1].rib[P24.key] == (2, 3)
        assert g.nodes[2].rib[P24.key] == (3,)
        assert g.nodes[4].rib[P24.key] == (3,)

    def test_fixed_point_is_stable(self):
        g = AsGraph.from_edges([(1, 2), (2, 3), (1, 3)])
        announce(g, P24, 1)
        flood(g, P24)
        assert flood(g, P24) == 0

    def test_random_graph_paths_match_bfs(self):
        rng = SplitMix64(404)
        g = random_connected_graph(rng, 20)
        origin = rng.below(20) + 1
        announce(g, P24, origin)
        flood(g, P24)
        distances = bfs_distances(g, origin)
        for asn, node in g.nodes.items():
            assert len(node.rib[P24.key]) == distances[asn], asn

    def test_loop_freedom_invariant(self):
        rng = SplitMix64(11)
        g = random_connected_graph(rng, 15)
        announce(g, P24, 5)
        flood(g, P24)
        for asn, node in g.nodes.items():
            for path in node.rib.values():
                assert asn not in path


class TestRouteLookup:
    def test_origin_lookup_is_empty_path(self):
        g = AsGraph.from_edges([(1, 2)])
        announce(g, P24, 1)
        flood(g, P24)
        assert route_lookup(g, 1, DST, (P24,)) == []

    def test_line_lookup(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 3)
        flood(g, P24)
        assert route_lookup(g, 1, DST, (P24,)) == [2, 3]

    def test_withdrawn_prefix_unroutable(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 3)
        flood(g, P24)
        withdraw(g, P24, 3)
        flood(g, P24)
        assert route_lookup(g, 1, DST, (P24,)) is None

    def test_longest_prefix_wins(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P16, 2)
        announce(g, P24, 3)
        flood(g, P16)
        flood(g, P24)
        assert route_lookup(g, 1, DST, (P16, P24)) == [2, 3]  # /24 beats /16
        other = Address.parse("184.164.9.9")
        assert route_lookup(g, 1, other, (P16, P24)) == [2]


class TestTopologyLoading:
    def test_parses_edge_list_with_comments(self):
        edges = parse_edges("# backbone\n3 2\n2 1 # stub\n\n")
        assert edges == ((3, 2), (2, 1))
        g = AsGraph.from_edges(edges)
        assert list(g.nodes) == [3, 2, 1]  # created in file order
        assert 2 in g.nodes[1].peers

    def test_rejects_bad_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edges("1 2\n1 2 3\n")
        with pytest.raises(ValueError):
            parse_edges("1 x\n")

    def test_rejects_self_link(self):
        with pytest.raises(ValueError, match="line 2: self-link 2-2"):
            parse_edges("1 2\n2 2 # loop\n")


def test_session_wave_reaches_the_flood_fixed_point(monkeypatch):
    edges = [(1, 2), (2, 3), (3, 4), (4, 1), (2, 4), (4, 5)]
    reference = AsGraph.from_edges(edges)
    announce(reference, P24, 3)
    flood(reference, P24)
    sim = wave_session(AsGraph.from_edges(edges))
    delivered = []

    def recorded(graph, msg, receiver, _real=session.process_message):
        delivered.append((sim.queue.now, msg.sender, receiver))
        return _real(graph, msg, receiver)

    monkeypatch.setattr(session, "process_message", recorded)
    announce(sim.graph, P24, 3)
    sim._launch_wave(P24, 3)
    assert sim._unlanded == {P24.key}
    # One queued instant: the first layer, one message per tree child in
    # `peers` order, one link delay on; the second runs inline after it.
    assert sim.queue.run() == 1
    assert delivered == [(10.0, 3, 2), (10.0, 3, 4), (20.0, 2, 1), (20.0, 4, 5)]
    # The session's wave reaches the same ribs as a flood, and leaves
    # nothing in flight.
    assert not sim._unlanded
    assert {asn: n.rib for asn, n in sim.graph.nodes.items()} == {
        asn: n.rib for asn, n in reference.nodes.items()
    }


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.sampled_from([P24, P_OTHER, P16]), st.integers(0, 4)), max_size=10),
)
def test_process_message_reports_exactly_the_rib_changes(seed, actions):
    # Each action announces a prefix from a random AS, re-announces it
    # from its holder, or withdraws it, then delivers a few slots; the
    # rest are delivered at the end. A delivery returns True exactly when
    # the receiver's route, its rib entry and that entry's epoch, changed,
    # and then it has queued its new route to every peer; otherwise
    # nothing new is queued.
    rng = SplitMix64(seed)
    size = 2 + rng.below(8)
    g = random_connected_graph(rng, size, ref.AsGraph)

    def deliver():
        slot = g.slots.pop(0)
        msg = g.pending.pop(slot)
        node, key = g.nodes[slot[1]], msg.prefix.key
        assert (msg.sender, key) == (slot[0], slot[2])
        before = node.rib.get(key), node.epochs.get(key)
        pending = dict(g.pending)
        changed = ref.process_message(g, msg, slot[1])
        after, epoch = node.rib.get(key), node.epochs.get(key)
        assert changed is ((after, epoch) != before)
        if not changed:
            assert g.pending == pending
            return
        advertised = None if after is None else (node.asn,) + after
        # An announcement carries its route's epoch, the one its best
        # candidate holds; a withdrawal, the newest epoch the node knows
        # withdrawn.
        if after is None:
            assert epoch is None
            epoch = node.dead[key]
        else:
            assert epoch == node.learned[key][after[0]][2]
        update = ref.RouteMessage(node.asn, msg.prefix, advertised, epoch)
        for peer in node.peers:
            assert g.pending[(node.asn, peer, key)] == update

    for prefix, deliveries in actions:
        holder = g.origins.get(prefix.key)
        if holder is None:
            assert ref.announce(g, prefix, 1 + rng.below(size)) is None
        elif rng.below(2):
            slots = list(g.slots)
            assert ref.announce(g, prefix, holder) is None
            assert list(g.slots) == slots
        else:
            assert ref.withdraw(g, prefix, holder) is None
        for _ in range(min(deliveries, len(g.slots))):
            deliver()
    while g.slots:
        deliver()
    assert not g.pending


class TestCoalescing:
    def test_newer_update_replaces_queued_one_in_its_slot(self):
        g = ref.AsGraph.from_edges([(1, 2), (2, 3)])
        ref.announce(g, P24, 3)
        ref.announce(g, P_OTHER, 3)
        ref.withdraw(g, P24, 3)
        # Two keys, in the order they were first queued; the withdrawal
        # took over the announcement's slot instead of opening a third.
        assert list(g.slots) == [(3, 2, P24.key), (3, 2, P_OTHER.key)]
        assert g.pending[(3, 2, P24.key)].path is None
        ref.converge(g)
        assert all(P24.key not in n.rib and P24.key not in n.learned for n in g.nodes.values())
        assert g.nodes[1].rib[P_OTHER.key] == (2, 3)

    def test_delivered_key_opens_a_new_slot(self):
        g = ref.AsGraph.from_edges([(1, 2)])
        ref.announce(g, P24, 1)
        (key,) = g.take_slots()
        deliver_slot(g, key)
        assert g.take_slots() == [(2, 1, P24.key)]  # AS 2's reply
        ref.withdraw(g, P24, 1)
        assert g.take_slots() == [key]


def clique(size: int, graph_type=AsGraph):
    return graph_type.from_edges([(a, b) for a in range(1, size + 1) for b in range(a + 1, size + 1)])


def assert_bfs_ribs(g, prefix: Prefix, origin: int) -> None:
    distances = bfs_distances(g, origin)
    for asn, node in g.nodes.items():
        assert len(node.rib[prefix.key]) == distances[asn], asn


def graph_strategy(graph_type):
    """Cliques of 4 to 12 ASes and random connected graphs of 2 to 24."""
    return st.one_of(
        st.integers(4, 12).map(lambda size: clique(size, graph_type)),
        st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 24)).map(
            lambda a: random_connected_graph(SplitMix64(a[0]), a[1], graph_type)
        ),
    )


graphs = graph_strategy(ref.AsGraph)


class TestRootCause:
    @settings(max_examples=300)
    @given(graphs, st.integers(0, 2**32 - 1))
    def test_withdrawal_is_linear_and_reannouncement_converges(self, g, seed):
        # A withdrawal names its root cause, so each node drops the prefix
        # at the first one it hears and sends one of its own: at most one
        # message per link direction. Re-announcing, from the same origin
        # or another, while the withdrawal and the announcement before it
        # are still in flight converges to the shortest paths all the same.
        rng = SplitMix64(seed)
        asns = sorted(g.nodes)
        edges = sum(len(n.peers) for n in g.nodes.values()) // 2
        taken: list = []  # slots taken by a scheduler, in delivery order

        def deliver_one():
            deliver_slot(g, taken.pop(0))
            # Every queued update has exactly one slot, taken or not.
            assert sorted(taken + list(g.slots)) == sorted(g.pending)

        def deliver(count):
            for _ in range(count):
                taken.extend(g.take_slots())
                if not taken:
                    return
                deliver_one()

        origin = asns[rng.below(len(asns))]
        for _ in range(3):
            ref.announce(g, P24, origin)
            deliver(rng.below(4 * edges))  # an announcement takes 2E deliveries
            ref.withdraw(g, P24, origin)
            deliver(rng.below(edges // 2 + 1))
            if rng.below(2):
                origin = asns[rng.below(len(asns))]
            ref.announce(g, P24, origin)
            while taken:  # then the rest, in slot order
                deliver_one()
            ref.converge(g)
            assert_bfs_ribs(g, P24, origin)
            ref.withdraw(g, P24, origin)
            assert ref.converge(g) <= 2 * edges
            assert all(P24.key not in n.rib and P24.key not in n.learned for n in g.nodes.values())

    def test_a_new_epoch_alone_is_advertised_and_the_route_kept(self):
        # The origin re-announces before its withdrawal has left, so the
        # re-announcement takes the withdrawal's slot and AS 2 hears the
        # path it holds under a new epoch. AS 2 keeps the route and
        # advertises it under the new epoch; AS 3 takes it, and a later
        # withdrawal still reaches everyone in one message per link
        # direction.
        g = ref.AsGraph.from_edges([(1, 2), (2, 3)])
        ref.announce(g, P24, 1)
        ref.converge(g)
        ref.withdraw(g, P24, 1)
        ref.announce(g, P24, 1)
        two, three = g.nodes[2], g.nodes[3]
        slots = g.take_slots()
        assert slots == [(1, 2, P24.key)]  # the re-announcement replaced the withdrawal
        msg = g.pending[slots[0]]
        assert (msg.path, msg.epoch) == ((1,), 2)
        while slots:
            assert two.rib[P24.key] == (1,)
            deliver_slot(g, slots.pop(0))
            slots.extend(g.take_slots())
        assert not g.pending
        assert two.rib[P24.key] == (1,) and two.epochs[P24.key] == 2
        assert three.rib[P24.key] == (2, 1) and three.epochs[P24.key] == 2
        ref.withdraw(g, P24, 1)
        assert ref.converge(g) <= 4  # 2E messages on E = 2 links
        assert all(P24.key not in n.rib and P24.key not in n.learned for n in g.nodes.values())


def tree_paths(g: AsGraph, origin: int) -> dict[int, tuple[int, ...]]:
    """The path each AS reaching `origin` should hold: its lowest-ASN
    neighbour one hop nearer the origin, then that one's path."""
    distances = bfs_distances(g, origin)
    paths = {origin: ()}
    for asn in sorted(distances, key=distances.get):
        if asn != origin:
            nearer = distances[asn] - 1
            parent = min(n for n in g.nodes[asn].peers if distances.get(n) == nearer)
            paths[asn] = (parent,) + paths[parent]
    return paths


class TestTree:
    @settings(max_examples=200)
    @given(graph_strategy(AsGraph), st.integers(0, 2**32 - 1))
    def test_an_action_costs_one_message_per_tree_edge(self, g, seed):
        # A connected graph's tree has an edge into every AS but the
        # origin, and each AS's rib changes once per action: so every
        # message changes a rib.
        asns = sorted(g.nodes)
        origin = asns[SplitMix64(seed).below(len(asns))]
        announce(g, P24, origin)
        assert flood(g, P24) == len(asns) - 1
        assert {asn: n.rib[P24.key] for asn, n in g.nodes.items()} == tree_paths(g, origin)
        withdraw(g, P24, origin)
        assert flood(g, P24) == len(asns) - 1
        assert all(not n.rib for n in g.nodes.values())

    def test_a_prefix_keeps_its_origin_after_withdrawal(self):
        g = AsGraph.from_edges([(1, 2)])
        announce(g, P24, 1)
        flood(g, P24)
        withdraw(g, P24, 1)
        flood(g, P24)
        with pytest.raises(MoasConflict):
            announce(g, P24, 2)
        with pytest.raises(NotAnnounced):
            withdraw(g, P24, 1)
        announce(g, P24, 1)
        flood(g, P24)
        assert g.nodes[2].rib[P24.key] == (1,)

    def test_reannouncement_rides_the_withdrawals_wave(self, monkeypatch):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 1)
        flood(g, P24)
        ribs = {asn: dict(n.rib) for asn, n in g.nodes.items()}
        withdraw(g, P24, 1)
        announce(g, P24, 1)
        delivered = []

        def recorded(graph, msg, receiver, _real=process_message):
            delivered.append((msg, receiver))
            return _real(graph, msg, receiver)

        monkeypatch.setattr(conftest, "process_message", recorded)
        # One wave carries the origin's entry when it lands: the
        # re-announcement, which AS 2 holds already.
        assert flood(g, P24) == 0
        assert delivered == [(RouteMessage(1, P24, (1,)), 2)]
        assert {asn: dict(n.rib) for asn, n in g.nodes.items()} == ribs


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.sampled_from([P24, P_OTHER, P16]), st.integers(0, 4)), max_size=10),
)
def test_tree_message_is_passed_on_exactly_when_it_changes_a_rib(seed, actions):
    # Each action announces a prefix from its origin (a random AS the
    # first time), re-announces it or withdraws it, and launches its wave
    # in a session, 0 to 2 link delays after the action before, so that
    # waves overlap and ride. A delivery carries its sender's entry and
    # returns True exactly when the receiver's rib entry changed; then,
    # one link delay later, the receiver sends its new entry to exactly
    # its children in the origin's tree; otherwise it sends nothing. The
    # ribs end on the tree's paths.
    rng = SplitMix64(seed)
    size = 2 + rng.below(8)
    sim = wave_session(random_connected_graph(rng, size))
    g, queue, delay = sim.graph, sim.queue, sim.config.link_delay_ms
    sent = {}  # (instant, sender, prefix key) -> receivers, in order
    due = set()  # the (instant, sender, prefix key) each change passes its update on at

    def recorded(graph, msg, receiver, _real=session.process_message):
        node, key = g.nodes[receiver], msg.prefix.key
        held = g.nodes[msg.sender].rib.get(key)
        assert msg.path == (None if held is None else (msg.sender,) + held)
        before = node.rib.get(key)
        changed = _real(graph, msg, receiver)
        assert changed is (node.rib.get(key) != before)
        sent.setdefault((queue.now, msg.sender, key), []).append(receiver)
        if changed and receiver in g.children(g.origins[key]):
            due.add((queue.now + delay, receiver, key))
        return changed

    def act(prefix):
        origin = g.origins.get(prefix.key, 1 + rng.below(size))
        if prefix.key in g.nodes[origin].rib and rng.below(2):
            assert withdraw(g, prefix, origin) is None
        else:
            assert announce(g, prefix, origin) is None
        sim._launch_wave(prefix, origin)

    at = 0.0
    for prefix, half_delays in actions:
        at += half_delays * delay / 2
        queue.schedule_at(at, act, prefix)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(session, "process_message", recorded)
        queue.run()
    for (at, sender, key), receivers in sent.items():
        origin = g.origins[key]
        assert receivers == list(g.children(origin)[sender])
        assert sender == origin or (at, sender, key) in due
    assert due <= set(sent)
    assert not sim._unlanded
    for key, origin in g.origins.items():
        held = key in g.nodes[origin].rib
        paths = tree_paths(g, origin) if held else {}
        assert {asn: n.rib[key] for asn, n in g.nodes.items() if key in n.rib} == paths


class TestSharedAdvertisement:
    @pytest.mark.parametrize("size", [2, 3, 8])
    def test_send_builds_one_message_for_all_peers(self, size, monkeypatch):
        # Every send, at the origin or after a best-path change, builds
        # one message and queues it to each peer under that peer's key.
        sends, built = [], []
        real_send, real_init = ref.AsGraph.send, ref.RouteMessage.__init__

        def send(graph, node, prefix, path, epoch):
            sends.append(len(node.peers))
            real_send(graph, node, prefix, path, epoch)
            msgs = [graph.pending[(node.asn, peer, prefix.key)] for peer in node.peers]
            assert all(msg is msgs[0] for msg in msgs)
            assert (msgs[0].sender, msgs[0].path, msgs[0].epoch) == (node.asn, path, epoch)

        def init(msg, *args):
            built.append(msg)
            real_init(msg, *args)

        monkeypatch.setattr(ref.AsGraph, "send", send)
        monkeypatch.setattr(ref.RouteMessage, "__init__", init)
        g = clique(size, ref.AsGraph)
        ref.announce(g, P24, 1)
        steps = ref.converge(g)
        ref.withdraw(g, P24, 1)
        steps += ref.converge(g)
        assert len(built) == len(sends) and set(sends) == {size - 1}
        # Each message still reaches every peer: one delivery per peer.
        assert steps == sum(sends)


class _ProbedRib(dict):
    """A rib that logs each probe `Simulation._forward` makes of it."""

    __slots__ = ("asn", "sim")

    def __init__(self, asn: int, sim: "_Probed"):
        super().__init__()
        self.asn, self.sim = asn, sim

    def get(self, key, default=None):
        sim = self.sim
        if sim.moving is not None:
            sim.visits.append((sim.moving, self.asn, key, frozenset(self)))
        return dict.get(self, key, default)


class _Probed(Simulation):
    """A run that logs every AS a packet reaches, as (packet id, AS,
    route key probed, the keys the AS's rib then held). Only `_forward`
    probes a rib while a packet moves, once per AS it reaches. `picked`
    and `egress` hold the route key and the packet each send gave its
    first `_forward` call, by packet id, and `resumed` counts the queued
    crossings that resumed."""

    def __init__(self, config):
        super().__init__(config)
        self.moving: int | None = None  # the id of the packet `_forward` moves
        self.visits: list[tuple[int, int, int | None, frozenset[int]]] = []
        self.picked: dict[int, int | None] = {}
        self.egress: dict[int, Packet] = {}
        self.resumed = 0
        for node in self.graph.nodes.values():
            node.rib = _ProbedRib(node.asn, self)

    def _forward(self, packet, pkt_id, asn, hops, pkey):
        if hops == 0:  # the send's own call: no link crossed yet
            assert pkt_id not in self.picked
            self.picked[pkt_id] = pkey
            self.egress[pkt_id] = packet
        else:
            self.resumed += 1
        self.moving = pkt_id
        try:
            super()._forward(packet, pkt_id, asn, hops, pkey)
        finally:
            self.moving = None


class _Rebuilt(_Probed):
    """A `_Probed` run in which, half a dwell into each server window, the
    client's table is written again with the peer rules it holds. The
    write drops the table's memo, so the next send leaves with an equal
    header built as a new `Packet`."""

    def _do_hop(self, agent, k):
        super()._do_hop(agent, k)
        if agent is self.server:
            entry = agent.schedule[k]
            at = self.queue.now + entry.dwell_ms / 2
            self.queue.schedule_at(at, self._update_peer, agent, entry.address, True)


REBUILT = "one_way_hop111"  # the shipped config also run in `_Rebuilt`


def probed_runs(tmp_path):
    """Each shipped config and each legal generated one, run in
    `_Probed`, then `REBUILT` run in `_Rebuilt` under the name
    "rebuilt": (name, the simulation, its trace, {key: each prefix it
    announced})."""
    shipped = Path(__file__).parents[1] / "configs"
    configs = [
        (path.stem, _Probed, ScenarioConfig.from_file(path))
        for path in sorted(shipped.glob("*.ini"))
    ]
    generated = ((name, _Probed, config) for name, config in legal_configs(tmp_path, set()))
    rebuilt = [("rebuilt", _Rebuilt, ScenarioConfig.from_file(shipped / f"{REBUILT}.ini"))]
    for name, kind, config in chain(configs, generated, rebuilt):
        announced = {}

        def recorded(graph, prefix, origin, _real=session.announce):
            announced[prefix.key] = prefix
            _real(graph, prefix, origin)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(session, "announce", recorded)
            sim = kind(config)
            trace = sim.run().trace
        yield name, sim, trace, announced


def sent(trace: list[str]) -> dict[int, Packet]:
    """The header each packet left the client with, by id, as its send
    line names it: a packet keeps its destination until the server's
    table rewrites it."""
    headers = {}
    for line in trace:
        _, component, event, details = line.split(",", 3)
        if (component, event) == ("traffic", "send"):
            fields = dict(field.split("=", 1) for field in details.split(";"))
            headers[int(fields["id"])] = Packet(
                Address.parse(fields["src"]), Address.parse(fields["dst"])
            )
    return headers


def tree_layers(graph: AsGraph, origin: int) -> dict[int, int]:
    """Each AS's layer in `origin`'s tree, by `AsGraph.children`."""
    tree, layers, frontier = graph.children(origin), {origin: 0}, [origin]
    for asn in frontier:
        for child in tree.get(asn, ()):
            layers[child] = layers[asn] + 1
            frontier.append(child)
    return layers


def test_each_packet_is_routed_by_the_one_announced_prefix_that_holds_it(tmp_path):
    # On the shipped configs and the legal generated ones, the prefixes a
    # run announces are pairwise disjoint and each is in the run-level
    # index. So at every AS a packet reaches, a longest match over that
    # AS's own rib prefixes finds the key the run probes its rib by, or
    # nothing when the rib misses it: no AS needs a match of its own.
    # Each send's line names the header it left the client with, and the
    # send picks its key from that header's destination; every AS its
    # packet reaches, a queued crossing's too, probes by that key. In the
    # "rebuilt" run an equal header also comes back as a new object in
    # mid-window, which the send path takes as a new header; it must
    # leave every send line, key and byte of the trace as they were.
    seen, traces = Counter(), {}
    for name, sim, trace, announced in probed_runs(tmp_path):
        if name in ("rebuilt", REBUILT):
            traces[name] = trace
        for a, b in combinations(announced.values(), 2):
            assert not a.covers(b) and not b.covers(a), (name, a, b)
        for prefix in announced.values():
            assert longest_match(sim._announced, prefix.base) == prefix, (name, prefix)
        headers = sent(trace)
        assert sim.egress == headers, name
        assert sim.picked.keys() == headers.keys(), name
        for pkt, key in sim.picked.items():
            match = longest_match(sim._announced, headers[pkt].dst)
            assert key == (None if match is None else match.key), (name, pkt)
        for pkt, asn, key, rib in sim.visits:
            assert key == sim.picked[pkt], (name, pkt)
            own = longest_match(PrefixIndex(announced[k] for k in rib), headers[pkt].dst)
            assert (None if own is None else own.key) == (key if key in rib else None), (name, pkt)
            seen.update(hit=key in rib, miss=key is not None and key not in rib)
        # Sends in a row whose equal headers are two objects: one was
        # built anew after a table write that changed no rule.
        egress = [sim.egress[pkt] for pkt in sorted(sim.egress)]
        rebuilt = sum(a == b and a is not b for a, b in zip(egress, egress[1:]))
        seen["rebuilt" if name == "rebuilt" else "rebuilt_elsewhere"] += rebuilt
        seen.update(runs=1, two_way=sim.config.two_way, announced=len(announced),
                    resumed=sim.resumed)
    # Not vacuous: enough runs, two-way ones among them, announced
    # prefixes, ribs that held the key and ribs that missed it, queued
    # crossings that resumed, and equal headers built anew, only where
    # the "rebuilt" run wrote the client's table again, which changed
    # nothing the run outputs.
    assert seen["runs"] >= LEGAL, seen
    for what in ("two_way", "announced", "hit", "miss", "resumed", "rebuilt"):
        assert seen[what] > 0, what
    assert seen["rebuilt_elsewhere"] == 0, seen
    assert traces["rebuilt"] == traces[REBUILT]


def test_no_packet_crosses_more_links_than_its_origins_tree_is_deep(tmp_path):
    # A rib entry is the AS's own path up the origin's tree, so each
    # crossing goes one layer nearer the origin, or the packet drops as
    # unroutable. A packet thus crosses at most the layer of the client's
    # AS in links, never more than the tree is deep, and no run reaches
    # the loop guard. Every AS a packet reaches after the first is one
    # crossing.
    seen = Counter()
    for name, sim, trace, _ in probed_runs(tmp_path):
        graph, client_as = sim.graph, sim.client.attached_as
        reached, keys = Counter(), {}
        for pkt, _asn, key, _rib in sim.visits:
            reached[pkt] += 1
            assert keys.setdefault(pkt, key) == key, (name, pkt)  # one key per packet
        for pkt, count in reached.items():
            origin = graph.origins.get(keys[pkt])
            layers = {} if origin is None else tree_layers(graph, origin)
            crossed = count - 1
            assert crossed <= layers.get(client_as, 0) <= max(layers.values(), default=0), (
                name, pkt,
            )
            seen.update(crossed=crossed, deepest=crossed > 0 and crossed == layers[client_as])
        assert not any(";reason=loop;" in line for line in trace), name
        seen.update(runs=1)
    # Not vacuous: enough runs, and packets that crossed links, some of
    # them all the way from the client's layer.
    assert seen["runs"] >= LEGAL, seen
    assert seen["crossed"] > 0 and seen["deepest"] > 0, seen
