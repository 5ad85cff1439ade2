import copy
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopsim.addressing import Address, Prefix, longest_match
from hopsim.errors import MoasConflict, NotAnnounced, UnknownAs
from hopsim.routing import (
    AsGraph,
    RouteMessage,
    announce,
    converge,
    parse_edges,
    process_message,
    withdraw,
)
from hopsim.rng import SplitMix64

import reference_routing as ref
from scenario_gen import random_edges

P24 = Prefix.parse("184.164.243.0/24")
P_OTHER = Prefix.parse("184.164.242.0/24")
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


def route_lookup(graph: AsGraph, from_asn: int, dst: Address) -> list[int] | None:
    """The ASes a packet from `from_asn` to `dst` crosses by each rib's
    longest match, up to the origin; None where it finds no route or loops."""
    path, current = [], from_asn
    while True:
        node = graph.nodes[current]
        prefix = longest_match(node.index, dst)
        if prefix is None:
            return None
        as_path = node.rib[prefix.key]
        if not as_path:
            return path
        current = as_path[0]
        if current == from_asn or current in path:
            return None
        path.append(current)


def deliver_slot(g, key) -> bool:
    """Deliver the update queued on `key` (sender, receiver, prefix key),
    with the router that `g` belongs to."""
    process = ref.process_message if isinstance(g, ref.AsGraph) else process_message
    return process(g, g.pending.pop(key), key[1])


def random_connected_graph(rng: SplitMix64, size: int, graph_type=AsGraph):
    """Random spanning tree plus a sprinkle of extra edges."""
    return graph_type.from_edges(random_edges(rng, size, size))


class TestAnnounce:
    def test_single_node_routes_own_prefix(self):
        g = AsGraph()
        g.add_node(1)
        announce(g, P24, 1)
        assert not g.pending
        assert g.nodes[1].rib[P24.key] == ()
        assert converge(g) == 0

    def test_line_propagation(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 3)
        converge(g)
        assert g.nodes[1].rib[P24.key] == (2, 3)
        assert g.nodes[2].rib[P24.key] == (3,)

    def test_reannounce_is_idempotent(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 3)
        converge(g)
        snapshot = {asn: dict(n.rib) for asn, n in g.nodes.items()}
        announce(g, P24, 3)
        assert not g.slots
        assert converge(g) == 0
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
        converge(g)
        assert route_lookup(g, 2, Address.parse("0.0.0.1")) == [1]
        assert route_lookup(g, 2, Address.parse("::1")) == [3]
        withdraw(g, v4, 1)
        converge(g)
        assert route_lookup(g, 1, Address.parse("::1")) == [2, 3]
        assert route_lookup(g, 3, Address.parse("0.0.0.1")) is None
        assert g.nodes[3].rib[v6.key] == ()
        assert v4.key not in g.nodes[1].rib


class TestWithdraw:
    def test_line_withdraw_clears_all_ribs(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 3)
        converge(g)
        withdraw(g, P24, 3)
        converge(g)
        assert all(P24.key not in n.rib for n in g.nodes.values())

    def test_withdraw_unannounced(self):
        g = AsGraph.from_edges([(1, 2)])
        with pytest.raises(NotAnnounced):
            withdraw(g, P24, 1)

    def test_other_prefixes_untouched(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 3)
        announce(g, P_OTHER, 1)
        converge(g)
        before = {asn: n.rib[P_OTHER.key] for asn, n in g.nodes.items()}
        withdraw(g, P24, 3)
        converge(g)
        assert {asn: n.rib[P_OTHER.key] for asn, n in g.nodes.items()} == before

    def test_round_trip_restores_initial_ribs(self):
        g = AsGraph.from_edges([(1, 2), (2, 3), (3, 4), (1, 4)])
        announce(g, P_OTHER, 2)
        converge(g)
        baseline = copy.deepcopy({asn: n.rib for asn, n in g.nodes.items()})
        announce(g, P24, 4)
        converge(g)
        withdraw(g, P24, 4)
        converge(g)
        assert {asn: n.rib for asn, n in g.nodes.items()} == baseline


class TestConverge:
    def test_no_pending_zero_steps(self):
        g = AsGraph.from_edges([(1, 2)])
        assert converge(g) == 0

    def test_ring_shortest_paths_with_tie_break(self):
        g = AsGraph.from_edges([(1, 2), (2, 3), (3, 4), (4, 1)])
        announce(g, P24, 3)
        converge(g)
        # Node 1 sits opposite the origin: both ring directions have
        # length 2, the lower neighbor ASN (2) wins the tie.
        assert g.nodes[1].rib[P24.key] == (2, 3)
        assert g.nodes[2].rib[P24.key] == (3,)
        assert g.nodes[4].rib[P24.key] == (3,)

    def test_fixed_point_is_stable(self):
        g = AsGraph.from_edges([(1, 2), (2, 3), (1, 3)])
        announce(g, P24, 1)
        converge(g)
        assert converge(g) == 0

    def test_random_graph_paths_match_bfs(self):
        rng = SplitMix64(404)
        g = random_connected_graph(rng, 20)
        origin = rng.below(20) + 1
        announce(g, P24, origin)
        converge(g)
        distances = bfs_distances(g, origin)
        for asn, node in g.nodes.items():
            assert len(node.rib[P24.key]) == distances[asn], asn

    def test_loop_freedom_invariant(self):
        rng = SplitMix64(11)
        g = random_connected_graph(rng, 15)
        announce(g, P24, 5)
        converge(g)
        for asn, node in g.nodes.items():
            for path in node.rib.values():
                assert asn not in path


class TestRouteLookup:
    def test_origin_lookup_is_empty_path(self):
        g = AsGraph.from_edges([(1, 2)])
        announce(g, P24, 1)
        converge(g)
        assert route_lookup(g, 1, DST) == []

    def test_line_lookup(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 3)
        converge(g)
        assert route_lookup(g, 1, DST) == [2, 3]

    def test_withdrawn_prefix_unroutable(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 3)
        converge(g)
        withdraw(g, P24, 3)
        converge(g)
        assert route_lookup(g, 1, DST) is None

    def test_longest_prefix_wins(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, Prefix.parse("184.164.0.0/16"), 2)
        announce(g, P24, 3)
        converge(g)
        assert route_lookup(g, 1, DST) == [2, 3]  # /24 beats /16
        other = Address.parse("184.164.9.9")
        assert route_lookup(g, 1, other) == [2]


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


def test_scheduler_hand_off_reaches_converge_fixed_point():
    edges = [(1, 2), (2, 3), (3, 4), (4, 1), (2, 4), (4, 5)]
    reference = AsGraph.from_edges(edges)
    announce(reference, P24, 3)
    converge(reference)
    g = AsGraph.from_edges(edges)
    announce(g, P24, 3)
    slots = g.take_slots()
    assert slots == [(3, 2, P24.key), (3, 4, P24.key)]  # one per peer, in `peers` order
    assert not g.slots
    # An external scheduler delivering the slots in order reaches the
    # same ribs as converge(), and leaves nothing undelivered.
    while slots:
        deliver_slot(g, slots.pop(0))
        slots.extend(g.take_slots())
    assert not g.pending
    assert {asn: n.rib for asn, n in g.nodes.items()} == {
        asn: n.rib for asn, n in reference.nodes.items()
    }


P16 = Prefix.parse("184.164.0.0/16")


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
        assert converge(g) == len(asns) - 1
        assert {asn: n.rib[P24.key] for asn, n in g.nodes.items()} == tree_paths(g, origin)
        withdraw(g, P24, origin)
        assert converge(g) == len(asns) - 1
        assert all(not n.rib and longest_match(n.index, DST) is None for n in g.nodes.values())

    def test_a_prefix_keeps_its_origin_after_withdrawal(self):
        g = AsGraph.from_edges([(1, 2)])
        announce(g, P24, 1)
        converge(g)
        withdraw(g, P24, 1)
        converge(g)
        with pytest.raises(MoasConflict):
            announce(g, P24, 2)
        with pytest.raises(NotAnnounced):
            withdraw(g, P24, 1)
        announce(g, P24, 1)
        converge(g)
        assert g.nodes[2].rib[P24.key] == (1,)

    def test_reannouncement_rides_in_the_withdrawals_slot(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 1)
        converge(g)
        ribs = {asn: dict(n.rib) for asn, n in g.nodes.items()}
        withdraw(g, P24, 1)
        announce(g, P24, 1)
        slots = g.take_slots()
        assert slots == [(1, 2, P24.key)]  # the re-announcement replaced the withdrawal
        assert g.pending[slots[0]].path == (1,)
        assert not deliver_slot(g, slots[0])  # AS 2 holds that path already
        assert not g.pending and not g.slots
        assert {asn: dict(n.rib) for asn, n in g.nodes.items()} == ribs


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.sampled_from([P24, P_OTHER, P16]), st.integers(0, 4)), max_size=10),
)
def test_tree_message_is_passed_on_exactly_when_it_changes_a_rib(seed, actions):
    # Each action announces a prefix from its origin (a random AS the
    # first time), re-announces it or withdraws it, then delivers a few
    # slots; the rest are delivered at the end. A delivery returns True
    # exactly when the receiver's rib entry changed, and then it has
    # queued its new entry to exactly its children in the origin's
    # tree; otherwise nothing new is queued. The ribs end on the tree's
    # paths.
    rng = SplitMix64(seed)
    size = 2 + rng.below(8)
    g = random_connected_graph(rng, size)

    def deliver():
        slot = g.slots.pop(0)
        msg = g.pending.pop(slot)
        node, key = g.nodes[slot[1]], msg.prefix.key
        assert (msg.sender, key) == (slot[0], slot[2])
        before = node.rib.get(key)
        pending = dict(g.pending)
        changed = process_message(g, msg, slot[1])
        after = node.rib.get(key)
        assert changed is (after != before)
        if changed:
            advertised = None if after is None else (node.asn,) + after
            update = RouteMessage(node.asn, msg.prefix, advertised)
            paths = tree_paths(g, g.origins[key])
            for child, path in paths.items():
                if path[:1] == (node.asn,):
                    pending[(node.asn, child, key)] = update
        assert g.pending == pending

    for prefix, deliveries in actions:
        origin = g.origins.get(prefix.key, 1 + rng.below(size))
        if prefix.key in g.nodes[origin].rib and rng.below(2):
            assert withdraw(g, prefix, origin) is None
        else:
            assert announce(g, prefix, origin) is None
        for _ in range(min(deliveries, len(g.slots))):
            deliver()
    while g.slots:
        deliver()
    assert not g.pending
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


class TestPrefixIndex:
    def test_matches_longest_first_and_version_strict(self):
        g = AsGraph.from_edges([(1, 2)])
        p16 = Prefix.parse("184.164.0.0/16")
        v6 = Prefix.parse("b8a4:f300::/24")  # same top 24 bits as P24
        for p in (p16, P24, v6):
            announce(g, p, 1)
        index = g.nodes[1].index
        assert longest_match(index, DST) == P24
        assert longest_match(index, Address.parse("b8a4:f3ff::1")) == v6
        withdraw(g, P24, 1)
        assert longest_match(index, DST) == p16
        assert longest_match(index, Address.parse("10.0.0.1")) is None
