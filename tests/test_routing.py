import copy
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopsim.addressing import Address, Prefix
from hopsim.errors import MoasConflict, NotAnnounced, UnknownAs, Unroutable
from hopsim.routing import (
    AsGraph,
    RouteMessage,
    announce,
    converge,
    longest_match,
    originates,
    parse_edges,
    process_message,
    route_lookup,
    withdraw,
)
from hopsim.rng import SplitMix64

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


def random_connected_graph(rng: SplitMix64, size: int) -> AsGraph:
    """Random spanning tree plus a sprinkle of extra edges."""
    edges = [(rng.below(i) + 1, i + 1) for i in range(1, size)]
    extras = rng.below(size)
    for _ in range(extras):
        a, b = rng.below(size) + 1, rng.below(size) + 1
        if a != b and (min(a, b), max(a, b)) not in [(min(x, y), max(x, y)) for x, y in edges]:
            edges.append((a, b))
    return AsGraph.from_edges(edges)


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
        with pytest.raises(Unroutable):
            route_lookup(g, 3, Address.parse("0.0.0.1"))
        assert originates(g, 3, Address.parse("::1"))
        assert not originates(g, 1, Address.parse("0.0.0.1"))


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
        with pytest.raises(Unroutable):
            route_lookup(g, 1, DST)

    def test_longest_prefix_wins(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, Prefix.parse("184.164.0.0/16"), 2)
        announce(g, P24, 3)
        converge(g)
        assert route_lookup(g, 1, DST) == [2, 3]  # /24 beats /16
        other = Address.parse("184.164.9.9")
        assert route_lookup(g, 1, other) == [2]

    def test_unknown_source(self):
        g = AsGraph.from_edges([(1, 2)])
        with pytest.raises(UnknownAs):
            route_lookup(g, 77, DST)


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
        process_message(g, g.take(slots.pop(0)))
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
    # the receiver's rib entry changed, and then it has queued its new
    # route to every peer; otherwise nothing new is queued.
    rng = SplitMix64(seed)
    size = 2 + rng.below(8)
    g = random_connected_graph(rng, size)

    def deliver():
        msg = g.take(g.slots.popleft())
        node, key = g.nodes[msg.receiver], msg.prefix.key
        before, pending = node.rib.get(key), dict(g.pending)
        changed = process_message(g, msg)
        after = node.rib.get(key)
        assert changed is (after != before)
        if not changed:
            assert g.pending == pending
            return
        advertised = None if after is None else (node.asn,) + after
        # An announcement carries its route's epoch; a withdrawal, the
        # newest epoch the node knows withdrawn.
        epoch = node.dead[key] if after is None else node.learned[key][after[0]][2]
        for peer in node.peers:
            update = RouteMessage(node.asn, peer, msg.prefix, advertised, epoch)
            assert g.pending[(node.asn, peer, key)] == update

    for prefix, deliveries in actions:
        holder = g.origins.get(prefix.key)
        if holder is None:
            assert announce(g, prefix, 1 + rng.below(size)) is None
        elif rng.below(2):
            slots = list(g.slots)
            assert announce(g, prefix, holder) is None
            assert list(g.slots) == slots
        else:
            assert withdraw(g, prefix, holder) is None
        for _ in range(min(deliveries, len(g.slots))):
            deliver()
    while g.slots:
        deliver()
    assert not g.pending


class TestCoalescing:
    def test_newer_update_replaces_queued_one_in_its_slot(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 3)
        announce(g, P_OTHER, 3)
        withdraw(g, P24, 3)
        # Two keys, in the order they were first queued; the withdrawal
        # took over the announcement's slot instead of opening a third.
        assert list(g.slots) == [(3, 2, P24.key), (3, 2, P_OTHER.key)]
        assert g.pending[(3, 2, P24.key)].path is None
        converge(g)
        assert all(P24.key not in n.rib and P24.key not in n.learned for n in g.nodes.values())
        assert g.nodes[1].rib[P_OTHER.key] == (2, 3)

    def test_delivered_key_opens_a_new_slot(self):
        g = AsGraph.from_edges([(1, 2)])
        announce(g, P24, 1)
        (key,) = g.take_slots()
        process_message(g, g.take(key))
        assert g.take_slots() == [(2, 1, P24.key)]  # AS 2's reply
        withdraw(g, P24, 1)
        assert g.take_slots() == [key]


def clique(size: int) -> AsGraph:
    return AsGraph.from_edges([(a, b) for a in range(1, size + 1) for b in range(a + 1, size + 1)])


def assert_bfs_ribs(g: AsGraph, prefix: Prefix, origin: int) -> None:
    distances = bfs_distances(g, origin)
    for asn, node in g.nodes.items():
        assert len(node.rib[prefix.key]) == distances[asn], asn


graphs = st.one_of(
    st.integers(4, 12).map(clique),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 24)).map(
        lambda a: random_connected_graph(SplitMix64(a[0]), a[1])
    ),
)


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

        def deliver(count):
            for _ in range(count):
                taken.extend(g.take_slots())
                if not taken:
                    return
                process_message(g, g.take(taken.pop(0)))

        origin = asns[rng.below(len(asns))]
        for _ in range(3):
            announce(g, P24, origin)
            deliver(rng.below(4 * edges))  # an announcement takes 2E deliveries
            withdraw(g, P24, origin)
            deliver(rng.below(edges // 2 + 1))
            if rng.below(2):
                origin = asns[rng.below(len(asns))]
            announce(g, P24, origin)
            for key in taken:  # then the rest, in slot order
                process_message(g, g.take(key))
            taken.clear()
            converge(g)
            assert_bfs_ribs(g, P24, origin)
            withdraw(g, P24, origin)
            assert converge(g) <= 2 * edges
            assert all(P24.key not in n.rib and P24.key not in n.learned for n in g.nodes.values())

    def test_only_a_new_epoch_is_taken_one_delivery_later(self):
        # AS 2 hears the origin's re-announcement before its withdrawal:
        # the route is the same, only its epoch is new. AS 2 drops the old
        # route and withdraws it, then takes the new one from the same
        # message, delivered again; AS 3 never keeps a route the old
        # epoch's withdrawal killed.
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 1)
        converge(g)
        withdraw(g, P24, 1)
        announce(g, P24, 1)
        (key,) = g.take_slots()
        msg = g.take(key)
        assert (msg.path, msg.epoch) == ((1,), 2)
        assert process_message(g, msg)
        assert P24.key not in g.nodes[2].rib
        assert g.take_slots() == [(2, 1, P24.key), (2, 3, P24.key), key]
        converge(g)
        assert g.nodes[3].rib[P24.key] == (2, 1)


class TestPrefixIndex:
    def test_matches_longest_first_and_version_strict(self):
        g = AsGraph.from_edges([(1, 2)])
        p16 = Prefix.parse("184.164.0.0/16")
        v6 = Prefix.parse("b8a4:f300::/24")  # same top 24 bits as P24
        for p in (p16, P24, v6):
            announce(g, p, 1)
        index = g.nodes[1].index
        assert list(index.matches(DST)) == [P24, p16]
        assert list(index.matches(Address.parse("b8a4:f3ff::1"))) == [v6]
        withdraw(g, P24, 1)
        assert list(index.matches(DST)) == [p16]
        assert longest_match(g.nodes[1], Address.parse("10.0.0.1")) is None

    def test_originates_needs_the_agents_own_announcement(self):
        g = AsGraph.from_edges([(1, 2)])
        announce(g, Prefix.parse("184.164.0.0/16"), 2)
        announce(g, P24, 1)
        converge(g)
        assert originates(g, 1, DST) and originates(g, 2, DST)
        assert not originates(g, 1, Address.parse("184.164.9.9"))
        assert not originates(g, 7, DST)
