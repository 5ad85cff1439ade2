import copy
from collections import deque

import pytest

from hopsim.addressing import Address, Prefix
from hopsim.errors import MoasConflict, NotAnnounced, UnknownAs, Unroutable
from hopsim.routing import (
    AsGraph,
    announce,
    converge,
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
        for nbr in sorted(graph.nodes[node].neighbors):
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
        msgs = announce(g, P24, 1)
        assert msgs == []
        assert g.nodes[1].rib[P24].path == ()
        assert converge(g) == 0

    def test_line_propagation(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 3)
        converge(g)
        assert g.nodes[1].rib[P24].path == (2, 3)
        assert g.nodes[2].rib[P24].path == (3,)

    def test_reannounce_is_idempotent(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 3)
        converge(g)
        snapshot = {asn: dict(n.rib) for asn, n in g.nodes.items()}
        assert announce(g, P24, 3) == []
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


class TestWithdraw:
    def test_line_withdraw_clears_all_ribs(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 3)
        converge(g)
        withdraw(g, P24, 3)
        converge(g)
        assert all(P24 not in n.rib for n in g.nodes.values())

    def test_withdraw_unannounced(self):
        g = AsGraph.from_edges([(1, 2)])
        with pytest.raises(NotAnnounced):
            withdraw(g, P24, 1)

    def test_other_prefixes_untouched(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        announce(g, P24, 3)
        announce(g, P_OTHER, 1)
        converge(g)
        before = {asn: n.rib[P_OTHER] for asn, n in g.nodes.items()}
        withdraw(g, P24, 3)
        converge(g)
        assert {asn: n.rib[P_OTHER] for asn, n in g.nodes.items()} == before

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
        assert g.nodes[1].rib[P24].path == (2, 3)
        assert g.nodes[2].rib[P24].path == (3,)
        assert g.nodes[4].rib[P24].path == (3,)

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
            assert len(node.rib[P24].path) == distances[asn], asn

    def test_loop_freedom_invariant(self):
        rng = SplitMix64(11)
        g = random_connected_graph(rng, 15)
        announce(g, P24, 5)
        converge(g)
        for asn, node in g.nodes.items():
            for route in node.rib.values():
                assert asn not in route.path


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
        g = AsGraph.from_text("# backbone\n1 2\n2 3 # stub\n\n")
        assert set(g.nodes) == {1, 2, 3}
        assert g.has_link(2, 3)

    def test_rejects_bad_line(self):
        with pytest.raises(ValueError):
            AsGraph.from_text("1 2 3\n")


def test_drain_pending_hands_messages_to_scheduler():
    g = AsGraph.from_edges([(1, 2), (2, 3)])
    msgs = announce(g, P24, 3)
    drained = g.drain_pending()
    assert drained == msgs
    assert not g.pending
    # An external scheduler can process the same messages to the same result.
    while drained:
        drained.extend(process_message(g, drained.pop(0)))
        g.drain_pending()
    assert g.nodes[1].rib[P24].path == (2, 3)
