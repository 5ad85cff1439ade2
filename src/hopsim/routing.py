"""Prefix routing over an AS graph, down each origin's shortest-path tree.

Announce a prefix before its dwell window opens, withdraw it after use,
and every node converges on a shortest AS path to the origin (ties to
the lowest next-hop ASN). Policy knobs of real inter-domain routing —
local preference, MED, business relationships — are out of scope; the
simulator only needs reachability for ephemeral prefixes.

The graph is fixed when `AsGraph.from_edges` builds it, and every AS
in it has a link, so every origin's tree has a first layer. Each
origin's BFS tree is built once, when first used. An AS's parent
is its lowest-ASN neighbour one hop nearer the origin, so the path a
rib holds is the chain of parents up to the origin. An update goes from
an AS to its tree children only, as in reverse-path forwarding
broadcast (Dalal and Metcalfe, CACM 1978). The receiver's rib entry
becomes the path it is sent, or goes with a withdrawal, and it passes
the update on only if that changed its entry. So an announcement or a
withdrawal costs one message per tree edge, and every message changes
a rib.

A prefix keeps its first origin for the graph's life: another AS
announcing it raises `MoasConflict`, even after a withdrawal. Every
update on a prefix thus goes down one tree, and a late update can never
be mistaken for a newer origin's.

A rib maps a prefix to the AS path toward its origin, `()` at the
origin itself, so the next hop is the path's first ASN. Ribs and origins
hold a prefix by its int `Prefix.key`; messages carry `Prefix` values. A
run announces only pairwise disjoint prefixes, so no AS keeps an index
of its own: the packet path finds the one announced prefix that holds a
destination once, with `addressing.longest_match`, and probes each rib
by its key.

An update is one `RouteMessage`, `(sender, prefix, path)`, which the
caller hands to each of the sender's tree children with
`process_message`; this module keeps no queue. `hopsim.session` carries
each announce or withdraw down the tree as one wave, one layer per link
delay.
"""

from __future__ import annotations

from collections.abc import Iterable

from .addressing import Prefix
from .errors import MoasConflict, NotAnnounced, UnknownAs
from .values import Frozen, _set, parse_decimal


class RouteMessage(Frozen):
    """One update of `sender`'s route, shared by every child it goes to."""

    __slots__ = _fields = ("sender", "prefix", "path")

    def __init__(self, sender: int, prefix: Prefix, path: tuple[int, ...] | None):
        _set(self, "sender", sender)
        _set(self, "prefix", prefix)
        _set(self, "path", path)  # None = withdraw


class AsNode:
    __slots__ = ("asn", "peers", "rib")

    def __init__(self, asn: int, peers: tuple[int, ...]):
        self.asn = asn
        self.peers = peers  # neighbor ASNs, sorted
        # AS path by prefix key: `()` at the origin, else next hop first.
        self.rib: dict[int, tuple[int, ...]] = {}


class AsGraph:
    def __init__(self, nodes: dict[int, AsNode]):
        self.nodes = nodes
        self.origins: dict[int, int] = {}  # prefix key -> origin ASN, kept after withdrawal
        self._trees: dict[int, dict[int, tuple[int, ...]]] = {}  # origin -> ASN -> children

    def children(self, origin: int) -> dict[int, tuple[int, ...]]:
        """Each AS's children, sorted, in `origin`'s shortest-path tree;
        an AS without children is absent."""
        tree = self._trees.get(origin)
        if tree is None:
            nodes, tree, seen, layer = self.nodes, {}, {origin}, [origin]
            while layer:
                # Taken in ASN order, a layer gives each AS of the next
                # its lowest-ASN parent: the first to reach it.
                below = []
                for asn in layer:
                    new = tuple(nbr for nbr in nodes[asn].peers if nbr not in seen)
                    if new:
                        seen.update(new)
                        tree[asn] = new
                        below += new
                layer = sorted(below)
            self._trees[origin] = tree
        return tree

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "AsGraph":
        """The graph of `edges`: each AS in order of its first link, with
        its peers sorted and each once, so every AS has a peer."""
        peers: dict[int, set[int]] = {}
        for a, b in edges:
            if a == b:
                raise ValueError("self-links not allowed")
            peers.setdefault(a, set()).add(b)
            peers.setdefault(b, set()).add(a)
        return cls({asn: AsNode(asn, tuple(sorted(nbrs))) for asn, nbrs in peers.items()})


def parse_asn(raw: str) -> int:
    """An ASN written in ASCII decimal digits and nothing else (`parse_decimal`)."""
    return parse_decimal(raw, "ASN")


def parse_edges(text: str) -> tuple[tuple[int, int], ...]:
    """Edge-list form: two ASNs (`parse_asn`) per line, '#' comments
    allowed; file order kept. Each refusal names its line."""
    edges = []
    for i, ln in enumerate(text.splitlines(), 1):
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"line {i}: expected 'asn asn', got {ln!r}")
        try:
            a, b = parse_asn(parts[0]), parse_asn(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from None
        if a == b:
            raise ValueError(f"line {i}: self-link {a}-{b} not allowed")
        edges.append((a, b))
    return tuple(edges)


def announce(graph: AsGraph, prefix: Prefix, origin: int) -> None:
    """Install the origin route; the caller carries it down the tree.

    Re-announcing an already-held prefix is a no-op. Another origin for
    the same prefix is rejected, even after a withdrawal.
    """
    if origin not in graph.nodes:
        raise UnknownAs(f"AS {origin} not in topology")
    holder = graph.origins.setdefault(prefix.key, origin)
    if holder != origin:
        raise MoasConflict(f"{prefix} belongs to AS {holder}")
    _set_route(graph.nodes[origin], prefix.key, ())


def withdraw(graph: AsGraph, prefix: Prefix, origin: int) -> None:
    """Remove the origin route; the caller carries the withdrawal down the tree."""
    if origin not in graph.nodes:
        raise UnknownAs(f"AS {origin} not in topology")
    node = graph.nodes[origin]
    if graph.origins.get(prefix.key) != origin or prefix.key not in node.rib:
        raise NotAnnounced(f"{prefix} not announced by AS {origin}")
    _set_route(node, prefix.key, None)


def process_message(graph: AsGraph, msg: RouteMessage, receiver: int) -> bool:
    """Apply one routing message at `receiver`; True when the receiver's
    rib entry changed, so the update goes on to its children."""
    return _set_route(graph.nodes[receiver], msg.prefix.key, msg.path)


def _set_route(node: AsNode, key: int, path: tuple[int, ...] | None) -> bool:
    """Make `path` `node`'s rib entry for prefix key `key`, None to remove
    it; True when that changed the entry."""
    rib = node.rib
    if rib.get(key) == path:
        return False
    if path is None:
        del rib[key]
    else:
        rib[key] = path
    return True
