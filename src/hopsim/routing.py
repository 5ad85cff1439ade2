"""Prefix routing over an AS graph, down each origin's shortest-path tree.

Announce a prefix before its dwell window opens, withdraw it after use,
and every node converges on a shortest AS path to the origin (ties to
the lowest next-hop ASN). Policy knobs of real inter-domain routing —
local preference, MED, business relationships — are out of scope; the
simulator only needs reachability for ephemeral prefixes.

Each origin's BFS tree is built once, when first used. An AS's parent
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
origin itself, so the next hop is the path's first ASN. Ribs, origins
and update keys hold a prefix by its int `Prefix.key`, so a routing
message hashes ints only; messages and each node's `index` still carry
`Prefix` values. The packet path searches that index with
`addressing.longest_match`.

An update is one `RouteMessage`, built once and queued to every child;
the receiver is the middle ASN of the update key it is queued under,
not a field of the message. Updates are coalesced: at most one
undelivered update exists per (sender, receiver, prefix). A newer
update replaces the queued one and goes out in that one's delivery slot
instead of taking a new slot. So a re-announcement made before the
withdrawal left rides in its slot and changes no rib downstream.

`AsGraph` owns the queue. `converge` and an external scheduler alike
take the slots one batch at a time with `AsGraph.take_slots` and deliver
each by popping its key from `AsGraph.pending`; the slots that a batch's
deliveries open form the next batch, so the order is first in, first out.
"""

from __future__ import annotations

from collections.abc import Iterable

from .addressing import Prefix, PrefixIndex
from .errors import MoasConflict, NotAnnounced, UnknownAs
from .values import Frozen, _set


class RouteMessage(Frozen):
    """One update of `sender`'s route, shared by every child it goes to."""

    __slots__ = _fields = ("sender", "prefix", "path")

    def __init__(self, sender: int, prefix: Prefix, path: tuple[int, ...] | None):
        _set(self, "sender", sender)
        _set(self, "prefix", prefix)
        _set(self, "path", path)  # None = withdraw


UpdateKey = tuple[int, int, int]  # (sender, receiver, prefix key)


class AsNode:
    __slots__ = ("asn", "peers", "rib", "index")

    def __init__(self, asn: int):
        self.asn = asn
        self.peers: tuple[int, ...] = ()  # neighbor ASNs, sorted
        # AS path by prefix key: `()` at the origin, else next hop first.
        self.rib: dict[int, tuple[int, ...]] = {}
        self.index = PrefixIndex()  # over the rib's prefixes


class AsGraph:
    def __init__(self):
        self.nodes: dict[int, AsNode] = {}
        # Undelivered updates, one per key; `slots` holds their keys in
        # delivery order until `converge` or a scheduler takes them.
        self.pending: dict[UpdateKey, RouteMessage] = {}
        self.slots: list[UpdateKey] = []
        self.origins: dict[int, int] = {}  # prefix key -> origin ASN, kept after withdrawal
        self._trees: dict[int, dict[int, tuple[int, ...]]] = {}  # origin -> ASN -> children

    def add_node(self, asn: int) -> AsNode:
        if asn not in self.nodes:
            self.nodes[asn] = AsNode(asn)
        return self.nodes[asn]

    def add_link(self, a: int, b: int) -> None:
        if a == b:
            raise ValueError("self-links not allowed")
        for x, y in ((a, b), (b, a)):
            node = self.add_node(x)
            if y not in node.peers:
                node.peers = tuple(sorted((*node.peers, y)))
        self._trees.clear()

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

    def send(self, node: AsNode, prefix: Prefix, path: tuple[int, ...] | None) -> None:
        """Queue `node`'s update on `prefix` to its children in the tree
        of the prefix's origin: one message, queued under one key per child.

        An update replaces an undelivered one on the same key and keeps
        that one's slot; only a key with nothing queued opens a new slot.
        """
        pending, slots, asn, pkey = self.pending, self.slots, node.asn, prefix.key
        msg = RouteMessage(asn, prefix, path)
        for child in self.children(self.origins[pkey]).get(asn, ()):
            key = (asn, child, pkey)
            if key not in pending:
                slots.append(key)
            pending[key] = msg

    def take_slots(self) -> list[UpdateKey]:
        """Hand over the slots opened since the last call, in the order
        they opened, and start a fresh list; the taker delivers each key
        `k` with `process_message(graph, graph.pending.pop(k), k[1])`."""
        slots, self.slots = self.slots, []
        return slots

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "AsGraph":
        graph = cls()
        for a, b in edges:
            graph.add_link(a, b)
        return graph


def parse_edges(text: str) -> tuple[tuple[int, int], ...]:
    """Edge-list form: two ASNs per line, '#' comments allowed; file order kept."""
    edges = []
    for i, ln in enumerate(text.splitlines(), 1):
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"line {i}: expected 'asn asn', got {ln!r}")
        a, b = int(parts[0]), int(parts[1])
        if a == b:
            raise ValueError(f"line {i}: self-link {a}-{b} not allowed")
        edges.append((a, b))
    return tuple(edges)


def announce(graph: AsGraph, prefix: Prefix, origin: int) -> None:
    """Install the origin route and queue updates to its tree children.

    Re-announcing an already-held prefix is a no-op. Another origin for
    the same prefix is rejected, even after a withdrawal.
    """
    if origin not in graph.nodes:
        raise UnknownAs(f"AS {origin} not in topology")
    holder = graph.origins.setdefault(prefix.key, origin)
    if holder != origin:
        raise MoasConflict(f"{prefix} belongs to AS {holder}")
    _set_route(graph, graph.nodes[origin], prefix, ())


def withdraw(graph: AsGraph, prefix: Prefix, origin: int) -> None:
    """Remove the origin route and queue withdrawals to its tree children."""
    if origin not in graph.nodes:
        raise UnknownAs(f"AS {origin} not in topology")
    node = graph.nodes[origin]
    if graph.origins.get(prefix.key) != origin or prefix.key not in node.rib:
        raise NotAnnounced(f"{prefix} not announced by AS {origin}")
    _set_route(graph, node, prefix, None)


def process_message(graph: AsGraph, msg: RouteMessage, receiver: int) -> bool:
    """Apply one routing message at `receiver`; True when the receiver's
    rib entry changed and the update went on to its children."""
    return _set_route(graph, graph.nodes[receiver], msg.prefix, msg.path)


def _set_route(graph: AsGraph, node: AsNode, prefix: Prefix, path: tuple[int, ...] | None) -> bool:
    """Make `path` `node`'s rib entry for `prefix`, None to remove it; if
    that changed the entry, queue `node`'s update to its children."""
    key, rib = prefix.key, node.rib
    if rib.get(key) == path:
        return False
    if path is None:
        del rib[key]
        node.index.discard(prefix)
    else:
        if key not in rib:
            node.index.add(prefix)
        rib[key] = path
        path = (node.asn,) + path
    graph.send(node, prefix, path)
    return True


def converge(graph: AsGraph) -> int:
    """Deliver queued updates in slot order to a fixed point; returns steps taken."""
    steps = 0
    pending = graph.pending
    slots = graph.take_slots()
    while slots:
        for key in slots:
            process_message(graph, pending.pop(key), key[1])
        steps += len(slots)
        slots = graph.take_slots()
    return steps
