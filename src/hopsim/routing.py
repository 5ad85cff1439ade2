"""Prefix-based path-vector routing over an AS graph.

Announce a prefix before its dwell window opens, withdraw it after use,
and every node converges on shortest AS-paths (ties to the lowest
next-hop ASN). Policy knobs of real inter-domain routing — local
preference, MED, business relationships — are out of scope; the
simulator only needs reachability for ephemeral prefixes.

Messages carry the sender's full advertised path; receivers discard
paths containing themselves, which gives loop freedom and termination
for this monotone policy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .addressing import Address, Prefix
from .errors import MoasConflict, NotAnnounced, UnknownAs, Unroutable


@dataclass(frozen=True)
class Route:
    path: tuple[int, ...]  # AS path to the origin, empty at the origin itself
    next_hop: int


@dataclass(frozen=True)
class RouteMessage:
    sender: int
    receiver: int
    prefix: Prefix
    path: tuple[int, ...] | None  # None = withdraw


@dataclass
class AsNode:
    asn: int
    neighbors: set[int] = field(default_factory=set)
    rib: dict[Prefix, Route] = field(default_factory=dict)
    # Candidate paths learned per neighbor, as seen from this node.
    learned: dict[Prefix, dict[int, tuple[int, ...]]] = field(default_factory=dict)


class AsGraph:
    def __init__(self):
        self.nodes: dict[int, AsNode] = {}
        self.links: set[tuple[int, int]] = set()
        self.pending: deque[RouteMessage] = deque()
        self.origins: dict[Prefix, int] = {}

    def add_node(self, asn: int) -> AsNode:
        if asn not in self.nodes:
            self.nodes[asn] = AsNode(asn)
        return self.nodes[asn]

    def add_link(self, a: int, b: int) -> None:
        if a == b:
            raise ValueError("self-links not allowed")
        self.add_node(a).neighbors.add(b)
        self.add_node(b).neighbors.add(a)
        self.links.add((min(a, b), max(a, b)))

    def has_link(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.links

    def drain_pending(self) -> list[RouteMessage]:
        """Hand queued messages to an external scheduler (the event loop)."""
        out = list(self.pending)
        self.pending.clear()
        return out

    @classmethod
    def from_edges(cls, edges: list[tuple[int, int]]) -> "AsGraph":
        graph = cls()
        for a, b in edges:
            graph.add_link(a, b)
        return graph

    @classmethod
    def from_text(cls, text: str) -> "AsGraph":
        """Edge-list form: two ASNs per line, '#' comments allowed."""
        edges = []
        for i, ln in enumerate(text.splitlines(), 1):
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"line {i}: expected 'asn asn', got {ln!r}")
            edges.append((int(parts[0]), int(parts[1])))
        return cls.from_edges(edges)


def announce(graph: AsGraph, prefix: Prefix, origin: int) -> list[RouteMessage]:
    """Install the origin route and queue updates to neighbors.

    Re-announcing an already-held prefix is a no-op. A second origin for
    the same prefix is rejected: ephemeral prefixes have one holder at a
    time.
    """
    if origin not in graph.nodes:
        raise UnknownAs(f"AS {origin} not in topology")
    holder = graph.origins.get(prefix)
    if holder == origin:
        return []
    if holder is not None:
        raise MoasConflict(f"{prefix} already announced by AS {holder}")
    node = graph.nodes[origin]
    graph.origins[prefix] = origin
    node.rib[prefix] = Route((), origin)
    msgs = [RouteMessage(origin, nbr, prefix, (origin,)) for nbr in sorted(node.neighbors)]
    graph.pending.extend(msgs)
    return msgs


def withdraw(graph: AsGraph, prefix: Prefix, origin: int) -> list[RouteMessage]:
    """Remove the origin route and queue withdrawals to neighbors."""
    if origin not in graph.nodes:
        raise UnknownAs(f"AS {origin} not in topology")
    if graph.origins.get(prefix) != origin:
        raise NotAnnounced(f"{prefix} not announced by AS {origin}")
    node = graph.nodes[origin]
    del graph.origins[prefix]
    node.rib.pop(prefix, None)
    msgs = [RouteMessage(origin, nbr, prefix, None) for nbr in sorted(node.neighbors)]
    graph.pending.extend(msgs)
    return msgs


def _best_candidate(graph: AsGraph, node: AsNode, prefix: Prefix) -> Route | None:
    if graph.origins.get(prefix) == node.asn:
        return Route((), node.asn)
    candidates = node.learned.get(prefix)
    if not candidates:
        return None
    # Shortest AS-path; ties go to the lowest neighbor ASN (path[0]).
    path = min(candidates.values(), key=lambda p: (len(p), p[0]))
    return Route(path, path[0])


def process_message(graph: AsGraph, msg: RouteMessage) -> list[RouteMessage]:
    """Apply one routing message; returns follow-up messages on best-route change."""
    node = graph.nodes[msg.receiver]
    per_nbr = node.learned.setdefault(msg.prefix, {})
    if msg.path is None or node.asn in msg.path:
        # Withdrawal, or a path through ourselves: either way the
        # sender's route is unusable from here.
        per_nbr.pop(msg.sender, None)
    else:
        per_nbr[msg.sender] = msg.path
    if not per_nbr:
        node.learned.pop(msg.prefix, None)

    old = node.rib.get(msg.prefix)
    best = _best_candidate(graph, node, msg.prefix)
    if best == old:
        return []
    if best is None:
        del node.rib[msg.prefix]
        advertised = None
    else:
        assert node.asn not in best.path, "loop-free invariant violated"
        node.rib[msg.prefix] = best
        advertised = (node.asn,) + best.path
    out = [RouteMessage(node.asn, nbr, msg.prefix, advertised) for nbr in sorted(node.neighbors)]
    graph.pending.extend(out)
    return out


def converge(graph: AsGraph) -> int:
    """Process queued updates to a fixed point; returns steps taken."""
    steps = 0
    while graph.pending:
        msg = graph.pending.popleft()
        process_message(graph, msg)
        steps += 1
    return steps


def longest_match(node: AsNode, dst: Address) -> Prefix | None:
    best = None
    for prefix in node.rib:
        if prefix.contains(dst) and (best is None or prefix.length > best.length):
            best = prefix
    return best


def route_lookup(graph: AsGraph, from_asn: int, dst: Address) -> list[int]:
    """Forward hop-by-hop from `from_asn` toward `dst`'s origin.

    Each node applies longest-prefix match in its own rib, so the result
    reflects what packets actually experience, including transient
    inconsistencies mid-convergence (surfaced as Unroutable).
    """
    if from_asn not in graph.nodes:
        raise UnknownAs(f"AS {from_asn} not in topology")
    path: list[int] = []
    visited = {from_asn}
    current = from_asn
    while True:
        node = graph.nodes[current]
        prefix = longest_match(node, dst)
        if prefix is None:
            raise Unroutable(f"no route toward {dst} at AS {current}")
        route = node.rib[prefix]
        if not route.path:
            return path  # arrived at the origin
        nxt = route.next_hop
        if nxt in visited:
            raise Unroutable(f"forwarding loop at AS {nxt} toward {dst}")
        path.append(nxt)
        visited.add(nxt)
        current = nxt
