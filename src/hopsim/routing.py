"""Prefix-based path-vector routing over an AS graph.

Announce a prefix before its dwell window opens, withdraw it after use,
and every node converges on shortest AS-paths (ties to the lowest
next-hop ASN). Policy knobs of real inter-domain routing — local
preference, MED, business relationships — are out of scope; the
simulator only needs reachability for ephemeral prefixes.

Messages carry the sender's full advertised path; receivers discard
paths containing themselves, which gives loop freedom and termination
for this monotone policy.

Ribs, learned paths, origins and update keys hold a prefix by its int
`Prefix.key`, so a routing message hashes ints only; messages and
`longest_match` still carry `Prefix` values.

Updates are coalesced: at most one undelivered update exists per
(sender, receiver, prefix). A newer update replaces the queued one and
goes out in that one's delivery slot instead of taking a new slot.
Without this, every intermediate best-path change reaches every
neighbour, and a withdrawal explores ever longer dead paths before it
settles: the delayed convergence of Labovitz et al. (SIGCOMM 2000),
which BGP bounds with MinRouteAdvertisementInterval (RFC 4271
§9.2.1.1). Only a neighbour's latest advertisement matters to its
receiver, so the fixed point is unchanged. `AsGraph` owns the queue;
`converge` drains it in slot order, and an external scheduler takes the
slots with `AsGraph.take_slots` and delivers each with `AsGraph.take`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from .addressing import Address, Prefix, PrefixIndex
from .errors import MoasConflict, NotAnnounced, UnknownAs, Unroutable
from .values import Frozen, _set


class Route(Frozen):
    __slots__ = _fields = ("path", "next_hop")

    def __init__(self, path: tuple[int, ...], next_hop: int):
        _set(self, "path", path)  # AS path to the origin, empty at the origin itself
        _set(self, "next_hop", next_hop)


class RouteMessage(Frozen):
    __slots__ = _fields = ("sender", "receiver", "prefix", "path")

    def __init__(self, sender: int, receiver: int, prefix: Prefix, path: tuple[int, ...] | None):
        _set(self, "sender", sender)
        _set(self, "receiver", receiver)
        _set(self, "prefix", prefix)
        _set(self, "path", path)  # None = withdraw


UpdateKey = tuple[int, int, int]  # (sender, receiver, prefix key)


class AsNode:
    __slots__ = ("asn", "neighbors", "peers", "rib", "learned", "index")

    def __init__(self, asn: int):
        self.asn = asn
        self.neighbors: set[int] = set()
        self.peers: tuple[int, ...] = ()  # `neighbors` sorted: the order updates go out in
        self.rib: dict[int, Route] = {}  # by prefix key
        # Candidate paths learned per neighbor, as seen from this node.
        self.learned: dict[int, dict[int, tuple[int, ...]]] = {}
        self.index = PrefixIndex()  # over the rib's prefixes

    def install(self, prefix: Prefix, route: Route) -> None:
        key = prefix.key
        if key not in self.rib:
            self.index.add(prefix)
        self.rib[key] = route

    def remove(self, prefix: Prefix) -> None:
        if self.rib.pop(prefix.key, None) is not None:
            self.index.discard(prefix)


class AsGraph:
    def __init__(self):
        self.nodes: dict[int, AsNode] = {}
        # Undelivered updates, one per key; `slots` holds their keys in
        # delivery order until `converge` or a scheduler takes them.
        self.pending: dict[UpdateKey, RouteMessage] = {}
        self.slots: deque[UpdateKey] = deque()
        self.origins: dict[int, int] = {}  # prefix key -> origin ASN

    def add_node(self, asn: int) -> AsNode:
        if asn not in self.nodes:
            self.nodes[asn] = AsNode(asn)
        return self.nodes[asn]

    def add_link(self, a: int, b: int) -> None:
        if a == b:
            raise ValueError("self-links not allowed")
        for x, y in ((a, b), (b, a)):
            node = self.add_node(x)
            node.neighbors.add(y)
            node.peers = tuple(sorted(node.neighbors))

    def send(
        self, node: AsNode, prefix: Prefix, path: tuple[int, ...] | None
    ) -> list[RouteMessage]:
        """Queue `node`'s update on `prefix` to each neighbor.

        An update replaces an undelivered one on the same key and keeps
        that one's slot; only a key with nothing queued opens a new slot.
        """
        msgs = [RouteMessage(node.asn, nbr, prefix, path) for nbr in node.peers]
        pending, asn, pkey = self.pending, node.asn, prefix.key
        for msg in msgs:
            key = (asn, msg.receiver, pkey)
            if pending.setdefault(key, msg) is msg:
                self.slots.append(key)
            else:
                pending[key] = msg
        return msgs

    def take_slots(self) -> list[UpdateKey]:
        """Hand the slots opened since the last call to an external
        scheduler (the event loop), which delivers each with `take`."""
        out = list(self.slots)
        self.slots.clear()
        return out

    def take(self, key: UpdateKey) -> RouteMessage:
        """Remove and return the update now queued on `key`."""
        return self.pending.pop(key)

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


def announce(graph: AsGraph, prefix: Prefix, origin: int) -> list[RouteMessage]:
    """Install the origin route and queue updates to neighbors.

    Re-announcing an already-held prefix is a no-op. A second origin for
    the same prefix is rejected: ephemeral prefixes have one holder at a
    time.
    """
    if origin not in graph.nodes:
        raise UnknownAs(f"AS {origin} not in topology")
    holder = graph.origins.get(prefix.key)
    if holder == origin:
        return []
    if holder is not None:
        raise MoasConflict(f"{prefix} already announced by AS {holder}")
    node = graph.nodes[origin]
    graph.origins[prefix.key] = origin
    node.install(prefix, Route((), origin))
    return graph.send(node, prefix, (origin,))


def withdraw(graph: AsGraph, prefix: Prefix, origin: int) -> list[RouteMessage]:
    """Remove the origin route and queue withdrawals to neighbors."""
    if origin not in graph.nodes:
        raise UnknownAs(f"AS {origin} not in topology")
    if graph.origins.get(prefix.key) != origin:
        raise NotAnnounced(f"{prefix} not announced by AS {origin}")
    node = graph.nodes[origin]
    del graph.origins[prefix.key]
    node.remove(prefix)
    return graph.send(node, prefix, None)


def _best_path(graph: AsGraph, node: AsNode, key: int) -> tuple[int, ...] | None:
    if graph.origins.get(key) == node.asn:
        return ()
    candidates = node.learned.get(key)
    if not candidates:
        return None
    # Shortest AS-path; ties go to the lowest neighbor ASN (path[0]).
    return min(candidates.values(), key=lambda p: (len(p), p[0]))


def process_message(graph: AsGraph, msg: RouteMessage) -> list[RouteMessage]:
    """Apply one routing message; returns follow-up messages on best-route change."""
    node = graph.nodes[msg.receiver]
    key = msg.prefix.key
    per_nbr = node.learned.setdefault(key, {})
    if msg.path is None or node.asn in msg.path:
        # Withdrawal, or a path through ourselves: either way the
        # sender's route is unusable from here.
        per_nbr.pop(msg.sender, None)
    else:
        per_nbr[msg.sender] = msg.path
    if not per_nbr:
        node.learned.pop(key, None)

    # Within one node a route's next hop follows from its path, so the
    # paths (None for no route) decide whether the best route changed.
    old = node.rib.get(key)
    best = _best_path(graph, node, key)
    if best == (None if old is None else old.path):
        return []
    if best is None:
        node.remove(msg.prefix)
        advertised = None
    else:
        assert node.asn not in best, "loop-free invariant violated"
        node.install(msg.prefix, Route(best, best[0] if best else node.asn))
        advertised = (node.asn,) + best
    return graph.send(node, msg.prefix, advertised)


def converge(graph: AsGraph) -> int:
    """Deliver queued updates in slot order to a fixed point; returns steps taken."""
    steps = 0
    while graph.slots:
        process_message(graph, graph.take(graph.slots.popleft()))
        steps += 1
    return steps


def longest_match(node: AsNode, dst: Address) -> Prefix | None:
    # `PrefixIndex.longest` inlined: this runs per packet per AS.
    version, bits = dst.version, dst.bits
    for v, host, table in node.index.buckets:
        if v is version:
            prefix = table.get(bits >> host)
            if prefix is not None:
                return prefix
    return None


def originates(graph: AsGraph, asn: int, address: Address) -> bool:
    """True if some announced prefix containing `address` has origin `asn`."""
    # An origin's rib holds every prefix it announces, so its index finds them.
    node = graph.nodes.get(asn)
    return node is not None and any(
        graph.origins.get(p.key) == asn for p in node.index.matches(address)
    )


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
        route = node.rib[prefix.key]
        if not route.path:
            return path  # arrived at the origin
        nxt = route.next_hop
        if nxt in visited:
            raise Unroutable(f"forwarding loop at AS {nxt} toward {dst}")
        path.append(nxt)
        visited.add(nxt)
        current = nxt
