"""Prefix-based path-vector routing over an AS graph.

Announce a prefix before its dwell window opens, withdraw it after use,
and every node converges on shortest AS-paths (ties to the lowest
next-hop ASN). Policy knobs of real inter-domain routing — local
preference, MED, business relationships — are out of scope; the
simulator only needs reachability for ephemeral prefixes.

Messages carry the sender's full advertised path; receivers discard
paths containing themselves, which gives loop freedom and termination
for this monotone policy.

A rib maps a prefix to the AS path toward its origin, `()` at the
origin itself, so the next hop is the path's first ASN. Ribs, learned
paths, origins and update keys hold a prefix by its int `Prefix.key`,
so a routing message hashes ints only; messages and `longest_match`
still carry `Prefix` values.

Updates are coalesced: at most one undelivered update exists per
(sender, receiver, prefix). A newer update replaces the queued one and
goes out in that one's delivery slot instead of taking a new slot.
Only a neighbour's latest advertisement matters to its receiver, so the
fixed point is unchanged. Coalescing bounds the work of announcements,
whose intermediate best paths would otherwise each reach every
neighbour, as BGP bounds it with MinRouteAdvertisementInterval (RFC
4271 §9.2.1.1).

Withdrawals name their root cause instead (BGP-RCN: Pei, Azuma, Massey
and Zhang, Computer Networks 2005). Each announcement of a prefix gets a
new epoch, and every update carries the epoch of its path. A prefix has
one origin at a time, so a withdrawal of epoch e proves every path of an
epoch up to e dead. A node drops all those paths at once, withdraws
once, and rejects late announcements of the dead epochs. Without the
cause, a withdrawal explores ever longer dead paths before it settles,
the delayed convergence of Labovitz et al. (SIGCOMM 2000): n(n-1)^2/2
messages on an n-clique. With it, a withdrawal costs at most one
message per link direction. A route whose epoch alone changes is
withdrawn and taken one delivery later, so every change of epoch
reaches the neighbours as a change of path.

`AsGraph` owns the queue; `converge` drains it in slot order, and an
external scheduler takes the slots with `AsGraph.take_slots` and
delivers each with `AsGraph.take`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from .addressing import Address, Prefix, PrefixIndex
from .errors import MoasConflict, NotAnnounced, UnknownAs, Unroutable
from .values import Frozen, _set


class RouteMessage(Frozen):
    __slots__ = _fields = ("sender", "receiver", "prefix", "path", "epoch")

    def __init__(
        self, sender: int, receiver: int, prefix: Prefix, path: tuple[int, ...] | None, epoch: int
    ):
        _set(self, "sender", sender)
        _set(self, "receiver", receiver)
        _set(self, "prefix", prefix)
        _set(self, "path", path)  # None = withdraw
        # The path's announcement; for a withdrawal, the newest one known dead.
        _set(self, "epoch", epoch)


UpdateKey = tuple[int, int, int]  # (sender, receiver, prefix key)


class AsNode:
    __slots__ = ("asn", "peers", "rib", "learned", "dead", "index")

    def __init__(self, asn: int):
        self.asn = asn
        self.peers: tuple[int, ...] = ()  # neighbor ASNs, sorted: the order updates go out in
        # Best AS path by prefix key: `()` at the origin, else next hop first.
        self.rib: dict[int, tuple[int, ...]] = {}
        # Candidate paths per sender, as seen from this node, each as
        # (path length, sender, epoch, path): the order the best-path choice
        # compares them in. The origin holds its own route under its ASN.
        self.learned: dict[int, dict[int, tuple[int, int, int, tuple[int, ...]]]] = {}
        self.dead: dict[int, int] = {}  # the newest epoch known withdrawn, by prefix key
        self.index = PrefixIndex()  # over the rib's prefixes

    def install(self, prefix: Prefix, path: tuple[int, ...]) -> None:
        key = prefix.key
        if key not in self.rib:
            self.index.add(prefix)
        self.rib[key] = path

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
        self.epochs: dict[int, int] = {}  # prefix key -> its last announcement's epoch

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

    def send(
        self, node: AsNode, prefix: Prefix, path: tuple[int, ...] | None, epoch: int
    ) -> None:
        """Queue `node`'s update on `prefix` to each neighbor.

        An update replaces an undelivered one on the same key and keeps
        that one's slot; only a key with nothing queued opens a new slot.
        """
        pending, asn, pkey = self.pending, node.asn, prefix.key
        for nbr in node.peers:
            key = (asn, nbr, pkey)
            if key not in pending:
                self.slots.append(key)
            pending[key] = RouteMessage(asn, nbr, prefix, path, epoch)

    def defer(self, msg: RouteMessage) -> None:
        """Queue a delivered `msg` again, in a new slot."""
        key = (msg.sender, msg.receiver, msg.prefix.key)
        self.slots.append(key)
        self.pending[key] = msg

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


def announce(graph: AsGraph, prefix: Prefix, origin: int) -> None:
    """Install the origin route under a new epoch and queue updates to neighbors.

    Re-announcing an already-held prefix is a no-op. A second origin for
    the same prefix is rejected: ephemeral prefixes have one holder at a
    time.
    """
    if origin not in graph.nodes:
        raise UnknownAs(f"AS {origin} not in topology")
    key = prefix.key
    holder = graph.origins.get(key)
    if holder == origin:
        return
    if holder is not None:
        raise MoasConflict(f"{prefix} already announced by AS {holder}")
    graph.origins[key] = origin
    epoch = graph.epochs[key] = graph.epochs.get(key, 0) + 1
    _learn(graph, graph.nodes[origin], prefix, origin, (), epoch)


def withdraw(graph: AsGraph, prefix: Prefix, origin: int) -> None:
    """Remove the origin route and queue withdrawals naming its epoch."""
    if origin not in graph.nodes:
        raise UnknownAs(f"AS {origin} not in topology")
    if graph.origins.get(prefix.key) != origin:
        raise NotAnnounced(f"{prefix} not announced by AS {origin}")
    del graph.origins[prefix.key]
    node = graph.nodes[origin]
    _learn(graph, node, prefix, origin, None, node.learned[prefix.key][origin][2])


def process_message(graph: AsGraph, msg: RouteMessage) -> bool:
    """Apply one routing message; True when the best route changed and
    updates went out to the neighbors."""
    node, path, epoch = graph.nodes[msg.receiver], msg.path, msg.epoch
    if path is not None and path == node.rib.get(msg.prefix.key):
        if node.learned[msg.prefix.key][msg.sender][2] < epoch:
            # Only the best route's epoch would change, which no neighbor
            # would hear of, so a later withdrawal of the old epoch would
            # kill their copies of a live route. A prefix has one origin at
            # a time, so the new epoch proves the old ones withdrawn: drop
            # them now, withdraw, and take the message again one delivery
            # later.
            changed = _learn(graph, node, msg.prefix, msg.sender, None, epoch - 1)
            graph.defer(msg)
            return changed
    return _learn(graph, node, msg.prefix, msg.sender, path, epoch)


def _learn(
    graph: AsGraph, node: AsNode, prefix: Prefix, sender: int, path: tuple[int, ...] | None,
    epoch: int,
) -> bool:
    """Take `sender`'s path of `epoch`, or its withdrawal naming `epoch`, at
    `node`; the origin sends to itself. True as for `process_message`."""
    key = prefix.key
    learned = node.learned.setdefault(key, {})
    dead = node.dead.get(key, 0)
    if path is None and epoch > dead:
        # The root cause: every path of an epoch up to this one is dead.
        node.dead[key] = dead = epoch
        for nbr, candidate in list(learned.items()):
            if candidate[2] <= epoch:
                del learned[nbr]
    if path is None or epoch <= dead or node.asn in path:
        # Withdrawn, dead, or through ourselves: either way the sender's
        # route is unusable from here.
        learned.pop(sender, None)
    else:
        learned[sender] = (len(path), sender, epoch, path)

    if learned:
        # Shortest AS path; ties go to the lowest sender, the path's next hop.
        _, _, epoch, best = min(learned.values())
    else:
        del node.learned[key]
        epoch, best = dead, None
    if best == node.rib.get(key):
        return False
    if best is None:
        node.remove(prefix)
        advertised = None
    else:
        assert node.asn not in best, "loop-free invariant violated"
        node.install(prefix, best)
        advertised = (node.asn,) + best
    graph.send(node, prefix, advertised, epoch)
    return True


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
        as_path = node.rib[prefix.key]
        if not as_path:
            return path  # arrived at the origin
        nxt = as_path[0]
        if nxt in visited:
            raise Unroutable(f"forwarding loop at AS {nxt} toward {dst}")
        path.append(nxt)
        visited.add(nxt)
        current = nxt
