"""The path-vector router `hopsim.routing` replaced: the reference for its tests.

Every node keeps candidate paths from each neighbour and picks the
shortest, ties to the lowest next-hop ASN, so ribs converge on the same
shortest AS paths as the tree router's. It is kept here as the
reference that `test_differential` runs in `Simulation` next to
`hopsim.routing`, and whose protocol `test_routing` and
`test_differential` check: coalescing, root causes, shared
advertisements and the FIFO drain.

Messages carry the sender's full advertised path; receivers discard
paths containing themselves, which gives loop freedom and termination
for this monotone policy.

A rib maps a prefix key to the AS path toward its origin, `()` at the
origin itself, so the next hop is the path's first ASN. An
advertisement is one `RouteMessage`, built once and queued to every
neighbour; the receiver is the middle ASN of the update key it is
queued under, not a field of the message.

Updates are coalesced: at most one undelivered update exists per
(sender, receiver, prefix). A newer update replaces the queued one and
goes out in that one's delivery slot instead of taking a new slot, as
BGP bounds the work of announcements with MinRouteAdvertisementInterval
(RFC 4271 §9.2.1.1).

Withdrawals name their root cause instead (BGP-RCN: Pei, Azuma, Massey
and Zhang, Computer Networks 2005). Each announcement of a prefix gets a
new epoch, and every update carries the epoch of its path. A prefix has
one origin at a time, so a withdrawal of epoch e proves every path of an
epoch up to e dead. A node drops all those paths at once, withdraws
once, and rejects late announcements of the dead epochs. Without the
cause, a withdrawal explores ever longer dead paths before it settles,
the delayed convergence of Labovitz et al. (SIGCOMM 2000): n(n-1)^2/2
messages on an n-clique. With it, a withdrawal costs at most one
message per link direction. A node's route is the pair it advertises,
its best path and that path's epoch, so a change of epoch alone goes to
every neighbour like any other change.

Unlike `hopsim.routing`, a prefix may change origin after a withdrawal;
the epochs keep the old origin's late updates from counting.
"""

from __future__ import annotations

from collections.abc import Iterable

from hopsim.addressing import Prefix
from hopsim.errors import MoasConflict, NotAnnounced, UnknownAs
from hopsim.values import Frozen, _set


class RouteMessage(Frozen):
    """One advertisement of `sender`'s route, shared by every neighbour it goes to."""

    __slots__ = _fields = ("sender", "prefix", "path", "epoch")

    def __init__(self, sender: int, prefix: Prefix, path: tuple[int, ...] | None, epoch: int):
        _set(self, "sender", sender)
        _set(self, "prefix", prefix)
        _set(self, "path", path)  # None = withdraw
        # The path's announcement; for a withdrawal, the newest one known dead.
        _set(self, "epoch", epoch)


UpdateKey = tuple[int, int, int]  # (sender, receiver, prefix key)


class AsNode:
    __slots__ = ("asn", "peers", "rib", "epochs", "learned", "dead")

    def __init__(self, asn: int):
        self.asn = asn
        self.peers: tuple[int, ...] = ()  # neighbor ASNs, sorted: the order updates go out in
        # Best AS path by prefix key: `()` at the origin, else next hop first.
        self.rib: dict[int, tuple[int, ...]] = {}
        self.epochs: dict[int, int] = {}  # the epoch of each rib route, by prefix key
        # Candidate paths per sender, as seen from this node, each as
        # (path length, sender, epoch, path): the order the best-path choice
        # compares them in. The origin holds its own route under its ASN.
        self.learned: dict[int, dict[int, tuple[int, int, int, tuple[int, ...]]]] = {}
        self.dead: dict[int, int] = {}  # the newest epoch known withdrawn, by prefix key

    def install(self, prefix: Prefix, path: tuple[int, ...], epoch: int) -> None:
        key = prefix.key
        self.rib[key] = path
        self.epochs[key] = epoch

    def remove(self, prefix: Prefix) -> None:
        if self.rib.pop(prefix.key, None) is not None:
            del self.epochs[prefix.key]


class AsGraph:
    def __init__(self):
        self.nodes: dict[int, AsNode] = {}
        # Undelivered updates, one per key; `slots` holds their keys in
        # delivery order until `converge` or a scheduler takes them.
        self.pending: dict[UpdateKey, RouteMessage] = {}
        self.slots: list[UpdateKey] = []
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
        """Queue `node`'s update on `prefix` to each neighbor: one message,
        queued under one key per neighbor.

        An update replaces an undelivered one on the same key and keeps
        that one's slot; only a key with nothing queued opens a new slot.
        """
        pending, slots, asn, pkey = self.pending, self.slots, node.asn, prefix.key
        msg = RouteMessage(asn, prefix, path, epoch)
        for nbr in node.peers:
            key = (asn, nbr, pkey)
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


def process_message(graph: AsGraph, msg: RouteMessage, receiver: int) -> bool:
    """Apply one routing message at `receiver`; True when the receiver's
    route, its best path and that path's epoch, changed and updates went
    out to the neighbors."""
    return _learn(graph, graph.nodes[receiver], msg.prefix, msg.sender, msg.path, msg.epoch)


def _learn(
    graph: AsGraph, node: AsNode, prefix: Prefix, sender: int, path: tuple[int, ...] | None,
    epoch: int,
) -> bool:
    """Take `sender`'s path of `epoch`, or its withdrawal naming `epoch`, at
    `node`; the origin sends to itself. True as for `process_message`."""
    key = prefix.key
    learned = node.learned.get(key)
    if learned is None:
        learned = node.learned[key] = {}
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
    if best == node.rib.get(key) and (best is None or epoch == node.epochs[key]):
        return False
    if best is None:
        node.remove(prefix)
        advertised = None
    else:
        assert node.asn not in best, "loop-free invariant violated"
        node.install(prefix, best, epoch)
        advertised = (node.asn,) + best
    graph.send(node, prefix, advertised, epoch)
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
