"""On-path observation, IP blocklists, and hop-timing analysis.

The observer sits on one inter-AS link and sees every packet crossing
it. Blocking is the baseline attack: a static list of known addresses,
or a reactive list that adds any sufficiently-used destination after a
detection delay. Timing analysis takes the packets bound for the
hopping peer's announced pool, symbolizes the observed inter-hop
intervals and compares them against a background dwell model; the
statistic is the same L1 distance the dwell module uses, so both sides
of the arms race measure with one ruler.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum

from .addressing import Address, Prefix, PrefixIndex, PrefixPool, longest_match
from .dwell import DhmmModel, distribution_distance, start_sampler
from .errors import HopsimError
from .flowtable import Packet


_NEVER = float("inf")  # the start of a reactive block that is not pending


class EmptyInput(HopsimError):
    """Timing analysis invoked on an empty interval list."""


class Verdict(Enum):
    PASS = "pass"
    BLOCK = "block"


class ObserverTap:
    """Passive observer of the packets crossing one link, in time order.

    It keeps only what timing analysis reads: `changes` holds the time of
    each packet bound for `pool` whose destination differs from that of
    the last such packet. The pool is public, as routing announces its
    prefixes, so each change marks a hop of the peer that hops within it;
    packets to other destinations leave it be.
    """

    __slots__ = ("pool", "changes", "_last_t", "_last_dst")

    def __init__(self, pool: PrefixPool) -> None:
        self.pool = pool
        self.changes: list[float] = []
        self._last_t = float("-inf")
        self._last_dst: int | None = None  # the key of the last pool destination

    def observe(self, t: float, packet: Packet) -> None:
        if t < self._last_t:
            raise ValueError("tap must observe packets in time order")
        self._last_t = t
        dst = packet.dst
        # The key test comes first, so a packet to the last pool destination
        # does not probe the pool.
        if dst.key != self._last_dst and self.pool.contains(dst):
            self.changes.append(t)
            self._last_dst = dst.key


class BlockMode(Enum):
    STATIC = "static"
    REACTIVE = "reactive"


class BlockPolicy:
    """Address filter state; reactive mode learns destinations it has seen.

    `blocked` is read once, at construction, into the one thing the
    policy keeps of it: a `PrefixIndex` of its prefixes, and of each of
    its addresses as a host-length prefix. The reactive state is keyed by
    `Address.key`, so a filtered packet hashes ints only.

    In reactive mode a destination observed `trigger_count` times is
    added to the blocked set `detect_delay_ms` after its first
    qualifying observation — the knob that models how fast the filter
    operator reacts. `filter_packet` reads and advances this state.
    """

    __slots__ = ("mode", "detect_delay_ms", "trigger_count", "_dst_counts", "_pending", "_index")

    def __init__(
        self,
        blocked: Iterable[Address | Prefix] = frozenset(),
        mode: BlockMode = BlockMode.STATIC,
        detect_delay_ms: float = 0.0,
        trigger_count: int = 1,
    ):
        if mode is BlockMode.REACTIVE and detect_delay_ms <= 0:
            raise ValueError("reactive mode requires a positive detect delay")
        if trigger_count < 1:
            raise ValueError("trigger count must be at least 1")
        self.mode = mode
        self.detect_delay_ms = detect_delay_ms
        self.trigger_count = trigger_count
        self._dst_counts: dict[int, int] = {}
        self._pending: dict[int, float] = {}  # destination key -> time its block starts
        self._index = PrefixIndex(
            e if isinstance(e, Prefix) else Prefix(e, e.width) for e in blocked
        )


def filter_packet(policy: BlockPolicy, packet: Packet, at: float) -> Verdict:
    """Verdict for one packet observed at time `at`; advances reactive state.

    A packet is blocked when its source or destination is listed: inside
    a blocked prefix or address, or a reactive block that has started by
    `at`. The packet path calls this once per tapped crossing, so the
    reactive count and both checks are done here, each skipped when
    there is nothing to look in.
    """
    src, dst = packet.src, packet.dst
    pending = policy._pending
    if policy.mode is BlockMode.REACTIVE:
        key = dst.key
        counts = policy._dst_counts
        count = counts[key] = counts.get(key, 0) + 1
        if count == policy.trigger_count:  # true once per destination
            pending[key] = at + policy.detect_delay_ms
    index = policy._index
    if index.buckets and (
        longest_match(index, src) is not None or longest_match(index, dst) is not None
    ):
        return Verdict.BLOCK
    if pending and (at >= pending.get(src.key, _NEVER) or at >= pending.get(dst.key, _NEVER)):
        return Verdict.BLOCK
    return Verdict.PASS


def extract_hop_intervals(tap: ObserverTap) -> list[float]:
    """Inter-hop intervals of the peer that hops within the tap's pool:
    the gaps between the tap's destination changes."""
    changes = tap.changes
    return [b - a for a, b in zip(changes, changes[1:])]


def timing_detect(intervals: list[float], background: DhmmModel, reference_seed: int = 0) -> float:
    """Distance between observed intervals and an equal-size background sample.

    Both are symbolized over the model's own alphabet. The caller compares
    the statistic against its own threshold; this function only measures.
    """
    if not intervals:
        raise EmptyInput("no intervals to analyze")
    reference = start_sampler(background, reference_seed).take(len(intervals))
    return distribution_distance(intervals, reference, background.alphabet)
