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


class EmptyInput(HopsimError):
    """Timing analysis invoked on an empty interval list."""


class Verdict(Enum):
    PASS = "pass"
    BLOCK = "block"


class ObserverTap:
    """Passive log of packets crossing one link, in time order."""

    __slots__ = ("crossings", "log")

    def __init__(self, link: tuple[int, int]):
        # The (from AS, to AS) pairs it watches: its link, crossed either way.
        self.crossings = frozenset((link, link[::-1]))
        self.log: list[tuple[float, Address, Address]] = []

    def observe(self, t: float, packet: Packet) -> None:
        if self.log and t < self.log[-1][0]:
            raise ValueError("tap log must stay time-ordered")
        self.log.append((t, packet.src, packet.dst))


class BlockMode(Enum):
    STATIC = "static"
    REACTIVE = "reactive"


class BlockPolicy:
    """Address filter; reactive mode learns destinations it has seen.

    `blocked` is fixed at construction (any iterable is frozen), and is
    indexed then: one `PrefixIndex` holds its prefixes, and each of its
    addresses as a host-length prefix. The reactive state is keyed by
    `Address.key`, so a filtered packet hashes ints only.

    In reactive mode a destination observed `trigger_count` times is
    added to the blocked set `detect_delay_ms` after its first
    qualifying observation — the knob that models how fast the filter
    operator reacts.
    """

    __slots__ = (
        "blocked", "mode", "detect_delay_ms", "trigger_count",
        "_dst_counts", "_pending", "_index",
    )

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
        self.blocked = frozenset(blocked)
        self.mode = mode
        self.detect_delay_ms = detect_delay_ms
        self.trigger_count = trigger_count
        self._dst_counts: dict[int, int] = {}
        self._pending: dict[int, float] = {}  # destination key -> time its block starts
        self._index = PrefixIndex(
            e if isinstance(e, Prefix) else Prefix(e, e.width) for e in self.blocked
        )

    def _listed(self, address: Address, at: float) -> bool:
        if longest_match(self._index, address) is not None:
            return True
        activation = self._pending.get(address.key)
        return activation is not None and at >= activation

    def observe(self, packet: Packet, at: float) -> None:
        if self.mode is not BlockMode.REACTIVE:
            return
        dst = packet.dst.key
        count = self._dst_counts.get(dst, 0) + 1
        self._dst_counts[dst] = count
        if count == self.trigger_count and dst not in self._pending:
            self._pending[dst] = at + self.detect_delay_ms


def filter_packet(policy: BlockPolicy, packet: Packet, at: float) -> Verdict:
    """Verdict for one packet observed at time `at`; advances reactive state."""
    policy.observe(packet, at)
    if policy._listed(packet.src, at) or policy._listed(packet.dst, at):
        return Verdict.BLOCK
    return Verdict.PASS


def extract_hop_intervals(tap: ObserverTap, pool: PrefixPool) -> list[float]:
    """Inter-hop intervals of the peer that hops within `pool`.

    The pool is public: routing announces its prefixes. The observed
    packets bound for it form the flow, and a change of their
    destination marks a hop; flows to other destinations are ignored.
    """
    change_times: list[float] = []
    last_dst: int | None = None
    for t, _, dst in tap.log:
        # The key test comes first, so the pool is probed once per hop.
        if dst.key != last_dst and pool.contains(dst):
            change_times.append(t)
            last_dst = dst.key
    return [b - a for a, b in zip(change_times, change_times[1:])]


def timing_detect(intervals: list[float], background: DhmmModel, reference_seed: int = 0) -> float:
    """Distance between observed intervals and an equal-size background sample.

    Both are symbolized over the model's own alphabet. The caller compares
    the statistic against its own threshold; this function only measures.
    """
    if not intervals:
        raise EmptyInput("no intervals to analyze")
    reference = start_sampler(background, reference_seed).take(len(intervals))
    return distribution_distance(intervals, reference, background.alphabet)
