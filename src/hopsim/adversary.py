"""On-path observation, IP blocklists, and hop-timing analysis.

The observer sits on one inter-AS link and sees every packet crossing
it. Blocking is the baseline attack: a static list of known addresses,
or a reactive list that adds any sufficiently-used destination after a
detection delay. Timing analysis symbolizes the observed inter-hop
intervals and compares them against a background dwell model; the
statistic is the same L1 distance the dwell module uses, so both sides
of the arms race measure with one ruler.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum

from .addressing import Address, Prefix, PrefixIndex
from .dwell import DhmmModel, IntervalAlphabet, distribution_distance, start_sampler
from .errors import HopsimError
from .flowtable import Packet


class EmptyInput(HopsimError):
    """Timing analysis invoked on an empty interval list."""


class Verdict(Enum):
    PASS = "pass"
    BLOCK = "block"


class ObserverTap:
    """Passive log of packets crossing one link, in time order."""

    __slots__ = ("link", "log")

    def __init__(
        self, link: tuple[int, int], log: list[tuple[float, Address, Address]] | None = None
    ):
        self.link = link
        self.log = [] if log is None else log

    def watches(self, a: int, b: int) -> bool:
        """True if (a, b) is the tapped link, in either direction."""
        x, y = self.link
        return (a == x and b == y) or (a == y and b == x)

    def observe(self, t: float, packet: Packet) -> None:
        if self.log and t < self.log[-1][0]:
            raise ValueError("tap log must stay time-ordered")
        self.log.append((t, packet.src, packet.dst))

    def dump_lines(self) -> list[str]:
        """Tap log in the event-trace line format."""
        return [
            f"{t:.3f},adversary,observe,src={src};dst={dst}"
            for t, src, dst in self.log
        ]


class BlockMode(Enum):
    STATIC = "static"
    REACTIVE = "reactive"


class BlockPolicy:
    """Address filter; reactive mode learns destinations it has seen.

    `blocked` is fixed at construction (any iterable is frozen), and is
    indexed then: its addresses as a set of `Address.key`, its prefixes
    by length. The reactive state is keyed by `Address.key` too, so a
    filtered packet hashes ints only.

    In reactive mode a destination observed `trigger_count` times is
    added to the blocked set `detect_delay_ms` after its first
    qualifying observation — the knob that models how fast the filter
    operator reacts.
    """

    __slots__ = (
        "blocked", "mode", "detect_delay_ms", "trigger_count",
        "_dst_counts", "_pending", "_addresses", "_prefixes",
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
        self._addresses = frozenset(e.key for e in self.blocked if not isinstance(e, Prefix))
        self._prefixes = PrefixIndex(e for e in self.blocked if isinstance(e, Prefix))

    def _listed(self, address: Address, at: float) -> bool:
        key = address.key
        if key in self._addresses or self._prefixes.longest(address) is not None:
            return True
        activation = self._pending.get(key)
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


def extract_hop_intervals(tap: ObserverTap, flow_src: Address | None = None) -> list[float]:
    """Inter-hop intervals of the hopping peer as seen from one flow.

    Observed packets are grouped by source; within the selected group,
    the peer (destination) address changing marks a hop. When no source
    is given, the group with the most distinct destinations is taken:
    that is the flow tracking a hopping peer, and unrelated background
    flows do not disturb it.
    """
    # Keyed by `Address.key`, whose top bits are the address bits: ties
    # between groups go to the lowest source address.
    groups: dict[int, list[tuple[float, int]]] = {}
    for t, src, dst in tap.log:
        groups.setdefault(src.key, []).append((t, dst.key))
    if flow_src is not None:
        sequence = groups.get(flow_src.key, [])
    elif groups:
        chosen = max(groups, key=lambda s: (len({d for _, d in groups[s]}), -(s >> 1)))
        sequence = groups[chosen]
    else:
        sequence = []
    change_times: list[float] = []
    last_dst: int | None = None
    for t, dst in sequence:
        if dst != last_dst:
            change_times.append(t)
            last_dst = dst
    return [b - a for a, b in zip(change_times, change_times[1:])]


def timing_detect(
    intervals: list[float],
    background: DhmmModel,
    alphabet: IntervalAlphabet,
    reference_seed: int = 0,
) -> float:
    """Distance between observed intervals and an equal-size background sample.

    The caller compares the statistic against its own threshold; this
    function only measures.
    """
    if not intervals:
        raise EmptyInput("no intervals to analyze")
    reference = start_sampler(background, reference_seed).take(len(intervals))
    return distribution_distance(intervals, reference, alphabet)
