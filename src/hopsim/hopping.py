"""Seeded address sequences, hop schedules and collision odds.

The address draw picks a pool slot uniformly over the union of all
prefixes (so each prefix is weighted by its size), then redraws whenever
the result is an address the sequence already used, so a schedule never
repeats an address. Network/broadcast host values are not excluded; the
simulator does not model subnet semantics, which differs from what a
deployable rewriter would do.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .addressing import Address, Prefix, PrefixPool
from .errors import InvalidPool, LengthMismatch
from .rng import SplitMix64
from .values import Frozen, left_sum

# Above this draw count the exact no-collision product is replaced by
# the birthday-bound approximation.
EXACT_COLLISION_LIMIT = 1_000_000


def _draw(rng: SplitMix64, pool: PrefixPool) -> tuple[Address, Prefix]:
    slot = rng.below(pool.total_addresses)
    offsets = pool.offsets
    i = bisect_right(offsets, slot) - 1
    prefix = pool.prefixes[i]
    return Address(prefix.base.version, prefix.base.bits | (slot - offsets[i])), prefix


def generate_unique_addresses(seed: int, pool: PrefixPool, n: int) -> list[tuple[Address, Prefix]]:
    """Deterministic list of `n` distinct pool addresses, each with the
    pool prefix it was drawn from.

    Pure in (seed, pool, n): the output for `n` is a prefix of the output
    for any larger count. Distinct, so a session's external-address count
    is exact.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > pool.total_addresses:
        raise InvalidPool(f"pool holds {pool.total_addresses} addresses, {n} requested")
    rng = SplitMix64(seed)
    out: list[tuple[Address, Prefix]] = []
    used: set[Address] = set()
    for _ in range(n):
        address, prefix = _draw(rng, pool)
        while address in used:
            address, prefix = _draw(rng, pool)
        out.append((address, prefix))
        used.add(address)
    return out


class HopEntry(Frozen):
    """One dwell window: its address and the pool prefix that holds it,
    which is announced for the window."""

    __slots__ = _fields = ("address", "prefix", "dwell_ms")


class HopSchedule(Frozen):
    """Ordered (address, prefix, dwell) sequence derived from a seed."""

    __slots__ = _fields = ("entries",)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def total_ms(self) -> float:
        return left_sum(e.dwell_ms for e in self.entries)

    def start_times(self) -> list[float]:
        starts, t = [], 0.0
        for e in self.entries:
            starts.append(t)
            t += e.dwell_ms
        return starts


def build_schedule(seed: int, pool: PrefixPool, n: int, dwells: list[float]) -> HopSchedule:
    """Zip a seeded sequence of distinct addresses with caller-supplied dwells."""
    if len(dwells) != n:
        raise LengthMismatch(f"{len(dwells)} dwells for {n} addresses")
    for d in dwells:
        if d <= 0:
            raise ValueError("dwells must be positive")
    drawn = generate_unique_addresses(seed, pool, n)
    entries = tuple(HopEntry(a, p, float(d)) for (a, p), d in zip(drawn, dwells))
    return HopSchedule(entries)


def collision_probability(n: int, space_bits: int) -> float:
    """Probability of any repeat among `n` uniform draws from 2**space_bits.

    Exact product ``1 - prod(1 - k/m)`` (evaluated in log space so tiny
    probabilities survive) up to EXACT_COLLISION_LIMIT draws, after which
    the birthday approximation ``-expm1(-n(n-1)/2^(bits+1))`` takes over.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 1 <= space_bits <= 128:
        raise ValueError("space_bits must be in 1..128")
    if n <= 1:
        return 0.0
    m = 1 << space_bits
    if n > m:
        return 1.0
    if n <= EXACT_COLLISION_LIMIT:
        log_no_collision = 0.0
        for k in range(1, n):
            log_no_collision += math.log1p(-k / m)
        return -math.expm1(log_no_collision)
    return -math.expm1(-(n * (n - 1)) / float(1 << (space_bits + 1)))
