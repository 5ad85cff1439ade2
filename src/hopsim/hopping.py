"""Seeded address sequences, hop schedules and collision odds.

The address draw picks a pool slot uniformly over the union of all
prefixes (so each prefix is weighted by its size), then redraws whenever
the result equals the immediately preceding address. Network/broadcast
host values are not excluded; the simulator does not model subnet
semantics, which differs from what a deployable rewriter would do.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .addressing import Address, PrefixPool
from .errors import InvalidPool, LengthMismatch, OutOfSchedule
from .rng import SplitMix64
from .values import Frozen

# Above this draw count the exact no-collision product is replaced by
# the birthday-bound approximation.
EXACT_COLLISION_LIMIT = 1_000_000


def _draw(rng: SplitMix64, pool: PrefixPool) -> Address:
    slot = rng.below(pool.total_addresses)
    offsets = pool.offsets
    i = bisect_right(offsets, slot) - 1
    prefix = pool.prefixes[i]
    return Address(prefix.base.version, prefix.base.bits | (slot - offsets[i]))


def generate_addresses(seed: int, pool: PrefixPool, n: int) -> list[Address]:
    """Deterministic list of `n` pool addresses; consecutive entries differ.

    Pure in (seed, pool, n): the output for `n` is a prefix of the output
    for any larger count, and repeated calls are identical.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > 1 and pool.total_addresses < 2:
        raise InvalidPool("pool holds a single address; consecutive draws cannot differ")
    rng = SplitMix64(seed)
    out: list[Address] = []
    prev = None
    for _ in range(n):
        addr = _draw(rng, pool)
        while addr == prev:
            addr = _draw(rng, pool)
        out.append(addr)
        prev = addr
    return out


def generate_unique_addresses(seed: int, pool: PrefixPool, n: int) -> list[Address]:
    """Like :func:`generate_addresses` but with globally distinct results.

    Used for scenario schedules, where the distinct-address count is an
    exact metric. Redraws on any previously used address.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > pool.total_addresses:
        raise InvalidPool(f"pool holds {pool.total_addresses} addresses, {n} requested")
    rng = SplitMix64(seed)
    out: list[Address] = []
    used: set[Address] = set()
    for _ in range(n):
        addr = _draw(rng, pool)
        while addr in used:
            addr = _draw(rng, pool)
        out.append(addr)
        used.add(addr)
    return out


class HopEntry(Frozen):
    __slots__ = _fields = ("address", "dwell_ms")

    def __init__(self, address: Address, dwell_ms: float):
        self._init(address, dwell_ms)


class HopSchedule(Frozen):
    """Ordered (address, dwell) sequence derived from a seed."""

    __slots__ = _fields = ("seed", "entries")

    def __init__(self, seed: int, entries: tuple[HopEntry, ...]):
        self._init(seed, entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def total_ms(self) -> float:
        return sum(e.dwell_ms for e in self.entries)

    def start_times(self) -> list[float]:
        starts, t = [], 0.0
        for e in self.entries:
            starts.append(t)
            t += e.dwell_ms
        return starts

    def dump_lines(self) -> list[str]:
        """Line format ``index,address,dwell_ms`` for trace diffing."""
        return [f"{i},{e.address},{e.dwell_ms!r}" for i, e in enumerate(self.entries)]


def build_schedule(seed: int, pool: PrefixPool, n: int, dwells: list[float]) -> HopSchedule:
    """Zip a seeded sequence of distinct addresses with caller-supplied dwells."""
    if len(dwells) != n:
        raise LengthMismatch(f"{len(dwells)} dwells for {n} addresses")
    for d in dwells:
        if d <= 0:
            raise ValueError("dwells must be positive")
    addresses = generate_unique_addresses(seed, pool, n)
    entries = tuple(HopEntry(a, float(d)) for a, d in zip(addresses, dwells))
    return HopSchedule(seed=seed, entries=entries)


def active_address(schedule: HopSchedule, t_ms: float) -> tuple[int, Address]:
    """Entry whose half-open window [start, start+dwell) contains `t_ms`."""
    if t_ms < 0:
        raise OutOfSchedule(f"time {t_ms} before schedule start")
    starts = schedule.start_times()
    if not starts:
        raise OutOfSchedule("schedule is empty")
    idx = bisect_right(starts, t_ms) - 1
    entry = schedule.entries[idx]
    if t_ms >= starts[idx] + entry.dwell_ms:
        raise OutOfSchedule(f"time {t_ms} beyond schedule end")
    return idx, entry.address


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
