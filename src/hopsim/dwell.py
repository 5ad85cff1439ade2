"""Dwell-time modeling over an interval alphabet.

A hopping endpoint that changes address on a fixed timer is trivially
fingerprintable, so dwell times are drawn from a deterministic hidden
Markov model inferred from a background trace of ordinary inter-change
intervals. "Deterministic" means each (state, emitted symbol) pair has
exactly one successor state, which makes the model a history automaton:
states are the k most recent symbols, transition probabilities are the
empirical conditional frequencies of the next symbol.

Durations are simulated milliseconds throughout.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .errors import (
    AbsorbingState,
    EmptyAlphabet,
    EmptyModel,
    InsufficientData,
    UnknownModel,
)
from .rng import SplitMix64
from .values import Frozen, _set

PROBABILITY_TOLERANCE = 1e-9


class IntervalBin(Frozen):
    __slots__ = _fields = ("symbol", "lower_ms", "upper_ms")


class IntervalAlphabet(Frozen):
    """Contiguous, non-overlapping bins mapping durations to symbols.

    Bin k covers the half-open interval (lower, upper]; a degenerate bin
    with lower == upper matches exactly that value. Positive durations
    outside the covered range clamp to the nearest edge bin, so foreign
    samples can still be symbolized for distribution comparison.
    """

    __slots__ = ("bins", "_uppers")
    _fields = ("bins",)

    def __init__(self, bins: tuple[IntervalBin, ...]):
        if not bins:
            raise EmptyAlphabet("alphabet needs at least one bin")
        for i, b in enumerate(bins):
            if b.symbol != i:
                raise ValueError("bin symbols must be 0..n-1 in order")
            if b.lower_ms > b.upper_ms or b.lower_ms < 0:
                raise ValueError(f"bad bin bounds ({b.lower_ms}, {b.upper_ms}]")
            if i > 0 and b.lower_ms != bins[i - 1].upper_ms:
                raise ValueError("bins must be contiguous")
        super().__init__(bins)
        _set(self, "_uppers", [b.upper_ms for b in bins])

    def __len__(self) -> int:
        return len(self.bins)

    def symbolize(self, duration_ms: float) -> int:
        if duration_ms <= 0:
            raise ValueError("durations must be positive")
        idx = bisect_left(self._uppers, duration_ms)
        if idx >= len(self.bins):
            return len(self.bins) - 1
        return idx

    def histogram(self, durations: list[float]) -> list[float]:
        """Normalized symbol frequencies of a duration sample."""
        counts = [0] * len(self.bins)
        for d in durations:
            counts[self.symbolize(d)] += 1
        total = len(durations)
        return [c / total for c in counts]

    def dump_lines(self) -> list[str]:
        return [f"{b.symbol},{b.lower_ms!r},{b.upper_ms!r}" for b in self.bins]


def quantile_alphabet(trace: list[float], bins: int = 8) -> IntervalAlphabet:
    """Equal-frequency bins over a training trace.

    Duplicate quantile edges collapse, so a constant trace yields a
    single bin. The first bin starts at 0 and the last ends at the trace
    maximum.
    """
    if not trace:
        raise InsufficientData("empty trace")
    if bins < 1:
        raise ValueError("need at least one bin")
    if min(trace) <= 0:
        raise ValueError("durations must be positive")
    ordered = sorted(trace)
    edges = [0.0]
    for k in range(1, bins):
        # Upper edge of the k-th equal-count slice: the last element whose
        # rank falls inside it, so tied values land in one bin.
        q = ordered[(k * len(ordered) - 1) // bins]
        if q > edges[-1]:
            edges.append(q)
    if ordered[-1] > edges[-1]:
        edges.append(ordered[-1])
    out = tuple(
        IntervalBin(i, lo, hi) for i, (lo, hi) in enumerate(zip(edges, edges[1:]))
    )
    return IntervalAlphabet(out)


class Transition(Frozen):
    __slots__ = _fields = ("from_state", "symbol", "to_state", "probability")


class DhmmModel(Frozen):
    """Deterministic HMM: unique successor per (state, symbol).

    Every state with outgoing transitions has probabilities summing to 1
    within PROBABILITY_TOLERANCE; states without outgoing transitions
    are absorbing and only legal as trace endpoints.
    """

    # `_outgoing` holds each state's transitions, ordered by symbol.
    __slots__ = ("num_states", "num_symbols", "transitions", "alphabet", "_outgoing")
    _fields = ("num_states", "num_symbols", "transitions", "alphabet")

    def __init__(
        self,
        num_states: int,
        num_symbols: int,
        transitions: tuple[Transition, ...],
        alphabet: IntervalAlphabet,
    ):
        seen: set[tuple[int, int]] = set()
        by_state: dict[int, list[Transition]] = {}
        for t in transitions:
            if not (0 <= t.from_state < num_states and 0 <= t.to_state < num_states):
                raise ValueError(f"transition references unknown state: {t}")
            if not 0 <= t.symbol < num_symbols:
                raise ValueError(f"transition references unknown symbol: {t}")
            if (t.from_state, t.symbol) in seen:
                raise ValueError(f"duplicate (state, symbol) pair: {t}")
            if t.probability <= 0:
                raise ValueError("transition probabilities must be positive")
            seen.add((t.from_state, t.symbol))
            by_state.setdefault(t.from_state, []).append(t)
        for state, ts in by_state.items():
            total = sum(t.probability for t in ts)
            if abs(total - 1.0) > PROBABILITY_TOLERANCE:
                raise ValueError(f"state {state} probabilities sum to {total}")
        if len(alphabet) != num_symbols:
            raise ValueError("alphabet size disagrees with num_symbols")
        super().__init__(num_states, num_symbols, transitions, alphabet)
        _set(self, "_outgoing", {
            s: tuple(sorted(ts, key=lambda t: t.symbol)) for s, ts in by_state.items()
        })

    def transitions_from(self, state: int) -> tuple[Transition, ...]:
        return self._outgoing.get(state, ())

    def dump_lines(self) -> list[str]:
        lines = [f"states={self.num_states} symbols={self.num_symbols}"]
        lines += [
            f"{t.from_state},{t.symbol},{t.to_state},{t.probability!r}"
            for t in self.transitions
        ]
        lines += self.alphabet.dump_lines()
        return lines

    def to_text(self) -> str:
        return "\n".join(self.dump_lines()) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DhmmModel":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("states="):
            raise ValueError("missing model header")
        head = dict(part.split("=", 1) for part in lines[0].split())
        num_states, num_symbols = int(head["states"]), int(head["symbols"])
        transitions: list[Transition] = []
        bins: list[IntervalBin] = []
        for ln in lines[1:]:
            fields = ln.split(",")
            if len(fields) == 4:
                transitions.append(
                    Transition(int(fields[0]), int(fields[1]), int(fields[2]), float(fields[3]))
                )
            elif len(fields) == 3:
                bins.append(IntervalBin(int(fields[0]), float(fields[1]), float(fields[2])))
            else:
                raise ValueError(f"unparseable model line: {ln}")
        return cls(num_states, num_symbols, tuple(transitions), IntervalAlphabet(tuple(bins)))


# --- dwell sources ---------------------------------------------------------


class FixedDwell(Frozen):
    __slots__ = _fields = ("ms",)

    @property
    def model_id(self) -> str:
        return f"fixed:{self.ms!r}"


class UniformDwell(Frozen):
    __slots__ = _fields = ("low_ms", "high_ms")

    @property
    def model_id(self) -> str:
        return f"uniform:{self.low_ms!r}:{self.high_ms!r}"


class DhmmDwell(Frozen):
    __slots__ = _fields = ("name", "model")

    @property
    def model_id(self) -> str:
        return self.name


DwellSource = FixedDwell | UniformDwell | DhmmDwell


def resolve_dwell_source(model_id: str, models: dict[str, DhmmModel]) -> DwellSource:
    """Turn a payload's dwell-model id back into a usable source.

    Registered names are looked up first, so a model whose name happens
    to start with ``fixed:`` or ``uniform:`` still resolves to itself.
    """
    if model_id in models:
        return DhmmDwell(model_id, models[model_id])
    if model_id.startswith("fixed:"):
        return FixedDwell(float(model_id.split(":", 1)[1]))
    if model_id.startswith("uniform:"):
        _, lo, hi = model_id.split(":")
        return UniformDwell(float(lo), float(hi))
    raise UnknownModel(f"no dwell model registered under {model_id!r}")


def infer_dhmm(trace: list[float], alphabet: IntervalAlphabet, order: int = 1) -> DhmmModel:
    """Fit an order-`order` history automaton to a duration trace.

    States are the distinct `order`-length symbol histories observed in
    the symbolized trace; transition probabilities are the empirical
    conditional frequencies of the following symbol. Unseen pairs get no
    transition (no smoothing), which keeps normalization exact.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    symbols = [alphabet.symbolize(d) for d in trace]
    if len(symbols) < order + 1:
        raise InsufficientData(f"trace of {len(symbols)} intervals, order {order}")
    histories = [tuple(symbols[i : i + order]) for i in range(len(symbols) - order + 1)]
    states = sorted(set(histories))
    index = {h: i for i, h in enumerate(states)}
    counts: dict[tuple[tuple[int, ...], int], int] = {}
    totals: dict[tuple[int, ...], int] = {}
    for i in range(len(histories) - 1):
        h, nxt = histories[i], symbols[i + order]
        counts[h, nxt] = counts.get((h, nxt), 0) + 1
        totals[h] = totals.get(h, 0) + 1
    transitions = tuple(
        Transition(index[h], sym, index[h[1:] + (sym,)], c / totals[h])
        for (h, sym), c in sorted(counts.items())
    )
    return DhmmModel(len(states), len(alphabet), transitions, alphabet)


def check_walkable(model: DhmmModel) -> None:
    """Raise unless a walk can start in any state of `model` and keep going.

    A sampler starts in a seeded state and emits a dwell from each bin it
    visits, so a state without transitions, or a bin whose dwells are not
    positive and finite, would fail a run for some seeds.
    """
    if model.num_states < 1:
        raise EmptyModel("model has no states")
    for state in range(model.num_states):
        if not model.transitions_from(state):
            raise AbsorbingState(f"state {state} has no outgoing transitions")
    for b in model.alphabet.bins:
        if not (math.isfinite(b.lower_ms) and 0 < b.upper_ms < math.inf):
            raise ValueError(f"bin {b.symbol} needs finite bounds above 0")


class DwellSampler:
    """Mutable walk over a DhmmModel; owns its PRNG state.

    Safe to hand between threads but not to share: every draw advances
    both the PRNG and the current state.
    """

    __slots__ = ("model", "current_state", "_rng")

    def __init__(self, model: DhmmModel, current_state: int, rng: SplitMix64):
        self.model = model
        self.current_state = current_state
        self._rng = rng

    def next_dwell(self) -> float:
        """Take one weighted transition and emit a duration from its bin."""
        outgoing = self.model.transitions_from(self.current_state)
        if not outgoing:
            raise AbsorbingState(f"state {self.current_state} has no outgoing transitions")
        r = self._rng.random()
        acc = 0.0
        chosen = outgoing[-1]
        for t in outgoing:
            acc += t.probability
            if r < acc:
                chosen = t
                break
        self.current_state = chosen.to_state
        b = self.model.alphabet.bins[chosen.symbol]
        # upper - span*u lies in (lower, upper], matching bin semantics
        # and keeping emitted dwells strictly positive.
        return b.upper_ms - (b.upper_ms - b.lower_ms) * self._rng.random()

    def take(self, n: int) -> list[float]:
        return [self.next_dwell() for _ in range(n)]


def start_sampler(model: DhmmModel, seed: int) -> DwellSampler:
    """Sampler started in a uniformly seeded state; deterministic in (model, seed)."""
    if model.num_states == 0:
        raise EmptyModel("model has no states")
    rng = SplitMix64(seed)
    return DwellSampler(model, rng.below(model.num_states), rng)


def distribution_distance(
    sample_a: list[float], sample_b: list[float], alphabet: IntervalAlphabet
) -> float:
    """L1 distance between symbolized empirical distributions (2x total variation)."""
    if not sample_a or not sample_b:
        raise ValueError("samples must be non-empty")
    pa, pb = alphabet.histogram(sample_a), alphabet.histogram(sample_b)
    return sum(abs(x - y) for x, y in zip(pa, pb))


def load_trace_text(text: str) -> list[float]:
    """Parse a one-interval-per-line millisecond trace."""
    out = []
    for i, ln in enumerate(text.splitlines(), 1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            value = float(ln)
        except ValueError as exc:
            raise ValueError(f"line {i}: not a duration: {ln!r}") from exc
        if value <= 0:
            raise ValueError(f"line {i}: durations must be positive")
        out.append(value)
    return out
