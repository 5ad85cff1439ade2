import pytest

from hopsim.dwell import (
    DhmmModel,
    IntervalAlphabet,
    IntervalBin,
    Transition,
    distribution_distance,
    infer_dhmm,
    load_trace_text,
    quantile_alphabet,
    start_sampler,
)
from hopsim.errors import AbsorbingState, EmptyAlphabet, EmptyModel, InsufficientData
from hopsim.rng import SplitMix64


def alphabet_of(*edges: float) -> IntervalAlphabet:
    bins = tuple(
        IntervalBin(i, lo, hi) for i, (lo, hi) in enumerate(zip((0.0,) + edges, edges))
    )
    return IntervalAlphabet(bins)


def symbol_chain(symbols: int, rows: dict[int, dict[int, float]], width=100.0) -> DhmmModel:
    """Markov chain over symbols expressed as a deterministic HMM:
    state i emits symbol j with rows[i][j] and moves to state j."""
    alphabet = alphabet_of(*[(k + 1) * width for k in range(symbols)])
    transitions = tuple(
        Transition(i, j, j, p) for i, row in sorted(rows.items()) for j, p in sorted(row.items())
    )
    return DhmmModel(symbols, symbols, transitions, alphabet)


class TestIntervalAlphabet:
    def test_rejects_empty(self):
        with pytest.raises(EmptyAlphabet):
            IntervalAlphabet(())

    def test_rejects_gap_between_bins(self):
        with pytest.raises(ValueError):
            IntervalAlphabet((IntervalBin(0, 0.0, 5.0), IntervalBin(1, 6.0, 9.0)))

    def test_symbolize_half_open_bins(self):
        a = alphabet_of(5.0, 9.0)
        assert a.symbolize(5.0) == 0  # upper edge belongs to the lower bin
        assert a.symbolize(5.1) == 1
        assert a.symbolize(0.4) == 0

    def test_out_of_range_clamps(self):
        a = alphabet_of(5.0, 9.0)
        assert a.symbolize(50.0) == 1

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            alphabet_of(5.0).symbolize(0.0)

    def test_quantile_bins_equalize_mass(self):
        rng = SplitMix64(5)
        trace = [rng.uniform(10.0, 5000.0) for _ in range(8000)]
        a = quantile_alphabet(trace, 8)
        hist = a.histogram(trace)
        assert len(a) == 8
        for h in hist:
            assert abs(h - 0.125) < 0.01

    def test_quantile_bins_collapse_ties(self):
        a = quantile_alphabet([100.0, 900.0] * 50, 2)
        assert [b.upper_ms for b in a.bins] == [100.0, 900.0]

    def test_quantile_constant_trace_single_bin(self):
        a = quantile_alphabet([10_000.0] * 40, 8)
        assert len(a) == 1

    @pytest.mark.parametrize("bins", [1_000, 10**5, 10**6, 2**64])
    def test_quantile_bins_beyond_the_trace_end_at_each_distinct_value(self, bins):
        rng = SplitMix64(6)
        trace = [float(1 + rng.below(700)) for _ in range(1_000)]  # ties among them
        a = quantile_alphabet(trace, bins)
        assert [b.upper_ms for b in a.bins] == sorted(set(trace))
        assert a.bins[0].lower_ms == 0.0


class TestInference:
    def test_constant_trace_single_self_loop(self):
        a = quantile_alphabet([10_000.0] * 100, 8)
        m = infer_dhmm([10_000.0] * 100, a, order=1)
        assert m.num_states == 1
        assert m.transitions == (Transition(0, 0, 0, 1.0),)

    def test_alternating_trace_two_states(self):
        trace = [100.0, 900.0] * 100
        a = alphabet_of(100.0, 900.0)
        m = infer_dhmm(trace, a, order=1)
        assert m.num_states == 2
        # From state (a): emit b with certainty; from (b): emit a.
        assert set(m.transitions) == {Transition(0, 1, 1, 1.0), Transition(1, 0, 0, 1.0)}

    def test_insufficient_data(self):
        a = alphabet_of(10.0)
        with pytest.raises(InsufficientData):
            infer_dhmm([5.0], a, order=1)
        with pytest.raises(InsufficientData):
            infer_dhmm([5.0, 5.0], a, order=2)

    def test_probabilities_normalized_per_state(self):
        rng = SplitMix64(17)
        trace = [rng.uniform(1.0, 1000.0) for _ in range(5000)]
        a = quantile_alphabet(trace, 6)
        m = infer_dhmm(trace, a, order=1)
        sums: dict[int, float] = {}
        for t in m.transitions:
            sums[t.from_state] = sums.get(t.from_state, 0.0) + t.probability
        for total in sums.values():
            assert abs(total - 1.0) <= 1e-9

    def test_determinism_invariant_structural(self):
        rng = SplitMix64(23)
        trace = [rng.uniform(1.0, 1000.0) for _ in range(3000)]
        a = quantile_alphabet(trace, 5)
        for order in (1, 2, 3):
            m = infer_dhmm(trace, a, order=order)
            pairs = [(t.from_state, t.symbol) for t in m.transitions]
            assert len(pairs) == len(set(pairs))

    def test_generate_then_infer_recovers_probabilities(self):
        truth = symbol_chain(2, {0: {0: 0.7, 1: 0.3}, 1: {0: 0.4, 1: 0.6}})
        sample = start_sampler(truth, 99).take(100_000)
        inferred = infer_dhmm(sample, truth.alphabet, order=1)
        got = {(t.from_state, t.symbol): t.probability for t in inferred.transitions}
        for t in truth.transitions:
            assert got[(t.from_state, t.symbol)] == pytest.approx(t.probability, abs=0.02)

    def test_order_two_captures_period_two_structure(self):
        # Period-4 symbol pattern: order-2 histories resolve it exactly.
        trace = [100.0, 100.0, 900.0, 900.0] * 200
        a = alphabet_of(100.0, 900.0)
        m = infer_dhmm(trace, a, order=2)
        assert m.num_states == 4
        for t in m.transitions:
            assert t.probability == 1.0


class TestSampler:
    def test_single_state_model(self):
        m = symbol_chain(1, {0: {0: 1.0}})
        s = start_sampler(m, 12345)
        assert s.current_state == 0

    def test_start_state_uniform_over_seeds(self):
        m = symbol_chain(4, {i: {j: 0.25 for j in range(4)} for i in range(4)})
        counts = [0] * 4
        for seed in range(10_000):
            counts[start_sampler(m, seed).current_state] += 1
        for c in counts:
            assert abs(c / 10_000 - 0.25) < 0.02

    def test_same_seed_same_sampler(self):
        m = symbol_chain(3, {i: {j: 1 / 3 for j in range(3)} for i in range(3)})
        a, b = start_sampler(m, 42), start_sampler(m, 42)
        assert a.current_state == b.current_state
        assert a.take(50) == b.take(50)

    def test_empty_model(self):
        a = alphabet_of(10.0)
        empty = DhmmModel(0, 1, (), a)
        with pytest.raises(EmptyModel):
            start_sampler(empty, 1)

    def test_degenerate_bin_emits_exact_value(self):
        a = IntervalAlphabet((IntervalBin(0, 10_000.0, 10_000.0),))
        m = DhmmModel(1, 1, (Transition(0, 0, 0, 1.0),), a)
        s = start_sampler(m, 8)
        assert s.take(20) == [10_000.0] * 20

    def test_branch_frequencies_match_weights(self):
        m = symbol_chain(2, {0: {0: 0.7, 1: 0.3}, 1: {0: 0.7, 1: 0.3}})
        s = start_sampler(m, 31)
        n = 100_000
        hits = sum(1 for _ in range(n) if m.alphabet.symbolize(s.next_dwell()) == 0)
        assert abs(hits / n - 0.7) < 0.01

    def test_alternating_model_alternates(self):
        trace = [100.0, 900.0] * 100
        a = alphabet_of(100.0, 900.0)
        m = infer_dhmm(trace, a, order=1)
        s = start_sampler(m, 77)
        symbols = [a.symbolize(d) for d in s.take(40)]
        assert all(x != y for x, y in zip(symbols, symbols[1:]))

    def test_absorbing_state_is_an_error(self):
        a = alphabet_of(10.0, 20.0)
        # State 1 has no outgoing transitions.
        m = DhmmModel(2, 2, (Transition(0, 1, 1, 1.0),), a)
        s = start_sampler(m, 0)
        s.current_state = 0
        s.next_dwell()
        with pytest.raises(AbsorbingState):
            s.next_dwell()

    def test_emitted_dwells_stay_inside_bins(self):
        m = symbol_chain(3, {i: {j: 1 / 3 for j in range(3)} for i in range(3)})
        s = start_sampler(m, 5)
        for _ in range(2000):
            state_before = s.current_state
            d = s.next_dwell()
            b = m.alphabet.bins[m.alphabet.symbolize(d)]
            assert b.lower_ms < d <= b.upper_ms
            assert s.current_state == m.alphabet.symbolize(d)  # chain moves to emitted symbol
            del state_before

    def test_full_reproducibility_of_dwell_sequence(self):
        m = symbol_chain(4, {i: {j: 0.25 for j in range(4)} for i in range(4)})
        assert start_sampler(m, 9).take(200) == start_sampler(m, 9).take(200)


class TestDistributionDistance:
    def test_identical_samples(self):
        a = alphabet_of(10.0, 20.0)
        sample = [5.0, 15.0, 5.0]
        assert distribution_distance(sample, sample, a) == 0.0

    def test_disjoint_single_symbol_samples(self):
        a = alphabet_of(10.0, 20.0)
        assert distribution_distance([5.0] * 10, [15.0] * 10, a) == 2.0

    def test_two_samples_from_one_model_are_close(self):
        m = symbol_chain(4, {i: {j: 0.25 for j in range(4)} for i in range(4)})
        x = start_sampler(m, 1).take(100_000)
        y = start_sampler(m, 2).take(100_000)
        assert distribution_distance(x, y, m.alphabet) < 0.02

    def test_empty_sample_rejected(self):
        a = alphabet_of(10.0)
        with pytest.raises(ValueError):
            distribution_distance([], [5.0], a)


class TestModelSerialization:
    def test_round_trip_exact(self):
        rng = SplitMix64(3)
        trace = [rng.uniform(2.0, 800.0) for _ in range(4000)]
        a = quantile_alphabet(trace, 8)
        m = infer_dhmm(trace, a, order=2)
        assert DhmmModel.from_text(m.to_text()) == m

    def test_header_line(self):
        m = symbol_chain(2, {0: {1: 1.0}, 1: {0: 1.0}})
        assert m.dump_lines()[0] == "states=2 symbols=2"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            DhmmModel.from_text("not a model\n")

    def test_rejects_nan_probabilities(self):
        # For NaN both `p <= 0` and `abs(total - 1) > tol` are False; a walk
        # of such a model always took the state's last transition.
        text = "states=2 symbols=2\n0,1,1,nan\n1,0,0,nan\n0,0.0,100.0\n1,100.0,900.0\n"
        with pytest.raises(ValueError, match="must be positive"):
            DhmmModel.from_text(text)

    def test_sampling_identical_after_reload(self):
        m = symbol_chain(3, {i: {j: 1 / 3 for j in range(3)} for i in range(3)})
        m2 = DhmmModel.from_text(m.to_text())
        assert start_sampler(m, 4).take(100) == start_sampler(m2, 4).take(100)


class TestTraceLoading:
    def test_parses_lines(self):
        assert load_trace_text("100.5\n\n# comment\n7\n") == [100.5, 7.0]

    def test_rejects_nonnumeric(self):
        with pytest.raises(ValueError):
            load_trace_text("12\nbogus\n")

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            load_trace_text("12\n-1\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rejects_non_finite(self, value):
        # `nan <= 0` is False, so a positive check alone lets NaN through.
        with pytest.raises(ValueError, match="line 3: "):
            load_trace_text(f"100\n200\n{value}\n300\n")


def test_massage_property_sampled_dwells_match_training_distribution():
    # A long sampled dwell sequence is statistically indistinguishable
    # (symbol-wise) from the trace the model was trained on.
    rng = SplitMix64(2024)
    trace = []
    for _ in range(100_000):
        u = rng.random()
        if u < 0.5:
            trace.append(rng.uniform(200.0, 2000.0))
        elif u < 0.8:
            trace.append(rng.uniform(2000.0, 8000.0))
        else:
            trace.append(rng.uniform(8000.0, 20000.0))
    alphabet = quantile_alphabet(trace, 8)
    model = infer_dhmm(trace, alphabet, order=1)
    massaged = start_sampler(model, 55).take(100_000)
    assert distribution_distance(massaged, trace, alphabet) < 0.05
