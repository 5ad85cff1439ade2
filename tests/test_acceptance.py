"""Acceptance suite: one test per criterion, tolerances pinned inline.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion; any failure is reported by pytest as usual.
"""

import json
import time
from fractions import Fraction

import numpy as np

from hopsim.addressing import Address, Prefix
from hopsim.adversary import timing_detect
from hopsim.cli import MACHINE_MARKER, main
from hopsim.config import ScenarioConfig
from hopsim.covert import PtrRecordSet, decode_payload, encode_payload
from hopsim.dwell import (
    Transition,
    DhmmModel,
    IntervalAlphabet,
    IntervalBin,
    infer_dhmm,
    start_sampler,
)
from hopsim.errors import CovertDecodeError
from hopsim.hopping import collision_probability
from hopsim.routing import announce, withdraw
from hopsim.rng import SplitMix64
from hopsim.session import Simulation

from conftest import flood
from test_adversary import background_model
from test_covert import dns_name_valid, random_payload
from test_routing import bfs_distances, random_connected_graph


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, detail


REPRO_CONFIG = """
[scenario]
seed = 42
n_hops = 111
grace_window_ms = 200
lead_time_ms = 1000
withdraw_lag_ms = 500
link_delay_ms = 10

[topology]
file = topo.txt

[server]
internal_ip = 10.0.0.1
attached_as = 3
pool = 184.164.243.0/24

[client]
internal_ip = 184.164.242.77
attached_as = 1

[dwell]
source = uniform
low_ms = 1000
high_ms = 10000

[traffic]
packets = 672
gap_ms = auto
"""


def write_repro(tmp_path, text=REPRO_CONFIG):
    (tmp_path / "topo.txt").write_text("1 2\n2 3\n")
    path = tmp_path / "repro.ini"
    path.write_text(text)
    return path


def test_criterion_1_paper_experiment_reproduction(tmp_path):
    config = ScenarioConfig.from_file(write_repro(tmp_path))
    started = time.monotonic()
    metrics = Simulation(config).run().metrics
    wall = time.monotonic() - started
    ok = (
        metrics.packets_delivered == 672
        and metrics.packets_sent == 672
        and metrics.distinct_external_ips_used == 111
        and metrics.mean_dwell_ms < 10_000.0
        and wall < 5.0
    )
    report(
        1,
        ok,
        f"delivered {metrics.packets_delivered}/672, "
        f"{metrics.distinct_external_ips_used}/111 distinct addresses, "
        f"mean dwell {metrics.mean_dwell_ms:.0f} ms, wall {wall:.2f} s",
    )


def test_criterion_2_blocking_resistance(tmp_path):
    # Hopping with every dwell below the 5 s detection delay.
    hopping_text = REPRO_CONFIG.replace("high_ms = 10000", "high_ms = 4500") + (
        "\n[adversary]\ntap = 1-2\npolicy = reactive\ndetect_delay_ms = 5000\n"
    )
    hopping = ScenarioConfig.from_file(write_repro(tmp_path, hopping_text))
    hm = Simulation(hopping).run().metrics
    hop_rate = hm.packets_delivered / hm.packets_sent

    baseline_text = """
[scenario]
seed = 42
n_hops = 1

[topology]
file = topo.txt

[server]
internal_ip = 184.164.243.10
attached_as = 3
pool = 184.164.243.0/24
hopping = false

[client]
internal_ip = 184.164.242.77
attached_as = 1

[dwell]
source = fixed
fixed_ms = 1000

[traffic]
packets = 672
gap_ms = 400

[adversary]
tap = 1-2
policy = reactive
detect_delay_ms = 5000
"""
    base_dir = tmp_path / "baseline"
    base_dir.mkdir()
    baseline = ScenarioConfig.from_file(write_repro(base_dir, baseline_text))
    result = Simulation(baseline).run()
    block_time = min(
        float(ln.split(",")[0]) for ln in result.trace if ",adversary,block," in ln
    )
    sent_after = sum(
        1 for ln in result.trace
        if ",traffic,send," in ln and float(ln.split(",")[0]) > block_time
    )
    delivered_after = sum(
        1 for ln in result.trace
        if ",traffic,deliver," in ln and float(ln.split(",")[0]) > block_time
    )
    base_rate_after = delivered_after / sent_after if sent_after else 0.0
    ok = hop_rate >= 0.99 and base_rate_after <= 0.01
    report(
        2,
        ok,
        f"hopping delivery {hop_rate:.3f} >= 0.99; static delivery after block "
        f"{base_rate_after:.3f} <= 0.01 ({delivered_after}/{sent_after})",
    )


def test_criterion_3_massage_efficacy():
    model = background_model()
    massaged = start_sampler(model, 4242).take(10_000)
    stat_massaged = timing_detect(massaged, model, reference_seed=77)

    stat_fixed = timing_detect([10_000.0] * 10_000, model, reference_seed=78)

    null_hits = 0
    for trial in range(100):
        sample = start_sampler(model, 1_000 + trial).take(10_000)
        if timing_detect(sample, model, reference_seed=50_000 + trial) < 0.05:
            null_hits += 1

    ok = stat_massaged < 0.05 and stat_fixed > 0.5 and null_hits >= 95
    report(
        3,
        ok,
        f"massaged {stat_massaged:.4f} < 0.05; fixed-rate {stat_fixed:.3f} > 0.5; "
        f"null calibration {null_hits}/100 below 0.05",
    )


def _criterion_4_graphs():
    """The 50 seeded random graphs of criterion 4, each with its origin."""
    rng = SplitMix64(0xBEEF)
    for case in range(50):
        size = 2 + rng.below(49)  # up to 50 nodes
        yield case, random_connected_graph(rng, size), rng.below(size) + 1


def test_criterion_4_route_simulator_oracle():
    prefix = Prefix.parse("184.164.243.0/24")
    checked_nodes = 0
    for case, graph, origin in _criterion_4_graphs():
        initial_ribs = {asn: dict(n.rib) for asn, n in graph.nodes.items()}
        announce(graph, prefix, origin)
        flood(graph, prefix)
        distances = bfs_distances(graph, origin)
        for asn, node in graph.nodes.items():
            assert len(node.rib[prefix.key]) == distances[asn], (case, asn)
            checked_nodes += 1
        withdraw(graph, prefix, origin)
        flood(graph, prefix)
        assert {asn: dict(n.rib) for asn, n in graph.nodes.items()} == initial_ribs, case
    report(4, True, f"50 graphs, {checked_nodes} node paths equal BFS; ribs restored exactly")


def test_withdrawal_convergence_is_bounded_by_announce_work():
    # Path exploration made withdrawals on these graphs cost 2.27M
    # steps against 3,265 for the announcements; down the origin's tree,
    # each costs one rib change per AS but the origin.
    prefix = Prefix.parse("184.164.243.0/24")
    announce_steps = withdraw_steps = 0
    for _, graph, origin in _criterion_4_graphs():
        announce(graph, prefix, origin)
        announce_steps += flood(graph, prefix)
        withdraw(graph, prefix, origin)
        withdraw_steps += flood(graph, prefix)
    assert withdraw_steps <= 10 * announce_steps, (withdraw_steps, announce_steps)


def test_criterion_5_collision_probability():
    worst = 0.0
    for bits in range(1, 9):
        m = 1 << bits
        for n in range(0, 17):
            if n > m:
                exact = 1.0
            else:
                clear = Fraction(1)
                for k in range(n):
                    clear *= Fraction(m - k, m)
                exact = float(1 - clear)
            worst = max(worst, abs(collision_probability(n, bits) - exact))
    assert worst <= 1e-12

    rng = np.random.default_rng(20240809)
    trials, per, hits = 1_000_000, 1000, 0
    for _ in range(trials // 20_000):
        draws = rng.integers(0, 1 << 16, size=(20_000, per), dtype=np.uint16)
        draws.sort(axis=1)
        hits += int((np.diff(draws, axis=1) == 0).any(axis=1).sum())
    mc = hits / trials
    formula = collision_probability(1000, 16)
    rel = abs(formula - mc) / mc

    # A figure of 3.906e-28 is sometimes quoted for mapping the whole v4
    # space into v6; the birthday bound gives ~2**-65 ~ 2.7e-20. The
    # discrepancy is recorded here, not tuned away.
    full_map = collision_probability(2**32, 128)
    documents_discrepancy = (
        abs(full_map - 2.0**-65) / 2.0**-65 < 1e-6 and abs(full_map - 3.906e-28) > 1e-21
    )

    ok = worst <= 1e-12 and rel < 0.02 and documents_discrepancy
    report(
        5,
        ok,
        f"enumeration gap {worst:.1e} <= 1e-12; Monte-Carlo rel err {rel:.2e} < 2%; "
        f"v4->v6 figure reported as {full_map:.3e} (birthday bound), not 3.906e-28",
    )


def test_criterion_6_covert_channel():
    anchor = Address.parse("203.0.113.9")
    rng = SplitMix64(0xC0FFEE)

    names_checked = 0
    for _ in range(10_000):
        payload = random_payload(rng)
        records = encode_payload(payload, anchor)
        for name in records.names:
            assert dns_name_valid(name), name
            names_checked += 1
        shuffled = list(records.names)
        for i in range(len(shuffled) - 1, 0, -1):
            j = rng.below(i + 1)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        assert decode_payload(PtrRecordSet(anchor, tuple(shuffled))) == payload

    corruption_alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-."
    payload = random_payload(rng)
    records = encode_payload(payload, anchor)
    detected = 0
    trials = 10_000
    for _ in range(trials):
        names = list(records.names)
        which = rng.below(len(names))
        name = names[which]
        pos = rng.below(len(name))
        repl = corruption_alphabet[rng.below(len(corruption_alphabet))]
        while repl == name[pos]:
            repl = corruption_alphabet[rng.below(len(corruption_alphabet))]
        names[which] = name[:pos] + repl + name[pos + 1 :]
        try:
            if decode_payload(PtrRecordSet(anchor, tuple(names))) != payload:
                detected += 1
        except CovertDecodeError:
            detected += 1
    rate = detected / trials
    ok = rate >= 0.999
    report(
        6,
        ok,
        f"10k payloads round-tripped under permutation; {names_checked} names all "
        f"DNS-valid; corruption detection {rate:.4f} >= 0.999",
    )


def test_criterion_7_global_determinism(tmp_path):
    config = write_repro(tmp_path)
    outputs = []
    for tag in ("x", "y"):
        trace = tmp_path / f"{tag}.trace"
        rep = tmp_path / f"{tag}.report"
        code = main(["run", "--config", str(config), "--trace", str(trace), "--report", str(rep)])
        assert code == 0
        machine = json.loads(rep.read_text().split(MACHINE_MARKER)[1])
        assert machine["metrics"]["packets_delivered"] == 672
        assert machine["metrics"]["distinct_external_ips_used"] == 111
        outputs.append((trace.read_bytes(), machine))
    ok = outputs[0][0] == outputs[1][0] and outputs[0][1] == outputs[1][1]
    report(7, ok, "byte-identical event traces and machine-readable reports across runs")


def _random_symbol_chain(rng: SplitMix64, states: int) -> DhmmModel:
    """Random Markov chain over `states` symbols as a deterministic HMM.

    Every state keeps a transition to its cyclic successor so the chain
    is irreducible; probabilities stay >= 0.15 so 1e5 samples pin each
    transition well inside +/-0.02.
    """
    bins = tuple(IntervalBin(i, i * 100.0, (i + 1) * 100.0) for i in range(states))
    alphabet = IntervalAlphabet(bins)
    transitions = []
    for state in range(states):
        successors = {(state + 1) % states}
        while len(successors) < min(states, 2 + rng.below(2)):
            successors.add(rng.below(states))
        weights = [0.15 + rng.random() for _ in successors]
        total = sum(weights)
        probs = [w / total for w in weights]
        probs[-1] = 1.0 - sum(probs[:-1])  # exact normalization
        for symbol, p in zip(sorted(successors), probs):
            transitions.append(Transition(state, symbol, symbol, p))
    return DhmmModel(states, states, tuple(transitions), alphabet)


def test_criterion_8_dhmm_fixed_point():
    rng = SplitMix64(0xD477A)
    worst = 0.0
    for case in range(20):
        states = 2 + rng.below(7)  # up to 8 states and symbols
        truth = _random_symbol_chain(rng, states)
        sample = start_sampler(truth, rng.next_u64()).take(100_000)
        inferred = infer_dhmm(sample, truth.alphabet, order=1)
        got = {(t.from_state, t.symbol): t.probability for t in inferred.transitions}
        for t in truth.transitions:
            err = abs(got.get((t.from_state, t.symbol), 0.0) - t.probability)
            worst = max(worst, err)
            assert err <= 0.02, (case, t, err)
    report(8, True, f"20 models recovered; worst transition error {worst:.4f} <= 0.02")
