import hashlib
import math
import sys
from bisect import bisect_right
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopsim import session
from hopsim.addressing import Address, Prefix, PrefixPool
from hopsim.adversary import ObserverTap
from hopsim.config import ScenarioConfig
from hopsim.covert import SyncPayload
from hopsim.dwell import DhmmDwell, FixedDwell, UniformDwell
from hopsim.errors import ConfigError, ScenarioError
from hopsim.events import EventQueue, TraceLog
from hopsim.flowtable import Packet
from hopsim.hopping import HopEntry, build_schedule
from hopsim.routing import AsGraph, announce, withdraw
from hopsim.rng import SplitMix64
from hopsim.session import (
    EndpointAgent,
    Role,
    SessionMetrics,
    Simulation,
    hop,
    synchronize,
)

from conftest import flood, make_config, rewritten_inbound, timed_run
from scenario_gen import LEGAL, legal_configs, random_edges

POOL = PrefixPool.parse("184.164.243.0/24")
SERVER_IP = Address.parse("10.0.0.1")
CLIENT_IP = Address.parse("184.164.242.77")


def agents():
    server = EndpointAgent(Role.SERVER, SERVER_IP, 3)
    client = EndpointAgent(Role.CLIENT, CLIENT_IP, 1)
    return server, client


class TestEventQueue:
    def test_arguments_and_insertion_order_on_ties(self):
        queue, fired = EventQueue(), []
        queue.schedule_at(2.0, fired.append, "late")
        queue.schedule_at(1.0, lambda: fired.append("no-args"))
        queue.schedule_at(1.0, fired.extend, ("a", "b"))
        queue.schedule_at(queue.now + 1.0, fired.append, "tied")
        assert queue.run() == 4
        assert fired == ["no-args", "a", "b", "tied", "late"]
        assert queue.now == 2.0

    def test_rejects_the_past(self):
        queue = EventQueue(start=5.0)
        with pytest.raises(ValueError):
            queue.schedule_at(4.0, print, "never")
        with pytest.raises(ValueError):
            queue.schedule_at(queue.now - 0.5, print, "never")
        with pytest.raises(ValueError):
            queue.schedule_at(math.nan, print, "never")
        with pytest.raises(ValueError):
            queue.schedule_at(queue.now + math.nan, print, "never")
        queue.schedule_at(queue.now + 0.0, print, "now")
        assert queue.now == 5.0 and len(queue._heap) == 1

    def test_horizon(self):
        queue, fired = EventQueue(start=1.0), []
        assert queue.horizon() == math.inf  # empty heap
        queue.schedule_at(3.0, fired.append, "queued")
        queue.schedule_at(4.0, fired.append, "later")
        assert queue.horizon() == 3.0  # the first queued event
        # A crossing goes inline while its arrival is before the horizon.
        # One arriving exactly at a queued event's time waits: that event
        # was queued first.
        for arrival, inline in ((2.0, True), (2.9, True), (3.0, False), (3.5, False)):
            assert (arrival < queue.horizon()) is inline, arrival
        assert queue.now == 1.0 and fired == []  # reading the horizon moves nothing
        assert queue.run() == 2 and fired == ["queued", "later"]
        assert queue.horizon() == math.inf

    def test_reserved_slot_rejects_the_past(self):
        queue = EventQueue(start=5.0)
        first = queue.reserve(2)
        for bad in (4.0, math.nan):
            with pytest.raises(ValueError):
                queue.schedule_reserved(bad, first, print, "never")
        assert not queue._heap
        queue.schedule_reserved(5.0, first + 1, print, "now")
        assert queue.now == 5.0 and len(queue._heap) == 1

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=12),
        st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), max_size=3), max_size=12),
        st.lists(st.integers(0, 30), max_size=4),
        st.lists(st.integers(0, 30), max_size=4),
    )
    def test_reserved_slots_fire_as_if_queued_up_front(self, gaps, follow_ups, before, after):
        # A stream of events at non-decreasing times (gap 0 ties), each of
        # whose handlers queues follow-ups; other events sit in the queue
        # from before and after the stream was queued.
        times = [float(sum(gaps[: j + 1])) for j in range(len(gaps))]
        fire = lambda streamed: _fire_streams([times], 1, follow_ups, before, after, streamed)
        assert fire(True) == fire(False)

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12),
        st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), max_size=3), max_size=12),
        st.lists(st.integers(0, 30), max_size=4),
    )
    def test_interleaved_streams_share_one_reserve(self, gaps, follow_ups, before):
        # Two streams in the slots of one `reserve`, stride 3, offsets 0
        # and 1, as a hopping end's acquires and hops take them. Each runs
        # at its own times, so the two overtake each other.
        streams = [[float(sum(g[i] for g in gaps[: j + 1])) for j in range(len(gaps))]
                   for i in (0, 1)]
        fire = lambda streamed: _fire_streams(streams, 3, follow_ups, before, [], streamed)
        assert fire(True) == fire(False)

    def test_empty_stream_queues_nothing(self):
        queue = EventQueue(start=5.0)
        first = queue.reserve(0)
        queue.stream(first, 1, 0, lambda k: 1 / 0, print)  # time_of is never called
        assert not queue._heap and queue.horizon() == math.inf
        assert queue.run() == 0 and queue.now == 5.0


def _fire_streams(streams, stride, follow_ups, before, after, streamed):
    """Run equal-length `streams` of times, stream i in the slots `first +
    stride * k + i`, and return what fired: one at a time through
    `EventQueue.stream`, or else all queued up front with `schedule_at`."""
    queue, fired = EventQueue(), []

    def other(label):
        fired.append((queue.now, label))

    def step(i, k):
        fired.append((queue.now, "run", i, k))
        for n, delay in enumerate(follow_ups[k] if k < len(follow_ups) else ()):
            queue.schedule_at(queue.now + delay, other, ("follow-up", i, k, n))

    for t in before:
        queue.schedule_at(float(t), other, ("before", t))
    n = len(streams[0])
    if streamed:
        first = queue.reserve(stride * n)
        for i, times in enumerate(streams):
            queue.stream(first + i, stride, n, times.__getitem__, step, i)
    else:
        for k in range(n):
            for i, times in enumerate(streams):
                queue.schedule_at(times[k], step, i, k)
    for t in after:
        queue.schedule_at(float(t), other, ("after", t))
    return queue.run(), fired


class TestSynchronize:
    def test_both_ends_identical_fixed(self):
        server, client = agents()
        payload = SyncPayload(42, POOL, "fixed:10000.0", 1000.0)
        source = FixedDwell(10_000.0)
        assert synchronize(server, payload, source, 20) == synchronize(
            client, payload, source, 20
        )

    def test_both_ends_identical_dhmm(self):
        from test_dwell import symbol_chain

        model = symbol_chain(3, {i: {j: 1 / 3 for j in range(3)} for i in range(3)})
        server, client = agents()
        payload = SyncPayload(7, POOL, "bg", 0.0)
        source = DhmmDwell("bg", model)
        a = synchronize(server, payload, source, 50)
        b = synchronize(client, payload, source, 50)
        assert a == b
        assert all(e.dwell_ms > 0 for e in a)

    def test_different_seeds_diverge(self):
        server, _ = agents()
        source = UniformDwell(1000.0, 10_000.0)
        a = synchronize(server, SyncPayload(1, POOL, source.model_id, 0.0), source, 3)
        b = synchronize(server, SyncPayload(2, POOL, source.model_id, 0.0), source, 3)
        assert [e.address for e in a] != [e.address for e in b]

    def test_schedule_addresses_distinct(self):
        server, _ = agents()
        source = FixedDwell(100.0)
        schedule = synchronize(server, SyncPayload(5, POOL, source.model_id, 0.0), source, 200)
        assert len({e.address for e in schedule}) == 200


class TestHopOperation:
    def make_agent(self, n=3):
        agent = EndpointAgent(Role.SERVER, SERVER_IP, 3)
        agent.schedule = build_schedule(9, POOL, n, [1000.0] * n)
        return agent

    def announced(self):
        """A graph in which the agent's AS 3 announces the pool's prefix."""
        graph = AsGraph.from_edges([(1, 3)])
        announce(graph, POOL.prefixes[0], 3)
        flood(graph, POOL.prefixes[0])
        return graph

    def accepted(self, agent, entries=None):
        """The addresses of `entries`, by default the agent's schedule,
        whose inbound packets reach the agent."""
        externals = [e.address for e in entries or agent.schedule]
        return rewritten_inbound(agent.flow_table, agent.internal_ip, externals)

    def test_first_hop_has_no_grace_entry(self):
        # Grace keeps the previous address; the first hop has none to keep.
        agent, graph = self.make_agent(), self.announced()
        hop(agent, agent.schedule[0], graph, grace=True)
        assert self.accepted(agent) == {agent.schedule[0].address}

    def test_mid_schedule_hop_keeps_previous_address_in_grace(self):
        agent, graph = self.make_agent(), self.announced()
        first, second, _ = agent.schedule
        hop(agent, first, graph, grace=False)
        hop(agent, second, graph, grace=True)
        assert self.accepted(agent) == {first.address, second.address}

    def test_zero_grace_drops_old_address_immediately(self):
        agent, graph = self.make_agent(), self.announced()
        first, second, _ = agent.schedule
        hop(agent, first, graph, grace=False)
        hop(agent, second, graph, grace=False)
        assert self.accepted(agent) == {second.address}

    def test_announce_assertion(self):
        agent = self.make_agent()
        entry = agent.schedule[0]
        graph = AsGraph.from_edges([(1, 3)])
        with pytest.raises(ScenarioError, match="does not announce"):
            hop(agent, entry, graph, grace=False)
        assert self.accepted(agent) == set()
        announce(graph, entry.prefix, 3)
        flood(graph, entry.prefix)
        hop(agent, entry, graph, grace=False)  # now fine

    def test_hop_after_the_withdrawal_is_refused(self):
        agent, graph = self.make_agent(), self.announced()
        first, second, _ = agent.schedule
        hop(agent, first, graph, grace=False)
        withdraw(graph, first.prefix, 3)
        flood(graph, first.prefix)
        with pytest.raises(ScenarioError, match="does not announce"):
            hop(agent, second, graph, grace=False)

    def test_hop_needs_its_own_as_to_announce_the_prefix(self):
        # AS 2 announces a /16 and AS 1 a /24 inside it: each end may hop
        # only into the prefix its own AS announces, though its rib routes
        # the other one.
        p16, p24 = Prefix.parse("184.164.0.0/16"), Prefix.parse("184.164.243.0/24")
        graph = AsGraph.from_edges([(1, 2)])
        announce(graph, p16, 2)
        announce(graph, p24, 1)
        flood(graph, p16)
        flood(graph, p24)
        inner = HopEntry(Address.parse("184.164.243.9"), p24, 1000.0)
        outer = HopEntry(Address.parse("184.164.9.9"), p16, 1000.0)
        for asn, own, other in ((1, inner, outer), (2, outer, inner)):
            agent = EndpointAgent(Role.SERVER, SERVER_IP, asn)
            with pytest.raises(ScenarioError, match=f"AS {asn} does not announce"):
                hop(agent, other, graph, grace=False)
            hop(agent, own, graph, grace=False)
            assert self.accepted(agent, [own, other]) == {own.address}


class TestRunScenario:
    def test_zero_packets_all_zero_metrics(self, tmp_path):
        path = make_config(tmp_path, packets=0)
        metrics = Simulation(ScenarioConfig.from_file(path)).run().metrics
        assert metrics == SessionMetrics(0, 0, 0, 0, 0.0, ())

    def test_all_packets_delivered_within_schedule(self, tmp_path):
        # 45 packets x 100 ms span all five 1 s windows.
        path = make_config(tmp_path, n_hops=5, fixed_ms=1000.0, packets=45, gap_ms="100")
        metrics = Simulation(ScenarioConfig.from_file(path)).run().metrics
        assert metrics.packets_delivered == metrics.packets_sent == 45
        assert metrics.distinct_external_ips_used == 5
        assert metrics.hop_count == 4
        assert metrics.mean_dwell_ms == pytest.approx(1000.0)

    def test_deterministic_trace_and_metrics(self, tmp_path):
        path = make_config(tmp_path, dwell="uniform", gap_ms="auto", n_hops=13, packets=80)
        config = ScenarioConfig.from_file(path)
        r1, r2 = Simulation(config).run(), Simulation(config).run()
        assert r1.trace == r2.trace
        assert r1.metrics == r2.metrics

    def test_covert_round_trip_is_checked(self, tmp_path, monkeypatch):
        import hopsim.session as session

        decode = session.decode_payload
        monkeypatch.setattr(
            session, "decode_payload",
            lambda records, tail: decode(records, tail).replace(epoch_ms=0.0),
        )
        config = ScenarioConfig.from_file(make_config(tmp_path))
        with pytest.raises(ScenarioError, match="covert round trip"):
            Simulation(config).run()

    def _run_straddler(self, tmp_path, grace_ms: float) -> SessionMetrics:
        # One packet emitted 10 ms before the hop; path delay is 100 ms,
        # so it arrives well inside the next window.
        path = make_config(tmp_path, n_hops=2, fixed_ms=1000.0, packets=1, gap_ms="1",
                           grace_ms=grace_ms)
        text = path.read_text().replace(
            f"grace_window_ms = {grace_ms}", f"grace_window_ms = {grace_ms}\nlink_delay_ms = 50"
        )
        path.write_text(text)
        config = ScenarioConfig.from_file(path)
        sim = Simulation(config)
        sim._schedule_traffic = lambda gap: sim.queue.schedule_at(
            config.lead_time_ms + 990.0, lambda: sim._do_send(0)
        )
        return sim.run().metrics

    def test_straddling_packet_lost_without_grace(self, tmp_path):
        metrics = self._run_straddler(tmp_path, grace_ms=0.0)
        assert metrics.packets_sent == 1
        assert metrics.packets_delivered == 0

    def test_straddling_packet_survives_with_grace(self, tmp_path):
        metrics = self._run_straddler(tmp_path, grace_ms=200.0)
        assert metrics.packets_delivered == 1

    def test_delivered_packets_always_show_internal_destination(self, tmp_path):
        # The simulator raises if any packet reaches the app with a
        # rewritten destination still in place; a clean run plus full
        # delivery is the illusion invariant.
        path = make_config(tmp_path, n_hops=4, fixed_ms=500.0, packets=15, gap_ms="100")
        metrics = Simulation(ScenarioConfig.from_file(path)).run().metrics
        assert metrics.packets_delivered == 15

    def test_address_count_accounting_against_trace(self, tmp_path):
        # The metric counts the server's windows entered by the time the
        # last send resolved, since the draw never repeats an address; the
        # trace's server hop lines up to then must name that many addresses.
        # A static server's one window opens with its `static_server` line.
        (tmp_path / "made").mkdir()
        made = make_config(
            tmp_path / "made", dwell="uniform", low_ms=300.0, high_ms=900.0, n_hops=12,
            packets=30, gap_ms="120",
        )
        shipped = sorted((Path(__file__).parents[1] / "configs").glob("*.ini"))
        configs = [(path.stem, ScenarioConfig.from_file(path)) for path in [made, *shipped]]
        runs = Counter()
        for name, config in chain(configs, legal_configs(tmp_path, set())):
            result = Simulation(config).run()
            resolutions = [
                float(ln.split(",")[0]) for ln in result.trace
                if ",traffic,deliver," in ln or ",traffic,drop," in ln or ",adversary,block," in ln
            ]
            last_resolution = max(resolutions, default=-math.inf)
            hops_before_end = [
                ln for ln in result.trace
                if (",session,hop,role=server;" in ln or ",session,static_server," in ln)
                and float(ln.split(",")[0]) <= last_resolution
            ]
            externals = {ln.rsplit("=", 1)[1] for ln in hops_before_end}
            assert result.metrics.distinct_external_ips_used == len(externals), name
            assert result.metrics.hop_count == max(0, len(hops_before_end) - 1), name
            runs.update(hopping=bool(externals) and config.server_hopping,
                        static=bool(externals) and not config.server_hopping)
        assert runs["hopping"] >= len(configs) + LEGAL // 2, runs
        assert runs["static"] > 0, runs

    def test_per_hop_delivery_sums_to_total(self, tmp_path):
        path = make_config(tmp_path, n_hops=6, fixed_ms=400.0, packets=20, gap_ms="100")
        metrics = Simulation(ScenarioConfig.from_file(path)).run().metrics
        assert sum(c for _, c in metrics.per_hop_delivery) == metrics.packets_delivered

    def test_announcement_log_format(self, tmp_path):
        path = make_config(tmp_path, n_hops=2, fixed_ms=500.0, packets=2, gap_ms="100")
        result = Simulation(ScenarioConfig.from_file(path)).run()
        routes = [ln for ln in result.trace if ",route," in ln]
        assert routes[0] == "0.000,route,announce,prefix=184.164.243.0/24;origin=3"
        assert routes[-1].split(",", 1)[1] == "route,withdraw,prefix=184.164.243.0/24;origin=3"

    def test_old_deployment_key_is_ignored(self, tmp_path):
        # `deployment` is no longer read: a config that still sets it runs
        # as the one without it, and only its digest tells them apart.
        path = make_config(tmp_path, n_hops=3, fixed_ms=500.0, packets=10, gap_ms="100")
        old_path = path.parent / "gw.ini"
        old_path.write_text(path.read_text().replace(
            "attached_as = 3", "attached_as = 3\ndeployment = gateway"
        ).replace("attached_as = 1", "attached_as = 1\ndeployment = gateway"))
        assert old_path.read_text().count("deployment = gateway") == 2
        config, old_config = ScenarioConfig.from_file(path), ScenarioConfig.from_file(old_path)
        result, old_result = Simulation(config).run(), Simulation(old_config).run()
        assert old_result.trace_text() == result.trace_text()
        assert old_result.metrics == result.metrics
        assert old_config.config_sha256 != config.config_sha256

    def test_clock_skew_causes_losses(self, tmp_path):
        # Client updates its rewrite rules 350 ms late while grace covers
        # only 200 ms: packets sent into stale windows die.
        base = make_config(tmp_path, n_hops=8, fixed_ms=500.0, packets=35, gap_ms="100")
        text = base.read_text().replace(
            "grace_window_ms = 200.0", "grace_window_ms = 200.0\nclock_skew_ms = 350"
        )
        base.write_text(text)
        metrics = Simulation(ScenarioConfig.from_file(base)).run().metrics
        assert metrics.packets_delivered < metrics.packets_sent

    def test_lossless_over_random_topologies(self, tmp_path):
        # Grace >= one-way path delay and announce lead >= propagation:
        # delivery stays perfect on random connected graphs.
        rng = SplitMix64(31337)
        for case in range(6):
            size = 6 + rng.below(15)  # up to 20 ASes
            topo = "".join(f"{a} {b}\n" for a, b in random_edges(rng, size, size))
            client_as = rng.below(size) + 1
            server_as = rng.below(size) + 1
            while server_as == client_as:
                server_as = rng.below(size) + 1
            case_dir = tmp_path / f"case{case}"
            case_dir.mkdir()
            path = make_config(
                case_dir,
                seed=rng.next_u64(),
                n_hops=10,
                dwell="uniform",
                low_ms=300.0,
                high_ms=800.0,
                packets=20,
                gap_ms="120",
                grace_ms=400.0,
                topo=topo,
                server_as=server_as,
                client_as=client_as,
                extra="[scenario2]\n",
            )
            text = path.read_text().replace("[scenario2]", "").replace(
                "grace_window_ms = 400.0",
                "grace_window_ms = 400.0\nwithdraw_lag_ms = 900",
            )
            path.write_text(text)
            metrics = Simulation(ScenarioConfig.from_file(path)).run().metrics
            assert metrics.packets_delivered == metrics.packets_sent == 20, f"case {case}"

    def test_two_way_mode_preserves_delivery_and_illusion(self, tmp_path):
        path = make_config(
            tmp_path, n_hops=5, fixed_ms=500.0, packets=18, gap_ms="100",
            server_ip="10.0.0.1",
        )
        text = path.read_text().replace(
            "[scenario]", "[scenario]\ntwo_way = true\nclient_seed = 909"
        ).replace(
            "internal_ip = 184.164.242.77\nattached_as = 1",
            "internal_ip = 10.0.0.2\nattached_as = 1\npool = 184.164.242.0/24",
        )
        path.write_text(text)
        result = Simulation(ScenarioConfig.from_file(path)).run()
        assert result.metrics.packets_delivered == 18
        # Client's wire source must differ from its internal address.
        sends = [ln for ln in result.trace if ",traffic,send," in ln]
        assert all("src=10.0.0.2" not in ln for ln in sends)

    def test_two_way_session_reports_a_timing_statistic(self, tmp_path):
        # No observed packet carries the client's internal address in
        # two-way mode; the adversary follows the server's public pool.
        from test_dwell import symbol_chain

        model = symbol_chain(3, {i: {j: 1 / 3 for j in range(3)} for i in range(3)})
        (tmp_path / "bg.model").write_text(model.to_text())
        (tmp_path / "topo.txt").write_text("1 2\n2 3\n")
        text = GOLDEN_TWO_WAY + "\n[adversary]\ntap = 1-2\ntiming_model = bg.model\n"
        result = Simulation(ScenarioConfig.from_text(text, base_dir=tmp_path)).run()
        stat, _, verdict = result.verdicts[0].split(",")
        assert math.isfinite(float(stat))
        assert verdict in ("clean", "detected")


def test_delivery_window_counts_the_server_hops_by_then(tmp_path):
    # A delivery's `window=` is the server's last hop by then: one less
    # than the server hop lines timed at or before it, by exact time, or 0
    # for a static server. A hop and a delivery may share an instant: in
    # `tie`, delivery 2 reaches the server at 2000.000, where its hop 1 is
    # timed, and the hop comes first.
    (tmp_path / "tie").mkdir()
    tie = make_config(tmp_path / "tie", n_hops=4, fixed_ms=1000.0, packets=6, gap_ms="490")
    shipped = sorted((Path(__file__).parents[1] / "configs").glob("*.ini"))
    configs = [(path.stem, ScenarioConfig.from_file(path)) for path in shipped]
    configs.append(("tie", ScenarioConfig.from_file(tie)))
    seen = Counter()
    for name, config in chain(configs, legal_configs(tmp_path, set())):
        trace = timed_run(config)
        hops = [t for t, ln in trace if ",session,hop,role=server;" in ln]
        for t, ln in trace:
            if ",traffic,deliver," in ln:
                window = int(ln.rsplit("window=", 1)[1])
                assert window == (bisect_right(hops, t) - 1 if config.server_hopping else 0), (
                    name, ln
                )
                seen.update(static=not config.server_hopping, at_a_hop=t in hops,
                            later_window=window > 0)
        if name == "tie":
            assert "2000.000,traffic,deliver,id=2;window=1" in [ln for _, ln in trace]
            seen.update(tie=1)
    for what in ("tie", "static", "at_a_hop", "later_window"):
        assert seen[what] > 0, what


class TestObserverNeutrality:
    def test_passive_tap_leaves_metrics_unchanged(self, tmp_path):
        plain = make_config(tmp_path, n_hops=5, fixed_ms=600.0, packets=25, gap_ms="100")
        base = Simulation(ScenarioConfig.from_file(plain)).run().metrics
        tapped_dir = tmp_path / "tapped"
        tapped_dir.mkdir()
        tapped = make_config(
            tapped_dir, n_hops=5, fixed_ms=600.0, packets=25, gap_ms="100",
            extra="[adversary]\ntap = 1-2\npolicy = none\n",
        )
        observed = Simulation(ScenarioConfig.from_file(tapped)).run().metrics
        assert observed == base


class TestBlocking:
    def test_static_block_costs_at_most_one_window(self, tmp_path):
        plain = make_config(tmp_path, n_hops=8, fixed_ms=1000.0, packets=70, gap_ms="100")
        result = Simulation(ScenarioConfig.from_file(plain)).run()
        assert result.metrics.packets_delivered == 70
        sends_per_dst: dict[str, int] = {}
        for ln in result.trace:
            if ",traffic,send," in ln:
                dst = ln.split("dst=")[1]
                sends_per_dst[dst] = sends_per_dst.get(dst, 0) + 1
        victim, victim_sends = max(sends_per_dst.items(), key=lambda kv: kv[1])
        blocked_dir = tmp_path / "blocked"
        blocked_dir.mkdir()
        blocked = make_config(
            blocked_dir, n_hops=8, fixed_ms=1000.0, packets=70, gap_ms="100",
            extra=f"[adversary]\ntap = 1-2\npolicy = static\nblocked = {victim}\n",
        )
        metrics = Simulation(ScenarioConfig.from_file(blocked)).run().metrics
        lost = 70 - metrics.packets_delivered
        assert lost == victim_sends
        assert lost <= max(sends_per_dst.values())

    def test_reactive_slower_than_dwell_never_lands(self, tmp_path):
        path = make_config(
            tmp_path, n_hops=10, dwell="uniform", low_ms=500.0, high_ms=2000.0,
            packets=60, gap_ms="100",
            extra="[adversary]\ntap = 1-2\npolicy = reactive\ndetect_delay_ms = 2500\n",
        )
        metrics = Simulation(ScenarioConfig.from_file(path)).run().metrics
        assert metrics.packets_delivered == metrics.packets_sent

    def test_static_server_under_reactive_policy_dies(self, tmp_path):
        path = make_config(
            tmp_path, n_hops=1, server_hopping=False, server_ip="184.164.243.10",
            packets=100, gap_ms="100",
            extra="[adversary]\ntap = 1-2\npolicy = reactive\ndetect_delay_ms = 2000\n",
        )
        result = Simulation(ScenarioConfig.from_file(path)).run()
        assert result.metrics.packets_delivered < result.metrics.packets_sent
        block_time = min(
            float(ln.split(",")[0]) for ln in result.trace if ",adversary,block," in ln
        )
        late_deliveries = [
            ln
            for ln in result.trace
            if ",traffic,deliver," in ln and float(ln.split(",")[0]) > block_time
        ]
        assert late_deliveries == []


class TestScenarioConfig:
    def test_missing_key_names_field(self, tmp_path):
        path = make_config(tmp_path)
        text = path.read_text().replace("packets = 20\n", "")
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_file(path)
        assert "[traffic] packets" in str(err.value)

    def test_unknown_as_named(self, tmp_path):
        path = make_config(tmp_path, server_as=44)
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_file(path)
        assert "[server] attached_as" in str(err.value)

    def test_missing_topology_file(self, tmp_path):
        path = make_config(tmp_path)
        (tmp_path / "topo.txt").unlink()
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_file(path)
        assert "[topology] file" in str(err.value)

    def test_missing_dhmm_model(self, tmp_path):
        path = make_config(tmp_path, dwell="dhmm", extra="")
        text = path.read_text().replace("[traffic]", "model = absent.model\n\n[traffic]")
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_file(path)
        assert "[dwell] model" in str(err.value)

    def test_tap_must_be_a_link(self, tmp_path):
        path = make_config(tmp_path, extra="[adversary]\ntap = 1-3\npolicy = none\n")
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_file(path)
        assert "[adversary] tap" in str(err.value)

    # `int` reads `1_0` as 10, `+1` and `\u0661` (Arabic-Indic one) as 1:
    # an ASN is ASCII decimal digits only.
    @pytest.mark.parametrize("asn", ["-1", "a", "1_0", "+1", "\u0661", "0x1"])
    def test_negative_asn_in_topology_names_its_line(self, tmp_path, asn):
        path = make_config(tmp_path, topo=f"1 2\n{asn} 3\n2 3\n")
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_file(path)
        assert err.value.field == "[topology] file" and "line 2: " in str(err.value)
        assert repr(asn) in str(err.value)

    @pytest.mark.parametrize("role", ["server", "client"])
    def test_negative_attached_as_is_refused(self, tmp_path, role):
        path = make_config(tmp_path, **{f"{role}_as": -1})
        with pytest.raises(ConfigError, match="negative") as err:
            ScenarioConfig.from_file(path)
        assert err.value.field == f"[{role}] attached_as"

    @pytest.mark.parametrize("tap", ["-1-2", "1--2", "1-2-", "1 2", "1-2-3"])
    def test_tap_is_two_asns_joined_by_one_dash(self, tmp_path, tap):
        # Read as a list of numbers, each of these would name link 1-2.
        path = make_config(tmp_path, extra=f"[adversary]\ntap = {tap}\npolicy = none\n")
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_file(path)
        assert err.value.field == "[adversary] tap"

    def test_pool_version_must_match_server(self, tmp_path):
        path = make_config(tmp_path, pool="2001:db8::/64")
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_file(path)
        assert "[server] pool" in str(err.value)

    def test_canonical_hash_ignores_formatting(self, tmp_path):
        path = make_config(tmp_path)
        text = path.read_text()
        spaced = text.replace("seed = 42", "seed =   42   ; comment")
        digest = lambda t: ScenarioConfig.from_text(t, base_dir=tmp_path).config_sha256
        assert digest(text) == digest(spaced)
        changed = text.replace("seed = 42", "seed = 43")
        assert digest(text) != digest(changed)


GOLDEN_SCENARIO = """
[scenario]
seed = 3
n_hops = 2
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
source = fixed
fixed_ms = 1000

[traffic]
packets = 2
gap_ms = 400
"""


def test_golden_event_trace(tmp_path):
    (tmp_path / "topo.txt").write_text("1 2\n2 3\n")
    config = ScenarioConfig.from_text(GOLDEN_SCENARIO, base_dir=tmp_path)
    result = Simulation(config).run()
    assert result.trace == [
        "0.000,dns,register,anchor=203.0.113.53;names=2",
        "0.000,dns,decode,seed=3;model=fixed:1000.0",
        "0.000,session,sync,hops=2;total_ms=2000.000",
        "0.000,route,announce,prefix=184.164.243.0/24;origin=3",
        "1000.000,session,hop,role=server;index=0;external=184.164.243.237",
        "1000.000,traffic,send,id=0;src=184.164.242.77;dst=184.164.243.237",
        "1020.000,traffic,deliver,id=0;window=0",
        "1400.000,traffic,send,id=1;src=184.164.242.77;dst=184.164.243.237",
        "1420.000,traffic,deliver,id=1;window=0",
        "2000.000,session,hop,role=server;index=1;external=184.164.243.137",
        "2200.000,session,grace_expire,external=184.164.243.237",
        "3500.000,route,withdraw,prefix=184.164.243.0/24;origin=3",
        "3520.000,session,end,sent=2;delivered=2",
    ]


# Two-way hopping with a skewed client: both tables hold hop and peer
# rules, inbound packets take the two-lookup chain, grace windows expire
# on both ends, and packets sent to an expired address die as
# stale_rewrite drops.
GOLDEN_TWO_WAY = """
[scenario]
seed = 42
n_hops = 5
grace_window_ms = 200
clock_skew_ms = 300
two_way = true
client_seed = 909

[topology]
file = topo.txt

[server]
internal_ip = 10.0.0.1
attached_as = 3
pool = 184.164.243.0/24

[client]
internal_ip = 10.0.0.2
attached_as = 1
pool = 184.164.242.0/24

[dwell]
source = fixed
fixed_ms = 500

[traffic]
packets = 30
gap_ms = auto
"""


def test_golden_two_way_digests(tmp_path):
    (tmp_path / "topo.txt").write_text("1 2\n2 3\n")
    config = ScenarioConfig.from_text(GOLDEN_TWO_WAY, base_dir=tmp_path)
    result = Simulation(config).run()
    assert sum("reason=stale_rewrite" in ln for ln in result.trace) == 4
    assert sum("session,grace_expire" in ln for ln in result.trace) == 8
    assert result.metrics.to_dict() == {
        "packets_sent": 30,
        "packets_delivered": 22,
        "distinct_external_ips_used": 5,
        "hop_count": 4,
        "mean_dwell_ms": 500.0,
        "per_hop_delivery": [[0, 2], [1, 5], [2, 5], [3, 5], [4, 5]],
    }
    assert hashlib.sha256(result.trace_text().encode()).hexdigest() == (
        "c0544378dbdec2998e31147d3cbf1cf14347b60ecf784e75c945a3953573b014"
    )


class TestRoutingChurn:
    """Sessions on meshes, where each update goes down the origin's tree only."""

    def test_mesh_ribs_follow_bfs_mid_window_and_end_empty(self, tmp_path):
        from test_routing import bfs_distances

        # A 5-clique with a tail: many equal and unequal alternative paths.
        edges = [(a, b) for a in range(1, 6) for b in range(a + 1, 6)] + [(5, 6), (6, 7), (2, 7)]
        pool = ",".join(f"100.64.{i}.0/24" for i in range(8))
        path = make_config(
            tmp_path, n_hops=6, pool=pool, fixed_ms=1000.0, packets=30, gap_ms="auto",
            topo="".join(f"{a} {b}\n" for a, b in edges), server_as=7, client_as=1,
        )
        sim = Simulation(ScenarioConfig.from_file(path))
        checked = []

        def check():
            # A prefix keeps its origin after withdrawal; the origin's rib
            # holds it while it is announced.
            nodes = sim.graph.nodes
            announced = {key: asn for key, asn in sim.graph.origins.items() if key in nodes[asn].rib}
            assert announced
            for asn, node in nodes.items():
                assert set(node.rib) == set(announced), asn
            for prefix, origin in announced.items():
                distances = bfs_distances(sim.graph, origin)
                for asn, node in sim.graph.nodes.items():
                    assert len(node.rib[prefix]) == distances[asn], (prefix, asn)
            checked.append(sim.queue.now)

        # Three quarters into each window: the previous window's prefix was
        # withdrawn 250 ms earlier and the next one announced 750 ms earlier.
        for k in range(6):
            sim.queue.schedule_at(1750.0 + 1000.0 * k, check)
        result = sim.run()
        assert len(checked) == 6
        assert result.metrics.packets_delivered == result.metrics.packets_sent == 30
        assert set(sim.graph.origins.values()) == {7} and not sim._unlanded
        assert all(not n.rib for n in sim.graph.nodes.values())

    def test_200_as_graph_session_is_bounded(self, tmp_path, processed, routing_calls):
        # Path exploration ran a single withdrawal on this kind of graph
        # past 3M routing messages. Down the origin's tree, an action costs
        # one message per tree edge, one per AS but the origin: 199.
        rng = SplitMix64(200)
        size = 200
        edges = {(1 + rng.below(i), i + 1) for i in range(1, size)}
        while len(edges) < size - 1 + 200:
            a, b = 1 + rng.below(size), 1 + rng.below(size)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        client_as = 1 + rng.below(size)
        server_as = 1 + rng.below(size)
        while server_as == client_as:
            server_as = 1 + rng.below(size)
        pool = ",".join(f"100.64.{i}.0/24" for i in range(32))
        path = make_config(
            tmp_path, n_hops=4, pool=pool, fixed_ms=1000.0, packets=8, gap_ms="auto",
            topo="".join(f"{a} {b}\n" for a, b in sorted(edges)),
            server_as=server_as, client_as=client_as,
        )
        metrics = Simulation(ScenarioConfig.from_file(path)).run().metrics
        assert metrics.packets_delivered == metrics.packets_sent == 8
        assert len(processed) == 1 and processed[0] <= 1_000
        actions = routing_calls["announce"] + routing_calls["withdraw"]
        assert routing_calls["process_message"] == actions * (size - 1)

    def test_mesh_session_routing_is_linear_in_the_graph(self, tmp_path, routing_calls):
        # A withdrawal costs, like an announcement, one message per edge of
        # the origin's tree.
        pool = ",".join(f"100.64.{i}.0/24" for i in range(32))
        path = make_config(
            tmp_path, n_hops=12, pool=pool, fixed_ms=1000.0, packets=24, gap_ms="auto",
            topo=MESH_CHURN_TOPOLOGY, server_as=16, client_as=1,
        )
        metrics = Simulation(ScenarioConfig.from_file(path)).run().metrics
        assert metrics.packets_delivered == metrics.packets_sent == 24
        ases = len(set(MESH_CHURN_TOPOLOGY.split()))
        actions = routing_calls["announce"] + routing_calls["withdraw"]
        assert actions >= 16
        assert routing_calls["process_message"] == actions * (ases - 1)


# The 16-AS graph of the mesh_churn benchmark workload.
MESH_CHURN_TOPOLOGY = (
    "1 2\n1 3\n1 4\n1 5\n1 8\n1 14\n2 6\n2 12\n2 14\n3 5\n3 10\n3 11\n"
    "3 15\n4 7\n4 9\n4 10\n5 6\n5 7\n5 14\n6 16\n8 13\n11 16\n13 15\n"
)


class TestRideRule:
    """An announcement or withdrawal made before the last wave on its
    prefix reached its first layer rides that wave, which carries the
    origin's entry when it lands; a later one starts a wave of its own."""

    PREFIX = POOL.prefixes[0]

    @staticmethod
    def deliveries(sim, monkeypatch) -> list:
        """From now on, each delivery of `sim` as (instant, receiver, changed)."""
        delivered = []

        def recorded(graph, msg, receiver, _real=session.process_message):
            changed = _real(graph, msg, receiver)
            delivered.append((sim.queue.now, receiver, changed))
            return changed

        monkeypatch.setattr(session, "process_message", recorded)
        return delivered

    def churn(self, tmp_path, monkeypatch, gap_ms, after_withdrawal):
        """On the line 1-2-3 with a link delay of 10 ms, AS 1 announces
        PREFIX and the wave settles; then it withdraws PREFIX at 100 ms
        and re-announces it `gap_ms` later, queued before the withdrawal
        runs or, if `after_withdrawal`, by it. Gives the events the churn
        took and its deliveries."""
        sim = Simulation(ScenarioConfig.from_file(make_config(tmp_path, packets=0)))
        assert sim.config.link_delay_ms == 10.0
        queue, prefix = sim.queue, self.PREFIX
        sim._acquire_prefix(prefix, 1)
        queue.run()
        assert sim.graph.nodes[3].rib[prefix.key] == (2, 1)

        def release():
            sim._release_prefix(prefix, 1)
            if after_withdrawal:
                queue.schedule_at(queue.now + gap_ms, sim._acquire_prefix, prefix, 1)

        delivered = self.deliveries(sim, monkeypatch)
        queue.schedule_at(100.0, release)
        if not after_withdrawal:
            queue.schedule_at(100.0 + gap_ms, sim._acquire_prefix, prefix, 1)
        events = queue.run()
        assert not sim._unlanded
        assert sim.graph.nodes[3].rib[prefix.key] == (2, 1)
        return events, delivered

    @pytest.mark.parametrize("gap_ms", [0.0, 5.0, 9.999, 10.0])
    def test_actions_less_than_a_link_delay_apart_share_one_wave(
        self, tmp_path, monkeypatch, gap_ms
    ):
        # One routing instant is queued, and it changes no rib past the
        # origin. At a gap of exactly one link delay the re-announcement,
        # queued first as a hop stream's steps are, fires before the
        # wave's first instant and so still rides it.
        events, delivered = self.churn(tmp_path, monkeypatch, gap_ms, after_withdrawal=False)
        assert events == 3  # the withdrawal, the re-announcement, one routing instant
        assert delivered == [(110.0, 2, False)]

    @pytest.mark.parametrize(
        "gap_ms, after_withdrawal, instants", [(10.0, True, 3), (15.0, False, 3), (25.0, False, 2)]
    )
    def test_actions_a_link_delay_or_more_apart_start_a_second_wave(
        self, tmp_path, monkeypatch, gap_ms, after_withdrawal, instants
    ):
        # The withdrawal's first layer has landed when the re-announcement
        # is made, so AS 2 and AS 3 lose the route and then get it back.
        # Each wave queues its first instant; the withdrawal's also queues
        # its second when the re-announcement is due by then.
        events, delivered = self.churn(tmp_path, monkeypatch, gap_ms, after_withdrawal)
        second = 100.0 + gap_ms + 10.0
        assert delivered == [(110.0, 2, True), (120.0, 3, True), (second, 2, True), (second + 10.0, 3, True)]
        assert events == 2 + instants


    def test_a_deeper_layer_of_an_earlier_wave_leaves_the_mark_in_place(
        self, tmp_path, monkeypatch
    ):
        # On the line 1-2-3-4, the announcement's second layer runs at
        # 20 ms, after the withdrawal at 15 ms launched its own wave and
        # before that wave lands at 25 ms. So the re-announcement at 22 ms
        # still rides the withdrawal's wave, and AS 2 keeps its route.
        config = make_config(tmp_path, packets=0, topo="1 2\n2 3\n3 4\n")
        sim = Simulation(ScenarioConfig.from_file(config))
        delivered = self.deliveries(sim, monkeypatch)
        queue, prefix = sim.queue, self.PREFIX
        queue.schedule_at(0.0, sim._acquire_prefix, prefix, 1)
        queue.schedule_at(15.0, sim._release_prefix, prefix, 1)
        queue.schedule_at(22.0, sim._acquire_prefix, prefix, 1)
        assert queue.run() == 7  # three actions, four routing instants
        assert delivered == [(10.0, 2, True), (20.0, 3, True), (25.0, 2, False), (30.0, 4, True)]
        assert sim.graph.nodes[4].rib[prefix.key] == (3, 2, 1)


class _QueueEveryCrossing(EventQueue):
    """A queue that never lets a link crossing or a routing wave's next
    layer run inline: nothing is due before its horizon."""

    def horizon(self) -> float:
        return self.now


class _SendsQueuedAtBootstrap(Simulation):
    """A run that queues every send at bootstrap, in the order of the
    slots the send stream reserves."""

    def _schedule_traffic(self, gap_ms):
        start = self.config.lead_time_ms
        for j in range(self.config.packets):
            self.queue.schedule_at(start + j * gap_ms, self._do_send, j)


@pytest.fixture
def routing_calls(monkeypatch):
    """How often the session called each routing entry point."""
    calls = dict.fromkeys(("process_message", "announce", "withdraw"), 0)
    for name in calls:

        def counted(*args, _real=getattr(session, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(session, name, counted)
    return calls


@pytest.fixture
def processed(monkeypatch):
    """What each `EventQueue.run` in the test returned, in order."""
    counts = []
    run_queue = EventQueue.run

    def counted_run(queue):
        counts.append(run_queue(queue))
        return counts[-1]

    monkeypatch.setattr(EventQueue, "run", counted_run)
    return counts


@pytest.fixture
def resumed(monkeypatch):
    """How many `_forward` calls each `Simulation` made to resume a link
    crossing from the queue; a send's own call has crossed no link."""
    counts = Counter()
    forward = Simulation._forward

    def counted(sim, packet, pkt_id, asn, hops, pkey):
        if hops:
            counts[sim] += 1
        forward(sim, packet, pkt_id, asn, hops, pkey)

    monkeypatch.setattr(Simulation, "_forward", counted)
    return counts


REACTIVE_TAP = (
    "[adversary]\ntap = {}\npolicy = reactive\ndetect_delay_ms = 500\ntiming_model = bg.model\n"
)

# make_config options and extra [scenario] lines. Fixed 1 s windows and
# 100 ms gaps put sends at the same instants as hops and grace expiries.
# At zero delay such a send crosses every link at that instant, and a
# 300 ms skew still points the send at each grace expiry to the expiring
# address: the crossing must queue behind the expiry and die on arrival.
# In two-way mode on the mesh, both ends announce and withdraw /24s
# from opposite corners, so routing waves overlap each other and the
# packets. A 20 ms gap, two link delays, lands each delivery on the
# instant of the next send, which must go first: its queue slot was
# reserved earlier.
INLINE_CASES = {
    "mesh": (dict(topo=MESH_CHURN_TOPOLOGY, server_as=16, extra=REACTIVE_TAP.format("1-2"),
                  pool=",".join(f"100.64.{i}.0/24" for i in range(4))), ""),
    "zero_delay": ({}, "link_delay_ms = 0\nclock_skew_ms = 300\n"),
    "reactive_tap": (dict(extra=REACTIVE_TAP.format("2-3")), ""),
    "send_ties_delivery": (dict(gap_ms="20", extra=REACTIVE_TAP.format("1-2")), ""),
    "two_way_mesh": (dict(topo=MESH_CHURN_TOPOLOGY, server_as=16,
                          pool=",".join(f"100.64.{i}.0/24" for i in range(4)),
                          client_pool=",".join(f"100.65.{i}.0/24" for i in range(4))),
                     "two_way = true\nclient_seed = 7\nclock_skew_ms = 300\n"),
}


class TestInlineCrossing:
    """Taking a link crossing or a routing wave's next instant inline, and
    queueing each send only when the one before it is made, gives the run
    that queueing every one of them gives."""

    @pytest.mark.parametrize("case", [*INLINE_CASES, "two_way_skew"])
    def test_inline_crossing_matches_queued(
        self, tmp_path, processed, routing_calls, resumed, case
    ):
        from test_dwell import symbol_chain

        if case == "two_way_skew":
            (tmp_path / "topo.txt").write_text("1 2\n2 3\n")
            config = ScenarioConfig.from_text(GOLDEN_TWO_WAY, base_dir=tmp_path)
        else:
            model = symbol_chain(3, {i: {j: 1 / 3 for j in range(3)} for i in range(3)})
            (tmp_path / "bg.model").write_text(model.to_text())
            options, scenario = INLINE_CASES[case]
            path = make_config(tmp_path, n_hops=8, packets=60, **{"gap_ms": "100", **options})
            path.write_text(path.read_text().replace("[topology]", scenario + "\n[topology]"))
            config = ScenarioConfig.from_file(path)
        inline_sim, queued_sim = Simulation(config), _SendsQueuedAtBootstrap(config)
        inline = inline_sim.run()
        messages = routing_calls["process_message"]
        queued_sim.queue = _QueueEveryCrossing()
        queued = queued_sim.run()
        assert inline.trace_text() == queued.trace_text()
        assert inline.metrics.to_dict() == queued.metrics.to_dict()
        assert inline.verdicts == queued.verdicts
        assert processed[0] < processed[1]
        # The queued side resumes every crossing from the queue, the inline
        # side only those a queued event holds back.
        assert resumed[queued_sim] > resumed[inline_sim]
        assert routing_calls["process_message"] == 2 * messages
        assert ",traffic,deliver," in inline.trace_text()
        if case == "zero_delay":
            assert ";reason=no_rule;" in inline.trace_text()
        elif case in ("two_way_mesh", "two_way_skew"):
            assert ";reason=stale_rewrite;" in inline.trace_text()
        else:
            assert ",adversary,block," in inline.trace_text() and inline.verdicts

    def test_shipped_configs_event_counts(self, processed):
        configs = Path(__file__).parents[1] / "configs"
        for stem in ("one_way_hop111", "reactive_block", "baseline_static"):
            Simulation(ScenarioConfig.from_file(configs / f"{stem}.ini")).run()
        assert processed == [1131, 1140, 674]

    def test_line_longer_than_the_recursion_limit(self, tmp_path):
        size = sys.getrecursionlimit() + 100
        path = make_config(
            tmp_path, n_hops=2, packets=10, gap_ms="auto", server_as=size,
            topo="".join(f"{a} {a + 1}\n" for a in range(1, size)),
        )
        path.write_text(path.read_text().replace("[topology]", "link_delay_ms = 0.1\n\n[topology]"))
        metrics = Simulation(ScenarioConfig.from_file(path)).run().metrics
        assert metrics.packets_delivered == metrics.packets_sent == 10


class _PeakQueue(EventQueue):
    """A queue that records the most events it held at once."""

    def __init__(self):
        super().__init__()
        self.peak = 0

    def schedule_at(self, at, fn, *args):
        super().schedule_at(at, fn, *args)
        self.peak = max(self.peak, len(self._heap))

    def schedule_reserved(self, at, seq, fn, *args):
        super().schedule_reserved(at, seq, fn, *args)
        self.peak = max(self.peak, len(self._heap))


class TestBoundedState:
    """What a run holds does not grow with its hops or its packets."""

    @pytest.mark.parametrize("two_way", [False, True])
    def test_event_heap_does_not_grow_with_hops(self, tmp_path, two_way):
        # Each hop stream holds its next step only, and a window's release
        # waits in the heap only from its hop on.
        peaks, hops = [], []
        for n_hops in (20, 200):
            root = tmp_path / str(n_hops)
            root.mkdir()
            if two_way:
                (root / "topo.txt").write_text("1 2\n2 3\n")
                text = GOLDEN_TWO_WAY.replace("n_hops = 5", f"n_hops = {n_hops}")
                config = ScenarioConfig.from_text(text, base_dir=root)
            else:
                path = make_config(root, n_hops=n_hops, fixed_ms=600.0, packets=30, gap_ms="auto")
                config = ScenarioConfig.from_file(path)
            sim = Simulation(config)
            sim.queue = _PeakQueue()
            metrics = sim.run().metrics
            peaks.append(sim.queue.peak)
            hops.append(metrics.hop_count)
        assert hops[1] >= 9 * hops[0] > 0, hops
        assert peaks[0] == peaks[1], peaks

    def test_event_heap_does_not_grow_with_packets(self, tmp_path):
        # The send stream holds its next send only: each is queued in its
        # reserved slot when the one before it is made.
        peaks, delivered = [], []
        for packets in (200, 400):
            root = tmp_path / str(packets)
            root.mkdir()
            path = make_config(root, n_hops=5, fixed_ms=10_000.0, packets=packets, gap_ms="100")
            sim = Simulation(ScenarioConfig.from_file(path))
            sim.queue = _PeakQueue()
            metrics = sim.run().metrics
            peaks.append(sim.queue.peak)
            delivered.append(metrics.packets_delivered)
        assert delivered == [200, 400], delivered
        assert peaks[0] == peaks[1], peaks

    def test_tap_keeps_hop_changes_only(self, tmp_path):
        # Ten times the packets leave the tap holding as many times: one per
        # change of the pool destination, at most one per window entered.
        from test_dwell import symbol_chain

        model = symbol_chain(3, {i: {j: 1 / 3 for j in range(3)} for i in range(3)})
        (tmp_path / "bg.model").write_text(model.to_text())
        extra = "[adversary]\ntap = 1-2\ntiming_model = bg.model\n"
        held = []
        for packets in (50, 500):
            path = make_config(tmp_path, n_hops=10, fixed_ms=600.0, packets=packets,
                               gap_ms="auto", extra=extra)
            sim = Simulation(ScenarioConfig.from_file(path))
            result = sim.run()
            assert result.verdicts and result.metrics.packets_delivered == packets
            held.append(len(sim.tap.changes))
            assert 1 < held[-1] <= result.metrics.hop_count + 1
        assert held[0] == held[1], held


def _calls(action, targets) -> list[int]:
    """How often `action()` calls each `(owner, name)` of `targets`."""
    counts = [0] * len(targets)
    saved = [getattr(owner, name) for owner, name in targets]

    def counted(i, original):
        def wrapper(*args, **kwargs):
            counts[i] += 1
            return original(*args, **kwargs)

        return wrapper

    for i, ((owner, name), original) in enumerate(zip(targets, saved)):
        setattr(owner, name, counted(i, original))
    try:
        action()
    finally:
        for (owner, name), original in zip(targets, saved):
            setattr(owner, name, original)
    return counts


def _value_hashes(path) -> int:
    """Python-level `Address.__hash__` and `Prefix.__hash__` calls in one run."""
    sim = Simulation(ScenarioConfig.from_file(path))
    return sum(_calls(sim.run, [(Address, "__hash__"), (Prefix, "__hash__")]))


def test_packets_and_routing_messages_hash_no_address_or_prefix(tmp_path):
    # The packet and routing paths key their dicts and sets by `.key`, so
    # the count is fixed by the schedule: ten times the packets (sent over
    # ten times as many hops), or a graph with five times the ASes and
    # many more routing messages, leave it unchanged. The reactive tap
    # sits on the packets' path.
    counts = {}
    for name, packets, topo, tap in (
        ("line", 20, "1 2\n2 3\n", "2-3"),
        ("line_200_packets", 200, "1 2\n2 3\n", "2-3"),
        ("mesh", 20, MESH_CHURN_TOPOLOGY, "1-3"),
    ):
        root = tmp_path / name
        root.mkdir()
        path = make_config(
            root, n_hops=20, packets=packets, gap_ms="100", topo=topo,
            extra=f"[adversary]\ntap = {tap}\npolicy = reactive\ndetect_delay_ms = 300\n",
        )
        counts[name] = _value_hashes(path)
    assert counts["line_200_packets"] == counts["mesh"] == counts["line"], counts


def test_packets_are_built_only_on_lookups(tmp_path):
    # A packet is its header: sends start from one prebuilt header, and a
    # decision-cache hit returns the cached packet, so only a rule lookup
    # that rewrites a field builds one.
    shipped = Path(__file__).parents[1] / "configs"
    (tmp_path / "topo.txt").write_text("1 2\n2 3\n")
    configs = {
        stem: ScenarioConfig.from_file(shipped / f"{stem}.ini")
        for stem in ("one_way_hop111", "reactive_block", "baseline_static")
    }
    configs["two_way"] = ScenarioConfig.from_text(GOLDEN_TWO_WAY, base_dir=tmp_path)
    for name, config in configs.items():
        built, lookups = _calls(
            lambda: Simulation(config).run(),
            [(Packet, "__init__"), (session, "apply_detail")],
        )
        assert 0 < lookups and built <= lookups + 1, (name, built, lookups)


# The names the benchmark's span recorder (bench/tracer.py) wraps on the
# packet, flow-write and routing paths, called through the module global
# or class attribute that it replaces.
TRACED = (
    (session, "longest_match"), (session, "apply_detail"), (session, "filter_packet"),
    (ObserverTap, "observe"), (TraceLog, "emit"),
    (session, "install_hop_rules"), (session, "install_peer_rules"), (session, "expire_external"),
    (session, "process_message"),
)


def test_traced_call_counts(tmp_path):
    # longest_match once per header the client's table gives a send (the
    # sends that get the same header reuse its route key, and a crossing
    # carries it), filter_packet once per
    # tapped crossing under a blocking policy, observe once per tapped
    # crossing where a timing model reads the tap (none of the shipped
    # configs names one), apply_detail once per decision-cache miss, emit
    # once per trace line, one call per flow-table write, and
    # process_message once per update a receiver takes, though one
    # update goes to all of a sender's tree children: the span counts the
    # benchmark reports rest on these.
    shipped = Path(__file__).parents[1] / "configs"
    (tmp_path / "topo.txt").write_text("1 2\n2 3\n")
    configs = {
        stem: ScenarioConfig.from_file(shipped / f"{stem}.ini")
        for stem in ("one_way_hop111", "reactive_block", "baseline_static")
    }
    configs["two_way"] = ScenarioConfig.from_text(GOLDEN_TWO_WAY, base_dir=tmp_path)
    # reactive_block with a timing model, whose analysis reads the tap.
    from test_dwell import symbol_chain

    model = symbol_chain(3, {i: {j: 1 / 3 for j in range(3)} for i in range(3)})
    (tmp_path / "bg.model").write_text(model.to_text())
    timed = (shipped / "reactive_block.ini").read_text().replace("topo_line3.txt", "topo.txt")
    configs["reactive_timed"] = ScenarioConfig.from_text(
        timed + "timing_model = bg.model\n", base_dir=tmp_path
    )
    counts = {
        name: _calls(lambda: Simulation(config).run(), TRACED)
        for name, config in configs.items()
    }
    assert counts == {
        "one_way_hop111": [111, 446, 0, 0, 1572, 111, 111, 220, 4],
        "reactive_block": [111, 450, 672, 0, 1572, 111, 111, 220, 4],
        "baseline_static": [1, 2, 672, 0, 1347, 0, 0, 0, 2],
        "two_way": [10, 46, 0, 0, 87, 10, 10, 16, 8],
        "reactive_timed": [111, 450, 672, 672, 1572, 111, 111, 220, 4],
    }


class TestUnroutable:
    """A send that finds no route where it stands dies there as unroutable."""

    @staticmethod
    def _traffic(path):
        result = Simulation(ScenarioConfig.from_file(path)).run()
        lines = [ln.split(",", 3) for ln in result.trace if ",traffic," in ln]
        return result.metrics, [(event, details.split(";", 1)[1]) for _, _, event, details in lines]

    def test_sends_before_the_route_arrives(self, tmp_path):
        # Announced at 0 ms from AS 3, the route reaches AS 1 at 20 ms;
        # every send (1 to 20 ms) leaves before it.
        path = make_config(tmp_path, gap_ms="1")
        path.write_text(path.read_text().replace("[topology]", "lead_time_ms = 1\n\n[topology]"))
        metrics, traffic = self._traffic(path)
        assert metrics.packets_sent == 20 and metrics.packets_delivered == 0
        drops = [details for event, details in traffic if event == "drop"]
        assert drops == ["reason=unroutable;at=1"] * 20

    def test_client_on_a_disconnected_as(self, tmp_path):
        path = make_config(tmp_path, topo="1 2\n2 3\n4 5\n", client_as=4)
        metrics, traffic = self._traffic(path)
        assert metrics.packets_sent == 20 and metrics.packets_delivered == 0
        drops = [details for event, details in traffic if event == "drop"]
        assert drops == ["reason=unroutable;at=4"] * 20


class TestGuardDrops:
    """The egress and loop drops, which no legal config reaches, made by
    runs that change the client's table or the ribs."""

    @staticmethod
    def _traffic(result):
        lines = [ln.split(",", 3) for ln in result.trace if ",traffic," in ln]
        return [(float(t), event, details) for t, _, event, details in lines]

    def test_every_send_drops_at_egress_from_an_empty_client_table(self, tmp_path):
        # A static server installs no rule, so a client table emptied
        # before the run permits nothing: each send drops as it leaves.
        config = ScenarioConfig.from_file(make_config(tmp_path, server_hopping=False))
        sim = Simulation(config)
        sim.client.flow_table.rules.clear()
        result = sim.run()
        traffic = self._traffic(result)
        assert [(event, details) for _, event, details in traffic] == [
            ("drop", f"id={i};reason=egress") for i in range(20)
        ]
        metrics = result.metrics
        assert (metrics.packets_sent, metrics.packets_delivered) == (20, 0)
        assert metrics.per_hop_delivery == ((0, 0),)
        assert result.trace[-1] == f"{traffic[-1][0]:.3f},session,end,sent=20;delivered=0"

    def test_the_last_egress_drop_ends_the_traffic_metrics_count(self, tmp_path):
        # A hopping server's peer rules are what the client's table
        # gains; without them it stays empty and every send drops at
        # egress. The windows counted are those entered by the last drop.
        class NoPeerRules(Simulation):
            def _update_peer(self, agent, external, grace):
                pass

        config = ScenarioConfig.from_file(make_config(tmp_path))
        sim = NoPeerRules(config)
        sim.client.flow_table.rules.clear()
        result = sim.run()
        traffic = self._traffic(result)
        assert {(event, details.split(";", 1)[1]) for _, event, details in traffic} == {
            ("drop", "reason=egress")
        }
        last = traffic[-1][0]
        hops = [float(ln.split(",", 1)[0]) for ln in result.trace if "role=server" in ln]
        entered = sum(t <= last for t in hops)
        assert 0 < entered < len(hops)
        metrics = result.metrics
        assert metrics.packets_sent == len(traffic) == 20 and metrics.packets_delivered == 0
        assert metrics.distinct_external_ips_used == entered
        assert metrics.hop_count == entered - 1
        assert metrics.per_hop_delivery == tuple((k, 0) for k in range(entered))
        assert result.trace[-1].endswith(",session,end,sent=20;delivered=0")

    def test_a_rib_cycle_drops_as_a_loop(self, tmp_path):
        # Ribs hold paths up the origin's tree, so no legal run loops. With
        # a cycle written into the ribs once routing has settled, each
        # packet goes between ASes 1 and 2 until it has crossed more links
        # than the graph has ASes, and drops where it then stands.
        config = ScenarioConfig.from_file(
            make_config(tmp_path, server_hopping=False, packets=3, gap_ms="100")
        )
        sim = Simulation(config)
        key = Prefix(config.server_ip, config.server_ip.width).key
        nodes = sim.graph.nodes

        def cycle():
            assert nodes[1].rib[key] == (2, 3) and nodes[2].rib[key] == (3,)
            nodes[2].rib[key] = (1, 2, 3)

        sim.queue.schedule_at(config.lead_time_ms / 2, cycle)
        result = sim.run()
        sends = [config.lead_time_ms + i * 100 for i in range(3)]
        crossed = len(nodes) + 1  # the first crossing over the bound
        assert [(t, e, d) for t, e, d in self._traffic(result) if e == "drop"] == [
            (t + crossed * config.link_delay_ms, "drop", f"id={i};reason=loop;at=1")
            for i, t in enumerate(sends)
        ]
        metrics = result.metrics
        assert (metrics.packets_sent, metrics.packets_delivered) == (3, 0)
        assert result.trace[-1].endswith(",session,end,sent=3;delivered=0")
