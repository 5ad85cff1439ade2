import hashlib
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopsim import session
from hopsim.addressing import Address, Prefix, PrefixPool
from hopsim.config import DeploymentMode, ScenarioConfig
from hopsim.covert import SyncPayload
from hopsim.dwell import FixedDwell, UniformDwell, resolve_dwell_source
from hopsim.errors import (
    ConfigError,
    ScenarioError,
    ScheduleExhausted,
    UnknownModel,
)
from hopsim.events import EventQueue
from hopsim.flowtable import Packet, grace_set
from hopsim.hopping import build_schedule
from hopsim.routing import AsGraph, announce, converge
from hopsim.rng import SplitMix64
from hopsim.session import (
    EndpointAgent,
    Role,
    SessionMetrics,
    Simulation,
    hop,
    synchronize,
)

from conftest import make_config

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
        queue.schedule_in(1.0, fired.append, "tied")
        assert queue.run() == 4
        assert fired == ["no-args", "a", "b", "tied", "late"]
        assert queue.now == 2.0

    def test_rejects_the_past(self):
        queue = EventQueue(start=5.0)
        with pytest.raises(ValueError):
            queue.schedule_at(4.0, print, "never")
        with pytest.raises(ValueError):
            queue.schedule_in(-0.5, print, "never")
        with pytest.raises(ValueError):
            queue.schedule_at(math.nan, print, "never")
        with pytest.raises(ValueError):
            queue.schedule_in(math.nan, print, "never")
        queue.schedule_in(0.0, print, "now")
        assert queue.now == 5.0 and len(queue._heap) == 1

    def test_advance_to(self):
        queue, fired = EventQueue(start=1.0), []
        assert queue.advance_to(2.0) and queue.now == 2.0  # empty heap
        queue.schedule_at(3.0, fired.append, "queued")
        assert queue.advance_to(2.5) and queue.now == 2.5
        # Due exactly at the target: it was queued first, so it blocks.
        assert not queue.advance_to(3.0) and queue.now == 2.5
        assert not queue.advance_to(4.0) and queue.now == 2.5
        for bad in (2.0, math.nan):
            with pytest.raises(ValueError):
                queue.advance_to(bad)
        assert queue.now == 2.5 and fired == []
        assert queue.run() == 1 and fired == ["queued"]

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
        # A run of events at non-decreasing times (gap 0 ties), each of
        # whose handlers queues follow-ups; other events sit in the queue
        # from before and after the run was queued.
        times = [float(sum(gaps[: j + 1])) for j in range(len(gaps))]

        def fire(one_by_one: bool) -> tuple[int, list]:
            queue, fired = EventQueue(), []

            def other(label):
                fired.append((queue.now, label))

            def step(j):
                if one_by_one and j + 1 < len(times):
                    queue.schedule_reserved(times[j + 1], first + j + 1, step, j + 1)
                fired.append((queue.now, "run", j))
                for i, delay in enumerate(follow_ups[j] if j < len(follow_ups) else ()):
                    queue.schedule_in(delay, other, ("follow-up", j, i))

            for t in before:
                queue.schedule_at(float(t), other, ("before", t))
            if one_by_one:
                first = queue.reserve(len(times))
                queue.schedule_reserved(times[0], first, step, 0)
            else:
                for j, t in enumerate(times):
                    queue.schedule_at(t, step, j)
            for t in after:
                queue.schedule_at(float(t), other, ("after", t))
            return queue.run(), fired

        assert fire(one_by_one=True) == fire(one_by_one=False)


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
        source = resolve_dwell_source("bg", {"bg": model})
        a = synchronize(server, payload, source, 50)
        b = synchronize(client, payload, source, 50)
        assert a == b
        assert all(e.dwell_ms > 0 for e in a.entries)

    def test_different_seeds_diverge(self):
        server, _ = agents()
        source = UniformDwell(1000.0, 10_000.0)
        a = synchronize(server, SyncPayload(1, POOL, source.model_id, 0.0), source, 3)
        b = synchronize(server, SyncPayload(2, POOL, source.model_id, 0.0), source, 3)
        assert [e.address for e in a.entries] != [e.address for e in b.entries]

    def test_unknown_model(self):
        with pytest.raises(UnknownModel):
            resolve_dwell_source("missing-model", {})

    def test_schedule_addresses_distinct(self):
        server, _ = agents()
        source = FixedDwell(100.0)
        schedule = synchronize(server, SyncPayload(5, POOL, source.model_id, 0.0), source, 200)
        assert len({e.address for e in schedule.entries}) == 200


class TestHopOperation:
    def make_agent(self, n=3):
        agent = EndpointAgent(Role.SERVER, SERVER_IP, 3)
        agent.schedule = build_schedule(9, POOL, n, [1000.0] * n)
        return agent

    def test_first_hop_has_no_grace_entry(self):
        agent = self.make_agent()
        hop(agent, 0, grace_window_ms=200.0)
        assert grace_set(agent.flow_table) == {agent.schedule.entries[0].address}

    def test_mid_schedule_hop_keeps_previous_address_in_grace(self):
        agent = self.make_agent()
        hop(agent, 0, grace_window_ms=200.0)
        hop(agent, 1, grace_window_ms=200.0)
        first, second = agent.schedule.entries[0].address, agent.schedule.entries[1].address
        assert grace_set(agent.flow_table) == {first, second}

    def test_zero_grace_drops_old_address_immediately(self):
        agent = self.make_agent()
        hop(agent, 0, grace_window_ms=0.0)
        hop(agent, 1, grace_window_ms=0.0)
        assert grace_set(agent.flow_table) == {agent.schedule.entries[1].address}

    def test_schedule_exhausted(self):
        agent = self.make_agent(2)
        with pytest.raises(ScheduleExhausted):
            hop(agent, 2)

    def test_announce_assertion(self):
        agent = self.make_agent()
        graph = AsGraph.from_edges([(1, 3)])
        with pytest.raises(ScenarioError):
            hop(agent, 0, graph=graph)
        announce(graph, POOL.prefixes[0], 3)
        converge(graph)
        hop(agent, 0, graph=graph)  # now fine

    def test_static_agent_cannot_hop(self):
        agent = EndpointAgent(Role.SERVER, SERVER_IP, 3)
        with pytest.raises(ScenarioError):
            hop(agent, 0)


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
            config.lead_time_ms + 990.0, lambda: sim._emit_packet(0)
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
        path = make_config(
            tmp_path, dwell="uniform", low_ms=300.0, high_ms=900.0, n_hops=12,
            packets=30, gap_ms="120",
        )
        result = Simulation(ScenarioConfig.from_file(path)).run()
        sends = [ln for ln in result.trace if ",traffic," in ln]
        last_resolution = max(
            float(ln.split(",")[0])
            for ln in result.trace
            if ",traffic,deliver," in ln or ",traffic,drop," in ln
        )
        hops_before_end = [
            ln for ln in result.trace
            if ",session,hop," in ln and float(ln.split(",")[0]) <= last_resolution
        ]
        externals = {ln.split("external=")[1].split(";")[0] for ln in hops_before_end}
        assert result.metrics.distinct_external_ips_used == len(externals)
        assert result.metrics.hop_count == len(hops_before_end) - 1
        assert sends  # sanity

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

    def test_gateway_deployment_behaves_like_host(self, tmp_path):
        host_path = make_config(tmp_path, n_hops=3, fixed_ms=500.0, packets=10, gap_ms="100")
        host_metrics = Simulation(ScenarioConfig.from_file(host_path)).run().metrics
        gw_text = host_path.read_text().replace(
            "attached_as = 3", "attached_as = 3\ndeployment = gateway"
        )
        gw_path = host_path.parent / "gw.ini"
        gw_path.write_text(gw_text)
        gw_config = ScenarioConfig.from_file(gw_path)
        assert gw_config.server_deployment is DeploymentMode.GATEWAY
        gw_result = Simulation(gw_config).run()
        assert gw_result.metrics == host_metrics
        assert any("via=gateway" in ln for ln in gw_result.trace)

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
            edges = [(rng.below(i) + 1, i + 1) for i in range(1, size)]
            for _ in range(rng.below(size)):
                a, b = rng.below(size) + 1, rng.below(size) + 1
                if a != b:
                    edges.append((min(a, b), max(a, b)))
            topo = "\n".join(f"{a} {b}" for a, b in sorted(set(edges))) + "\n"
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
        "1000.000,session,hop,role=server;index=0;external=184.164.243.237;via=host",
        "1000.000,traffic,send,id=0;src=184.164.242.77;dst=184.164.243.237",
        "1020.000,traffic,deliver,id=0;window=0",
        "1400.000,traffic,send,id=1;src=184.164.242.77;dst=184.164.243.237",
        "1420.000,traffic,deliver,id=1;window=0",
        "2000.000,session,hop,role=server;index=1;external=184.164.243.137;via=host",
        "2200.000,session,grace_expire,external=184.164.243.237",
        "3500.000,route,withdraw,prefix=184.164.243.0/24;origin=3",
        "3530.000,session,end,sent=2;delivered=2",
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
        "2187eff10c0b83dfb60cf4cbff3b6d65a6fc435f4228055b851185595430492c"
    )


class TestRoutingChurn:
    """Sessions on meshes, where coalesced route updates bound the work."""

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
            assert sim.graph.origins
            for asn, node in sim.graph.nodes.items():
                assert set(node.rib) == set(sim.graph.origins), asn
            for prefix, origin in sim.graph.origins.items():
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
        assert not sim.graph.origins and not sim.graph.pending
        assert all(not n.rib and not n.learned for n in sim.graph.nodes.values())

    def test_200_as_graph_session_is_bounded(self, tmp_path, processed, routing_calls):
        # Uncoalesced, a single withdrawal on this kind of graph ran past
        # 3M routing messages, and coalesced, 47,765 on this one. Naming its
        # root cause, it costs at most one message per link direction: 798.
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
        assert routing_calls["process_message"] <= actions * 2 * len(edges)

    def test_mesh_session_routing_is_linear_in_the_graph(self, tmp_path, routing_calls):
        # A withdrawal that names its root cause costs, like an announcement,
        # at most one message per link direction. Path exploration made each
        # withdrawal on this mesh cost several times that.
        pool = ",".join(f"100.64.{i}.0/24" for i in range(32))
        path = make_config(
            tmp_path, n_hops=12, pool=pool, fixed_ms=1000.0, packets=24, gap_ms="auto",
            topo=MESH_CHURN_TOPOLOGY, server_as=16, client_as=1,
        )
        metrics = Simulation(ScenarioConfig.from_file(path)).run().metrics
        assert metrics.packets_delivered == metrics.packets_sent == 24
        edges = MESH_CHURN_TOPOLOGY.count("\n")
        actions = routing_calls["announce"] + routing_calls["withdraw"]
        assert actions >= 16
        assert routing_calls["process_message"] <= actions * 2 * edges


# The 16-AS graph of the mesh_churn benchmark workload.
MESH_CHURN_TOPOLOGY = (
    "1 2\n1 3\n1 4\n1 5\n1 8\n1 14\n2 6\n2 12\n2 14\n3 5\n3 10\n3 11\n"
    "3 15\n4 7\n4 9\n4 10\n5 6\n5 7\n5 14\n6 16\n8 13\n11 16\n13 15\n"
)


class _QueueEveryCrossing(EventQueue):
    """A queue that never lets a link crossing run inline."""

    def advance_to(self, at: float) -> bool:
        return False


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


REACTIVE_TAP = (
    "[adversary]\ntap = {}\npolicy = reactive\ndetect_delay_ms = 500\ntiming_model = bg.model\n"
)

# make_config options and extra [scenario] lines. Fixed 1 s windows and
# 100 ms gaps put sends at the same instants as hops and grace expiries.
# At zero delay such a send crosses every link at that instant, and a
# 300 ms skew still points the send at each grace expiry to the expiring
# address: the crossing must queue behind the expiry and die on arrival.
INLINE_CASES = {
    "mesh": (dict(topo=MESH_CHURN_TOPOLOGY, server_as=16, extra=REACTIVE_TAP.format("1-2"),
                  pool=",".join(f"100.64.{i}.0/24" for i in range(4))), ""),
    "zero_delay": ({}, "link_delay_ms = 0\nclock_skew_ms = 300\n"),
    "reactive_tap": (dict(extra=REACTIVE_TAP.format("2-3")), ""),
}


class TestInlineCrossing:
    """Taking a link crossing inline gives the run that queueing it gives."""

    @pytest.mark.parametrize("case", [*INLINE_CASES, "two_way_skew"])
    def test_inline_crossing_matches_queued(self, tmp_path, processed, case):
        from test_dwell import symbol_chain

        if case == "two_way_skew":
            (tmp_path / "topo.txt").write_text("1 2\n2 3\n")
            config = ScenarioConfig.from_text(GOLDEN_TWO_WAY, base_dir=tmp_path)
        else:
            model = symbol_chain(3, {i: {j: 1 / 3 for j in range(3)} for i in range(3)})
            (tmp_path / "bg.model").write_text(model.to_text())
            options, scenario = INLINE_CASES[case]
            path = make_config(tmp_path, n_hops=8, packets=60, gap_ms="100", **options)
            path.write_text(path.read_text().replace("[topology]", scenario + "\n[topology]"))
            config = ScenarioConfig.from_file(path)
        inline = Simulation(config).run()
        sim = Simulation(config)
        sim.queue = _QueueEveryCrossing()
        queued = sim.run()
        assert inline.trace_text() == queued.trace_text()
        assert inline.metrics.to_dict() == queued.metrics.to_dict()
        assert inline.verdicts == queued.verdicts
        assert processed[0] < processed[1]
        assert ",traffic,deliver," in inline.trace_text()
        if case == "zero_delay":
            assert ";reason=no_rule;" in inline.trace_text()
        elif case != "two_way_skew":
            assert ",adversary,block," in inline.trace_text() and inline.verdicts

    def test_shipped_configs_event_counts(self, processed):
        configs = Path(__file__).parents[1] / "configs"
        for stem in ("one_way_hop111", "reactive_block", "baseline_static"):
            Simulation(ScenarioConfig.from_file(configs / f"{stem}.ini")).run()
        assert processed == [1135, 1144, 676]

    def test_line_longer_than_the_recursion_limit(self, tmp_path):
        size = sys.getrecursionlimit() + 100
        path = make_config(
            tmp_path, n_hops=2, packets=10, gap_ms="auto", server_as=size,
            topo="".join(f"{a} {a + 1}\n" for a in range(1, size)),
        )
        path.write_text(path.read_text().replace("[topology]", "link_delay_ms = 0.1\n\n[topology]"))
        metrics = Simulation(ScenarioConfig.from_file(path)).run().metrics
        assert metrics.packets_delivered == metrics.packets_sent == 10


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
