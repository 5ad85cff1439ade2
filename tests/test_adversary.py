import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopsim.addressing import Address, IPVersion, Prefix
from hopsim.adversary import (
    BlockMode,
    BlockPolicy,
    EmptyInput,
    ObserverTap,
    Verdict,
    extract_hop_intervals,
    filter_packet,
    timing_detect,
)
from hopsim.dwell import distribution_distance, infer_dhmm, quantile_alphabet, start_sampler
from hopsim.flowtable import Packet
from hopsim.rng import SplitMix64

CLIENT = Address.parse("184.164.242.5")
SERVER1 = Address.parse("184.164.243.1")
SERVER2 = Address.parse("184.164.243.2")
SERVER3 = Address.parse("184.164.243.3")


def packet(src=CLIENT, dst=SERVER1):
    return Packet(src, dst)


def background_model(seed=2024, n=20_000, bins=8):
    rng = SplitMix64(seed)
    trace = []
    for _ in range(n):
        u = rng.random()
        if u < 0.5:
            trace.append(rng.uniform(200.0, 2000.0))
        elif u < 0.8:
            trace.append(rng.uniform(2000.0, 8000.0))
        else:
            trace.append(rng.uniform(8000.0, 20000.0))
    alphabet = quantile_alphabet(trace, bins)
    return infer_dhmm(trace, alphabet, order=1), alphabet


class TestFilter:
    def test_empty_policy_passes_everything(self):
        policy = BlockPolicy()
        assert filter_packet(policy, packet(), at=0.0) is Verdict.PASS

    def test_static_address_block(self):
        policy = BlockPolicy(blocked={SERVER1})
        assert filter_packet(policy, packet(dst=SERVER1), at=0.0) is Verdict.BLOCK
        assert filter_packet(policy, packet(dst=SERVER2), at=0.0) is Verdict.PASS

    def test_blocks_on_source_too(self):
        policy = BlockPolicy(blocked={CLIENT})
        assert filter_packet(policy, packet(src=CLIENT), at=0.0) is Verdict.BLOCK

    def test_prefix_entry_uses_containment(self):
        policy = BlockPolicy(blocked={Prefix.parse("184.164.243.0/24")})
        assert filter_packet(policy, packet(dst=SERVER2), at=0.0) is Verdict.BLOCK
        assert filter_packet(policy, packet(dst=Address.parse("184.164.242.9")), at=0.0) is Verdict.PASS

    def test_reactive_blocks_after_delay(self):
        policy = BlockPolicy(mode=BlockMode.REACTIVE, detect_delay_ms=5000.0)
        assert filter_packet(policy, packet(dst=SERVER1), at=0.0) is Verdict.PASS
        assert filter_packet(policy, packet(dst=SERVER1), at=4999.0) is Verdict.PASS
        assert filter_packet(policy, packet(dst=SERVER1), at=5000.0) is Verdict.BLOCK
        # A fresh destination starts its own clock.
        assert filter_packet(policy, packet(dst=SERVER2), at=6000.0) is Verdict.PASS

    def test_reactive_trigger_count(self):
        policy = BlockPolicy(mode=BlockMode.REACTIVE, detect_delay_ms=10.0, trigger_count=3)
        for t in (0.0, 1.0):
            assert filter_packet(policy, packet(dst=SERVER1), at=t) is Verdict.PASS
        filter_packet(policy, packet(dst=SERVER1), at=2.0)  # third sighting arms the block
        assert filter_packet(policy, packet(dst=SERVER1), at=11.0) is Verdict.PASS
        assert filter_packet(policy, packet(dst=SERVER1), at=12.0) is Verdict.BLOCK

    def test_reactive_requires_positive_delay(self):
        with pytest.raises(ValueError):
            BlockPolicy(mode=BlockMode.REACTIVE, detect_delay_ms=0.0)

    @pytest.mark.parametrize("trigger", [0, -3])
    def test_rejects_trigger_count_below_one(self, trigger):
        # A count of 0 is never reached, so the filter would pass every packet.
        with pytest.raises(ValueError, match="trigger count"):
            BlockPolicy(mode=BlockMode.REACTIVE, detect_delay_ms=1.0, trigger_count=trigger)
        with pytest.raises(ValueError, match="trigger count"):
            BlockPolicy(frozenset(), BlockMode.STATIC, 0.0, trigger)

    def test_blocked_is_frozen_at_construction(self):
        entries = [SERVER1, Prefix.parse("184.164.242.0/24")]
        policy = BlockPolicy(blocked=entries)
        entries.clear()
        assert policy.blocked == frozenset({SERVER1, Prefix.parse("184.164.242.0/24")})
        assert filter_packet(policy, packet(src=SERVER2, dst=SERVER1), at=0.0) is Verdict.BLOCK


# Addresses and prefixes inside one /24 (v4) or /120 (v6), so that
# generated prefixes nest and probes land in them. One v6 base has the
# bits of the v4 base, so an index that drops the version confuses them.
HOST_BITS = 8
NET_BASE = {
    IPVersion.V4: [Address.parse("198.51.100.0").bits],
    IPVersion.V6: [Address.parse("2001:db8::").bits, Address.parse("::c633:6400").bits],
}


def addresses(version):
    return st.builds(
        lambda base, low: Address(version, base | low),
        st.sampled_from(NET_BASE[version]), st.integers(0, (1 << HOST_BITS) - 1),
    )


@st.composite
def block_entries(draw):
    version = draw(st.sampled_from(list(IPVersion)))
    address = draw(addresses(version))
    if draw(st.booleans()):
        return address
    host = draw(st.integers(0, HOST_BITS))
    return Prefix(Address(version, address.bits >> host << host), address.width - host)


@st.composite
def observations(draw):
    version = draw(st.sampled_from(list(IPVersion)))
    return draw(addresses(version)), draw(addresses(version)), draw(st.floats(0.0, 50.0))


def scan_verdicts(blocked, mode, delay, trigger, sightings):
    """Reference filter: a linear containment scan over `blocked`."""
    counts, pending, out = {}, {}, []
    for src, dst, at in sightings:
        if mode is BlockMode.REACTIVE:
            counts[dst] = counts.get(dst, 0) + 1
            if counts[dst] == trigger and dst not in pending:
                pending[dst] = at + delay

        def listed(a):
            return any(
                e.contains(a) if isinstance(e, Prefix) else e == a for e in blocked
            ) or (a in pending and at >= pending[a])

        out.append(Verdict.BLOCK if listed(src) or listed(dst) else Verdict.PASS)
    return out


class TestIndexedBlocklist:
    @given(
        st.lists(block_entries(), max_size=12),
        st.sampled_from(list(BlockMode)),
        st.floats(0.5, 20.0),
        st.integers(1, 3),
        st.lists(observations(), max_size=20),
    )
    def test_matches_linear_scan(self, blocked, mode, delay, trigger, steps):
        sightings, t = [], 0.0
        for src, dst, gap in steps:
            t += gap
            sightings.append((src, dst, t))
        policy = BlockPolicy(blocked, mode, detect_delay_ms=delay, trigger_count=trigger)
        got = [
            filter_packet(policy, Packet(src, dst), at=at)
            for src, dst, at in sightings
        ]
        assert got == scan_verdicts(blocked, mode, delay, trigger, sightings)


class TestObserverTap:
    def test_watches_its_link_in_either_direction(self):
        tap = ObserverTap((2, 1))
        assert tap.watches(1, 2) and tap.watches(2, 1)
        assert not (tap.watches(1, 3) or tap.watches(1, 1) or tap.watches(2, 2))


class TestExtractHopIntervals:
    def test_single_address_session(self):
        tap = ObserverTap((1, 2))
        for i in range(5):
            tap.observe(float(i), packet())
        assert extract_hop_intervals(tap) == []

    def test_constructed_three_hop_trace(self):
        tap = ObserverTap((1, 2))
        plan = [(0.0, SERVER1), (5.0, SERVER1), (10.0, SERVER2), (15.0, SERVER2), (20.0, SERVER3)]
        for t, dst in plan:
            tap.observe(t, packet(dst=dst))
        assert extract_hop_intervals(tap) == [10.0, 10.0]

    def test_background_flows_do_not_disturb_grouping(self):
        isolated = ObserverTap((1, 2))
        mixed = ObserverTap((1, 2))
        noise_src = Address.parse("198.51.100.1")
        noise_dst = Address.parse("198.51.100.2")
        plan = [(0.0, SERVER1), (10.0, SERVER2), (20.0, SERVER3)]
        t_noise = 0.0
        for t, dst in plan:
            isolated.observe(t, packet(dst=dst))
            while t_noise <= t:
                mixed.observe(t_noise, packet(src=noise_src, dst=noise_dst))
                t_noise += 3.0
            mixed.observe(t, packet(dst=dst))
        assert extract_hop_intervals(mixed) == extract_hop_intervals(isolated)

    def test_explicit_flow_selection(self):
        tap = ObserverTap((1, 2))
        tap.observe(0.0, packet(dst=SERVER1))
        tap.observe(1.0, packet(src=SERVER1, dst=CLIENT))
        assert extract_hop_intervals(tap, flow_src=CLIENT) == []

    def test_log_must_stay_ordered(self):
        tap = ObserverTap((1, 2))
        tap.observe(5.0, packet())
        with pytest.raises(ValueError):
            tap.observe(4.0, packet())


class TestTimingDetect:
    def test_null_calibration(self):
        model, alphabet = background_model()
        sample = start_sampler(model, 7).take(10_000)
        stat = timing_detect(sample, model, alphabet, reference_seed=1234)
        assert stat < 0.05

    def test_fixed_rate_sticks_out(self):
        model, alphabet = background_model()
        stat = timing_detect([10_000.0] * 10_000, model, alphabet, reference_seed=1)
        assert stat > 0.5

    def test_massaged_intervals_blend_in(self):
        model, alphabet = background_model()
        massaged = start_sampler(model, 4242).take(10_000)
        assert timing_detect(massaged, model, alphabet, reference_seed=77) < 0.05

    def test_empty_input(self):
        model, alphabet = background_model(n=2000)
        with pytest.raises(EmptyInput):
            timing_detect([], model, alphabet)

    def test_statistic_is_the_shared_distance(self):
        model, alphabet = background_model(n=2000)
        intervals = start_sampler(model, 3).take(500)
        reference = start_sampler(model, 0).take(500)
        assert timing_detect(intervals, model, alphabet, reference_seed=0) == pytest.approx(
            distribution_distance(intervals, reference, alphabet)
        )
