"""hopsim: deterministic simulator for seed-synchronized IP address hopping."""

from .addressing import Address, IPVersion, Prefix, PrefixPool
from .adversary import BlockMode, BlockPolicy, ObserverTap, Verdict, extract_hop_intervals, timing_detect
from .config import ScenarioConfig
from .covert import PtrRecordSet, ReverseZone, SyncPayload, decode_payload, encode_payload
from .dwell import (
    DhmmModel,
    DwellSampler,
    IntervalAlphabet,
    IntervalBin,
    distribution_distance,
    infer_dhmm,
    quantile_alphabet,
    start_sampler,
)
from .flowtable import (
    Direction,
    FlowRule,
    FlowTable,
    Packet,
    apply,
    grace_set,
    install_hop_rules,
    install_peer_rules,
)
from .hopping import (
    HopSchedule,
    active_address,
    build_schedule,
    collision_probability,
    generate_addresses,
    generate_unique_addresses,
)
from .routing import AsGraph, announce, converge, route_lookup, withdraw
from .session import (
    EndpointAgent,
    SessionMetrics,
    Simulation,
    hop,
    run_scenario,
    synchronize,
)

__version__ = "0.1.0"
