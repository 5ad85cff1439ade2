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
    install_hop_rules,
    install_peer_rules,
)
from .hopping import (
    HopSchedule,
    build_schedule,
    collision_probability,
    generate_unique_addresses,
)
from .routing import AsGraph, announce, converge, withdraw
from .session import (
    EndpointAgent,
    SessionMetrics,
    Simulation,
    hop,
    synchronize,
)

__version__ = "0.1.0"
