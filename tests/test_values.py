"""The hand-written value types against `dataclasses` twins.

Each twin below is the frozen dataclass its type used to be, under the
same name, so that the generated `repr` names the same class. Both are
built from the same arguments, whose nested values are the package's own
types: so each check covers one level of nesting, and the levels below
are covered by their own rows.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopsim import addressing, config, covert, dwell, flowtable, hopping, routing, session
from hopsim.addressing import IPVersion
from hopsim.adversary import BlockMode
from hopsim.flowtable import AddrField, Direction
from hopsim.values import Frozen

ROOT = Path(__file__).resolve().parents[1]
V4, V6 = IPVersion.V4, IPVersion.V6


@dataclass(frozen=True)
class Address:
    version: IPVersion
    bits: int

    def __hash__(self):
        return hash(self.bits)


@dataclass(frozen=True)
class Prefix:
    base: object
    length: int

    def __hash__(self):
        return hash((self.base.bits, self.length))


@dataclass(frozen=True)
class PrefixPool:
    prefixes: tuple


@dataclass(frozen=True)
class Packet:
    src: object
    dst: object


@dataclass(frozen=True)
class FlowRule:
    priority: int
    direction: Direction
    field: AddrField
    value: object
    target: object = None


@dataclass(frozen=True)
class FlowTable:
    rules: tuple = ()


@dataclass(frozen=True)
class RouteMessage:
    sender: int
    receiver: int
    prefix: object
    path: tuple | None
    epoch: int


@dataclass(frozen=True)
class IntervalBin:
    symbol: int
    lower_ms: float
    upper_ms: float


@dataclass(frozen=True)
class IntervalAlphabet:
    bins: tuple


@dataclass(frozen=True)
class Transition:
    from_state: int
    symbol: int
    to_state: int
    probability: float


@dataclass(frozen=True)
class DhmmModel:
    num_states: int
    num_symbols: int
    transitions: tuple
    alphabet: object


@dataclass(frozen=True)
class FixedDwell:
    ms: float


@dataclass(frozen=True)
class UniformDwell:
    low_ms: float
    high_ms: float


@dataclass(frozen=True)
class DhmmDwell:
    name: str
    model: object


@dataclass(frozen=True)
class HopEntry:
    address: object
    dwell_ms: float


@dataclass(frozen=True)
class HopSchedule:
    seed: int
    entries: tuple


@dataclass(frozen=True)
class SyncPayload:
    seed: int
    pool: object
    dwell_model_id: str
    epoch_ms: float


@dataclass(frozen=True)
class PtrRecordSet:
    anchor_ip: object
    names: tuple


@dataclass(frozen=True)
class SessionMetrics:
    packets_sent: int
    packets_delivered: int
    distinct_external_ips_used: int
    hop_count: int
    mean_dwell_ms: float
    per_hop_delivery: tuple


@dataclass(frozen=True)
class AdversaryConfig:
    tap: tuple
    mode: object
    blocked: frozenset
    detect_delay_ms: float
    trigger_count: int
    timing_model: object
    detect_threshold: float


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    n_hops: int
    edges: tuple
    server_ip: object
    server_as: int
    server_pool: object
    client_ip: object
    client_as: int
    dwell: object
    packets: int
    gap_ms: float | None
    config_sha256: str
    server_deployment: object
    client_deployment: object
    server_hopping: bool
    grace_window_ms: float
    lead_time_ms: float
    withdraw_lag_ms: float
    link_delay_ms: float
    clock_skew_ms: float
    two_way: bool
    client_seed: int
    client_pool: object
    anchor_ip: object
    domain_tail: str
    adversary: object


# --- argument strategies: small domains, so equal values come up often ------

floats = st.sampled_from([0.5, 1.0, 2.5])
v4 = st.integers(0, 3).map(lambda b: addressing.Address(V4, b))
prefixes = st.tuples(st.integers(0, 3), st.integers(30, 32)).map(
    lambda t: addressing.Prefix(addressing.Address(V4, t[0] << (32 - t[1])), t[1])
)
pools = st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True).map(
    lambda ks: addressing.PrefixPool(
        tuple(addressing.Prefix(addressing.Address(V4, k << 8), 24) for k in ks)
    )
)
rule_args = st.tuples(
    st.integers(0, 2), st.sampled_from(Direction), st.sampled_from(AddrField), v4, st.none() | v4
)
rules = rule_args.map(lambda a: flowtable.FlowRule(*a))
paths = st.lists(st.integers(1, 3), max_size=2).map(tuple)
uppers = st.lists(st.sampled_from([1.0, 2.0, 5.0]), min_size=1, max_size=3, unique=True)
bins = uppers.map(sorted).map(
    lambda ups: tuple(
        dwell.IntervalBin(i, lo, hi) for i, (lo, hi) in enumerate(zip([0.0] + ups, ups))
    )
)
alphabets = bins.map(dwell.IntervalAlphabet)
models = alphabets.map(
    lambda a: dwell.DhmmModel(
        1, len(a), tuple(dwell.Transition(0, s, 0, 1 / len(a)) for s in range(len(a))), a
    )
)
entries = st.builds(hopping.HopEntry, v4, floats)

BASE_CONFIG = config.ScenarioConfig.from_file(ROOT / "configs" / "reactive_block.ini")
BASE_VALUES = tuple(getattr(BASE_CONFIG, f.name) for f in dataclasses.fields(ScenarioConfig))


def _config_args(seed: int, packets: int, adversary) -> tuple:
    values = list(BASE_VALUES)
    values[0], values[9], values[-1] = seed, packets, adversary
    return tuple(values)


adversaries = st.tuples(
    st.sampled_from([(1, 2), (2, 3)]),
    st.sampled_from([None, *BlockMode]),
    st.frozensets(v4 | prefixes, max_size=2),
    floats,
    st.integers(1, 2),
    st.none() | models,
    floats,
)

# (real type, twin, strategy of constructor arguments)
CASES = [
    (addressing.Address, Address, st.one_of(
        st.tuples(st.sampled_from(IPVersion), st.integers(0, 3)),
        st.tuples(st.just(V4), st.integers(0, 2**32 - 1)),
        st.tuples(st.just(V6), st.integers(0, 2**128 - 1)),
    )),
    (addressing.Prefix, Prefix, prefixes.map(lambda p: (p.base, p.length))),
    (addressing.PrefixPool, PrefixPool, pools.map(lambda p: (p.prefixes,))),
    (flowtable.Packet, Packet, st.tuples(v4, v4)),
    (flowtable.FlowRule, FlowRule, rule_args),
    (flowtable.FlowTable, FlowTable, st.tuples(
        st.lists(rules, max_size=4, unique_by=lambda r: (r.key, r.priority)).map(tuple),
    )),
    (routing.RouteMessage, RouteMessage, st.tuples(
        st.integers(1, 2), st.integers(1, 2), prefixes, st.none() | paths, st.integers(0, 2)
    )),
    (dwell.IntervalBin, IntervalBin, st.tuples(st.integers(0, 2), floats, floats)),
    (dwell.IntervalAlphabet, IntervalAlphabet, bins.map(lambda b: (b,))),
    (dwell.Transition, Transition, st.tuples(
        st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.sampled_from([0.5, 1.0])
    )),
    (dwell.DhmmModel, DhmmModel, models.map(
        lambda m: (m.num_states, m.num_symbols, m.transitions, m.alphabet)
    )),
    (dwell.FixedDwell, FixedDwell, st.tuples(floats)),
    (dwell.UniformDwell, UniformDwell, st.tuples(floats, floats)),
    (dwell.DhmmDwell, DhmmDwell, st.tuples(st.sampled_from(["bg", "fg"]), models)),
    (hopping.HopEntry, HopEntry, st.tuples(v4, floats)),
    (hopping.HopSchedule, HopSchedule, st.tuples(
        st.integers(0, 2), st.lists(entries, max_size=3).map(tuple)
    )),
    (covert.SyncPayload, SyncPayload, st.tuples(
        st.integers(0, 2) | st.integers(0, 2**64 - 1),
        pools,
        st.sampled_from(["fixed:500.0", "bg"]),
        floats,
    )),
    (covert.PtrRecordSet, PtrRecordSet, st.tuples(
        v4, st.lists(st.sampled_from(["aa.example.net", "ab.example.net"]), max_size=2).map(tuple)
    )),
    (session.SessionMetrics, SessionMetrics, st.tuples(
        st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), st.integers(0, 1), floats,
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=2).map(tuple),
    ).filter(lambda a: a[1] <= a[0])),
    (config.AdversaryConfig, AdversaryConfig, adversaries),
    (config.ScenarioConfig, ScenarioConfig, st.builds(
        _config_args,
        st.integers(0, 2),
        st.integers(0, 2),
        st.none() | adversaries.map(lambda a: config.AdversaryConfig(*a)),
    )),
]


def test_every_value_type_has_a_twin():
    modules = (addressing, config, covert, dwell, flowtable, hopping, routing, session)
    frozen = {
        obj for module in modules for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Frozen) and obj is not Frozen
    }
    assert frozen == {real for real, _, _ in CASES}


@pytest.mark.parametrize("real, twin, arguments", CASES, ids=[c[1].__name__ for c in CASES])
@given(data=st.data())
def test_matches_its_dataclass_twin(real, twin, arguments, data):
    a, b = data.draw(arguments), data.draw(arguments)
    x, y, tx, ty = real(*a), real(*b), twin(*a), twin(*b)
    assert (x == y) is (tx == ty)
    assert (x != y) is (tx != ty)
    assert hash(x) == hash(tx)
    assert repr(x) == repr(tx)
    # Another class never compares equal, the twin included.
    assert x != tx and tx != x and x != a and x is not None
    assert not hasattr(x, "__dict__")

    # Arguments bind by name as by position, and a bad argument list is a
    # TypeError for the type as for its twin.
    names = [f.name for f in dataclasses.fields(twin)]
    assert len(a) == len(names)
    split = data.draw(st.integers(0, len(a)))
    assert real(*a[:split], **dict(zip(names[split:], a[split:]))) == x
    bad_calls = [
        ((*a, a[0]), {}),  # one positional argument too many
        (a, {"no_such_field": 1}),
        (a, {names[0]: a[0]}),  # the first field by position and by name
    ]
    required = [f.name for f in dataclasses.fields(twin) if f.default is dataclasses.MISSING]
    if required:  # every field by name but the last one without a default
        bad_calls.append(((), {n: v for n, v in zip(names, a) if n != required[-1]}))
    for args, kwargs in bad_calls:
        for cls in (real, twin):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    for name in names + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(y, name, None))
        with pytest.raises(AttributeError):
            delattr(x, name)

    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(clone) is real
        assert clone == x and hash(clone) == hash(x)
        # Not repr(x): a rebuilt frozenset field may list its items in another order.
        assert repr(clone) == repr(twin(*(getattr(clone, n) for n in names)))

    name = data.draw(st.sampled_from(names))
    changed = [getattr(y, n) if n == name else getattr(x, n) for n in names]
    expected = dataclasses.replace(tx, **{name: getattr(y, name)})
    assert x.replace() == x
    try:
        rebuilt = real(*changed)
    except ValueError:
        with pytest.raises(ValueError):
            x.replace(**{name: getattr(y, name)})
    else:
        result = x.replace(**{name: getattr(y, name)})
        assert result == rebuilt and repr(result) == repr(expected)
    with pytest.raises(TypeError):
        x.replace(no_such_field=1)


def test_importing_the_cli_loads_no_dataclass_machinery():
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import hopsim.cli; "
        "print(','.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""
