import pytest
from hypothesis import HealthCheck, settings

from hopsim.addressing import Address, PrefixPool
from hopsim.events import TraceLog
from hopsim.flowtable import Direction, Packet, apply_detail
from hopsim.routing import RouteMessage, process_message
from hopsim.session import Simulation

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def rewritten_inbound(table, internal, externals):
    """The `externals` whose inbound packets `table` rewrites to `internal`."""
    found = set()
    for external in externals:
        result, _ = apply_detail(table, Packet(internal, external), Direction.INBOUND)
        if result is not None and result.dst == internal:
            found.add(external)
    return found


def flood(graph, prefix) -> int:
    """Carry the origin's entry for `prefix` down its shortest-path tree,
    one layer at a time, as a session's wave does without the link
    delays; returns the number of rib entries that changed."""
    origin = graph.origins.get(prefix.key)
    tree = {} if origin is None else graph.children(origin)
    senders, changes = [origin] if tree else [], 0
    while senders:
        layer = []
        for sender in senders:
            path = graph.nodes[sender].rib.get(prefix.key)
            msg = RouteMessage(sender, prefix, None if path is None else (sender,) + path)
            for child in tree.get(sender, ()):
                if process_message(graph, msg, child):
                    layer.append(child)
        changes += len(layer)
        senders = layer
    return changes


class _TimedTrace(TraceLog):
    """A kept trace that also keeps each line's exact time, in `times`."""

    def __init__(self):
        super().__init__()
        self.times = []

    def emit(self, t, component, event, details=""):
        self.times.append(t)
        super().emit(t, component, event, details)


def timed_run(config):
    """Run `config`; give its trace as (exact time, line) pairs."""
    trace = _TimedTrace()
    Simulation(config, trace).run()
    return list(zip(trace.times, trace.lines))


@pytest.fixture
def pool24() -> PrefixPool:
    return PrefixPool.parse("184.164.243.0/24")


@pytest.fixture
def pool30() -> PrefixPool:
    return PrefixPool.parse("192.0.2.8/30")


@pytest.fixture
def internal() -> Address:
    return Address.parse("10.0.0.1")


@pytest.fixture
def line_topology(tmp_path):
    """Three-AS line 1-2-3 written to disk for scenario configs."""
    path = tmp_path / "topo.txt"
    path.write_text("1 2\n2 3\n")
    return path


def make_config(
    tmp_path,
    *,
    seed=42,
    n_hops=5,
    pool="184.164.243.0/24",
    dwell="fixed",
    fixed_ms=1000.0,
    low_ms=1000.0,
    high_ms=10000.0,
    packets=20,
    gap_ms="100",
    grace_ms=200.0,
    extra="",
    server_hopping=True,
    topo="1 2\n2 3\n",
    server_as=3,
    client_as=1,
    server_ip="10.0.0.1",
    client_pool=None,
):
    """Write a scenario config (plus topology) into tmp_path; returns the path.

    A `client_pool` goes into `[client]`; two-way mode also needs
    `two_way = true` in `[scenario]`.
    """
    (tmp_path / "topo.txt").write_text(topo)
    client_pool = "" if client_pool is None else f"pool = {client_pool}\n"
    text = f"""
[scenario]
seed = {seed}
n_hops = {n_hops}
grace_window_ms = {grace_ms}

[topology]
file = topo.txt

[server]
internal_ip = {server_ip}
attached_as = {server_as}
pool = {pool}
hopping = {"true" if server_hopping else "false"}

[client]
internal_ip = 184.164.242.77
attached_as = {client_as}
{client_pool}
[dwell]
source = {dwell}
fixed_ms = {fixed_ms}
low_ms = {low_ms}
high_ms = {high_ms}

[traffic]
packets = {packets}
gap_ms = {gap_ms}
{extra}
"""
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    return path
