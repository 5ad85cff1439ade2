"""A config either runs to completion or is rejected when it is parsed."""

import contextlib
import io
import ipaddress
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopsim.cli import MACHINE_MARKER, main
from hopsim.config import ScenarioConfig, canonical_config_hash
from hopsim.dwell import infer_dhmm, quantile_alphabet
from hopsim.rng import SplitMix64
from hopsim.session import Simulation

from conftest import make_config

V6_BASE = 0x20010DB8 << 96
KEY = re.compile(r"\[(scenario|topology|server|client|dwell|traffic|adversary|covert)\] [a-z_]+")


def trained_model(trace: list[float], bins: int) -> str:
    return infer_dhmm(trace, quantile_alphabet(trace, bins), order=1).to_text()


def test_simulation_reads_no_files(tmp_path):
    rng = SplitMix64(5)
    (tmp_path / "bg.model").write_text(trained_model([rng.uniform(200, 3000) for _ in range(600)], 6))
    path = make_config(
        tmp_path, dwell="dhmm", n_hops=6, packets=30, gap_ms="auto",
        extra="[adversary]\ntap = 1-2\ntiming_model = bg.model\n",
    )
    path.write_text(path.read_text().replace("[traffic]", "model = bg.model\n\n[traffic]"))
    with_files = Simulation(ScenarioConfig.from_file(path)).run()
    config = ScenarioConfig.from_file(path)
    for name in ("bg.model", "topo.txt", "scenario.ini"):
        (tmp_path / name).unlink()
    without_files = Simulation(config).run()
    assert without_files.trace == with_files.trace
    assert with_files.verdicts and without_files.verdicts == with_files.verdicts


def test_unread_key_is_ignored_but_hashed(tmp_path):
    path = make_config(tmp_path, n_hops=3, packets=6, gap_ms="100")
    plain = ScenarioConfig.from_file(path)
    path.write_text(path.read_text().replace("[traffic]", "[traffic]\npayload_len = 1500"))
    extra = ScenarioConfig.from_file(path)
    assert extra.config_sha256 == canonical_config_hash(path.read_text()) != plain.config_sha256
    assert Simulation(extra).run().trace == Simulation(plain).run().trace


# --- generated configs -----------------------------------------------------
#
# Pool prefix k lies in block k of its region, so the prefixes of one pool
# never overlap. The server's pool is in region 0 and the client's in
# region 1, or sometimes also in region 0 so that the pools overlap.
# Internal addresses are in region 9, or sometimes among the first
# addresses of the end's pool.


def _address(draw, v6: bool, region: int, block: int) -> int:
    if v6:
        return V6_BASE | region << 80 | block << 72 | draw(st.integers(0, 1 << 20))
    return 10 << 24 | region << 16 | block << 12 | draw(st.integers(0, 4095))


def _pool(draw, rnd, v6: bool, region: int) -> str:
    prefixes = []
    for block in range(rnd.choice([1, 1, 2, 3])):
        bits = _address(draw, v6, region, block)
        if v6:  # a /56 or /64 holds 2**64 addresses or more
            net = ipaddress.IPv6Network((bits, rnd.choice([56, 64, 100, 124])), strict=False)
        else:
            net = ipaddress.IPv4Network((bits, rnd.choice([20, 24, 29, 30])), strict=False)
        prefixes.append(str(net))
    return ",".join(prefixes)


def _ip(draw, rnd, v6: bool, pool: str) -> str:
    """An address outside every pool, or sometimes one near the start of `pool`."""
    if rnd.random() < 0.25:
        return str(ipaddress.ip_network(pool.split(",")[0])[draw(st.integers(0, 3))])
    return str(ipaddress.ip_address(_address(draw, v6, 9, 0)))


def _model(draw, rnd) -> bytes:
    kind = rnd.choice(["cyclic", "cyclic", "cyclic", "trained", "garbage"])
    durations = st.lists(st.integers(50, 1500).map(float), min_size=2, max_size=8, unique=True)
    if kind == "cyclic":  # every state is followed by another
        return trained_model(draw(durations) * 3, draw(st.integers(1, 4))).encode()
    if kind == "trained":  # the longest dwell comes last: its state may have no successor
        return trained_model(draw(durations) + [2000.0], draw(st.integers(2, 4))).encode()
    return draw(st.one_of(st.binary(max_size=40), st.text(max_size=40).map(str.encode)))


@st.composite
def scenarios(draw):
    """(config text, {file name: bytes}) for a line of three ASes."""
    # Cases are picked with a seeded PRNG rather than by Hypothesis, whose
    # draws favour the ends of each list, so each case comes up about as
    # often as its share of the list.
    rnd = draw(st.randoms(use_true_random=True))
    v6 = rnd.random() < 0.5
    files = {"topo.txt": b"1 2\n2 3\n"}
    hopping = rnd.random() < 0.85
    two_way = rnd.random() < 0.35
    server_pool = _pool(draw, rnd, v6, 0)
    client_pool = _pool(draw, rnd, v6, 1 if rnd.random() < 0.75 else 0)
    lines = [
        "[scenario]",
        f"seed = {draw(st.integers(0, (1 << 64) - 1))}",
        f"n_hops = {rnd.randint(1, 6)}",
        f"clock_skew_ms = {rnd.choice([0, 0, 150, 400])}",
        f"two_way = {str(two_way).lower()}",
        f"client_seed = {rnd.choice([0, 909, 909, (1 << 64) - 1, (1 << 64) - 1, -1, 1 << 64])}",
        "[topology]",
        "file = topo.txt",
        "[server]",
        f"internal_ip = {_ip(draw, rnd, v6, server_pool)}",
        "attached_as = 3",
        f"pool = {server_pool}",
        f"hopping = {str(hopping).lower()}",
        "[client]",
        f"internal_ip = {_ip(draw, rnd, v6, client_pool)}",
        "attached_as = 1",
    ]
    if two_way:
        lines.append(f"pool = {client_pool}")
    source = rnd.choice(["fixed", "uniform", "dhmm"])
    lines += ["[dwell]", f"source = {source}"]
    if source == "fixed":
        lines.append(f"fixed_ms = {draw(st.floats(50, 1500))!r}")
    elif source == "uniform":
        low = draw(st.floats(50, 1000))
        lines += [f"low_ms = {low!r}", f"high_ms = {low + rnd.choice([0, 1, 900, 900])!r}"]
    else:
        files["dwell.model"] = _model(draw, rnd)
        lines.append("model = dwell.model")
    gap = rnd.choice(["auto", "50", "170.5", "400"])
    lines += ["[traffic]", f"packets = {draw(st.integers(0, 20))}", f"gap_ms = {gap}"]
    tail_len = rnd.choice([15, 15, 15, 60, 185, 240])
    tail = ".".join(["c" * 60] * 4)[:tail_len].strip(".")
    lines += ["[covert]", f"domain_tail = {tail}"]
    if rnd.random() < 0.5:
        lines += [
            "[adversary]",
            "tap = 1-2",
            f"policy = {rnd.choice(['none', 'static', 'reactive'])}",
            f"detect_delay_ms = {rnd.choice([0, 300, 2500])}",
        ]
        if rnd.random() < 0.5:
            lines.append(f"blocked = {_pool(draw, rnd, v6, 0)}")
        if rnd.random() < 0.5:
            files["timing.model"] = _model(draw, rnd)
            lines.append("timing_model = timing.model")
    return "\n".join(lines) + "\n", files


def _run(config: Path, out: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--config", str(config), "--trace", str(out / "trace"),
                     "--report", str(out / "report")])
    return code, err.getvalue()


def _outputs(out: Path) -> tuple[bytes, str]:
    return (out / "trace").read_bytes(), (out / "report").read_text().split(MACHINE_MARKER)[1]


@settings(max_examples=300)
@given(scenarios())
def test_generated_config_runs_or_is_rejected_at_parse_time(scenario):
    text, files = scenario
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, body in files.items():
            (root / name).write_bytes(body)
        config = root / "scenario.ini"
        config.write_text(text)
        first, second = root / "a", root / "b"
        first.mkdir(), second.mkdir()
        code, err = _run(config, first)
        assert code in (0, 2), err
        if code == 2:
            assert KEY.search(err), err
            return
        assert _run(config, second) == (0, "")
        assert _outputs(first) == _outputs(second)


@pytest.mark.parametrize(
    "options, key",
    [
        ({"fixed_ms": 1e308, "n_hops": 20, "gap_ms": "auto"}, "[dwell] fixed_ms"),
        ({"dwell": "uniform", "high_ms": 1e308, "n_hops": 20, "gap_ms": "auto"}, "[dwell] high_ms"),
        ({"dwell": "dhmm", "n_hops": 20, "gap_ms": "auto"}, "[dwell] model"),
        ({"gap_ms": 1e308, "packets": 5}, "[traffic] gap_ms"),
    ],
    ids=["fixed_dwell", "uniform_dwell", "dhmm_dwell", "traffic_gap"],
)
def test_event_times_that_overflow_are_rejected(tmp_path, options, key):
    # At 1e308 ms a whole schedule, or the last send, overflows to inf;
    # the auto gap then put the first packet at 0 * inf = nan.
    path = make_config(tmp_path, **options)
    if options.get("dwell") == "dhmm":
        (tmp_path / "long.model").write_text(trained_model([100.0, 1e308] * 3, 2))
        path.write_text(path.read_text().replace("[traffic]", "model = long.model\n\n[traffic]"))
    code, err = _run(path, tmp_path)
    assert code == 2 and key in err and "overflow" in err, err
