"""A config either runs to completion or is rejected when it is parsed."""

import contextlib
import copy
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopsim.cli import MACHINE_MARKER, main
import hopsim.config
import hopsim.covert
import hopsim.routing
import hopsim.session
from hopsim.config import MAX_HOPS, MAX_PACKETS, ScenarioConfig
from hopsim.covert import decode_payload
from hopsim.dwell import DhmmModel
from hopsim.errors import ConfigError
from hopsim.rng import SplitMix64
from hopsim.session import Simulation

from conftest import make_config
from scenario_gen import random_scenario, trained_model

KEY = re.compile(r"\[(scenario|topology|server|client|dwell|traffic|adversary|covert)\] [a-z_]+")


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
    digest = ScenarioConfig.from_text(path.read_text(), base_dir=tmp_path).config_sha256
    assert extra.config_sha256 == digest != plain.config_sha256
    assert Simulation(extra).run().trace == Simulation(plain).run().trace


def test_a_replaced_config_derives_its_own_sync_payload(tmp_path):
    config = ScenarioConfig.from_file(make_config(tmp_path, seed=42))
    assert decode_payload(config.sync_records, config.domain_tail) == config.sync_payload
    # `--seed-override` runs take this path: the records must carry the new seed.
    for seed in (0, 43, (1 << 64) - 1):
        changed = config.replace(seed=seed)
        assert changed.sync_payload.seed == seed
        assert decode_payload(changed.sync_records, config.domain_tail).seed == seed
    clone = copy.copy(config)
    assert clone.sync_records == config.sync_records
    assert clone.sync_payload == config.sync_payload
    static = ScenarioConfig.from_file(make_config(tmp_path, server_hopping=False))
    assert static.sync_payload is None and static.sync_records is None


def test_a_run_parses_no_topology_and_encodes_no_payload(tmp_path, monkeypatch):
    path = make_config(tmp_path, extra="[adversary]\ntap = 1-2\n")
    config = ScenarioConfig.from_file(path)
    calls = []
    for module in (hopsim.routing, hopsim.config, hopsim.covert, hopsim.session):
        for name in ("parse_edges", "encode_payload"):
            original = getattr(module, name, None)
            if original is not None:
                def counted(*args, _original=original, _name=name, **kwargs):
                    calls.append(_name)
                    return _original(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    result = Simulation(config).run()
    assert result.metrics.packets_delivered == result.metrics.packets_sent > 0
    assert calls == []
    # The counters are live: parsing the config calls each once.
    ScenarioConfig.from_file(path)
    assert sorted(calls) == ["encode_payload", "parse_edges"]


def _run(config: Path, out: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--config", str(config), "--trace", str(out / "trace"),
                     "--report", str(out / "report")])
    return code, err.getvalue()


def _outputs(out: Path) -> tuple[bytes, str]:
    return (out / "trace").read_bytes(), (out / "report").read_text().split(MACHINE_MARKER)[1]


@settings(max_examples=300)
@given(st.integers(0, (1 << 64) - 1))
def test_generated_config_runs_or_is_rejected_at_parse_time(seed):
    text, files = random_scenario(seed)
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


@pytest.mark.parametrize("key, cap", [("packets", MAX_PACKETS), ("n_hops", MAX_HOPS)])
def test_work_beyond_a_cap_is_rejected_at_parse_time(tmp_path, key, cap):
    # A /8 holds more than `MAX_HOPS` addresses; only parsing is timed here.
    path = make_config(tmp_path, pool="100.0.0.0/8", **{key: cap})
    assert getattr(ScenarioConfig.from_file(path), key) == cap
    where = "[traffic] packets" if key == "packets" else "[scenario] n_hops"
    for value in (cap + 1, 1 << 64):
        code, err = _run(make_config(tmp_path, pool="100.0.0.0/8", **{key: value}), tmp_path)
        assert code == 2 and where in err, err


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


def test_a_nan_model_is_rejected_at_parse_time(tmp_path):
    # A model whose transitions read NaN once ran: every step of the walk
    # took the state's last transition.
    model = trained_model([100.0, 900.0] * 5, 2).replace(",1.0\n", ",nan\n")
    assert model.count(",nan\n") == 2
    (tmp_path / "nan.model").write_text(model)
    path = make_config(tmp_path, dwell="dhmm", n_hops=6, packets=30, gap_ms="auto")
    path.write_text(path.read_text().replace("[traffic]", "model = nan.model\n\n[traffic]"))
    code, err = _run(path, tmp_path)
    assert code == 2 and "[dwell] model" in err, err


def test_a_self_link_is_rejected_at_parse_time(tmp_path):
    path = make_config(tmp_path, topo="1 2\n2 2\n2 3\n")
    code, err = _run(path, tmp_path)
    assert code == 2 and "[topology] file" in err and "self-link" in err, err


# --- dwell models ----------------------------------------------------------


def _dhmm_config(tmp_path) -> Path:
    """A config whose `[dwell] model` and `[adversary] timing_model` name bg.model."""
    path = make_config(
        tmp_path, dwell="dhmm", n_hops=6, packets=30, gap_ms="auto",
        extra="[adversary]\ntap = 1-2\ntiming_model = bg.model\n",
    )
    path.write_text(path.read_text().replace("[traffic]", "model = bg.model\n\n[traffic]"))
    return path


def _count_model_loads(monkeypatch) -> list[str]:
    hopsim.config._walkable_model.cache_clear()
    loads = []
    from_text = DhmmModel.from_text

    def counted(text):
        loads.append(text)
        return from_text(text)

    monkeypatch.setattr(DhmmModel, "from_text", counted)
    return loads


def test_one_model_text_is_loaded_once(tmp_path, monkeypatch):
    rng = SplitMix64(11)
    (tmp_path / "bg.model").write_text(trained_model([rng.uniform(200, 3000) for _ in range(300)], 4))
    loads = _count_model_loads(monkeypatch)
    config = ScenarioConfig.from_file(_dhmm_config(tmp_path))
    assert len(loads) == 1
    assert config.dwell.model is config.adversary.timing_model
    ScenarioConfig.from_file(tmp_path / "scenario.ini")
    assert len(loads) == 1


def test_a_rewritten_model_file_gives_the_new_model(tmp_path, monkeypatch):
    path = _dhmm_config(tmp_path)
    loads = _count_model_loads(monkeypatch)
    models = []
    for trace in ([100.0, 900.0] * 5, [300.0, 700.0, 1500.0] * 5):
        (tmp_path / "bg.model").write_text(trained_model(trace, 2))
        config = ScenarioConfig.from_file(path)
        assert config.dwell.model.to_text() == (tmp_path / "bg.model").read_text()
        models.append(config.dwell.model)
    assert models[0] != models[1] and len(loads) == 2


@pytest.mark.parametrize("key", ["[dwell] model", "[adversary] timing_model"])
def test_an_unusable_model_fails_on_every_load(tmp_path, monkeypatch, key):
    good = trained_model([100.0, 900.0] * 5, 2)
    path = _dhmm_config(tmp_path)
    (tmp_path / "bad.model").write_text(good.replace(",1.0\n", ",nan\n"))
    (tmp_path / "bg.model").write_text(good)
    name = "model" if key == "[dwell] model" else "timing_model"
    path.write_text(path.read_text().replace(f"{name} = bg.model", f"{name} = bad.model"))
    loads = _count_model_loads(monkeypatch)
    for _ in range(3):
        with pytest.raises(ConfigError, match=re.escape(f"{key}: unusable model bad.model")):
            ScenarioConfig.from_file(path)
    # The usable file is parsed once at most; the unusable one on every load.
    assert sum(text != good for text in loads) == 3


def test_a_bad_blocklist_entry_names_its_key_and_the_parser_error(tmp_path):
    path = make_config(
        tmp_path, extra="[adversary]\ntap = 1-2\npolicy = static\nblocked = 45.1.2.0/24, 45.01.2.0/24\n"
    )
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_file(path)
    assert str(info.value) == (
        "[adversary] blocked: bad value '45.1.2.0/24, 45.01.2.0/24': "
        "'45.01.2.0/24' does not appear to be an IPv4 or IPv6 network"
    )
