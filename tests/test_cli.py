import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopsim
from hopsim.cli import MACHINE_MARKER, main, payload_from_text, payload_to_text
from hopsim import config as config_module
from hopsim.config import ScenarioConfig
from hopsim.covert import SyncPayload, encode_payload, zone_lines
from hopsim.addressing import Address, PrefixPool
from hopsim.errors import ScenarioError
from hopsim.session import Simulation

from conftest import make_config
from test_session import GOLDEN_TWO_WAY


SHIPPED_CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.ini"))

LONG_TAIL = ".".join(["a" * 60] * 4)  # 243 characters: no record name fits under 253
TWO_WAY = ("[scenario]", "[scenario]\ntwo_way = true")
CLIENT_POOL = ("184.164.242.77", "10.0.0.2\npool = 184.164.242.0/24")
DWELL_MODEL = ("[traffic]", "model = bg.model\n\n[traffic]")


# (trace, machine section) sha256 of each shipped config's run: any change
# to what a run does or reports shows here.
SHIPPED_DIGESTS = {
    "00_baseline_static": (
        "4ed98729204944280f70272567b706660c2d66ee158f5de0c10224dd82fc5c20",
        "662fb0daed667a82bd80f62f6e7dfbcf4ba8186ec561934f7ec76be12973e3a7",
    ),
    "01_one_way_hop111": (
        "32531b7da84bd87db437e24e2954646be8c602d4dd358579908bceb70f5672f6",
        "c1910fc74ba85c04f065e2efddd68ea28bdfc268fd0808d91855aacbbf0968dc",
    ),
    "02_reactive_block": (
        "f2d2b6d94d439bba92f0a0b409ff29bb24d7765055b95c725babbdbd3f5e0b91",
        "0841511560836698808145737c02bae3d565c05ae82f66d4b123d6f121c125a2",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def machine_section(path):
    return json.loads(path.read_text().split(MACHINE_MARKER)[1])


class TestRun:
    def test_successful_run_writes_artifacts(self, tmp_path):
        config = make_config(tmp_path, n_hops=4, fixed_ms=500.0, packets=10, gap_ms="100")
        trace, report = tmp_path / "run.trace", tmp_path / "run.report"
        code = main(["run", "--config", str(config), "--trace", str(trace), "--report", str(report)])
        assert code == 0
        assert trace.read_text().splitlines()
        machine = machine_section(report)
        assert machine["metrics"]["packets_delivered"] == 10
        assert "wall_clock_s" in report.read_text().split(MACHINE_MARKER)[0]
        assert "wall_clock" not in machine

    def test_reports_identical_modulo_wall_clock(self, tmp_path):
        config = make_config(tmp_path, dwell="uniform", gap_ms="auto", n_hops=9, packets=40)
        out = []
        for tag in ("a", "b"):
            trace, report = tmp_path / f"{tag}.trace", tmp_path / f"{tag}.report"
            assert main(
                ["run", "--config", str(config), "--trace", str(trace), "--report", str(report)]
            ) == 0
            out.append((trace.read_text(), machine_section(report)))
        assert out[0][0] == out[1][0]
        assert out[0][1] == out[1][1]

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(
            ["run", "--config", str(tmp_path / "nope.ini"), "--trace", "t", "--report", "r"]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_config_error_exits_2(self, tmp_path):
        config = make_config(tmp_path, server_as=99)
        code = main(["run", "--config", str(config), "--trace", "t", "--report", "r"])
        assert code == 2

    def test_runtime_scenario_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        # A failure inside a run of a config that parsed cleanly.
        def fail(self):
            raise ScenarioError("endpoints derived different schedules from one payload")

        monkeypatch.setattr(Simulation, "run", fail)
        config = make_config(tmp_path, n_hops=3, packets=1, gap_ms="10")
        code = main(
            ["run", "--config", str(config), "--trace", str(tmp_path / "t"), "--report", str(tmp_path / "r")]
        )
        assert code == 3
        assert "scenario failed" in capsys.readouterr().err

    def test_failure_mid_run_exits_3_and_keeps_the_trace_emitted(
        self, tmp_path, monkeypatch, capsys
    ):
        config = make_config(tmp_path, n_hops=6, packets=40, gap_ms="100")
        full = Simulation(ScenarioConfig.from_file(config)).run().trace_text()
        do_hop = Simulation._do_hop

        def fail_at_hop_3(self, end, k):
            if k == 3:
                raise ScenarioError("hop 3 failed")
            do_hop(self, end, k)

        monkeypatch.setattr(Simulation, "_do_hop", fail_at_hop_3)
        trace = tmp_path / "run.trace"
        code = main(["run", "--config", str(config), "--trace", str(trace),
                     "--report", str(tmp_path / "run.report")])
        assert code == 3
        assert "scenario failed: hop 3 failed" in capsys.readouterr().err
        partial = trace.read_text()
        assert ",session,hop,role=server;index=2;" in partial
        assert partial.endswith("\n") and len(partial) < len(full)
        assert full.startswith(partial)
        assert not (tmp_path / "run.report").exists()

    def test_streamed_trace_matches_the_in_memory_trace(self, tmp_path):
        (tmp_path / "topo.txt").write_text("1 2\n2 3\n")
        two_way = tmp_path / "two_way.ini"
        two_way.write_text(GOLDEN_TWO_WAY)
        for path in [*SHIPPED_CONFIGS, two_way]:
            trace = tmp_path / f"{path.stem}.trace"
            assert main(["run", "--config", str(path), "--trace", str(trace),
                         "--report", str(tmp_path / f"{path.stem}.report")]) == 0
            in_memory = Simulation(ScenarioConfig.from_file(path)).run().trace_text()
            assert trace.read_bytes() == in_memory.encode(), path.name

    @pytest.mark.parametrize(
        "server_pool, client_pool, key",
        [
            ("192.0.2.8/30", None, "[scenario] n_hops"),  # 4 addresses for 5 hops
            ("184.164.243.0/24", "184.164.242.0/30", "[scenario] n_hops"),  # same, client side
            ("184.164.243.0/24", "184.164.243.0/25", "[client] pool"),  # inside the server's /24
        ],
        ids=["server_pool_too_small", "client_pool_too_small", "pools_overlap"],
    )
    def test_unusable_pool_exits_2(self, tmp_path, capsys, server_pool, client_pool, key):
        config = make_config(tmp_path, pool=server_pool, n_hops=5, packets=1, gap_ms="10")
        if client_pool is not None:
            config.write_text(
                config.read_text()
                .replace("[scenario]", "[scenario]\ntwo_way = true")
                .replace("184.164.242.77", f"10.0.0.2\npool = {client_pool}")
            )
        code = main(
            ["run", "--config", str(config), "--trace", str(tmp_path / "t"), "--report", str(tmp_path / "r")]
        )
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options, edits, files, key",
        [
            ({"extra": f"[covert]\ndomain_tail = {LONG_TAIL}\n"}, [], {}, "[covert] domain_tail"),
            ({"pool": ",".join(f"100.{i >> 8}.{i & 255}.0/24" for i in range(4000))}, [], {},
             "[server] pool"),
            ({"extra": "[adversary]\ntap = 1-2\npolicy = reactive\ndetect_delay_ms = 0\n"}, [], {},
             "[adversary] detect_delay_ms"),
            ({"extra": "[adversary]\ntap = 1-2\npolicy = reactive\ntrigger_count = 0\n"}, [], {},
             "[adversary] trigger_count"),
            ({}, [("[scenario]", "[scenario]\ntwo_way = true\nclient_seed = -1"), CLIENT_POOL], {},
             "[scenario] client_seed"),
            ({"pool": "10.0.0.0/30", "n_hops": 4}, [], {}, "[server] internal_ip"),
            ({}, [TWO_WAY, ("184.164.242.77", "10.0.0.2\npool = 10.0.0.0/29")], {},
             "[client] internal_ip"),
            ({"dwell": "dhmm"}, [DWELL_MODEL], {"bg.model": "garbage\n"}, "[dwell] model"),
            ({"dwell": "dhmm"}, [DWELL_MODEL],
             {"bg.model": "states=2 symbols=1\n0,0,1,1.0\n0,0.0,100.0\n"}, "[dwell] model"),
            ({"dwell": "dhmm"}, [DWELL_MODEL],
             {"bg.model": "states=1 symbols=1\n0,0,0,1.0\n0,0.0,0.0\n"}, "[dwell] model"),
            ({"extra": "[adversary]\ntap = 1-2\ntiming_model = bg.model\n"}, [],
             {"bg.model": "states=1\n"}, "[adversary] timing_model"),
            ({"pool": "184.164.243.0/24,184.164.243.128/25"}, [], {}, "[server] pool"),
            ({"gap_ms": "soon"}, [], {}, "[traffic] gap_ms"),
            ({"fixed_ms": "nan"}, [], {}, "[dwell] fixed_ms"),
            ({"extra": "[covert]\ndomain_tail = 100%.example\n"}, [], {}, "[covert] domain_tail"),
        ],
        ids=[
            "tail_too_long", "payload_too_large", "reactive_without_delay", "trigger_count_zero",
            "client_seed_negative", "server_ip_in_own_pool", "client_ip_in_own_pool",
            "dwell_model_garbage", "dwell_model_absorbing", "dwell_model_zero_bin",
            "timing_model_garbage",
            "pool_prefixes_overlap", "gap_not_a_number", "dwell_not_finite",
            "value_with_stray_percent",
        ],
    )
    def test_unusable_config_exits_2(self, tmp_path, capsys, options, edits, files, key):
        config = make_config(tmp_path, **{"packets": 1, "gap_ms": "10", **options})
        text = config.read_text()
        for old, new in edits:
            text = text.replace(old, new)
        config.write_text(text)
        for name, body in files.items():
            (tmp_path / name).write_text(body)
        code = main(
            ["run", "--config", str(config), "--trace", str(tmp_path / "t"), "--report", str(tmp_path / "r")]
        )
        assert code == 2
        assert key in capsys.readouterr().err

    def test_v6_pool_beyond_64_bits_runs_deterministically(self, tmp_path):
        # A /56 holds 2**72 addresses: each draw needs two words of the
        # stream. Run in a subprocess, so a draw that never returns fails
        # the test by timeout instead of hanging the suite.
        config = make_config(
            tmp_path, n_hops=20, fixed_ms=500.0, packets=40, gap_ms="auto",
            server_ip="2001:db8:1::1", pool="2001:db8::/56",
        )
        config.write_text(config.read_text().replace("184.164.242.77", "2001:db8:2::77"))
        src = str(Path(hopsim.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = []
        for tag in ("a", "b"):
            trace, report = tmp_path / f"{tag}.trace", tmp_path / f"{tag}.report"
            subprocess.run(
                [sys.executable, "-m", "hopsim.cli", "run",
                 "--config", str(config), "--trace", str(trace), "--report", str(report)],
                env=env, check=True, capture_output=True, timeout=60,
            )
            out.append((trace.read_bytes(), machine_section(report)))
        assert out[0] == out[1]
        metrics = out[0][1]["metrics"]
        assert metrics["packets_delivered"] == metrics["packets_sent"] == 40
        assert metrics["distinct_external_ips_used"] == 20

    def test_skewed_two_way_session_drops_half_rewritten_packets(self, tmp_path):
        # The skewed client keeps sending to the server's previous address
        # after its grace window; the server counts each such packet as a
        # drop instead of failing the run.
        config = make_config(tmp_path, n_hops=5, fixed_ms=500.0, packets=30, gap_ms="auto")
        config.write_text(
            config.read_text()
            .replace("[scenario]", "[scenario]\ntwo_way = true\nclient_seed = 909")
            .replace("grace_window_ms = 200.0", "grace_window_ms = 200.0\nclock_skew_ms = 300")
            .replace("184.164.242.77", "10.0.0.2\npool = 184.164.242.0/24")
        )
        out = []
        for tag in ("a", "b"):
            trace, report = tmp_path / f"{tag}.trace", tmp_path / f"{tag}.report"
            assert main(
                ["run", "--config", str(config), "--trace", str(trace), "--report", str(report)]
            ) == 0
            out.append((trace.read_bytes(), report.read_text().split(MACHINE_MARKER)[1]))
        assert out[0] == out[1]
        metrics = json.loads(out[0][1])["metrics"]
        assert metrics["packets_delivered"] < metrics["packets_sent"] == 30
        assert b"reason=stale_rewrite;at=3" in out[0][0]

    def test_seed_override_changes_hash_not_determinism(self, tmp_path):
        config = make_config(tmp_path, n_hops=4, fixed_ms=500.0, packets=6, gap_ms="100")

        def run(name, *extra):
            trace, report = tmp_path / f"{name}.trace", tmp_path / f"{name}.report"
            args = ["run", "--config", str(config), "--trace", str(trace), "--report", str(report)]
            assert main(args + list(extra)) == 0
            return trace.read_text(), report.read_text().split(MACHINE_MARKER)[1]

        first, again = run("a", "--seed-override", "77"), run("b", "--seed-override", "77")
        other, plain = run("c", "--seed-override", "78"), run("d")
        assert first == again
        assert first[0] != other[0] and first[1] != other[1]
        assert json.loads(first[1])["seed_override"] == 77
        assert json.loads(other[1])["seed_override"] == 78
        # The config digest is the same for all; only the override key differs.
        digests = {json.loads(m)["config_sha256"] for _, m in (first, other, plain)}
        assert len(digests) == 1
        assert "seed_override" not in json.loads(plain[1])

    def test_multiple_configs_with_jobs(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a_dir.mkdir(), b_dir.mkdir()
        c1 = make_config(a_dir, n_hops=3, fixed_ms=400.0, packets=5, gap_ms="100")
        c2 = make_config(b_dir, n_hops=3, fixed_ms=400.0, packets=5, gap_ms="100", seed=9)
        outputs = []
        for jobs in ("1", "2"):
            traces, reports = tmp_path / f"traces{jobs}", tmp_path / f"reports{jobs}"
            code = main([
                "run", "--config", str(c1), str(c2),
                "--trace", str(traces), "--report", str(reports), "--jobs", jobs,
            ])
            assert code == 0
            outputs.append((
                {p.name: p.read_bytes() for p in traces.iterdir()},
                {p.name: p.read_text().split(MACHINE_MARKER)[1] for p in reports.iterdir()},
            ))
        assert len(outputs[0][0]) == len(outputs[0][1]) == 2
        assert outputs[0] == outputs[1]

    def test_shipped_configs_do_not_depend_on_hash_seed(self, tmp_path):
        # Strings hash by PYTHONHASHSEED and Enums by identity, so set order
        # can differ between processes; no output may follow it.
        assert len(SHIPPED_CONFIGS) == 3
        src = str(Path(hopsim.__file__).parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            traces, reports = tmp_path / f"traces{hash_seed}", tmp_path / f"reports{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run(
                [sys.executable, "-m", "hopsim.cli", "run",
                 "--config", *map(str, SHIPPED_CONFIGS),
                 "--trace", str(traces), "--report", str(reports)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            outputs.append((
                {p.name: p.read_bytes() for p in traces.iterdir()},
                {p.name: p.read_text().split(MACHINE_MARKER)[1] for p in reports.iterdir()},
            ))
        assert len(outputs[0][0]) == len(outputs[0][1]) == 3
        assert outputs[0] == outputs[1]
        traces, machines = outputs[0]
        digests = {
            stem: (sha256(traces[f"{stem}.trace"]), sha256(machines[f"{stem}.report"].encode()))
            for stem in SHIPPED_DIGESTS
        }
        assert digests == SHIPPED_DIGESTS

    def test_run_never_loads_openssl(self, tmp_path):
        # `hashlib` maps OpenSSL's libcrypto; the config digest must not need it.
        src = str(Path(hopsim.__file__).parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = (
            "import sys\n"
            "from hopsim.cli import main\n"
            "code = main(['run', '--config', sys.argv[1], '--trace', sys.argv[2],"
            " '--report', sys.argv[3]])\n"
            "print(code, sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(SHIPPED_CONFIGS[1]),
             str(tmp_path / "run.trace"), str(tmp_path / "run.report")],
            env=env, check=True, capture_output=True, text=True, timeout=120,
        )
        assert out.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize(
    "data", [b"", b"abc", b"a" * 55, b"a" * 56, bytes(range(256)) * 5],
    ids=["empty", "short", "one_block", "two_blocks", "multi_block"],
)
def test_config_digest_matches_hashlib(data):
    assert config_module.sha256(data).hexdigest() == sha256(data)


def test_config_digest_falls_back_to_hashlib():
    # With no built-in sha256 module the config takes hashlib's.
    script = (
        "import sys, hashlib\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from hopsim import config\n"
        "print(config.sha256 is hashlib.sha256)\n"
    )
    src = str(Path(hopsim.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "True"


class TestTrain:
    def test_constant_trace_single_state_model(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("10000\n" * 50)
        out = tmp_path / "model.dhmm"
        assert main(["train", "--trace", str(trace), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("states=1 symbols=1")

    def test_alternating_trace_two_state_model(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("100\n900\n" * 100)
        out = tmp_path / "model.dhmm"
        assert main(["train", "--trace", str(trace), "--bins", "2", "--order", "1",
                     "--out", str(out)]) == 0
        from hopsim.dwell import DhmmModel

        model = DhmmModel.from_text(out.read_text())
        assert model.num_states == 2
        probs = {(t.from_state, t.symbol): t.probability for t in model.transitions}
        assert probs == {(0, 1): 1.0, (1, 0): 1.0}

    def test_reload_reproduces_inference_exactly(self, tmp_path):
        from hopsim.dwell import DhmmModel, infer_dhmm, load_trace_text, quantile_alphabet
        from hopsim.rng import SplitMix64

        rng = SplitMix64(8)
        trace = tmp_path / "trace.txt"
        trace.write_text("\n".join(repr(rng.uniform(10, 8000)) for _ in range(3000)))
        out = tmp_path / "model.dhmm"
        assert main(["train", "--trace", str(trace), "--bins", "6", "--out", str(out)]) == 0
        intervals = load_trace_text(trace.read_text())
        expected = infer_dhmm(intervals, quantile_alphabet(intervals, 6), order=1)
        assert DhmmModel.from_text(out.read_text()) == expected

    def test_model_with_a_dead_end_state_exits_2(self, tmp_path, capsys):
        # The last history (9000) occurs nowhere else, so its state has no
        # successor: a walk that reaches it could not go on.
        trace = tmp_path / "trace.txt"
        trace.write_text("1000\n1000\n2000\n1000\n2000\n9000\n")
        out = tmp_path / "m.model"
        assert main(["train", "--trace", str(trace), "--bins", "3", "--out", str(out)]) == 2
        assert "state 2 has no outgoing transitions" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_trace_exits_2(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("")
        assert main(["train", "--trace", str(trace), "--out", str(tmp_path / "m")]) == 2

    def test_malformed_trace_exits_2(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("12\nnonsense\n")
        assert main(["train", "--trace", str(trace), "--out", str(tmp_path / "m")]) == 2


PAYLOAD_TEXT = """seed=42
pool=184.164.243.0/24,184.164.242.0/24
model=uniform:1000.0:10000.0
epoch_ms=1000.0
"""


class TestCovert:
    def test_encode_decode_round_trip_bit_exact(self, tmp_path):
        src = tmp_path / "payload.txt"
        src.write_text(PAYLOAD_TEXT)
        zone = tmp_path / "zone.txt"
        back = tmp_path / "decoded.txt"
        assert main(["covert", "encode", "--in", str(src), "--out", str(zone),
                     "--anchor", "203.0.113.5"]) == 0
        assert " PTR " in zone.read_text()
        assert main(["covert", "decode", "--in", str(zone), "--out", str(back)]) == 0
        assert back.read_bytes() == src.read_bytes()

    def test_truncated_zone_exits_4(self, tmp_path):
        payload = payload_from_text(PAYLOAD_TEXT)
        records = encode_payload(payload, Address.parse("203.0.113.5"))
        assert len(records.names) >= 2
        lines = zone_lines(records)[:-1]
        zone = tmp_path / "zone.txt"
        zone.write_text("\n".join(lines) + "\n")
        assert main(["covert", "decode", "--in", str(zone), "--out", str(tmp_path / "o")]) == 4

    def test_corrupted_zone_exits_4(self, tmp_path):
        payload = payload_from_text(PAYLOAD_TEXT)
        records = encode_payload(payload, Address.parse("203.0.113.5"))
        lines = zone_lines(records)
        # Swap one payload character for another valid base32 character.
        name = lines[0].split(" PTR ")[1]
        pos = 10
        swapped = name[:pos] + ("b" if name[pos] != "b" else "c") + name[pos + 1 :]
        lines[0] = lines[0].split(" PTR ")[0] + " PTR " + swapped
        zone = tmp_path / "zone.txt"
        zone.write_text("\n".join(lines) + "\n")
        assert main(["covert", "decode", "--in", str(zone), "--out", str(tmp_path / "o")]) == 4

    def test_oversized_payload_exits_2(self, tmp_path):
        pool = ",".join(f"{i}.0.0.0/8" for i in range(1, 240))
        src = tmp_path / "payload.txt"
        src.write_text(f"seed=1\npool={pool}\nmodel={'x' * 250}\nepoch_ms=0.0\n")
        # v4 pools are cheap; force v6 scale instead
        prefixes = ",".join(f"{2000 + i:x}::/16" for i in range(0, 250))
        src.write_text(f"seed=1\npool={prefixes}\nmodel={'x' * 250}\nepoch_ms=0.0\n")
        code = main(["covert", "encode", "--in", str(src), "--out", str(tmp_path / "z")])
        assert code == 2

    def test_tail_too_long_for_a_record_name_exits_2(self, tmp_path, capsys):
        src = tmp_path / "payload.txt"
        src.write_text(PAYLOAD_TEXT)
        code = main(["covert", "encode", "--in", str(src), "--out", str(tmp_path / "z"),
                     "--tail", LONG_TAIL])
        assert code == 2
        assert "record name" in capsys.readouterr().err

    def test_malformed_payload_exits_2(self, tmp_path):
        src = tmp_path / "payload.txt"
        src.write_text("seed=1\n")
        assert main(["covert", "encode", "--in", str(src), "--out", str(tmp_path / "z")]) == 2

    def test_payload_text_canonical_round_trip(self):
        payload = payload_from_text(PAYLOAD_TEXT)
        assert payload_to_text(payload) == PAYLOAD_TEXT
        assert isinstance(payload.pool, PrefixPool)
        assert isinstance(payload, SyncPayload)


@pytest.mark.parametrize("case", ["run", "report", "run_many", "train", "covert"])
def test_unwritable_output_exits_2(tmp_path, monkeypatch, capsys, case):
    # An unwritable trace or report is caught before the run: no event runs.
    ran = []
    monkeypatch.setattr(Simulation, "run", lambda self: ran.append(self))
    config = str(SHIPPED_CONFIGS[0])
    missing = tmp_path / "missing" / "out"  # its directory does not exist
    taken = tmp_path / "taken"  # a file where a directory must go
    taken.write_text("")
    intervals, payload = tmp_path / "intervals.txt", tmp_path / "payload.txt"
    intervals.write_text("100\n900\n" * 20)
    payload.write_text(PAYLOAD_TEXT)
    argv, path = {
        "run": (["run", "--config", config, "--trace", str(missing),
                 "--report", str(tmp_path / "r")], missing),
        "report": (["run", "--config", config, "--trace", str(tmp_path / "t"),
                    "--report", str(missing)], missing),
        "run_many": (["run", "--config", config, config, "--trace", str(taken),
                      "--report", str(tmp_path / "reports")], taken),
        "train": (["train", "--trace", str(intervals), "--out", str(missing)], missing),
        "covert": (["covert", "encode", "--in", str(payload), "--out", str(missing)], missing),
    }[case]
    assert main(argv) == 2
    assert f"error: cannot write {path}: " in capsys.readouterr().err
    assert ran == []
