import json

import pytest

from hopsim.cli import MACHINE_MARKER, main, payload_from_text, payload_to_text
from hopsim.covert import SyncPayload, encode_payload, zone_lines
from hopsim.addressing import Address, PrefixPool
from hopsim.errors import ScenarioError
from hopsim.session import Simulation

from conftest import make_config


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

    def test_seed_override_changes_hash_not_determinism(self, tmp_path):
        config = make_config(tmp_path, n_hops=4, fixed_ms=500.0, packets=6, gap_ms="100")
        t1, r1 = tmp_path / "1.trace", tmp_path / "1.report"
        t2, r2 = tmp_path / "2.trace", tmp_path / "2.report"
        assert main(["run", "--config", str(config), "--trace", str(t1), "--report", str(r1),
                     "--seed-override", "77"]) == 0
        assert main(["run", "--config", str(config), "--trace", str(t2), "--report", str(r2),
                     "--seed-override", "77"]) == 0
        assert t1.read_text() == t2.read_text()

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

    def test_malformed_payload_exits_2(self, tmp_path):
        src = tmp_path / "payload.txt"
        src.write_text("seed=1\n")
        assert main(["covert", "encode", "--in", str(src), "--out", str(tmp_path / "z")]) == 2

    def test_payload_text_canonical_round_trip(self):
        payload = payload_from_text(PAYLOAD_TEXT)
        assert payload_to_text(payload) == PAYLOAD_TEXT
        assert isinstance(payload.pool, PrefixPool)
        assert isinstance(payload, SyncPayload)
