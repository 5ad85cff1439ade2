"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py -q"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "long_line": workloads.Sizes(hops=20, packets=200),
    "mesh_churn": workloads.Sizes(hops=3, packets=6),
    "two_way_dhmm": workloads.Sizes(hops=20, packets=20),
    "sweep": workloads.Sizes(hops=10, packets=50, configs=2),
}


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic(tmp_path, name):
    a = workloads.generate(name, 7, tmp_path / "a")
    b = workloads.generate(name, 7, tmp_path / "b")
    other = workloads.generate(name, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [p.name for p in a.configs] == [p.name for p in b.configs]
    assert any(
        p.read_bytes() != q.read_bytes() for p, q in zip(a.configs, other.configs)
    ), "another seed must give other configs"


def test_restore_leaves_the_originals_in_place():
    owners = [(tracer.resolve_owner(o), attr) for o, attr, _, _ in tracer.TARGETS]
    originals = [vars(owner)[attr] for owner, attr in owners]
    recorder = tracer.Recorder()
    recorder.install()
    try:
        assert all(vars(o)[a] is not orig for (o, a), orig in zip(owners, originals))
    finally:
        recorder.restore()
    assert all(vars(o)[a] is orig for (o, a), orig in zip(owners, originals))


def _bench(tmp_path: Path, name: str) -> run.Bench:
    return run.Bench(workloads.generate(name, 3, tmp_path / "in", SMALL[name]), tmp_path)


def _counts(metrics: dict) -> dict:
    units = run.declared_units()["per_layer"]
    return {k: v for k, v in metrics.items() if units[k] in ("count", "bytes")}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_matches_untraced_and_counts_repeat(tmp_path, name):
    bench = _bench(tmp_path, name)
    plain = bench.operation(traced=False)
    first, first_metrics = bench.traced_operation(plain.wall_s)
    second, second_metrics = bench.traced_operation(plain.wall_s)
    # Bench.operation compares every digest with the first operation's.
    assert [plain.error, first.error, second.error] == ["", "", ""]
    assert first.trace_sha256 == plain.trace_sha256
    # run_workload adds the host.* figures; the traced operation gives the rest.
    declared = set(run.declared_units()["per_layer"])
    assert set(first_metrics) == {m for m in declared if not m.startswith("host.")}
    assert _counts(first_metrics) == _counts(second_metrics)
    assert first_metrics["events.processed"] > 0
    assert first_metrics["flowtable.lookups"] > 0
    assert first_metrics["trace.lines"] == plain.trace_lines
    assert first_metrics["cli.configs"] == len(bench.workload.configs)


def test_changed_output_is_a_failure(tmp_path):
    bench = _bench(tmp_path, "mesh_churn")
    assert bench.operation(traced=False).error == ""
    bench.reference.trace_sha256 = "0" * 64
    assert "digest" in bench.operation(traced=False).error


def test_times_are_scaled_by_the_yardstick_beside_them(tmp_path):
    # A slow spell that doubles both the operation and its yardstick
    # leaves the scaled figure where it was.
    assert run.scaled_median([0.5, 1.0, 0.6], [0.25, 0.5, 0.3]) == pytest.approx(
        2 * run.YARDSTICK_S
    )
    assert _bench(tmp_path, "mesh_churn").yardstick_once() > 0
