"""hopsim benchmark: seeded workloads through `hopsim run`, end to end and per layer.

    python3 bench/run.py --workload long_line --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --trace 1     # every workload, every metric

A run generates the workload's inputs from --seed into a temporary
directory under .bench_tmp/, then:

1. makes one untimed set-up and one untimed operation, which write the
   bytecode caches and fill the file cache;
2. until --seconds have passed, repeats a triple of fresh processes: the
   untraced `hopsim run` operation, the yardstick (a fixed pure-Python
   workload that does not use hopsim, on as many threads as the
   workload's --jobs) and set-up (import, config parsing, `Simulation`
   construction);
3. with --trace 1, makes one more operation with the span recorder of
   tracer.py installed and derives the per-layer metrics from it.

The machine this runs on changes speed by up to 2x for spells of seconds
to minutes, which moves every process alike. So `wall_s` and `setup_s`
are not raw medians: each operation and set-up time is divided by the
yardstick time measured next to it, and the median of those ratios is
reported in seconds at the speed where the yardstick takes YARDSTICK_S.
A change to hopsim moves these figures as it moves raw time; a slow
spell moves them far less. The raw medians are reported too, as the
per-layer metrics `host.raw_wall_s`, `host.raw_setup_s` and
`host.yardstick_s`.

Every operation is checked: exit code 0, delivered <= sent, sent equal
to the packets the configs ask for, and the same trace and
machine-section sha256 as the other operations of the run, traced or
not. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it
holds the full record: environment, digests, samples and both metric
sets.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_tmp"
# Scaled times are seconds at the machine speed where the yardstick takes
# this long: about its single-thread time in a fast spell of a 2-vCPU
# cloud VM. A constant: changing it rescales every wall_s and setup_s.
YARDSTICK_S = 0.25
CHILD_TIMEOUT_S = 60.0  # one operation takes about a second
MACHINE_MARKER = "=== machine ===\n"


def declared_units() -> dict[str, dict[str, str]]:
    """Metric name to unit, per metric set, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


@dataclass
class Op:
    """One `hopsim run` process and what its outputs showed."""

    traced: bool
    code: int
    wall_s: float
    rss_mb: float
    trace_sha256: str = ""
    machine_sha256: str = ""
    sent: int = 0
    delivered: int = 0
    trace_lines: int = 0
    trace_bytes: int = 0
    error: str = ""


def spawn(args: list[str], log: Path) -> tuple[int, float, dict]:
    """Run child.py with `args`; returns (exit code, wall s, its last JSON line)."""
    cmd = [sys.executable, "-I", str(HERE / "child.py"), str(ROOT), *args]
    with open(log, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
        # A blocking wait returns as soon as the child exits; wait(timeout)
        # polls with sleeps of up to 50 ms, which would blur the wall time.
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    lines = log.read_text(errors="replace").splitlines()
    try:
        child = json.loads(lines[-1]) if code == 0 else {}
    except (IndexError, ValueError):
        child = {}
    return code, wall, child


def _files(path: Path) -> list[Path]:
    return sorted(path.iterdir()) if path.is_dir() else [path]


def read_outputs(op: Op, trace: Path, report: Path) -> None:
    """Fill `op` with the digests and counts of the run's trace and reports."""
    traces = hashlib.sha256()
    for f in _files(trace):
        data = f.read_bytes()
        traces.update(f"{f.name}\n{len(data)}\n".encode() + data)
        op.trace_lines += data.count(b"\n")
        op.trace_bytes += len(data)
    machines = hashlib.sha256()
    for f in _files(report):
        text = f.read_text()
        if MACHINE_MARKER not in text:
            raise ValueError(f"{f.name}: no machine section")
        machine = text.split(MACHINE_MARKER, 1)[1]
        machines.update(f"{f.name}\n".encode() + machine.encode())
        metrics = json.loads(machine)["metrics"]
        op.sent += metrics["packets_sent"]
        op.delivered += metrics["packets_delivered"]
    op.trace_sha256, op.machine_sha256 = traces.hexdigest(), machines.hexdigest()


class Bench:
    """One workload at one seed, generated into `work`."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.reference: Op | None = None

    def setup_once(self) -> float:
        log = self.work / "setup.log"
        code, _, child = spawn(["setup", *map(str, self.workload.configs)], log)
        if "setup_s" not in child:
            raise RuntimeError(f"set-up process failed ({code}): {log.read_text()[-500:]}")
        return child["setup_s"]

    def yardstick_once(self) -> float:
        log = self.work / "yardstick.log"
        code, _, child = spawn(["yardstick", str(self.workload.jobs)], log)
        if "yardstick_s" not in child:
            raise RuntimeError(f"yardstick process failed ({code}): {log.read_text()[-500:]}")
        return child["yardstick_s"]

    def operation(self, traced: bool) -> Op:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        if len(self.workload.configs) == 1:
            trace, report = out / "run.trace", out / "run.report"
        else:
            trace, report = out / "traces", out / "reports"
        args = [
            "run", "--config", *map(str, self.workload.configs),
            "--trace", str(trace), "--report", str(report), "--jobs", str(self.workload.jobs),
        ]
        args = ["traced", str(out), *args] if traced else ["plain", *args]
        code, wall, child = spawn(args, self.work / "op.log")
        op = Op(traced, code, wall, child.get("peak_rss_mb", 0.0))
        if code != 0 or not child:
            tail = (self.work / "op.log").read_text(errors="replace").splitlines()[-3:]
            op.error = f"exit code {code}: {' | '.join(tail)}"
            return op
        try:
            read_outputs(op, trace, report)
        except (OSError, ValueError, KeyError) as exc:
            op.error = f"unreadable output: {exc}"
            return op
        if op.delivered > op.sent:
            op.error = f"delivered {op.delivered} > sent {op.sent}"
        elif op.sent != self.workload.packets:
            op.error = f"sent {op.sent}, configs ask for {self.workload.packets}"
        elif self.reference is None:
            self.reference = op
        elif (op.trace_sha256, op.machine_sha256) != (
            self.reference.trace_sha256, self.reference.machine_sha256
        ):
            op.error = "trace or machine-section digest differs from the first operation"
        return op

    def traced_operation(self, untraced_wall_s: float) -> tuple[Op, dict | None]:
        """One traced operation and the per-layer metrics its spans give."""
        op = self.operation(traced=True)
        if op.error:
            return op, None
        stats, counters = tracer.load_stats(self.work / "out")
        metrics = tracer.layer_metrics(
            stats, counters,
            traced_wall_s=op.wall_s, untraced_wall_s=untraced_wall_s,
            packets_sent=op.sent, trace_bytes=op.trace_bytes, jobs=self.workload.jobs,
        )
        if metrics["trace.lines"] != op.trace_lines:
            op.error = (
                f"recorder counted {metrics['trace.lines']} trace lines, "
                f"the trace files hold {op.trace_lines}"
            )
            return op, None
        return op, metrics


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def scaled_median(times: list[float], yardstick: list[float]) -> float:
    """Median of time/yardstick over the pairs, in seconds at YARDSTICK_S."""
    return statistics.median(t / y for t, y in zip(times, yardstick)) * YARDSTICK_S


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    env = environment()
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=SCRATCH))
    try:
        bench = Bench(workloads.generate(name, seed, work / "inputs"), work)
        bench.setup_once()  # untimed warm-ups
        warm_up = bench.operation(traced=False)  # its outputs are checked all the same
        ops: list[Op] = []
        setup: list[float] = []
        yardstick: list[float] = []
        started = time.perf_counter()
        while not ops or time.perf_counter() - started < seconds:
            ops.append(bench.operation(traced=False))
            yardstick.append(bench.yardstick_once())
            setup.append(bench.setup_once())
        raw_wall_s = statistics.median(op.wall_s for op in ops)
        traced, per_layer = bench.traced_operation(raw_wall_s) if trace else (None, None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    env["loadavg_end"] = os.getloadavg()

    checked = [warm_up, *ops] + ([traced] if traced else [])
    good = bench.reference
    end_to_end = {
        "wall_s": scaled_median([op.wall_s for op in ops], yardstick),
        "setup_s": scaled_median(setup, yardstick),
        "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
        "delivered_ratio": good.delivered / good.sent if good else 0.0,
    }
    if per_layer is not None:
        per_layer.update({
            "host.raw_wall_s": raw_wall_s,
            "host.raw_setup_s": statistics.median(setup),
            "host.yardstick_s": statistics.median(yardstick),
        })
    failed = sum(1 for op in checked if op.error)
    return {
        "workload": name,
        "seed": seed,
        "environment": env,
        "attempted": len(checked),
        "failed": failed,
        "correct": failed == 0,
        "trace_sha256": good.trace_sha256 if good else None,
        "machine_sha256": good.machine_sha256 if good else None,
        "events_processed": per_layer["events.processed"] if per_layer else None,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "setup_samples_s": setup,
        "yardstick_samples_s": yardstick,
        "operations": [asdict(op) for op in checked],
    }


def summary_lines(record: dict, units: dict[str, dict[str, str]]) -> list[str]:
    name = record["workload"]
    lines = [f"{name}: failed share {record['failed']}/{record['attempted']}"]
    lines += [f"  {op['error']}" for op in record["operations"] if op["error"]]
    for key in ("end_to_end", "per_layer"):
        for metric, value in (record[key] or {}).items():
            lines.append(f"{name:14s} {metric:28s} {value:14.6g} {units[key][metric]}")
    return lines


def result_line(
    records: list[dict], units: dict[str, dict[str, str]], trace: bool, prefix: bool
) -> dict:
    key = "per_layer" if trace else "end_to_end"
    metrics = {}
    for record in records:
        measured = record[key] or {}
        if measured and set(measured) != set(units[key]):
            raise RuntimeError(f"{key} metrics differ from BENCHMARK.json: "
                               f"{sorted(set(measured) ^ set(units[key]))}")
        for metric, value in measured.items():
            name = f"{record['workload']}.{metric}" if prefix else metric
            metrics[name] = {"value": value, "unit": units[key][metric]}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through the finally blocks, which stop the child and clean up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "hopsim" / "__init__.py").is_file():
        print(f"error: no hopsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    unknown = [n for n in names if n not in workloads.NAMES]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    units = declared_units()
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(summary_lines(record, units)), flush=True)
        records.append(record)
    print(json.dumps(records if len(records) > 1 else records[0]))
    print(json.dumps(result_line(records, units, bool(args.trace), prefix=len(records) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
