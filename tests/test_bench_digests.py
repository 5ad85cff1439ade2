"""The benchmark's four workloads at seed 1 keep their output bytes.

Each workload is generated by `bench/workloads.py` and run through
`hopsim.cli.main` in this process, so the run follows this process's
`PYTHONHASHSEED`. The trace and machine-section digests are taken by the
benchmark's own `run.read_outputs`, over the output names its operations
use, and must equal the figures the benchmark reports at seed 1.
"""

import sys
from pathlib import Path

import pytest

from hopsim.cli import main

BENCH = Path(__file__).parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402

# (trace_sha256, machine_sha256) of each workload at seed 1.
SEED1_DIGESTS = {
    "long_line": (
        "0d96792d8c50f373b5ce907ac574d5d33bc6bb01ee7c54f117218b97bd0fdb21",
        "f471ad0ec1cc9de8d95261a7e544b703f7072a5fb7cca0cd74355bef654bb2ad",
    ),
    "mesh_churn": (
        "388eca1316ffab5cfc5b2e65028e50b78814d500478e941d692d4dd2dc040d7f",
        "251916e55d13079e1bfbd1a72d72ff81ab8e60ebd04ed6b490d389f383338875",
    ),
    "two_way_dhmm": (
        "5061cc7956f144f5b5db722e50deff90d3ad84aa14ae08179a71aeafda95b344",
        "d632dddb0c7d8baa8ae0fe44f790fd030beb3459f74560fdf450f2de74cb5226",
    ),
    "sweep": (
        "dab110e0c5ca347a9524c0c4dfb19db326193a57560a6c7cfb7de4f6022e5c08",
        "0a10bd7b24ac27ba81b85aa29af97440fb9559a1dd65e2e3cee364c513debb9f",
    ),
}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_bench_workloads_keep_their_digests(tmp_path, name):
    workload = workloads.generate(name, 1, tmp_path / "in")
    out = tmp_path / "out"
    out.mkdir()
    # The output names of `bench/run.py`'s operations: the digests cover them.
    if len(workload.configs) == 1:
        trace, report = out / "run.trace", out / "run.report"
    else:
        trace, report = out / "traces", out / "reports"
    argv = ["run", "--config", *map(str, workload.configs), "--trace", str(trace),
            "--report", str(report), "--jobs", str(workload.jobs)]
    assert main(argv) == 0
    op = bench_run.Op(traced=False, code=0, wall_s=0.0, rss_mb=0.0)
    bench_run.read_outputs(op, trace, report)
    assert (op.trace_sha256, op.machine_sha256) == SEED1_DIGESTS[name]
    assert op.sent == op.delivered == workload.packets
