"""One measured process of the benchmark; run.py starts it.

    python3 -I bench/child.py ROOT setup CONFIG...
    python3 -I bench/child.py ROOT plain HOPSIM-ARGS...
    python3 -I bench/child.py ROOT traced SPANS-DIR HOPSIM-ARGS...
    python3 -I bench/child.py ROOT yardstick THREADS

`setup` times importing hopsim, parsing the configs and constructing a
`Simulation` for each. `plain` is the `hopsim` console script. `traced`
is `plain` with the span recorder of tracer.py installed, and writes the
spans into SPANS-DIR at the end. `yardstick` times a fixed pure-Python
workload that does not touch hopsim, to read the machine's speed at that
moment. Each mode ends by printing one JSON line with the process's peak
resident set and, for `setup` and `yardstick`, the time it measured.
hopsim is imported from ROOT/src and nowhere else.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

YARDSTICK_ITEMS = 120_000


def peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    getrusage's ru_maxrss is not used: Linux carries the parent's
    high-water mark across fork and exec into it, so every child of a
    larger parent would report the parent's size.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _yardstick_work(n: int) -> None:
    class Rule:
        __slots__ = ("key", "port", "name")

        def __init__(self, key, port, name):
            self.key, self.port, self.name = key, port, name

    table = {}
    for i in range(n):
        rule = Rule((i * 7919) % 100_003, i & 1023, f"r{i}")
        table[(rule.key, rule.port)] = rule
    total, lines = 0, []
    for i in range(n):
        rule = table.get(((i * 7919) % 100_003, i & 1023))
        if rule is not None:
            total += rule.port
        if i % 3 == 0:
            lines.append(f"{i} {total} {rule.name} t={i * 0.5:.3f}")
    "\n".join(lines).encode()


def yardstick_s(threads: int) -> float:
    """Time a fixed workload shaped like hopsim's packet path, without hopsim.

    It builds small objects, looks them up in a dict under tuple keys and
    formats trace-like lines: the allocation, hashing and formatting that
    hopsim's run time is made of, over a working set of some tens of MB,
    so that it slows down with the machine the way hopsim does. The work
    is split over `threads` threads, as `hopsim run --jobs` splits
    configs, so that it also pays what handing the interpreter lock
    between threads costs at the moment. The result depends on nothing
    but the interpreter.
    """
    workers = [
        threading.Thread(target=_yardstick_work, args=(YARDSTICK_ITEMS // threads,))
        for _ in range(threads)
    ]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return time.perf_counter() - started


def main(argv: list[str]) -> int:
    root, mode, rest = Path(argv[0]), argv[1], argv[2:]
    if mode == "yardstick":
        elapsed = yardstick_s(int(rest[0]))
        print(json.dumps({"yardstick_s": elapsed, "peak_rss_mb": peak_rss_mb()}))
        return 0
    src = root / "src"
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import hopsim

    if Path(hopsim.__file__).resolve().parent != (src / "hopsim").resolve():
        print(f"error: hopsim imported from {hopsim.__file__}, not {src}", file=sys.stderr)
        return 2
    if mode == "setup":
        from hopsim.session import ScenarioConfig, Simulation

        for path in rest:
            Simulation(ScenarioConfig.from_file(path))
        elapsed = time.perf_counter() - started
        print(json.dumps({"setup_s": elapsed, "peak_rss_mb": peak_rss_mb()}))
        return 0

    from hopsim.cli import main as hopsim_main

    if mode == "plain":
        code = hopsim_main(rest)
    else:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()
        try:
            code = hopsim_main(rest[1:])
        finally:
            recorder.restore()
        recorder.write(Path(rest[0]))
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
