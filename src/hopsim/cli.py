"""Command-line front end.

Subcommands: `run` executes scenario configs and writes trace + report
files, `train` fits a dwell model from an interval trace, and `covert
encode|decode` moves sync payloads through the zone-file form.

Exit codes are a stable contract: 0 success, 2 input error, 3 scenario
failure, 4 integrity failure. All randomness flows from seeds in the
inputs; reports are byte-identical across runs except for the
wall-clock field, which lives outside the machine-readable section.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .addressing import Address
from .covert import (
    SyncPayload,
    decode_payload,
    encode_payload,
    parse_zone,
    zone_lines,
)
from .addressing import PrefixPool
from .dwell import check_walkable, infer_dhmm, load_trace_text, quantile_alphabet
from .errors import (
    ConfigError,
    HopsimError,
    IncompleteSet,
    IntegrityFailure,
    MalformedRecord,
    PayloadTooLarge,
)
from .config import ScenarioConfig
from .events import TraceLog
from .session import Simulation

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SCENARIO = 3
EXIT_INTEGRITY = 4

MACHINE_MARKER = "=== machine ==="


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _unwritable(path: str | Path, exc: OSError) -> int:
    return _fail(f"cannot write {path}: {exc.strerror or exc}", EXIT_INPUT)


def _check_writable(path: str) -> int:
    """EXIT_OK if `path` opens for writing, else an input error; leaves no new file."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        return _unwritable(path, exc)
    if not existed:
        os.unlink(path)
    return EXIT_OK


def _write(path: str | Path, text: str) -> int:
    """Write `text` to `path`: EXIT_OK, or an input error that names the path."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        return _unwritable(path, exc)
    return EXIT_OK


# --- run -------------------------------------------------------------------


def _report_text(
    config_path: str,
    config_hash: str,
    result,
    wall_s: float,
    trace_path: str,
    seed_override: int | None,
) -> str:
    machine = {
        "config_sha256": config_hash,
        "metrics": result.metrics.to_dict(),
        "verdicts": result.verdicts,
    }
    if seed_override is not None:
        # The config digest does not cover the override; this tells the runs apart.
        machine["seed_override"] = seed_override
    human = [
        "scenario report",
        f"config: {config_path}",
        f"trace: {trace_path}",
        f"wall_clock_s: {wall_s:.3f}",
        f"packets_sent: {result.metrics.packets_sent}",
        f"packets_delivered: {result.metrics.packets_delivered}",
        f"distinct_external_ips_used: {result.metrics.distinct_external_ips_used}",
        f"hop_count: {result.metrics.hop_count}",
        f"mean_dwell_ms: {result.metrics.mean_dwell_ms:.3f}",
    ]
    human += [f"verdict: {v}" for v in result.verdicts]
    return "\n".join(human) + f"\n{MACHINE_MARKER}\n" + json.dumps(machine, sort_keys=True) + "\n"


def _run_one(config_path: str, trace_path: str, report_path: str, seed_override: int | None) -> int:
    try:
        config = ScenarioConfig.from_file(config_path)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_INPUT)
    if seed_override is not None:
        if not 0 <= seed_override < (1 << 64):
            return _fail(f"--seed-override {seed_override}: must fit in 64 bits", EXIT_INPUT)
        config = config.replace(seed=seed_override)
    # Both outputs are checked before the run, so an unwritable path fails
    # before the first event. The trace streams into its file as the run
    # emits it, and a failed run leaves what it emitted; the report is
    # written after a whole run only.
    code = _check_writable(report_path)
    if code:
        return code
    try:
        out = open(trace_path, "w")
    except OSError as exc:
        return _unwritable(trace_path, exc)
    started = time.monotonic()
    try:
        with out:
            result = Simulation(config, TraceLog(out.write)).run()
    except HopsimError as exc:
        return _fail(f"scenario failed: {exc}", EXIT_SCENARIO)
    except OSError as exc:
        return _unwritable(trace_path, exc)
    wall = time.monotonic() - started
    report = _report_text(
        config_path, config.config_sha256, result, wall, trace_path, seed_override
    )
    code = _write(report_path, report)
    if code:
        return code
    print(
        f"{config_path}: delivered {result.metrics.packets_delivered}"
        f"/{result.metrics.packets_sent}, "
        f"{result.metrics.distinct_external_ips_used} external addresses"
    )
    return EXIT_OK


def cmd_run(args) -> int:
    configs = args.config
    if len(configs) == 1:
        return _run_one(configs[0], args.trace, args.report, args.seed_override)
    # Several configs: --trace/--report name directories, one file per config.
    trace_dir, report_dir = Path(args.trace), Path(args.report)
    for directory in (trace_dir, report_dir):
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _unwritable(directory, exc)
    codes = []
    for i, path in enumerate(configs):
        stem = f"{i:02d}_{Path(path).stem}"  # index keeps same-named configs apart
        trace, report = trace_dir / f"{stem}.trace", report_dir / f"{stem}.report"
        codes.append(_run_one(path, str(trace), str(report), args.seed_override))
    return max(codes)


# --- train -----------------------------------------------------------------


def cmd_train(args) -> int:
    path = Path(args.trace)
    if not path.is_file():
        return _fail(f"trace file not found: {path}", EXIT_INPUT)
    try:
        trace = load_trace_text(path.read_text())
        if not trace:
            return _fail("trace holds no intervals", EXIT_INPUT)
        alphabet = quantile_alphabet(trace, args.bins)
        model = infer_dhmm(trace, alphabet, order=args.order)
        check_walkable(model)  # `run` rejects a model a walk can get stuck in
    except (ValueError, HopsimError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    code = _write(args.out, model.to_text())
    if code:
        return code
    print(f"{args.out}: {model.num_states} states, {model.num_symbols} symbols")
    return EXIT_OK


# --- covert ----------------------------------------------------------------

_PAYLOAD_KEYS = ("seed", "pool", "model", "epoch_ms")


def payload_to_text(payload: SyncPayload) -> str:
    """Canonical key=value form; decode emits exactly this."""
    return (
        f"seed={payload.seed}\n"
        f"pool={payload.pool}\n"
        f"model={payload.dwell_model_id}\n"
        f"epoch_ms={payload.epoch_ms!r}\n"
    )


def payload_from_text(text: str) -> SyncPayload:
    values: dict[str, str] = {}
    for i, ln in enumerate(text.splitlines(), 1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ValueError(f"line {i}: expected key=value")
        key, value = ln.split("=", 1)
        values[key.strip()] = value.strip()
    missing = [k for k in _PAYLOAD_KEYS if k not in values]
    if missing:
        raise ValueError(f"missing payload keys: {', '.join(missing)}")
    return SyncPayload(
        seed=int(values["seed"], 0),
        pool=PrefixPool.parse(values["pool"]),
        dwell_model_id=values["model"],
        epoch_ms=float(values["epoch_ms"]),
    )


def cmd_covert(args) -> int:
    src = Path(args.infile)
    if not src.is_file():
        return _fail(f"input file not found: {src}", EXIT_INPUT)
    if args.mode == "encode":
        try:
            payload = payload_from_text(src.read_text())
            anchor = Address.parse(args.anchor)
            records = encode_payload(payload, anchor, args.tail)
        except (ValueError, PayloadTooLarge, HopsimError) as exc:
            return _fail(str(exc), EXIT_INPUT)
        code = _write(args.out, "\n".join(zone_lines(records)) + "\n")
        if code:
            return code
        print(f"{args.out}: {len(records.names)} records at {anchor}")
        return EXIT_OK
    try:
        records = parse_zone(src.read_text())
        payload = decode_payload(records, args.tail)
    except (IncompleteSet, IntegrityFailure) as exc:
        return _fail(str(exc), EXIT_INTEGRITY)
    except (MalformedRecord, ValueError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    code = _write(args.out, payload_to_text(payload))
    if code:
        return code
    print(f"{args.out}: payload recovered from {len(records.names)} records")
    return EXIT_OK


# --- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hopsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute scenario configs")
    run.add_argument("--config", nargs="+", required=True)
    run.add_argument("--trace", required=True, help="trace file (or directory for many configs)")
    run.add_argument("--report", required=True, help="report file (or directory)")
    run.add_argument("--seed-override", type=lambda s: int(s, 0), default=None)
    run.add_argument("--jobs", type=int, default=1, help="ignored: configs run one after another")
    run.set_defaults(fn=cmd_run)

    train = sub.add_parser("train", help="fit a dwell model from an interval trace")
    train.add_argument("--trace", required=True)
    train.add_argument("--bins", type=int, default=8)
    train.add_argument("--order", type=int, default=1)
    train.add_argument("--out", required=True)
    train.set_defaults(fn=cmd_train)

    covert = sub.add_parser("covert", help="encode/decode sync payloads as zone files")
    covert.add_argument("mode", choices=("encode", "decode"))
    covert.add_argument("--in", dest="infile", required=True)
    covert.add_argument("--out", required=True)
    covert.add_argument("--anchor", default="203.0.113.53", help="anchor IP for encode")
    covert.add_argument("--tail", default="example-cdn.net")
    covert.set_defaults(fn=cmd_covert)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
