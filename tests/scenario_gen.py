"""One seeded generator of scenario configs, and the random graph it draws.

`random_scenario(seed)` gives a config text and the files it names. It
draws graphs of 3 to 12 ASes, v4 and v6 pools, static and hopping
servers, one-way and two-way runs, fixed, uniform and DHMM dwells, taps
with every policy, and now and then a value the parser must reject.
`legal_configs` gives the first `CONFIGS` seeds' configs that parse.
The properties of `test_config` (a config runs or is rejected at parse
time), `test_differential` (a run gives the same bytes as the plain form
of each shortcut) and `test_routing` (each packet is routed by the one
announced prefix that holds its destination, in no more crossings than
the origin's tree is deep) run on them. `random_edges` is the one
random-graph draw of the tests.
"""

import ipaddress

from hopsim.config import MAX_HOPS, MAX_PACKETS, ScenarioConfig
from hopsim.dwell import infer_dhmm, quantile_alphabet
from hopsim.errors import ConfigError
from hopsim.rng import SplitMix64

V6_BASE = 0x20010DB8 << 96
U64 = 1 << 64
CONFIGS = 500
# The least number of the CONFIGS seeds whose config parses: 232 do.
LEGAL = 200


def random_edges(rng: SplitMix64, size: int, tries: int) -> list[tuple[int, int]]:
    """The links, each (low, high) and sorted, of a random spanning tree on
    ASes 1..size plus a draw below `tries` of attempts at one more link
    between two random ASes."""
    edges = {(1 + rng.below(i), i + 1) for i in range(1, size)}
    for _ in range(rng.below(tries)):
        a, b = 1 + rng.below(size), 1 + rng.below(size)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def trained_model(trace: list[float], bins: int) -> str:
    return infer_dhmm(trace, quantile_alphabet(trace, bins), order=1).to_text()


def random_scenario(seed: int) -> tuple[str, dict[str, bytes]]:
    """(config text, {file name: bytes}) drawn from `seed`.

    Prefix k of a pool lies in block k of the pool's region, so the
    prefixes of one pool never overlap. The server's pool is in region 0
    and the client's in region 1, or sometimes also in region 0 so that
    the pools may overlap. Internal addresses are in region 9, or
    sometimes among the first addresses of the end's pool. Fixed dwells
    and gaps take round values, so that hops, sends and expiries tie.
    """
    rng = SplitMix64(seed)
    pick = lambda options: options[rng.below(len(options))]
    one_in = lambda n: rng.below(n) == 0
    v6 = one_in(2)

    def address(region: int, block: int) -> int:
        if v6:
            return V6_BASE | region << 80 | block << 72 | rng.below(1 << 20)
        return 10 << 24 | region << 16 | block << 12 | rng.below(4096)

    def prefixes(region: int) -> str:
        lengths = (56, 64, 100, 124) if v6 else (20, 24, 29, 30)  # a v6 /64 holds 2**64 addresses
        return ",".join(
            str(ipaddress.ip_network((address(region, block), pick(lengths)), strict=False))
            for block in range(1 + rng.below(4))
        )

    def internal(pool: str) -> str:
        if one_in(8):
            return str(ipaddress.ip_network(pool.split(",")[0])[rng.below(4)])
        return str(ipaddress.ip_address(address(9, 0)))

    def model() -> bytes:
        durations = [50.0 + 150 * i + rng.below(150) for i in range(2 + rng.below(7))]
        kind = pick(("cyclic", "cyclic", "cyclic", "trained", "garbage"))
        if kind == "cyclic":  # every state is followed by another
            return trained_model(durations * 3, 1 + rng.below(4)).encode()
        if kind == "trained":  # the longest dwell comes last: its state may have no successor
            return trained_model(durations + [2000.0], 2 + rng.below(3)).encode()
        if one_in(2):  # a model cut short
            text = trained_model(durations * 3, 2).encode()
            return text[: rng.below(len(text))]
        return bytes(rng.below(256) for _ in range(rng.below(41)))

    n = 3 + rng.below(10)
    edges = random_edges(rng, n, 2 * n + 1)
    files = {"topo.txt": "".join(f"{a} {b}\n" for a, b in edges).encode()}
    server_as = 1 + rng.below(n)
    client_as = 1 + (server_as + rng.below(n - 1)) % n
    two_way = one_in(3)
    server_pool = prefixes(0)
    client_pool = prefixes(0 if one_in(4) else 1)
    sections = {
        "scenario": {
            "seed": rng.next_u64(),
            "n_hops": pick((MAX_HOPS + 1, U64)) if one_in(40) else 1 + rng.below(8),
            "grace_window_ms": pick((0, 50, 200, 700)),
            "clock_skew_ms": pick((0, 30, 150, 300)),
            "link_delay_ms": pick((0, 1, 5, 11)),
            "lead_time_ms": pick((5, 40, 1000)),
            "withdraw_lag_ms": pick((0, 20, 500)),
            "two_way": str(two_way).lower(),
            "client_seed": pick((-1, U64)) if one_in(12) else pick((0, 909, U64 - 1, seed)),
        },
        "topology": {"file": "topo.txt"},
        "server": {
            "internal_ip": internal(server_pool),
            "attached_as": server_as,
            "pool": server_pool,
            "hopping": str(not one_in(7)).lower(),
        },
        "client": {"internal_ip": internal(client_pool), "attached_as": client_as},
    }
    if two_way or one_in(4):
        sections["client"]["pool"] = client_pool

    source = pick(("fixed", "uniform", "dhmm"))
    if source == "fixed":
        dwell = {"fixed_ms": pick((100, 250, 1000, repr(rng.uniform(50, 1500))))}
    elif source == "uniform":
        low = pick((50 + rng.below(400), repr(rng.uniform(50, 1000))))
        high = float(low) + (0 if one_in(10) else 1 + rng.below(900))
        dwell = {"low_ms": low, "high_ms": repr(high)}
    else:
        files["dwell.model"] = model()
        dwell = {"model": "dwell.model"}
    sections["dwell"] = {"source": source, **dwell}

    sections["traffic"] = {
        "packets": (
            pick((MAX_PACKETS + 1, U64)) if one_in(40) else 0 if one_in(8) else 1 + rng.below(40)
        ),
        "gap_ms": pick(("auto", "7", "10", "22", "25", "50", "100", "170.5", "400")),
    }
    if one_in(4):
        tail = ".".join(["c" * 60] * 4)[: pick((15, 60, 185, 240))].strip(".")
        sections["covert"] = {"domain_tail": tail}
    if one_in(2):
        a, b = pick(edges)
        adversary = {
            "tap": f"{a}-{b}" if one_in(2) else f"{b}-{a}",
            "policy": pick(("none", "static", "reactive")),
            "detect_delay_ms": pick((0, 20, 300, 2500)),
        }
        if one_in(2):
            adversary["blocked"] = prefixes(0)
        if one_in(2):
            files["timing.model"] = model()
            adversary["timing_model"] = "timing.model"
        sections["adversary"] = adversary

    text = "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )
    return text, files


def legal_configs(tmp_path, rejected: set):
    """The configs of `random_scenario` seeds 0 to CONFIGS - 1 that parse,
    each given while the files it names are on disk; the key each of the
    rest is rejected on goes into `rejected`."""
    for seed in range(CONFIGS):
        text, files = random_scenario(seed)
        for name, body in files.items():
            (tmp_path / name).write_bytes(body)
        try:
            config = ScenarioConfig.from_text(text, base_dir=tmp_path)
        except ConfigError as exc:
            rejected.add(exc.field)
            continue
        yield seed, config
