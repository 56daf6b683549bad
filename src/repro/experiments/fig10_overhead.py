"""Figure 10: DCC's performance overhead under varying entity counts.

The paper drives 4 clients x 750 QPS of WC traffic while mapping query
names onto synthetic client/server ID spaces of 10K-100K entities, then
reports the DCC process's CPU load and memory alongside BIND's.

Substitutions for the Python reproduction (documented in DESIGN.md):

- **CPU** -> wall-clock throughput (operations/second) of the DCC
  control-path (pre-queue check, MOPI-FQ enqueue/dequeue, monitor
  updates) and, as the baseline, of the vanilla resolver's own
  per-request path (cache insert/lookup + pending bookkeeping).  The
  paper's observation to reproduce: DCC's cost is *insensitive* to the
  number of tracked entities (constant/logarithmic operations).
- **Memory** -> deep ``getsizeof`` over each side's state containers
  (the monitor reports its own: ``AnomalyMonitor.state_bytes``).
  The observations to reproduce: DCC's footprint grows with entity
  count but stays *below* the resolver's own state, and is more
  sensitive to servers than clients.
"""

from __future__ import annotations

import argparse
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.util.memsize import approx_deep_size
from repro.analysis.report import render_table
from repro.dcc.monitor import AnomalyMonitor, MonitorConfig
from repro.dcc.mopifq import MopiFq, MopiFqConfig
from repro.dcc.policing import PolicyEngine
from repro.dcc.state import DccStateTables
from repro.dnscore.name import Name
from repro.dnscore.rdata import AData, RCode, RRType
from repro.dnscore.rrset import ResourceRecord, RRSet
from repro.experiments.common import not_judged, report_failures
from repro.server.cache import ResolverCache


@dataclass
class OverheadPoint:
    clients: int
    servers: int
    dcc_ops_per_sec: float
    resolver_ops_per_sec: float
    dcc_state_bytes: int
    resolver_state_bytes: int


def warm_control_loop(
    n_clients: int, n_servers: int, channel_rate: float
) -> Tuple[MopiFq, AnomalyMonitor, PolicyEngine, DccStateTables, List[str], List[str]]:
    """DCC's control-loop tables, warmed at time 0 to the target entity
    counts (the paper starts collecting once the expected number of
    entities is tracked), and the two ID spaces they were warmed with."""
    scheduler = MopiFq(
        MopiFqConfig(max_poq_depth=100, max_round=75, pool_capacity=100_000,
                     default_channel_rate=channel_rate)
    )
    monitor = AnomalyMonitor(MonitorConfig())
    clients = [f"10.{i >> 16 & 255}.{i >> 8 & 255}.{i & 255}" for i in range(n_clients)]
    servers = [f"172.{i >> 16 & 255}.{i >> 8 & 255}.{i & 255}" for i in range(n_servers)]
    for client in clients:
        monitor.record_request(client, 0.0)
    for server in servers:
        scheduler.channel_bucket(server)
    return scheduler, monitor, PolicyEngine(), DccStateTables(), clients, servers


def _drive_dcc(n_clients: int, n_servers: int, ops: int, seed: int = 11) -> OverheadPoint:
    """Run ``ops`` control-loop iterations over the given ID spaces.

    ``seed`` drives the client/server pick sequence only (a local
    ``random.Random``, never the process-global RNG -- the same
    seed-injection convention as ``experiments/common.py``).
    """
    rng = random.Random(seed)
    scheduler, monitor, engine, tables, clients, servers = warm_control_loop(
        n_clients, n_servers, channel_rate=10_000.0
    )
    now = 0.0

    start = time.perf_counter()
    request_id = 0
    for i in range(ops):
        now += 0.0005
        client = clients[rng.randrange(n_clients)]
        server = servers[rng.randrange(n_servers)]
        request_id += 1
        state = tables.open_request(client, request_id, now)
        engine.check(client, now)
        monitor.record_query(client, now)
        state.queries_attributed += 1
        scheduler.enqueue(client, server, i, now)
        item = scheduler.dequeue(now)
        if item is not None:
            monitor.record_answer(item.source, RCode.NOERROR, now)
        tables.close_request(client, request_id)
    elapsed = time.perf_counter() - start
    dcc_ops = ops / elapsed if elapsed > 0 else float("inf")

    dcc_bytes = (
        monitor.state_bytes()
        + scheduler.state_bytes()
        + approx_deep_size(tables._requests)
    )

    # Vanilla-resolver baseline over the same entity scale: per-server
    # state (NS info + addresses in cache) and per-client state (ingress
    # RL / policing buckets), per Table 1's left column -- plus the
    # per-request cache path as the compute cost.
    from repro.server.ratelimit import RateLimitConfig, RateLimiter

    cache = ResolverCache(max_entries=max(n_clients, n_servers) * 2)
    for i, server in enumerate(servers):
        name = Name.from_text(f"ns{i}.zone{i % 997}.example.")
        cache.put_rrset(RRSet.of(ResourceRecord(name, 3600, AData(server))), now)
    ingress = RateLimiter(RateLimitConfig(rate=1500.0))
    for client in clients:
        ingress.allow(client, now)
    qnames = [Name.from_text(f"q{i}.zone{i % 997}.example.") for i in range(2048)]
    start = time.perf_counter()
    for i in range(ops):
        name = qnames[i % len(qnames)]
        ingress.allow(clients[i % n_clients], now)
        entry = cache.get(name, RRType.A, now)
        if entry is None:
            cache.put_rrset(RRSet.of(ResourceRecord(name, 1, AData("192.0.2.1"))), now)
    elapsed = time.perf_counter() - start
    resolver_ops = ops / elapsed if elapsed > 0 else float("inf")
    # one walk over both: an entry in a TTL queue and in the table counts once, the queue its deque slot
    resolver_bytes = approx_deep_size((cache._entries, cache._queues)) + approx_deep_size(ingress._entries)

    return OverheadPoint(
        clients=n_clients,
        servers=n_servers,
        dcc_ops_per_sec=dcc_ops,
        resolver_ops_per_sec=resolver_ops,
        dcc_state_bytes=dcc_bytes,
        resolver_state_bytes=resolver_bytes,
    )


def run_server_sweep(
    server_counts: Optional[List[int]] = None,
    clients: int = 1000,
    ops: int = 50_000,
    seed: int = 11,
) -> List[OverheadPoint]:
    """Figure 10(a): fixed 1K clients, varying server counts."""
    counts = server_counts or [10_000, 20_000, 40_000, 60_000, 80_000, 100_000]
    return [_drive_dcc(clients, n, ops, seed=seed) for n in counts]


def run_client_sweep(
    client_counts: Optional[List[int]] = None,
    servers: int = 1000,
    ops: int = 50_000,
    seed: int = 11,
) -> List[OverheadPoint]:
    """Figure 10(b): fixed 1K servers, varying client counts."""
    counts = client_counts or [10_000, 20_000, 40_000, 60_000, 80_000, 100_000]
    return [_drive_dcc(n, servers, ops, seed=seed) for n in counts]


def failures(figure: Dict[str, List[OverheadPoint]]) -> List[str]:
    """The Figure 10 claims ``figure`` (``"a"``: a server sweep, ``"b"``: a client sweep) does not show
    between its smallest and largest point.  The compute clause reads the wall clock, hence its slack."""
    problems = []
    for panel, points in figure.items():
        small, large = points[0], points[-1]
        if small is large:
            not_judged(f"Figure 10({panel}): cost flat in, memory growing with, entities tracked", "one-point sweep")
            continue
        if not large.dcc_ops_per_sec > small.dcc_ops_per_sec / 3:
            problems.append(f"Figure 10({panel}): DCC's compute cost should be insensitive to the entities tracked, "
                            f"but {small.dcc_ops_per_sec:,.0f} ops/s fell to {large.dcc_ops_per_sec:,.0f}")
        if not small.dcc_state_bytes < large.dcc_state_bytes < large.resolver_state_bytes:
            problems.append(f"Figure 10({panel}): DCC's state should grow with the entities tracked and stay below "
                            f"the resolver's {large.resolver_state_bytes} bytes, but went from "
                            f"{small.dcc_state_bytes} to {large.dcc_state_bytes}")
        if panel == "a" and not large.dcc_state_bytes - small.dcc_state_bytes > 50 * (large.servers - small.servers):
            problems.append("Figure 10(a): a tracked server should cost real scheduler state, over 50 bytes each")
    return problems


def _print_sweep(caption: str, entity: str, points: List[OverheadPoint]) -> None:
    print(caption)
    rows = [[f"{getattr(p, entity):,}", f"{p.dcc_ops_per_sec:,.0f}", f"{p.resolver_ops_per_sec:,.0f}",
             f"{p.dcc_state_bytes / 1e6:.1f} MB", f"{p.resolver_state_bytes / 1e6:.1f} MB"] for p in points]
    print(render_table([entity, "DCC ops/s", "resolver ops/s", "DCC state", "resolver state"], rows))


def main(argv: Optional[List[str]] = None) -> int:
    from repro.analysis.provenance import provenance_header

    parser = argparse.ArgumentParser(
        prog="repro fig10", description="overhead vs tracked entities")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--ops", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    ops, quick, seed = args.ops, args.quick, args.seed
    print(provenance_header(
        "fig10", seed=seed, config={"ops": ops, "quick": quick}
    ))
    counts = [10_000, 40_000, 100_000] if quick else None
    figure = {"a": run_server_sweep(counts, ops=ops, seed=seed)}
    _print_sweep("=== Figure 10(a): fixed 1K clients, varying servers ===", "servers", figure["a"])
    figure["b"] = run_client_sweep(counts, ops=ops, seed=seed)
    _print_sweep("\n=== Figure 10(b): fixed 1K servers, varying clients ===", "clients", figure["b"])
    return report_failures(failures(figure))
