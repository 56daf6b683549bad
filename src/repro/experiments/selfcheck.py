"""Determinism self-check: run one scenario twice, diff the event traces.

The whole evaluation depends on the simulator being a deterministic
function of its seed (ROADMAP tier-1 assumption; paper Section 5 reports
seed-averaged results).  This driver proves the property end-to-end on a
DCC-enabled attack scenario:

1. build the Table 2 NX scenario (attack traffic, anomaly monitoring,
   policing, MOPI-FQ, signaling all active -- the widest code surface);
2. run it to completion with a :class:`~repro.netsim.trace.MessageTrace`
   attached and SimSan enabled (so every run also passes the runtime
   invariant sanitizer);
3. hash every delivered message (time, endpoints, question, rcode,
   size) plus the event count into a SHA-256 digest;
4. repeat from scratch and compare digests.

Any wall-clock read, unseeded RNG draw, or hash-order-dependent
iteration sneaking into the simulation path shows up as a digest
mismatch here long before it would corrupt a figure.

CLI: ``repro-experiments selfcheck [--seed N] [--scale S] [--runs K]``.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro import sanitize
from repro.experiments.common import AttackScenario, ScenarioConfig
from repro.netsim.trace import MessageTrace
from repro.workloads.schedule import table2_clients


def trace_digest(seed: int = 42, scale: float = 0.05, obs=None) -> str:
    """SHA-256 over the full delivered-message trace of one fresh run.

    ``obs`` optionally enables the observability subsystem
    (:class:`repro.obs.ObsConfig`); the digest must not change when it
    does -- instrumentation is forbidden from perturbing the simulation.
    """
    specs = table2_clients("nxdomain", time_scale=scale)
    config = ScenarioConfig(
        seed=seed,
        duration=60.0 * scale,
        channel_capacity=1000.0,
        use_dcc=True,
        ff_instances=20,
        obs=obs,
    )
    scenario = AttackScenario(config)
    trace = MessageTrace(scenario.net)
    scenario.add_clients(specs)
    result = scenario.run()

    return trace.sha256(result.events_processed).hexdigest()


def run_selfcheck(
    seed: int = 42, scale: float = 0.05, runs: int = 2
) -> List[str]:
    """``runs`` independent trace digests, each computed with SimSan on."""
    previous = sanitize.ENABLED
    sanitize.enable()
    try:
        return [trace_digest(seed=seed, scale=scale) for _ in range(runs)]
    finally:
        sanitize.ENABLED = previous


def main(argv: Optional[List[str]] = None) -> int:
    """Print per-run digests; exit 0 iff all runs hashed identically."""
    from repro.analysis.provenance import provenance_header

    parser = argparse.ArgumentParser(
        prog="repro selfcheck",
        description="prove determinism: run a DCC scenario twice under the "
        "SimSan sanitizer and diff event-trace hashes",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=0.05,
                        help="timeline compression (1.0 = 60-second runs)")
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file")
    args = parser.parse_args(argv)
    seed, scale, runs, out = args.seed, args.scale, args.runs, args.out
    digests = run_selfcheck(seed=seed, scale=scale, runs=runs)
    lines = [
        provenance_header("selfcheck", seed=seed, scale=scale, config={"runs": runs}),
        f"=== Determinism self-check (seed={seed}, scale={scale}) ===",
    ]
    for i, digest in enumerate(digests, start=1):
        lines.append(f"run {i}: {digest}")
    identical = len(set(digests)) == 1
    lines.append(
        "event-trace hashes identical across "
        f"{runs} runs -- simulation is deterministic"
        if identical
        else "EVENT-TRACE HASH MISMATCH -- simulation is NOT deterministic"
    )
    report = "\n".join(lines)
    print(report)
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0 if identical else 1
