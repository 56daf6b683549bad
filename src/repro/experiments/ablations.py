"""Ablation drivers: the design choices DESIGN.md calls out, printable.

Three studies, each isolating one design decision of the DCC framework:

- **schedulers** — the Figure 7 design space under a hog/meek mix and
  under cross-channel congestion (fairness + HOL blocking);
- **depth** — MOPI-FQ queue depth vs max-min-fairness deviation
  (Theorem B.1's capacity assumption);
- **mitigations** — the NX-flood mitigation matrix: vanilla vs RFC 8198
  aggressive denial vs DCC.

`python -m repro ablations` prints all three.
"""

from __future__ import annotations

import argparse
import heapq
import random
from typing import Callable, Dict, List, Optional

from repro.analysis.fairness import jain_index, mmf_deviation
from repro.analysis.report import render_table
from repro.dcc.baselines import (
    FifoScheduler,
    InputCentricFq,
    IoIsolatedFq,
    LeapfrogInputFq,
    OutputCentricFq,
)
from repro.dcc.mopifq import MopiFq, MopiFqConfig

SCHEDULER_FACTORIES: Dict[str, Callable[[], object]] = {
    "fifo": lambda: FifoScheduler(default_rate=100.0),
    "input-centric": lambda: InputCentricFq(default_rate=100.0),
    "leapfrog": lambda: LeapfrogInputFq(default_rate=100.0),
    "io-isolated": lambda: IoIsolatedFq(default_rate=100.0),
    "output-centric": lambda: OutputCentricFq(default_rate=100.0),
    "MOPI-FQ": lambda: MopiFq(MopiFqConfig(default_channel_rate=100.0)),
}


# ----------------------------------------------------------------------
# scheduler design space
# ----------------------------------------------------------------------

def fairness_study(T: float = 10.0, seed: int = 1) -> List[List[object]]:
    """Hog (500 QPS) vs three meek (20 QPS) sources on a 100-QPS channel."""
    rows = []
    for name, factory in SCHEDULER_FACTORIES.items():
        rng = random.Random(seed)
        sched = factory()
        sched.set_channel_capacity("d", 100.0, 10.0)
        arrivals = {"hog": 0.0, "m0": 0.0, "m1": 0.0, "m2": 0.0}
        rates = {"hog": 500.0, "m0": 20.0, "m1": 20.0, "m2": 20.0}
        counts: Dict[str, int] = {}
        t = 0.0
        while t < T:
            source = min(arrivals, key=arrivals.get)
            t = arrivals[source]
            sched.enqueue(source, "d", None, t)
            arrivals[source] = t + (1.0 / rates[source]) * rng.uniform(0.9, 1.1)
            while True:
                item = sched.dequeue(t)
                if item is None:
                    break
                if t > 2.0:
                    counts[item.source] = counts.get(item.source, 0) + 1
        horizon = T - 2.0
        meek_rate = sum(counts.get(f"m{i}", 0) for i in range(3)) / 3 / horizon
        hog_rate = counts.get("hog", 0) / horizon
        rows.append([
            name,
            f"{meek_rate:.1f}",
            f"{hog_rate:.1f}",
            f"{jain_index([meek_rate] * 3 + [hog_rate]):.2f}",
        ])
    return rows


def hol_study(T: float = 5.0) -> List[List[object]]:
    """Delivery to a healthy channel while another is congested."""
    rows = []
    for name, factory in SCHEDULER_FACTORIES.items():
        sched = factory()
        sched.set_channel_capacity("dead", 0.001, 1.0)
        sched.set_channel_capacity("ok", 1000.0, 100.0)
        sched.channel_bucket("dead").try_consume(0.0)
        healthy = 0
        offered = 0
        t = 0.0
        i = 0
        while t < T:
            t += 0.01
            i += 1
            to_ok = bool(i % 2 == 0)
            if to_ok:
                offered += 1
            sched.enqueue("s", "ok" if to_ok else "dead", None, t)
            while True:
                item = sched.dequeue(t)
                if item is None:
                    break
                if item.destination == "ok":
                    healthy += 1
        rows.append([name, f"{healthy}/{offered}", f"{healthy / max(1, offered):.0%}"])
    return rows


# ----------------------------------------------------------------------
# depth vs fairness
# ----------------------------------------------------------------------

def depth_study(
    depths: Optional[List[int]] = None, T: float = 15.0, seed: int = 7
) -> List[List[object]]:
    """MMF deviation of the Table 2 demand vector vs queue depth."""
    rates = {"heavy": 600.0, "medium": 350.0, "light": 150.0, "attacker": 1100.0}
    capacity = 1000.0
    rows = []
    for depth in depths or [25, 50, 100, 200, 300]:
        rng = random.Random(seed)
        fq = MopiFq(MopiFqConfig(max_poq_depth=depth, max_round=75, pool_capacity=100_000))
        fq.set_channel_capacity("dst", capacity)
        events = []
        names = list(rates)
        for i, name in enumerate(names):
            heapq.heappush(events, (1.0 / rates[name], i, 0))
        counts = {name: 0 for name in names}
        seq = 1
        while events:
            t, i, _ = heapq.heappop(events)
            if t > T:
                break
            while True:
                item = fq.dequeue(t)
                if item is None:
                    break
                if t >= 5.0:
                    counts[item.source] += 1
            name = names[i]
            fq.enqueue(name, "dst", None, t)
            heapq.heappush(events, (t + (1.0 / rates[name]) * (1 + rng.uniform(-0.1, 0.1)), i, seq))
            seq += 1
        measured = {name: counts[name] / (T - 5.0) for name in names}
        deviation = mmf_deviation(measured, rates, capacity)
        rows.append([
            depth,
            f"{measured['heavy']:.0f}/{measured['medium']:.0f}/"
            f"{measured['light']:.0f}/{measured['attacker']:.0f}",
            f"{deviation:.3f}",
            "(meets Thm B.1 assumption)" if depth >= 300 else "",
        ])
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    """``--seed`` feeds the studies' local jitter RNGs (the depth study
    keeps its historical default of ``seed + 6`` so published numbers
    stay reproducible); the process-global RNG is never touched."""
    from repro.analysis.provenance import provenance_header

    parser = argparse.ArgumentParser(
        prog="repro ablations", description="design-choice ablations (schedulers, depth)")
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args(argv).seed
    print(provenance_header("ablations", seed=seed))
    print("=== Ablation 1: scheduler design space (Figure 7) ===\n")
    print("-- fairness: hog 500 QPS vs 3x meek 20 QPS on a 100-QPS channel --")
    print(render_table(
        ["scheduler", "meek QPS (each)", "hog QPS", "Jain"], fairness_study(seed=seed)
    ))
    print("\n-- head-of-line blocking: healthy-channel delivery while another "
          "channel is dead --")
    print(render_table(["scheduler", "delivered", "ratio"], hol_study()))

    print("\n=== Ablation 2: MOPI-FQ queue depth vs max-min fairness ===\n")
    print(render_table(
        ["depth", "heavy/medium/light/attacker QPS", "MMF deviation", ""],
        depth_study(seed=seed + 6),
    ))
    print("\n(ideal water-filling: 283/283/150/283; deviation -> 0 once the "
          "queue accommodates all senders)")
    return 0
