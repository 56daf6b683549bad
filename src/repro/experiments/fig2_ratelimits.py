"""Figure 2: rate limits measured on 45 open resolvers.

Runs the Appendix A probing methodology (reimplemented in
:mod:`repro.measure.prober`) against the synthetic 45-resolver
population (Table 3 names, hidden profiles drawn to match the paper's
findings) and reports the Figure 2 histogram:

- IRL WC / IRL NX: ingress limits probed with wildcard / NXDOMAIN
  patterns, bucketed into 1-100 / 101-500 / 501-1500 / 1501-5000 /
  Uncertain;
- ERL CQ / ERL FF: egress limits probed with the two amplification
  patterns, same buckets.

Because the ground truth is known here (unlike on the real Internet),
the driver also reports the estimator's bucket-level accuracy -- a
validation the paper could not perform.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.report import render_table
from repro.experiments.common import not_judged, report_failures
from repro.measure.population import ResolverProfile, bucket_of, build_population
from repro.measure.prober import RateLimitProber

BUCKET_LABELS = ["1-100", "101-500", "501-1500", "1501-5000", "Uncertain"]


@dataclass
class ResolverMeasurement:
    profile: ResolverProfile
    irl_wc: Optional[float]
    irl_nx: Optional[float]
    erl_cq: Optional[float]
    erl_ff: Optional[float]


@dataclass
class Figure2Result:
    measurements: List[ResolverMeasurement]
    #: series label -> bucket label -> count (the Figure 2 bars)
    histogram: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def truth_histogram(self) -> Dict[str, Dict[str, int]]:
        """Ground-truth buckets (not available to the paper's authors)."""
        out = {"IRL true": _empty_buckets(), "ERL true": _empty_buckets()}
        for m in self.measurements:
            out["IRL true"][bucket_of(m.profile.ingress_limit)] += 1
            out["ERL true"][bucket_of(m.profile.egress_limit)] += 1
        return out

    def bucket_accuracy(self) -> float:
        """Fraction of (resolver, IRL-WC) estimates in the true bucket."""
        hits = sum(
            1
            for m in self.measurements
            if bucket_of(m.irl_wc) == bucket_of(m.profile.ingress_limit)
        )
        return hits / max(1, len(self.measurements))


def _empty_buckets() -> Dict[str, int]:
    return {label: 0 for label in BUCKET_LABELS}


def run_figure2(
    scale: float = 0.1,
    resolver_count: Optional[int] = None,
    seed: int = 2024,
) -> Figure2Result:
    """Probe the population and build the Figure 2 histogram.

    ``scale`` compresses rates/durations (0.1 keeps the full sweep
    laptop-sized); ``resolver_count`` limits the population for quick
    runs (None = all 45).
    """
    population = build_population(seed=seed)
    if resolver_count is not None:
        population = population[:resolver_count]

    measurements: List[ResolverMeasurement] = []
    for profile in population:
        prober = RateLimitProber(profile, scale, seed=seed)
        irl_wc = prober.probe_ingress("WC")
        irl_nx = prober.probe_ingress("NX")
        erl_cq = prober.probe_egress("CQ", irl_wc.limit)
        erl_ff = prober.probe_egress("FF", irl_wc.limit)
        measurements.append(
            ResolverMeasurement(
                profile=profile,
                irl_wc=irl_wc.limit,
                irl_nx=irl_nx.limit,
                erl_cq=erl_cq.limit,
                erl_ff=erl_ff.limit,
            )
        )

    result = Figure2Result(measurements=measurements)
    series = {
        "IRL WC": [m.irl_wc for m in measurements],
        "IRL NX": [m.irl_nx for m in measurements],
        "ERL CQ": [m.erl_cq for m in measurements],
        "ERL FF": [m.erl_ff for m in measurements],
    }
    for label, limits in series.items():
        buckets = _empty_buckets()
        for limit in limits:
            buckets[bucket_of(limit)] += 1
        result.histogram[label] = buckets
    return result


def failures(result: Figure2Result) -> List[str]:
    """The Figure 2 claims ``result`` does not show."""
    claim = "Figure 2: the ingress estimate lands in the true bucket for most resolvers"
    if len(result.measurements) < 8:
        not_judged(claim, f"{len(result.measurements)} resolvers, fewer than 8")
    elif not result.bucket_accuracy() >= 0.5:
        return [f"{claim}, but did for {result.bucket_accuracy():.0%}"]
    return []


def main(argv: Optional[List[str]] = None) -> int:
    from repro.analysis.provenance import provenance_header

    parser = argparse.ArgumentParser(
        prog="repro fig2", description="rate limits of 45 open resolvers")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="probe rate/duration scale (1.0 = paper rates)")
    parser.add_argument("--resolvers", type=int, default=None,
                        help="limit the population (default: all 45)")
    args = parser.parse_args(argv)
    scale, resolver_count = args.scale, args.resolvers
    print(provenance_header(
        "fig2", scale=scale, config={"resolver_count": resolver_count}
    ))
    result = run_figure2(scale=scale, resolver_count=resolver_count)
    print(f"=== Figure 2: rate limits across {len(result.measurements)} resolvers "
          f"(probe scale={scale}) ===\n")
    headers = ["series"] + BUCKET_LABELS
    rows = [
        [label] + [buckets[b] for b in BUCKET_LABELS]
        for label, buckets in result.histogram.items()
    ]
    truth = result.truth_histogram()
    rows.append(["-" * 6] + ["" for _ in BUCKET_LABELS])
    rows.extend(
        [label] + [buckets[b] for b in BUCKET_LABELS] for label, buckets in truth.items()
    )
    print(render_table(headers, rows))
    print(f"\nIRL-WC bucket accuracy vs hidden ground truth: "
          f"{result.bucket_accuracy():.0%}")
    return report_failures(failures(result))
