#!/usr/bin/env python3
"""Probe resolvers for their rate limits (the paper's Appendix A study).

Runs the dnsperf-style probing methodology against a handful of
resolvers from the synthetic Table 3 population and compares the
estimates with the (normally unknowable) ground truth.

Run:  python examples/measure_rate_limits.py [count]
"""

import sys

from repro.analysis.report import render_table
from repro.measure import RateLimitProber, build_population
from repro.measure.population import bucket_of


def fmt(limit):
    return "uncertain" if limit is None else f"{limit:,.0f}"


def main(count: int = 6):
    population = build_population()[:count]
    print(f"probing {count} resolvers (scaled 10x down for speed; "
          f"decision rules identical to the paper's)\n")

    rows = []
    for profile in population:
        prober = RateLimitProber(profile, scale=0.1)
        wc = prober.probe_ingress("WC")
        nx = prober.probe_ingress("NX")
        ff = prober.probe_egress("FF", wc.limit)
        rows.append([
            profile.name,
            fmt(profile.ingress_limit),
            fmt(wc.limit),
            fmt(nx.limit),
            fmt(profile.egress_limit),
            fmt(ff.limit),
            "yes" if bucket_of(wc.limit) == bucket_of(profile.ingress_limit) else "NO",
        ])
    print(render_table(
        ["resolver", "true IRL", "est WC", "est NX", "true ERL", "est FF", "bucket ok"],
        rows,
    ))
    print("\nNotes: ingress estimates come from self-paced probing with a "
          "bounded name pool\n(cache hits isolate ingress RL); egress "
          "estimates use FF amplification and are\nbest-effort, as in the "
          "paper ('not as reliable as ingress RL').")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
