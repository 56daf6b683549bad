"""Substrate micro-benchmarks: wire codec, zone lookup, cache, simulator.

Not tied to a specific paper figure; they bound the cost of the
simulation substrate so scenario benchmarks are interpretable.
"""

from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import AData, RRType
from repro.dnscore.rrset import ResourceRecord, RRSet
from repro.dnscore.wire import decode_message, encode_message
from repro.dnscore.zone import Zone
from repro.server.cache import ResolverCache
from repro.netsim.sim import Simulator


def _sample_response():
    qname = Name.from_text("host.example.com.")
    response = Message.query(qname, RRType.A).make_response()
    response.answers.append(RRSet.of(
        ResourceRecord(qname, 60, AData("192.0.2.1")),
        ResourceRecord(qname, 60, AData("192.0.2.2")),
    ))
    return response


def test_wire_encode(benchmark):
    response = _sample_response()
    wire = benchmark(encode_message, response)
    assert len(wire) > 12


def test_wire_decode(benchmark):
    wire = encode_message(_sample_response())
    decoded = benchmark(decode_message, wire)
    assert decoded.answers


def test_zone_lookup_throughput(benchmark):
    zone = Zone("bench.example.")
    zone.add_soa()
    for i in range(5000):
        zone.add_a(f"host{i}", f"10.{i % 250}.{(i // 250) % 250}.1")
    zone.add_wildcard_a("wc", "192.0.2.1")
    names = [f"host{i}.bench.example." for i in range(0, 5000, 7)]

    def lookups():
        hits = 0
        for name in names:
            if zone.lookup(name, RRType.A).answers:
                hits += 1
        return hits

    assert benchmark(lookups) == len(names)


def test_cache_churn(benchmark):
    def churn():
        cache = ResolverCache(max_entries=10_000)
        for i in range(20_000):
            name = Name.from_text(f"n{i % 8000}.example.")
            if cache.get(name, RRType.A, now=i * 0.001) is None:
                cache.put_rrset(
                    RRSet.of(ResourceRecord(name, 60, AData("192.0.2.1"))), now=i * 0.001
                )
        return cache.hits

    assert benchmark.pedantic(churn, rounds=2, iterations=1) > 0


def test_simulator_event_throughput(benchmark):
    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 50_000:
                sim.schedule(1e-6, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    assert benchmark.pedantic(run, rounds=2, iterations=1) == 50_000
