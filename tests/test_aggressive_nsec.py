"""RFC 8198 aggressive negative caching: the cited NX-flood suppressor.

The paper (Section 2.3): "Such queries can be suppressed by a resolver
that implements DNSSEC-validated cache, but the adoption of DNSSEC still
remains low" -- which is exactly why attackers can rely on the NX
pattern, and why they fall back to WC against signed zones.
"""

from repro.dnscore.name import Name
from repro.dnscore.rdata import NSECData, RCode, RRType
from repro.dnscore.zone import LookupStatus, Zone
from repro.server.cache import ResolverCache
from repro.server.resolver import ResolverConfig
from repro.workloads.zonegen import build_target_zone

from tests.conftest import RESOLVER_ADDR, build_topology


class TestZoneDenialRanges:
    def _zone(self):
        zone = Zone("signed.example.", signed=True)
        zone.add_soa(negative_ttl=60)
        zone.add_a("alpha", "192.0.2.1")
        zone.add_a("mike", "192.0.2.2")
        zone.add_a("zulu", "192.0.2.3")
        return zone

    def test_nxdomain_carries_nsec(self):
        result = self._zone().lookup("golf.signed.example.", RRType.A)
        assert result.status == LookupStatus.NXDOMAIN
        nsec = [rs for rs in result.authority if rs.rrtype == RRType.NSEC]
        assert len(nsec) == 1
        record = nsec[0].records[0]
        assert record.name == Name.from_text("alpha.signed.example.")
        assert record.rdata.next_name == Name.from_text("mike.signed.example.")

    def test_wraparound_range(self):
        # "aaa" sorts canonically before every existing child but after
        # the apex: range is (apex, alpha).
        result = self._zone().lookup("aaa0.signed.example.", RRType.A)
        record = next(rs for rs in result.authority if rs.rrtype == RRType.NSEC).records[0]
        assert record.name == Name.from_text("signed.example.")
        assert record.rdata.next_name == Name.from_text("alpha.signed.example.")

    def test_unsigned_zone_has_no_nsec(self):
        zone = Zone("plain.example.")
        zone.add_soa()
        result = zone.lookup("missing.plain.example.", RRType.A)
        assert all(rs.rrtype != RRType.NSEC for rs in result.authority)

    def test_new_records_invalidate_ranges(self):
        zone = self._zone()
        zone.lookup("golf.signed.example.", RRType.A)  # builds the cache
        zone.add_a("golf", "192.0.2.9")
        result = zone.lookup("golf.signed.example.", RRType.A)
        assert result.status == LookupStatus.ANSWER

    def test_nsec_wire_roundtrip(self):
        from repro.dnscore.message import Message
        from repro.dnscore.rrset import ResourceRecord, RRSet
        from repro.dnscore.wire import decode_message, encode_message

        owner = Name.from_text("a.example.")
        response = Message.query(owner, RRType.A).make_response(RCode.NXDOMAIN)
        response.authority.append(RRSet.of(
            ResourceRecord(owner, 60, NSECData(Name.from_text("b.example.")))
        ))
        decoded = decode_message(encode_message(response))
        nsec = decoded.authority[0].records[0]
        assert nsec.rdata.next_name == Name.from_text("b.example.")


class TestCacheDenialRanges:
    def test_covered_inside_range(self):
        cache = ResolverCache()
        cache.put_denial_range(
            Name.from_text("alpha.z."), Name.from_text("mike.z."), ttl=60, now=0.0
        )
        assert cache.covered_by_denial(Name.from_text("golf.z."), 1.0)
        assert not cache.covered_by_denial(Name.from_text("papa.z."), 1.0)
        assert cache.denial_hits == 1

    def test_boundaries_not_covered(self):
        cache = ResolverCache()
        cache.put_denial_range(Name.from_text("a.z."), Name.from_text("m.z."), 60, 0.0)
        # The endpoints themselves exist.
        assert not cache.covered_by_denial(Name.from_text("a.z."), 1.0)
        assert not cache.covered_by_denial(Name.from_text("m.z."), 1.0)

    def test_range_expiry(self):
        cache = ResolverCache()
        cache.put_denial_range(Name.from_text("a.z."), Name.from_text("m.z."), 10, 0.0)
        assert cache.covered_by_denial(Name.from_text("g.z."), 5.0)
        assert not cache.covered_by_denial(Name.from_text("g.z."), 11.0)
        assert len(cache._denials) == 0  # pruned

    def test_wraparound_coverage(self):
        cache = ResolverCache()
        # Last chain link: (zulu, apex) wraps around.
        cache.put_denial_range(Name.from_text("zulu.z."), Name.from_text("z."), 60, 0.0)
        assert cache.covered_by_denial(Name.from_text("zz9.z."), 1.0)


class TestEndToEndSuppression:
    def _signed_topology(self, aggressive):
        topo = build_topology(ResolverConfig(aggressive_nsec=aggressive))
        # Swap in a *signed* target zone.
        signed = build_target_zone(
            "target-domain.", "ns1", "10.0.0.2",
            answer_ttl=60, negative_ttl=60, signed=True,
        )
        topo.target_ans._zones.clear()
        topo.target_ans.add_zone(signed)
        return topo

    def test_nx_flood_suppressed_after_first_query(self):
        topo = self._signed_topology(aggressive=True)
        for i in range(30):
            topo.client.query(RESOLVER_ADDR, f"rand{i}.nx.target-domain.")
            topo.sim.run(until=topo.sim.now + 0.05)
        # The whole empty nx. gap is covered by one NSEC range: the
        # upstream saw only the first lookup (+ the priming referral).
        assert topo.target_ans.stats.queries_received <= 3
        assert topo.resolver.stats.aggressive_nsec_responses >= 27

    def test_responses_still_nxdomain(self):
        topo = self._signed_topology(aggressive=True)
        first = topo.resolve("one.nx.target-domain.")
        second = topo.resolve("two.nx.target-domain.")
        assert first.rcode == RCode.NXDOMAIN
        assert second.rcode == RCode.NXDOMAIN

    def test_existing_names_unaffected(self):
        topo = self._signed_topology(aggressive=True)
        topo.resolve("seed.nx.target-domain.")  # caches the denial range
        response = topo.resolve("www.target-domain.")
        assert response.rcode == RCode.NOERROR

    def test_without_flag_no_suppression(self):
        topo = self._signed_topology(aggressive=False)
        for i in range(10):
            topo.client.query(RESOLVER_ADDR, f"r{i}.nx.target-domain.")
            topo.sim.run(until=topo.sim.now + 0.05)
        assert topo.target_ans.stats.queries_received >= 10
        assert topo.resolver.stats.aggressive_nsec_responses == 0

    def test_wc_pattern_evades_suppression(self):
        """The paper's point: against signed zones the attacker simply
        queries existing (wildcard-synthesised) names instead."""
        topo = self._signed_topology(aggressive=True)
        for i in range(10):
            topo.client.query(RESOLVER_ADDR, f"w{i}.wc.target-domain.")
            topo.sim.run(until=topo.sim.now + 0.05)
        # Wildcard answers exist: every query still reaches the channel.
        assert topo.target_ans.stats.queries_received >= 10
