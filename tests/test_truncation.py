"""UDP truncation (TC bit) and TCP fallback tests (RFC 7766)."""

from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import AData, RCode, RRType
from repro.dnscore.rrset import ResourceRecord, RRSet

from tests.conftest import build_topology


def add_fat_rrset(zone, label="fat", records=60):
    """An RRset guaranteed to exceed a small UDP payload limit."""
    owner = None
    for i in range(records):
        record = zone.add_a(label, f"10.{i // 250}.{(i % 250)}.{i % 200 + 1}")
        owner = record.name
    return owner


class TestTruncateHelper:
    def test_truncate_drops_sections_sets_tc(self):
        response = Message.query(Name.from_text("x."), RRType.A).make_response()
        response.answers.append(RRSet.of(
            ResourceRecord(Name.from_text("x."), 60, AData("1.2.3.4"))))
        truncated = response.truncate()
        assert truncated.is_truncated
        assert not truncated.answers
        assert truncated.id == response.id
        assert not response.is_truncated  # original untouched


class TestAuthoritativeTruncation:
    def test_fat_answer_truncated_over_udp(self):
        topo = build_topology()
        topo.target_ans.udp_payload_limit = 512
        zone = topo.target_ans.zone_for(Name.from_text("target-domain."))
        add_fat_rrset(zone)
        # Observe what actually comes back to a direct query.
        query = topo.client.query("10.0.0.2", "fat.target-domain.")
        topo.sim.run(until=1.0)
        response = topo.client.response_to(query)
        assert response.is_truncated
        assert not response.answers
        assert topo.target_ans.stats.truncated == 1

    def test_small_answer_not_truncated(self):
        topo = build_topology()
        topo.target_ans.udp_payload_limit = 512
        query = topo.client.query("10.0.0.2", "www.target-domain.")
        topo.sim.run(until=1.0)
        assert not topo.client.response_to(query).is_truncated

    def test_tcp_query_never_truncated(self):
        topo = build_topology()
        topo.target_ans.udp_payload_limit = 512
        zone = topo.target_ans.zone_for(Name.from_text("target-domain."))
        add_fat_rrset(zone)
        query = Message.query(Name.from_text("fat.target-domain."), RRType.A)
        query.via_tcp = True
        topo.client.send("10.0.0.2", query)
        topo.sim.run(until=1.0)
        response = topo.client.response_to(query)
        assert not response.is_truncated
        assert response.answers


class TestResolverFallback:
    def test_resolver_retries_over_tcp(self):
        topo = build_topology()
        topo.target_ans.udp_payload_limit = 512
        zone = topo.target_ans.zone_for(Name.from_text("target-domain."))
        add_fat_rrset(zone)
        response = topo.resolve("fat.target-domain.")
        assert response.rcode == RCode.NOERROR
        assert len(response.answers[0]) == 60
        assert topo.resolver.stats.tcp_fallbacks == 1
        # One UDP attempt (truncated) + one TCP retry.
        assert topo.target_ans.stats.queries_received == 2

    def test_fallback_result_cached(self):
        topo = build_topology(answer_ttl=60)
        topo.target_ans.udp_payload_limit = 512
        zone = topo.target_ans.zone_for(Name.from_text("target-domain."))
        add_fat_rrset(zone)
        topo.resolve("fat.target-domain.")
        before = topo.target_ans.stats.queries_received
        topo.resolve("fat.target-domain.")
        assert topo.target_ans.stats.queries_received == before

    def test_normal_lookups_stay_on_udp(self):
        topo = build_topology()
        topo.target_ans.udp_payload_limit = 512
        topo.resolve("small.wc.target-domain.")
        assert topo.resolver.stats.tcp_fallbacks == 0
