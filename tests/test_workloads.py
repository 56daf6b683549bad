"""Workload tests: patterns, zone generators, clients, schedules."""

import random

import pytest

from repro.dnscore.name import Name
from repro.dnscore.rdata import RRType
from repro.dnscore.zone import LookupStatus
from repro.workloads.clients import ClientConfig, RequestLog, StubClient
from repro.workloads.patterns import (
    CnameChainPattern,
    FanoutPattern,
    FixedPattern,
    NxdomainPattern,
    WildcardPattern,
)
from repro.workloads.schedule import (
    FIGURE9_ATTACKER_RATES,
    TABLE2_SCENARIOS,
    table2_clients,
)
from repro.workloads.zonegen import (
    DEAD_ADDRESS,
    add_cq_instances,
    build_ff_attacker_zone,
    build_root_zone,
    build_target_zone,
)


class TestPatterns:
    def setup_method(self):
        self.rng = random.Random(1)

    def test_wc_names_unique_and_in_subtree(self):
        pattern = WildcardPattern("target-domain.")
        questions = [pattern.next_question(self.rng) for _ in range(50)]
        assert len({q.name for q in questions}) == 50
        assert all(q.name.is_subdomain_of(Name.from_text("wc.target-domain.")) for q in questions)

    def test_nx_subtree(self):
        pattern = NxdomainPattern("target-domain.")
        q = pattern.next_question(self.rng)
        assert q.name.is_subdomain_of(Name.from_text("nx.target-domain."))

    def test_pool_bounds_unique_names(self):
        pattern = WildcardPattern("target-domain.", pool_size=5)
        names = {pattern.next_question(self.rng).name for _ in range(100)}
        assert len(names) == 5

    def test_cq_head_names_cycle_instances(self):
        pattern = CnameChainPattern("target-domain.", instances=3, labels=4)
        heads = [pattern.next_question(self.rng).name for _ in range(6)]
        assert heads[0] == heads[3]
        assert len(set(heads)) == 3
        assert len(heads[0]) == 4 + 1 + 1  # labels + r1-i + origin label

    def test_ff_head_names(self):
        pattern = FanoutPattern("attacker-com.", instances=2)
        names = {str(pattern.next_question(self.rng).name) for _ in range(4)}
        assert names == {"q-0.attacker-com.", "q-1.attacker-com."}

    def test_instances_must_be_positive(self):
        with pytest.raises(ValueError):
            CnameChainPattern("t.", instances=0)
        with pytest.raises(ValueError):
            FanoutPattern("t.", instances=0)

    def test_fixed_pattern(self):
        pattern = FixedPattern("www.example.com.")
        assert pattern.next_question(self.rng) == pattern.next_question(self.rng)


class TestZoneGenerators:
    def test_root_zone_delegations(self):
        zone = build_root_zone({"target-domain.": ("ns1.target-domain.", "10.0.0.2")})
        result = zone.lookup("x.target-domain.", RRType.A)
        assert result.status == LookupStatus.DELEGATION
        glue = [rec.rdata.address for rrset in result.additional for rec in rrset]
        assert glue == ["10.0.0.2"]

    def test_target_zone_layout(self):
        zone = build_target_zone("target-domain.", "ns1", "10.0.0.2")
        assert zone.lookup("abc.wc.target-domain.", RRType.A).status == LookupStatus.ANSWER
        assert zone.lookup("abc.nx.target-domain.", RRType.A).status == LookupStatus.NXDOMAIN
        ff = zone.lookup("ns-t11-0.ff.target-domain.", RRType.A)
        assert ff.status == LookupStatus.ANSWER
        assert ff.answers[0].records[0].rdata.address == DEAD_ADDRESS

    def test_target_zone_ttls(self):
        zone = build_target_zone(
            "target-domain.", "ns1", "10.0.0.2", answer_ttl=600, ff_ttl=1
        )
        wc = zone.lookup("a.wc.target-domain.", RRType.A)
        assert wc.answers[0].ttl == 600
        ff = zone.lookup("a.ff.target-domain.", RRType.A)
        assert ff.answers[0].ttl == 1

    def test_cq_instances_chain_structure(self):
        zone = build_target_zone("target-domain.", "ns1", "10.0.0.2")
        add_cq_instances(zone, instances=2, chain_len=3, labels=4)
        head = "4.3.2.1.r1-0.target-domain."
        first = zone.lookup(head, RRType.A)
        assert first.status == LookupStatus.CNAME
        # Follow the chain manually to its A terminal.
        current = first
        hops = 0
        while current.status == LookupStatus.CNAME:
            target = current.answers[0].records[0].rdata.target
            current = zone.lookup(target, RRType.A)
            hops += 1
        assert hops == 2
        assert current.status == LookupStatus.ANSWER

    def test_ff_zone_structure(self):
        zone = build_ff_attacker_zone(
            "attacker-com.", "target-domain.", "ns1", "10.0.0.3", instances=1, fanout=3
        )
        top = zone.lookup("q-0.attacker-com.", RRType.A)
        assert top.status == LookupStatus.DELEGATION
        assert len(top.authority[0]) == 3
        assert not top.additional
        mid = zone.lookup("ns-a1-0.attacker-com.", RRType.A)
        targets = {str(rec.rdata.target) for rec in mid.authority[0]}
        assert all(".ff.target-domain." in t for t in targets)
        assert len(targets) == 3


class TestSchedule:
    def test_table2_wildcard(self):
        specs = {s.name: s for s in table2_clients("wildcard")}
        assert specs["heavy"].rate == 600 and specs["heavy"].stop == 60
        assert specs["medium"].stop == 50
        assert specs["light"].start == 20 and specs["light"].rate == 150
        attacker = specs["attacker"]
        assert attacker.is_attacker and attacker.rate == 1100 and attacker.start == 10
        assert attacker.pattern == "WC"

    def test_table2_nxdomain_heavy_switches(self):
        specs = {s.name: s for s in table2_clients("nxdomain")}
        assert specs["heavy"].pattern == "NX_THEN_WC"
        assert specs["attacker"].pattern == "NX"

    def test_table2_amplification(self):
        specs = {s.name: s for s in table2_clients("amplification")}
        assert specs["attacker"].pattern == "FF"
        assert specs["attacker"].rate == 50

    def test_scaling(self):
        specs = table2_clients("wildcard", time_scale=0.5, rate_scale=0.1)
        heavy = next(s for s in specs if s.name == "heavy")
        assert heavy.stop == 30 and heavy.rate == 60

    def test_attacker_rate_override(self):
        specs = table2_clients("wildcard", attacker_rate=42.0)
        assert next(s for s in specs if s.is_attacker).rate == 42.0

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            table2_clients("bogus")

    def test_figure9_rates(self):
        assert FIGURE9_ATTACKER_RATES == {"nxdomain": 200.0, "amplification": 20.0}
        assert set(TABLE2_SCENARIOS) == {"wildcard", "nxdomain", "amplification"}


def request_log(*rows):
    """A one-resolver log of ``(sent_at, rcode, completed_at, timed_out)`` rows."""
    log = RequestLog(["r"])
    for sent_at, rcode, completed_at, timed_out in rows:
        row = log.append(sent_at, 0)
        if rcode is not None:
            log.rcode[row] = rcode
            log.completed_at[row] = completed_at
        log.timed_out[row] = timed_out
    return log


class TestStubClient:
    def test_validation(self):
        with pytest.raises(ValueError):
            StubClient("1.2.3.4", FixedPattern("x."), ClientConfig(rate=1, resolvers=[]))
        with pytest.raises(ValueError):
            StubClient("1.2.3.4", FixedPattern("x."), ClientConfig(rate=0, resolvers=["r"]))

    def test_request_record_success_criteria(self):
        from repro.dnscore.rdata import RCode

        log = RequestLog(["r"])
        row = log.append(0.0, 0)
        assert not log[row].success
        log.rcode[row] = RCode.NXDOMAIN
        assert log[row].success  # NXDOMAIN counts as resolved
        log.rcode[row] = RCode.SERVFAIL
        assert not log[row].success

    def test_request_record_is_slotted(self):
        from repro.dnscore.rdata import RCode

        log = request_log((1.0, RCode.NOERROR, 1.5, False))
        log.attempts[0] = 2
        record = log[0]
        assert not hasattr(record, "__dict__") and not hasattr(log, "__dict__")
        assert (record.attempts, record.completed_at, record.rcode) == (2, 1.5, RCode.NOERROR)
        assert record.success and not record.timed_out
        assert log[-1].sent_at == 1.0
        with pytest.raises(IndexError):
            log[1]

    def test_latency(self):
        log = RequestLog(["r"])
        row = log.append(1.0, 0)
        assert log[row].latency is None
        log.completed_at[row] = 1.5
        assert log[row].latency == pytest.approx(0.5)

    def test_success_ratio_windows(self):
        from repro.dnscore.rdata import RCode

        client = StubClient.__new__(StubClient)
        client.records = request_log(
            (1.0, RCode.NOERROR, 1.1, False),
            (2.0, None, None, True),
            (9.0, RCode.NOERROR, 9.1, False),
        )
        assert StubClient.success_ratio(client, 0.0, 5.0) == 0.5
        assert StubClient.success_ratio(client, 8.0, 10.0) == 1.0
        assert StubClient.success_ratio(client, 20.0, 30.0) == 0.0

    def test_effective_qps_series(self):
        from repro.dnscore.rdata import RCode

        client = StubClient.__new__(StubClient)
        client.records = request_log(
            (0.0, RCode.NOERROR, 0.5, False),
            (0.1, RCode.NOERROR, 0.6, False),
            (0.2, RCode.SERVFAIL, 0.7, False),
        )
        series = StubClient.effective_qps_series(client, duration=2.0)
        assert series[0] == 2.0  # only the successes
