"""Focused shim-mechanics tests against a minimal fake resolver.

The integration tests (test_shim.py) exercise the shim through full DNS
topologies; these pin down the internal mechanics -- pump arming,
local-source handling, eviction plumbing -- with a controllable fake.
"""

import pytest

from repro.dcc.mopifq import MopiFqConfig
from repro.dcc.shim import DccConfig, DccShim
from repro.dnscore.edns import ClientAttribution
from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import RCode, RRType
from repro.netsim.sim import Simulator


class FakeResolver:
    """The minimal hook surface DccShim requires."""

    def __init__(self, sim):
        self.sim = sim
        self.sent = []          # (query, server) actually put on the wire
        self.delivered = []     # answers injected back (synth SERVFAILs)
        self.egress_query_hook = None
        self.ingress_answer_hook = None
        self.egress_response_hook = None

    @property
    def now(self):
        return self.sim.now

    def raw_send_query(self, query, server):
        self.sent.append((query, server))

    def deliver_answer(self, answer, src):
        self.delivered.append((answer, src))


def make_shim(**config_kwargs):
    sim = Simulator(seed=1)
    resolver = FakeResolver(sim)
    shim = DccShim(resolver, DccConfig(**config_kwargs))
    return sim, resolver, shim


def attributed_query(client="10.9.9.1", request_id=7, name="q.example."):
    query = Message.query(Name.from_text(name), RRType.A, recursion_desired=False)
    query.edns_options.append(ClientAttribution(client, 0, request_id).encode())
    return query


class TestInterception:
    def test_hooks_installed(self):
        sim, resolver, shim = make_shim()
        assert resolver.egress_query_hook is not None
        assert resolver.ingress_answer_hook is not None
        assert resolver.egress_response_hook is not None

    def test_intercepted_query_sent_when_capacity_allows(self):
        sim, resolver, shim = make_shim()
        shim.set_channel_capacity("srv", 100.0)
        handled = resolver.egress_query_hook(attributed_query(), "srv")
        assert handled is True
        assert len(resolver.sent) == 1

    def test_local_source_queries_pass_without_tracking(self):
        sim, resolver, shim = make_shim()
        plain = Message.query(Name.from_text("prime.example."), RRType.A)
        resolver.egress_query_hook(plain, "srv")
        assert resolver.sent  # still scheduled + sent
        assert shim.tables.open_request_count() == 0
        assert shim.monitor.tracked_clients() == 0

    def test_attribution_opens_request_state(self):
        sim, resolver, shim = make_shim()
        resolver.egress_query_hook(attributed_query(client="c1", request_id=3), "srv")
        state = shim.tables.get_request("c1", 3)
        assert state is not None
        assert state.queries_attributed == 1

    def test_attribution_decoded_once_per_query(self, monkeypatch):
        """Egress hook, eviction and pump all work from the one decode the
        hook does; only a request's first query counts as a request."""
        sim, resolver, shim = make_shim(scheduler=MopiFqConfig(max_poq_depth=2, max_round=10))
        decodes, requests = [], []
        real_decode = ClientAttribution.decode
        monkeypatch.setattr(ClientAttribution, "decode",
                            classmethod(lambda cls, option: decodes.append(option) or real_decode(option)))
        monkeypatch.setattr(shim.monitor, "record_request", lambda client, now: requests.append(client))
        shim.set_channel_capacity("srv", rate=10.0, burst=1.0)
        for client, request_id in (("hog", 1), ("hog", 1), ("hog", 2), ("meek", 9)):  # the last one evicts
            resolver.egress_query_hook(attributed_query(client=client, request_id=request_id), "srv")
        sim.run(until=1.0)
        assert shim.stats.queries_evicted == 1 and len(resolver.sent) == 3
        assert len(decodes) == 4 and requests == ["hog", "hog", "meek"]
        assert sorted(info[:3] for info in shim._inflight.values()) == [("hog", 1, "srv"), ("hog", 1, "srv"),
                                                                         ("meek", 9, "srv")]
        assert shim.tables.get_request("hog", 2).dropped_congestion == 1


class TestPumpArming:
    def test_congested_channel_arms_future_pump(self):
        sim, resolver, shim = make_shim()
        shim.set_channel_capacity("srv", rate=10.0, burst=1.0)
        resolver.egress_query_hook(attributed_query(request_id=1), "srv")
        resolver.egress_query_hook(attributed_query(request_id=2), "srv")
        assert len(resolver.sent) == 1  # second message waits for a token
        assert shim._pump_event is not None
        assert shim._pump_at == pytest.approx(0.1)
        sim.run(until=0.2)
        assert len(resolver.sent) == 2

    def test_earlier_pump_replaces_later(self):
        sim, resolver, shim = make_shim()
        shim.set_channel_capacity("slow", rate=1.0, burst=1.0)
        shim.set_channel_capacity("fast", rate=100.0, burst=1.0)
        resolver.egress_query_hook(attributed_query(request_id=1), "slow")
        resolver.egress_query_hook(attributed_query(request_id=2), "slow")
        assert shim._pump_at == pytest.approx(1.0)
        # A faster channel becomes ready much sooner: pump must re-arm.
        resolver.egress_query_hook(attributed_query(request_id=3), "fast")
        resolver.egress_query_hook(attributed_query(request_id=4), "fast")
        assert shim._pump_at == pytest.approx(0.01)

    def test_pump_event_cleared_after_fire(self):
        sim, resolver, shim = make_shim()
        shim.set_channel_capacity("srv", rate=10.0, burst=1.0)
        resolver.egress_query_hook(attributed_query(request_id=1), "srv")
        resolver.egress_query_hook(attributed_query(request_id=2), "srv")
        sim.run(until=0.5)
        assert shim._pump_event is None  # drained; nothing to re-arm


class TestFailurePlumbing:
    def test_policed_query_gets_synth_servfail(self):
        from repro.dcc.monitor import AnomalyKind

        sim, resolver, shim = make_shim()
        shim.engine.convict("bad", AnomalyKind.AMPLIFICATION, now=0.0)
        query = attributed_query(client="bad", request_id=5)
        resolver.egress_query_hook(query, "srv")
        sim.run(until=0.1)
        assert len(resolver.delivered) == 1
        answer, src = resolver.delivered[0]
        assert answer.rcode == RCode.SERVFAIL
        assert answer.id == query.id
        assert src == "srv"
        assert shim.tables.get_request("bad", 5).dropped_policing == 1

    def test_eviction_servfails_the_victim(self):
        sim, resolver, shim = make_shim(
            scheduler=MopiFqConfig(max_poq_depth=2, max_round=10)
        )
        shim.set_channel_capacity("srv", rate=0.001, burst=1.0)
        shim.scheduler.channel_bucket("srv").try_consume(0.0)  # block channel
        hog_queries = [attributed_query(client="hog", request_id=i) for i in range(2)]
        for q in hog_queries:
            resolver.egress_query_hook(q, "srv")
        # A new source's arrival evicts the hog's latest-round message.
        resolver.egress_query_hook(attributed_query(client="meek", request_id=9), "srv")
        sim.run(until=0.1)
        assert shim.stats.queries_evicted == 1
        evicted_ids = {answer.id for answer, _ in resolver.delivered}
        assert hog_queries[1].id in evicted_ids
        assert shim.tables.get_request("hog", 1).dropped_congestion == 1

    def test_overflow_records_allocated_rate(self):
        sim, resolver, shim = make_shim(
            scheduler=MopiFqConfig(max_poq_depth=1, max_round=1)
        )
        shim.set_channel_capacity("srv", rate=50.0, burst=1.0)
        shim.scheduler.channel_bucket("srv").try_consume(0.0)
        resolver.egress_query_hook(attributed_query(client="c", request_id=1), "srv")
        resolver.egress_query_hook(attributed_query(client="c", request_id=2), "srv")
        state = shim.tables.get_request("c", 2)
        assert state.dropped_congestion == 1
        assert state.allocated_rate == pytest.approx(50.0)  # sole active source


class TestAnswerPath:
    def test_answer_updates_monitor_and_clears_inflight(self):
        sim, resolver, shim = make_shim()
        shim.set_channel_capacity("srv", 100.0)
        query = attributed_query(client="c2", request_id=4)
        resolver.egress_query_hook(query, "srv")
        answer = query.make_response(RCode.NXDOMAIN)
        returned = resolver.ingress_answer_hook(answer, "srv")
        assert returned is answer
        assert query.id not in shim._inflight
        assert shim.monitor.tracked_clients() == 1

    def test_unanswered_queries_leave_inflight_on_the_purge_tick(self):
        """An upstream that answers nothing (lost, RRL-dropped, partitioned)
        leaves no entry older than ``STATE_IDLE_TIMEOUT`` after a purge tick."""
        sim, resolver, shim = make_shim()
        shim.set_channel_capacity("srv", 100.0)
        for i in range(60):
            sim.schedule_at(i + 0.5, resolver.egress_query_hook, attributed_query(request_id=i), "srv")
        sim.run(until=60.0)  # ticks at 10.5, 20.5, ..., 50.5
        assert len(resolver.sent) == 60 and not resolver.delivered
        assert min(info[3] for info in shim._inflight.values()) >= 50.5 - 10.0
        assert len(shim._inflight) == 20  # sent at 40.5 .. 59.5

    def test_unmatched_answer_passes_through(self):
        sim, resolver, shim = make_shim()
        stray = Message.query(Name.from_text("s.example."), RRType.A).make_response()
        assert resolver.ingress_answer_hook(stray, "srv") is stray
