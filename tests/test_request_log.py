"""The per-request log: columns against the object-list oracle, and what a
finished request leaves behind.

``tests/reference_records.py`` keeps the object-list ``StubClient``
verbatim.  Each cast below runs once with it and once with
:class:`repro.workloads.clients.StubClient` on the same seed, and every
row, windowed success ratio and effective-QPS series must agree exactly.
Together the casts take every write path: a retry to the second
resolver, a timeout under an authoritative outage, an answer that lands
after its request timed out, and a DCC-aware client switching resolvers
on a policing signal.
"""

import gc

import pytest

from repro.dcc.monitor import AnomalyKind, MonitorConfig
from repro.dcc.policing import PolicyKind, PolicyTemplate
from repro.dcc.shim import DccConfig, DccShim
from repro.netsim.faults import FaultInjector, NodeOutage
from repro.netsim.link import LinkSpec
from repro.server.resolver import RecursiveResolver, ResolverConfig
from repro.workloads.clients import ClientConfig, RequestLog, StubClient
from repro.workloads.patterns import FixedPattern, NxdomainPattern, WildcardPattern

from tests import reference_records as reference
from tests.conftest import RESOLVER_ADDR, ROOT_ADDR, TARGET_ANS_ADDR, build_topology

SPARE_ADDR = "10.0.1.2"
ROW_FIELDS = ("sent_at", "completed_at", "resolver", "attempts", "rcode", "timed_out", "success", "latency")
WINDOWS = ((0.0, float("inf")), (0.0, 3.0), (3.0, 5.0), (5.0, 12.0), (2.5, 2.5))


def _with_spare(topo):
    spare = RecursiveResolver(SPARE_ADDR, ResolverConfig())
    spare.add_root_hint("a.root-servers.net.", ROOT_ADDR)
    topo.net.attach(spare)


def _count_answers(client):
    """Count every response the client is handed, late ones included."""
    answers = []
    receive = client.receive

    def counting(message, src):
        if message.is_response:
            answers.append(message.id)
        receive(message, src)

    client.receive = counting
    return answers


def retry_cast(client_cls):
    """Two resolvers, the first slow enough that some of its answers land
    after the 0.5 s timeout, and the target's authority down in [3, 5)."""
    topo = build_topology(seed=5)
    _with_spare(topo)
    client = client_cls(
        "10.1.0.60",
        WildcardPattern("target-domain."),
        ClientConfig(rate=40.0, start=0.0, stop=8.0, resolvers=[RESOLVER_ADDR, SPARE_ADDR],
                     request_timeout=0.5, max_attempts=2),
    )
    topo.net.attach(client)
    topo.net.set_link(client.address, RESOLVER_ADDR, LinkSpec(latency=0.2, jitter=0.15))
    FaultInjector(topo.net).add_node_outage(NodeOutage(TARGET_ANS_ADDR, at=3.0, duration=2.0))
    answers = _count_answers(client)
    client.start()
    topo.sim.run(until=12.0)
    return client, len(answers)


def policing_cast(client_cls):
    """A DCC-aware NX client that its resolver convicts and blocks."""
    topo = build_topology(seed=3)
    shim = DccShim(topo.resolver, DccConfig(
        monitor=MonitorConfig(window=0.5, alarm_threshold=2, suspicion_period=30.0),
        policy_templates={AnomalyKind.NXDOMAIN: PolicyTemplate(PolicyKind.BLOCK, duration=20.0)},
    ))
    shim.set_channel_capacity(TARGET_ANS_ADDR, 1000.0)
    _with_spare(topo)
    client = client_cls(
        "10.1.0.61",
        NxdomainPattern("target-domain."),
        ClientConfig(rate=100.0, start=0.0, stop=8.0, resolvers=[RESOLVER_ADDR, SPARE_ADDR],
                     dcc_aware=True),
    )
    topo.net.attach(client)
    answers = _count_answers(client)
    client.start()
    topo.sim.run(until=12.0)
    return client, len(answers)


def _rows(client):
    return [tuple(repr(getattr(record, name)) for name in ROW_FIELDS) for record in client.records]


def _reports(client):
    return (
        [repr(client.success_ratio(since, until)) for since, until in WINDOWS],
        client.effective_qps_series(12.0),
        client.effective_qps_series(12.0, bucket=0.5),
    )


@pytest.mark.parametrize("cast", [retry_cast, policing_cast])
def test_log_matches_the_object_list(cast):
    new, new_answers = cast(StubClient)
    old, old_answers = cast(reference.StubClient)
    assert isinstance(new.records, RequestLog)
    assert len(new.records) == len(old.records) > 100
    assert _rows(new) == _rows(old)
    assert _reports(new) == _reports(old)
    assert new_answers == old_answers
    assert new.records.successes() == sum(1 for r in old.records if r.success)
    assert new.records.timed_out.count(1) == sum(1 for r in old.records if r.timed_out)


def test_the_casts_take_every_write_path():
    client, answers = retry_cast(StubClient)
    records = list(client.records)
    retried = [r for r in records if r.attempts == 2]
    assert retried and all(r.resolver == SPARE_ADDR for r in retried)
    assert any(r.success for r in retried)
    assert any(r.timed_out for r in records)
    answered = sum(1 for r in records if r.completed_at is not None)
    assert answers > answered  # late answers arrived and were ignored

    client, _ = policing_cast(StubClient)
    assert client.signals.policing
    switched = [r for r in client.records if r.attempts == 1 and r.resolver == SPARE_ADDR]
    assert switched


def test_a_finished_request_leaves_no_tracked_object():
    requests = 2000
    rate = 200.0
    topo = build_topology()
    client = StubClient(
        "10.1.0.62",
        FixedPattern("www.target-domain."),
        ClientConfig(rate=rate, start=0.0, stop=requests / rate, resolvers=[RESOLVER_ADDR]),
    )
    topo.net.attach(client)
    client.start()
    topo.sim.run(until=1.0)  # warm the resolver's cache and the client's streams
    gc.collect()
    before = len(gc.get_objects())
    start = len(client.records)
    topo.sim.run(until=requests / rate + 3.0)
    gc.collect()
    grown = len(gc.get_objects()) - before
    issued = len(client.records) - start
    assert issued > requests * 0.8
    assert client.records.successes() == len(client.records)
    assert grown < issued / 10

    log = client.records
    columns = [getattr(log, name) for name in RequestLog.__slots__ if name != "resolvers"]
    assert all(len(column) == len(log) for column in columns)
    column_bytes = sum(column.buffer_info()[1] * column.itemsize for column in columns)
    assert column_bytes / len(log) <= 24
