"""Differential oracle: the streaming digest against the recorded trace.

``tests/reference_trace.py`` is the trace as it was before it hashed on
delivery: it keeps one record per delivered message and hashes the list
when asked.  Both are attached to the same network here, so they see
the same deliveries in the same order, and their digests must be equal.
"""

import pytest

from repro.dnscore.edns import ClientAttribution, EdnsOption
from repro.dnscore.message import Flags, Message
from repro.dnscore.name import ROOT, Name
from repro.dnscore.rdata import AData, RCode, RRType, SOAData
from repro.dnscore.rrset import ResourceRecord, RRSet
from repro.dnscore.wire import decode_message, encode_message
from repro.experiments.common import AttackScenario, ScenarioConfig
from repro.experiments.scale import ScaleConfig, ScaleScenario
from repro.netsim.link import Network
from repro.netsim.sim import Simulator
from repro.netsim.trace import MessageTrace
from repro.workloads.schedule import table2_clients
from tests.reference_trace import MessageTrace as RecordedTrace

VIRTUAL_SECONDS = 3.0


@pytest.mark.parametrize("use_dcc", [False, True], ids=["vanilla", "dcc"])
def test_ff_run_digest_matches_recorded_trace(use_dcc):
    scenario = AttackScenario(ScenarioConfig(
        seed=11, duration=VIRTUAL_SECONDS, channel_capacity=1000.0,
        use_dcc=use_dcc, ff_instances=20,
    ))
    recorded = RecordedTrace(scenario.net, max_records=1_000_000)
    streamed = MessageTrace(scenario.net)
    scenario.add_clients(table2_clients("amplification", time_scale=VIRTUAL_SECONDS / 60.0))
    events = scenario.run(grace=2.5).events_processed

    assert len(streamed) == len(recorded.records) > 1_000
    assert recorded.dropped == 0
    assert streamed.sha256(events).hexdigest() == recorded.sha256(events).hexdigest()


def test_hybrid_scale_digest_matches_recorded_trace():
    scale = ScaleScenario(ScaleConfig(seed=42, clients=10_000, duration=8.0), "hybrid")
    recorded = RecordedTrace(scale.scenario.net, max_records=1_000_000)
    result = scale.run()

    assert result.promotions > 0
    assert result.packet_messages == len(recorded.records) > 1_000
    events = result.events_processed
    assert scale.trace.sha256(events).hexdigest() == recorded.sha256(events).hexdigest()


def test_sha256_can_be_called_twice():
    scenario = AttackScenario(ScenarioConfig(seed=5, duration=2.0, channel_capacity=1000.0))
    recorded = RecordedTrace(scenario.net, max_records=1_000_000)
    streamed = MessageTrace(scenario.net)
    scenario.add_clients(table2_clients("nxdomain", time_scale=2.0 / 60.0))
    events = scenario.run().events_processed

    first = streamed.sha256(events).hexdigest()
    assert streamed.sha256(events).hexdigest() == first == recorded.sha256(events).hexdigest()
    # the returned hasher is a copy: a caller's own lines do not leak back
    extended = streamed.sha256(events)
    extended.update(b"caller line\n")
    assert streamed.sha256(events).hexdigest() == first


def _hand_built_messages():
    """Deliveries no current run makes: the root name, AA/TC/RA together,
    an NXDOMAIN with its SOA, EDNS options, a decoded message, and types
    the drivers never ask for."""
    name = Name.from_text("WWW.Example.COM.")
    root_query = Message.query(ROOT, RRType.NS)
    full = Message.query(name, RRType.A).make_response()
    full.flags |= Flags.AA
    full.answers.append(RRSet.of(*(ResourceRecord(name, 60, AData(f"192.0.2.{i}")) for i in range(40))))
    truncated = full.truncate()
    assert truncated.flags == Flags.QR | Flags.AA | Flags.TC | Flags.RD | Flags.RA
    nxdomain = Message.query(name.child("nope"), RRType.AAAA).make_response(RCode.NXDOMAIN)
    nxdomain.authority.append(RRSet.of(ResourceRecord(
        name.parent(), 30, SOAData(Name.from_text("ns1.example.com."), Name.from_text("h.example.com."), minimum=30))))
    with_edns = Message.query(name, RRType.TXT, recursion_desired=False, msg_id=0)
    with_edns.edns_options.append(ClientAttribution("10.1.2.3", 5353, 7).encode())
    with_edns.edns_options.append(EdnsOption(65001, b"xyz"))
    decoded = decode_message(encode_message(truncated))
    refused = Message.query(ROOT, RRType.ANY).make_response(RCode.REFUSED)
    return [root_query, full, truncated, nxdomain, with_edns, decoded, refused,
            Message.query(name, RRType.SOA), Message.query(name, RRType.CNAME)]


def test_hand_built_lines_equal_the_recorded_trace_line_for_line():
    sim = Simulator(seed=3)
    net = Network(sim)
    recorded = RecordedTrace(net)
    streamed = MessageTrace(net)
    messages = _hand_built_messages()
    for i, message in enumerate(messages):
        sim.schedule_at(0.125 * i + 1e-7, net._deliver, f"10.0.0.{i}", "10.9.9.9", message)
    sim.run()
    events = sim.events_processed

    expected = [
        f"{r.time:.9f}|{r.src}|{r.dst}|{r.question}|{int(r.is_response)}|{r.rcode}|{r.wire_bytes}\n"
        for r in recorded.records
    ]
    assert streamed._lines == expected and len(expected) == len(messages)
    assert expected[0].split("|")[3] == ". NS"
    assert [line.split("|")[4:6] for line in expected[1:4]] == [["1", "NOERROR"], ["1", "NOERROR"], ["1", "NXDOMAIN"]]
    assert streamed.sha256(events).hexdigest() == recorded.sha256(events).hexdigest()
