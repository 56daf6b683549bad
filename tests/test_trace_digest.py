"""Differential oracle: the streaming digest against the recorded trace.

``tests/reference_trace.py`` is the trace as it was before it hashed on
delivery: it keeps one record per delivered message and hashes the list
when asked.  Both are attached to the same network here, so they see
the same deliveries in the same order, and their digests must be equal.
"""

import pytest

from repro.experiments.common import AttackScenario, ScenarioConfig
from repro.experiments.scale import ScaleConfig, ScaleScenario
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
