"""Component micro-benchmarks: monitor, policing, signaling.

Bounds the cost of every DCC component outside the scheduler, completing
the Figure 10/11 "constant-time operations" story.
"""

import random

from repro.dcc.monitor import AnomalyMonitor, MonitorConfig
from repro.dcc.policing import PolicyEngine
from repro.dcc.signaling import (
    AnomalySignal,
    CongestionSignal,
    attach_signal,
    extract_signals,
)
from repro.dcc.monitor import AnomalyKind
from repro.dcc.policing import PolicyKind
from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import RCode, RRType


def test_monitor_record_throughput(benchmark):
    monitor = AnomalyMonitor(MonitorConfig())
    clients = [f"10.0.{i >> 8}.{i & 255}" for i in range(1000)]
    rng = random.Random(1)

    def record(n=20_000):
        now = 0.0
        for i in range(n):
            now += 0.0005
            client = clients[rng.randrange(1000)]
            monitor.record_query(client, now)
            monitor.record_answer(client, RCode.NOERROR, now)
        return monitor.tracked_clients()

    assert benchmark(record) == 1000


def test_monitor_window_evaluation(benchmark):
    monitor = AnomalyMonitor(MonitorConfig())
    for i in range(5000):
        monitor.record_answer(f"c{i}", RCode.NXDOMAIN, 0.5)

    def evaluate():
        return monitor.evaluate(1.0)

    events = benchmark(evaluate)
    assert isinstance(events, list)


def test_policing_check_throughput(benchmark):
    engine = PolicyEngine()
    for i in range(200):
        engine.convict(f"bad{i}", AnomalyKind.NXDOMAIN, now=0.0)

    def check(n=50_000):
        passed = 0
        for i in range(n):
            if engine.check(f"client{i % 2000}", 1.0):
                passed += 1
        return passed

    assert benchmark(check) > 0


def test_signal_attach_extract_roundtrip(benchmark):
    def roundtrip(n=5000):
        total = 0
        for i in range(n):
            response = Message.query(Name.from_text("s.example."), RRType.A).make_response()
            attach_signal(response, AnomalySignal(
                AnomalyKind.NXDOMAIN, 60.0, PolicyKind.RATE_LIMIT, i % 10))
            attach_signal(response, CongestionSignal(i, 100.0))
            total += len(extract_signals(response))
        return total

    assert benchmark(roundtrip) == 10_000

