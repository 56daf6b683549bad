"""The packed slot table against the per-client object graph it replaced.

``_ReferenceMonitor`` is the monitor as it was before the slot table:
one ``_ClientState`` per client, each metric its own
``SlidingWindowCounter``/``SlidingWindowRatio`` with a private bucket
epoch.  The packed monitor shares one epoch per client, which is only
claimed to be exact under a monotone clock -- so the streams here never
step time backwards, and the earlier-``now`` case is pinned separately.
"""

import random
from typing import Dict, List, Optional

import pytest

from repro.dcc import monitor as monitor_module
from repro.dcc.monitor import (
    AnomalyEvent,
    AnomalyKind,
    AnomalyMonitor,
    ClientVerdict,
    MonitorConfig,
    MonitorStats,
)
from repro.dnscore.rdata import RCode

from tests.reference_sliding import SlidingWindowCounter, SlidingWindowRatio


class _ClientState:
    __slots__ = (
        "requests", "queries", "anomalous_requests", "nx_ratio",
        "verdict", "alarms", "suspicious_since", "last_kind", "last_seen",
    )

    def __init__(self, config: MonitorConfig) -> None:
        self.requests = SlidingWindowCounter(config.window)
        self.queries = SlidingWindowCounter(config.window)
        self.anomalous_requests = SlidingWindowCounter(config.window)
        self.nx_ratio = SlidingWindowRatio(config.window)
        self.verdict = ClientVerdict.NORMAL
        self.alarms = 0
        self.suspicious_since: Optional[float] = None
        self.last_kind: Optional[AnomalyKind] = None
        self.last_seen = 0.0


class _ReferenceMonitor:
    """The pre-slot-table ``AnomalyMonitor`` (obs hooks and sketches
    left out).  Only the state layout is the old one: tightened
    thresholds are kept beside the config, not written into it, as in
    the packed monitor (tests/test_monitor.py pins that fix)."""

    def __init__(self, config: MonitorConfig) -> None:
        self.config = config
        self._clients: Dict[str, _ClientState] = {}
        self.stats = MonitorStats()
        self._sensitivity_until = 0.0
        self._nx_threshold = config.nxdomain_ratio_threshold
        self._amp_threshold = monitor_module.AMPLIFICATION_REQUEST_THRESHOLD

    def _state(self, client: str, now: float) -> _ClientState:
        state = self._clients.get(client)
        if state is None:
            state = self._clients[client] = _ClientState(self.config)
        state.last_seen = now
        return state

    def record_request(self, client: str, now: float) -> None:
        self._state(client, now).requests.add(now)

    def record_query(self, client: str, now: float) -> None:
        self._state(client, now).queries.add(now)

    def record_answer(self, client: str, rcode: RCode, now: float) -> None:
        self._state(client, now).nx_ratio.record(now, hit=rcode == RCode.NXDOMAIN)

    def record_anomalous_request(self, client: str, now: float) -> None:
        self._state(client, now).anomalous_requests.add(now)

    def raise_sensitivity(self, now: float, factor: float = 0.5, duration: float = 30.0) -> None:
        if self._sensitivity_until <= now:
            self._nx_threshold = self.config.nxdomain_ratio_threshold * factor
            self._amp_threshold = max(1.0, monitor_module.AMPLIFICATION_REQUEST_THRESHOLD * factor)
        self._sensitivity_until = now + duration

    def external_alarm(self, client, kind, now, weight=1) -> Optional[AnomalyEvent]:
        state = self._state(client, now)
        self.stats.external_alarms += 1
        return self._raise_alarm(client, state, kind, now, weight)

    def evaluate(self, now: float) -> List[AnomalyEvent]:
        if self._sensitivity_until and now > self._sensitivity_until:
            self._nx_threshold = self.config.nxdomain_ratio_threshold
            self._amp_threshold = monitor_module.AMPLIFICATION_REQUEST_THRESHOLD
            self._sensitivity_until = 0.0
        events = []
        for client, state in list(self._clients.items()):
            if (
                state.verdict == ClientVerdict.SUSPICIOUS
                and state.suspicious_since is not None
                and now - state.suspicious_since > self.config.suspicion_period
            ):
                state.verdict = ClientVerdict.NORMAL
                state.alarms = 0
                state.suspicious_since = None
                self.stats.releases += 1
            kind = self._detect(state, now)
            if kind is None:
                continue
            event = self._raise_alarm(client, state, kind, now)
            if event is not None:
                events.append(event)
        return events

    def _detect(self, state: _ClientState, now: float) -> Optional[AnomalyKind]:
        observations = state.nx_ratio.observations(now)
        config = self.config
        if state.anomalous_requests.total(now) >= self._amp_threshold:
            return AnomalyKind.AMPLIFICATION
        if (
            observations >= config.min_observations
            and state.nx_ratio.ratio(now) > self._nx_threshold
        ):
            return AnomalyKind.NXDOMAIN
        rate_threshold = monitor_module.REQUEST_RATE_THRESHOLD
        if rate_threshold is not None and state.requests.rate(now) > rate_threshold:
            return AnomalyKind.RATE
        return None

    def _raise_alarm(self, client, state, kind, now, weight=1) -> Optional[AnomalyEvent]:
        if state.verdict == ClientVerdict.CONVICTED:
            return None
        if state.verdict == ClientVerdict.NORMAL:
            state.verdict = ClientVerdict.SUSPICIOUS
            state.suspicious_since = now
            state.alarms = 0
        state.alarms += weight
        state.last_kind = kind
        self.stats.alarms_raised += weight
        threshold = self.config.alarm_threshold
        convicted = state.alarms >= threshold
        if convicted:
            state.verdict = ClientVerdict.CONVICTED
            self.stats.convictions += 1
        return AnomalyEvent(
            client=client, kind=kind, alarms=state.alarms,
            countdown=max(0, threshold - state.alarms), convicted=convicted,
        )

    def verdict(self, client: str) -> ClientVerdict:
        state = self._clients.get(client)
        return state.verdict if state is not None else ClientVerdict.NORMAL

    def countdown(self, client: str) -> int:
        state = self._clients.get(client)
        if state is None or state.verdict == ClientVerdict.NORMAL:
            return self.config.alarm_threshold
        return max(0, self.config.alarm_threshold - state.alarms)

    def last_kind(self, client: str) -> Optional[AnomalyKind]:
        state = self._clients.get(client)
        return state.last_kind if state is not None else None

    def clear_conviction(self, client: str) -> None:
        state = self._clients.get(client)
        if state is not None and state.verdict == ClientVerdict.CONVICTED:
            state.verdict = ClientVerdict.SUSPICIOUS
            state.alarms = max(0, self.config.alarm_threshold - 1)
            if state.suspicious_since is None:
                state.suspicious_since = state.last_seen

    def top_talkers(self, n: int, now: float) -> List[tuple]:
        ranked = sorted(
            ((client, state.queries.total(now)) for client, state in self._clients.items()),
            key=lambda item: (-item[1], item[0]),
        )
        return ranked[:n]

    def tracked_clients(self) -> int:
        return len(self._clients)

    def purge(self, now: float, idle_timeout: float) -> int:
        stale = [
            client
            for client, state in self._clients.items()
            if now - state.last_seen > idle_timeout and state.verdict == ClientVerdict.NORMAL
        ]
        for client in stale:
            del self._clients[client]
        return len(stale)


# ----------------------------------------------------------------------
# seeded op streams
# ----------------------------------------------------------------------
CLIENTS = [f"10.0.{i >> 8}.{i & 255}" for i in range(200)]
KINDS = list(AnomalyKind)
STREAM_CONFIGS = {
    # suspicion shorter than the run (releases), purge horizon shorter
    # still (slots recycle), low bar (convictions); then the request-
    # rate threshold (None: the rate alarm is off)
    "nx+amp": (MonitorConfig(window=2.0, alarm_threshold=4, suspicion_period=20.0), None),
    "rate": (MonitorConfig(window=1.0, alarm_threshold=3, suspicion_period=12.0,
                           min_observations=2), 6.0),
}


def _check_client(packed, reference, client):
    assert packed.verdict(client) == reference.verdict(client), client
    assert packed.countdown(client) == reference.countdown(client), client
    assert packed.last_kind(client) == reference.last_kind(client), client


def _run_stream(seed: int, config: MonitorConfig, ops: int) -> MonitorStats:
    rng = random.Random(seed)
    packed, reference = AnomalyMonitor(config), _ReferenceMonitor(config)
    window = config.window
    now, next_tick, next_purge = 0.0, window, 10.0
    for op in range(ops):
        # monotone, with repeated instants; ~0.01 s per op on average
        if rng.random() < 0.7:
            now += rng.expovariate(70.0)
        # the active clients drift, so idle ones are purged and come back
        client = CLIENTS[(int(now / 25.0) * 37 + rng.randrange(48)) % len(CLIENTS)]
        hostile = int(client.rsplit(".", 1)[1]) % 5 == 0
        roll = rng.random()
        if now >= next_tick:
            next_tick += window
            assert packed.evaluate(now) == reference.evaluate(now), (op, now)
            for each in CLIENTS:
                _check_client(packed, reference, each)
        elif now >= next_purge:
            next_purge += 10.0
            assert packed.purge(now, 15.0) == reference.purge(now, 15.0), (op, now)
            for each in CLIENTS:
                _check_client(packed, reference, each)
        elif roll < 0.25:
            packed.record_request(client, now)
            reference.record_request(client, now)
        elif roll < 0.55:
            packed.record_query(client, now)
            reference.record_query(client, now)
        elif roll < 0.93:
            nx = rng.random() < (0.6 if hostile else 0.05)
            rcode = RCode.NXDOMAIN if nx else RCode.NOERROR
            packed.record_answer(client, rcode, now)
            reference.record_answer(client, rcode, now)
        elif roll < 0.96:
            if hostile or rng.random() < 0.1:
                packed.record_anomalous_request(client, now)
                reference.record_anomalous_request(client, now)
        elif roll < 0.975:
            kind, weight = rng.choice(KINDS), rng.choice((1, 1, 2))
            assert (packed.external_alarm(client, kind, now, weight)
                    == reference.external_alarm(client, kind, now, weight)), (op, now)
        elif roll < 0.99:
            packed.clear_conviction(client)
            reference.clear_conviction(client)
        else:
            factor, duration = rng.choice((0.5, 0.25)), rng.choice((3.0, 30.0))
            packed.raise_sensitivity(now, factor, duration)
            reference.raise_sensitivity(now, factor, duration)
        _check_client(packed, reference, client)
        assert packed.tracked_clients() == reference.tracked_clients(), (op, now)
        assert packed.stats == reference.stats, (op, now)
        if op % 16 == 0:
            assert packed.top_talkers(5, now) == reference.top_talkers(5, now), (op, now)
    return packed.stats


@pytest.mark.parametrize("seed, name", [(1, "nx+amp"), (2, "rate")])
def test_packed_monitor_matches_reference_on_seeded_streams(seed, name, monkeypatch):
    config, rate_threshold = STREAM_CONFIGS[name]
    monkeypatch.setattr(monitor_module, "REQUEST_RATE_THRESHOLD", rate_threshold)
    stats = _run_stream(seed, config, ops=50_000)
    # the stream went through the whole state machine, not just NORMAL
    assert stats.alarms_raised > 100
    assert stats.convictions > 5
    assert stats.releases > 5
    assert stats.external_alarms > 100


# ----------------------------------------------------------------------
# slot recycling, non-monotone time, footprint
# ----------------------------------------------------------------------
def test_recycled_slot_starts_from_zero_and_normal():
    monitor = AnomalyMonitor(MonitorConfig(alarm_threshold=3, suspicion_period=5.0))
    for i in range(40):
        monitor.record_answer("old", RCode.NXDOMAIN, 0.01 * i)
        monitor.record_query("old", 0.01 * i)
        monitor.record_anomalous_request("old", 0.01 * i)
    assert monitor.evaluate(1.0)[0].kind == AnomalyKind.AMPLIFICATION
    assert monitor.evaluate(7.0) == []  # window aged out, suspicion released
    slot = monitor._slots["old"]
    assert monitor.purge(20.0, idle_timeout=10.0) == 1
    assert monitor.tracked_clients() == 0
    assert monitor.last_kind("old") is None

    # same instant bucket-wise as old's traffic would be a full window later
    monitor.record_request("new", 20.0)
    assert monitor._slots["new"] == slot
    assert monitor.top_talkers(1, 20.0) == [("new", 0)]
    assert monitor.evaluate(20.0) == []
    assert monitor.verdict("new") == ClientVerdict.NORMAL
    assert monitor.last_kind("new") is None
    assert monitor.countdown("new") == 3
    # a second new client extends the table instead of sharing the slot
    monitor.record_request("newer", 20.0)
    assert monitor._slots["newer"] != slot


METRICS = (
    monitor_module._REQUESTS,
    monitor_module._QUERIES,
    monitor_module._ANOMALOUS,
    monitor_module._NX_ANSWERS,
    monitor_module._ANSWERS,
)


def _check_totals(packed, reference, now):
    """Every tracked client's five window totals, against the reference."""
    assert packed.tracked_clients() == reference.tracked_clients()
    for client, slot in packed._slots.items():
        packed._roll(slot, now)
        state = reference._clients[client]
        want = [
            state.requests.total(now),
            state.queries.total(now),
            state.anomalous_requests.total(now),
            state.nx_ratio._hits.total(now),
            state.nx_ratio.observations(now),
        ]
        assert [packed._total(slot, metric) for metric in METRICS] == want, client
        _check_client(packed, reference, client)


def test_a_flood_widens_the_count_table_without_losing_a_count():
    """One client takes more than 255 and then more than 65 535 events in
    one 0.25 s bucket, other clients interleaved: each overflow rebuilds
    the table one type wider, and the totals, alarms, purges and recycled
    slots after it are the reference monitor's."""
    config = MonitorConfig(window=2.0, alarm_threshold=3, suspicion_period=5.0)
    packed, reference = AnomalyMonitor(config), _ReferenceMonitor(config)
    both = (packed, reference)
    early, steady = CLIENTS[:20], CLIENTS[20:40]
    for client in early:
        for monitor in both:
            monitor.record_query(client, 0.0)
    typecodes = [packed._counts.typecode]

    def flood(start, record, events, others, every):
        # ``events`` calls of ``record`` for "flood" inside the bucket at
        # ``start``; every ``every``-th call one of ``others`` sends a
        # request, a query and a NOERROR answer as well
        for i in range(events):
            now = start + 0.24 * i / events
            for monitor in both:
                record(monitor, now)
            if i % every == 0:
                other = others[i // every % len(others)]
                for monitor in both:
                    monitor.record_request(other, now)
                    monitor.record_query(other, now)
                    monitor.record_answer(other, RCode.NOERROR, now)

    def checkpoint(now, idle_timeout, newcomers):
        # totals and alarms, then a purge whose freed slots go to newcomers
        _check_totals(packed, reference, now)
        assert packed.evaluate(now) == reference.evaluate(now)
        freed = set(packed._slots.values())
        assert packed.purge(now, idle_timeout) == reference.purge(now, idle_timeout) > 0
        freed -= set(packed._slots.values())
        for client in newcomers:
            for monitor in both:
                monitor.record_request(client, now)
        assert freed == {packed._slots[client] for client in newcomers}
        _check_totals(packed, reference, now)
        typecodes.append(packed._counts.typecode)

    def nx_answer(monitor, now):
        monitor.record_answer("flood", RCode.NXDOMAIN, now)

    flood(1.0, nx_answer, 300, steady, every=8)
    checkpoint(1.24, 1.0, [f"new-{i}" for i in range(len(early))])
    assert packed.verdict("flood") == ClientVerdict.SUSPICIOUS

    def query(monitor, now):
        monitor.record_query("flood", now)

    # a full window later: the flood's slot is reset wholesale
    flood(3.0, query, 70_000, [f"new-{i}" for i in range(len(early))], every=500)
    checkpoint(3.24, 1.0, [f"newer-{i}" for i in range(len(steady))])
    assert packed.top_talkers(1, 3.24) == [("flood", 70_000)]
    assert typecodes == ["B", "H", "I"]


@pytest.mark.parametrize("metric, record", [
    (monitor_module._REQUESTS, lambda monitor: monitor.record_request("c", 0.0)),
    (monitor_module._QUERIES, lambda monitor: monitor.record_query("c", 0.0)),
    (monitor_module._ANSWERS, lambda monitor: monitor.record_answer("c", RCode.NOERROR, 0.0)),
    (monitor_module._ANOMALOUS, lambda monitor: monitor.record_anomalous_request("c", 0.0)),
])
def test_each_count_site_widens_on_its_own_overflow(metric, record):
    monitor = AnomalyMonitor()
    for _ in range(256):
        record(monitor)
    assert monitor._counts.typecode == "H"
    assert monitor._total(monitor._slots["c"], metric) == 256


def test_earlier_now_counts_into_the_newest_bucket():
    """What SlidingWindowCounter.add does with a repeated or earlier
    timestamp: no rewind, the event lands in the newest bucket."""
    monitor = AnomalyMonitor(MonitorConfig(window=2.0))
    counter = SlidingWindowCounter(2.0)
    for t in (1.0, 1.0, 0.3):  # bucket 4, bucket 4 again, then "bucket 1"
        monitor.record_query("c", t)
        counter.add(t)
    # bucket 1 would have aged out by 2.4; bucket 4 lives until 3.0
    for t in (1.0, 2.4, 2.99):
        assert monitor.top_talkers(1, t) == [("c", 3)] == [("c", counter.total(t))]
    assert monitor.top_talkers(1, 3.0) == [("c", 0)] == [("c", counter.total(3.0))]


def test_nonpositive_window_is_rejected_at_construction():
    with pytest.raises(ValueError, match="window must be positive"):
        AnomalyMonitor(MonitorConfig(window=0.0))


def test_state_is_under_200_bytes_per_client_at_100k():
    monitor = AnomalyMonitor()
    for i in range(100_000):
        monitor.record_request(f"10.{i >> 16 & 255}.{i >> 8 & 255}.{i & 255}", 0.0)
    assert monitor.tracked_clients() == 100_000
    # 40 one-byte counts per slot: the table was never widened
    assert monitor._counts.typecode == "B"
    assert monitor.state_bytes() / monitor.tracked_clients() <= 200
    # the sparse records are counted: suspects cost extra, the rest nothing
    before = monitor.state_bytes()
    monitor.external_alarm("10.0.0.1", AnomalyKind.RATE, 0.0)
    assert monitor.state_bytes() > before
