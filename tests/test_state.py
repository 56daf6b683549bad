"""DCC state table tests (Table 1 accounting)."""

import pytest

from repro.dcc.monitor import AnomalyKind
from repro.dcc.state import DccStateTables, PerRequestState


class TestPerRequestLifecycle:
    def test_open_creates_once(self):
        tables = DccStateTables()
        a = tables.open_request("c1", 1, now=0.0)
        b = tables.open_request("c1", 1, now=0.5)
        assert a is b
        assert tables.created == 1
        assert tables.open_request_count() == 1

    def test_distinct_keys(self):
        tables = DccStateTables()
        tables.open_request("c1", 1, 0.0)
        tables.open_request("c1", 2, 0.0)
        tables.open_request("c2", 1, 0.0)
        assert tables.open_request_count() == 3

    def test_get_request(self):
        tables = DccStateTables()
        tables.open_request("c1", 7, 0.0)
        assert tables.get_request("c1", 7) is not None
        assert tables.get_request("c1", 8) is None

    def test_close_returns_state(self):
        tables = DccStateTables()
        state = tables.open_request("c1", 1, 0.0)
        state.queries_attributed = 3
        closed = tables.close_request("c1", 1)
        assert closed is state
        assert tables.open_request_count() == 0
        assert tables.completed == 1

    def test_close_missing_returns_none(self):
        tables = DccStateTables()
        assert tables.close_request("nope", 1) is None
        assert tables.completed == 0

    def test_state_fields(self):
        state = PerRequestState(client="c", request_id=1, created_at=0.0)
        state.anomaly = AnomalyKind.AMPLIFICATION
        state.dropped_congestion += 1
        assert (state.client, state.request_id) == ("c", 1)
        assert state.relay_signals == []


class TestPerRequestStateShape:
    def test_relay_signals_is_a_fresh_list_per_request(self):
        tables = DccStateTables()
        a = tables.open_request("c1", 1, 0.0)
        b = tables.open_request("c1", 2, 0.0)
        a.relay_signals.append("signal")
        assert b.relay_signals == [] and a.relay_signals is not b.relay_signals

    def test_slotted_with_the_same_defaults_key_and_footprint(self):
        state = DccStateTables().open_request("c", 9, 1.5)
        assert not hasattr(state, "__dict__")
        with pytest.raises(AttributeError):
            state.unknown_field = 1
        assert (state.client, state.request_id, state.created_at) == ("c", 9, 1.5)
        assert (state.queries_attributed, state.queries_sent) == (0, 0)
        assert (state.dropped_congestion, state.dropped_policing) == (0, 0)
        assert state.anomaly is None and state.allocated_rate == 0.0


class TestPurge:
    def test_stale_requests_purged(self):
        tables = DccStateTables(request_lifetime=10.0)
        tables.open_request("c1", 1, now=0.0)
        tables.open_request("c1", 2, now=8.0)
        assert tables.purge(now=12.0) == 1
        assert tables.open_request_count() == 1
        assert tables.purged == 1

    def test_fresh_requests_survive(self):
        tables = DccStateTables(request_lifetime=10.0)
        tables.open_request("c1", 1, now=5.0)
        assert tables.purge(now=10.0) == 0
