"""DCC runtime state tables (paper Table 1).

DCC maintains state at three granularities, each created and destroyed
in tandem with the corresponding resolver state:

- **per-client**: monitoring metrics (owned by
  :class:`~repro.dcc.monitor.AnomalyMonitor`) and pre-queue policies
  (owned by :class:`~repro.dcc.policing.PolicyEngine`), for policed
  clients only;
- **per-server**: queuing state -- per-output queue depth, round
  pointers, channel token buckets (owned by the scheduler);
- **per-request**: query statistics and signal status, held here, alive
  only for the request's lifespan at the resolver.

This module owns the per-request table and aggregates the accounting
across all three granularities for the Table 1 / Figure 10 measurements
(entry counts and approximate bytes).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dcc.monitor import AnomalyKind


class PerRequestState:
    """Query statistics and signal status for one in-flight client
    request (the last column of Table 1).  One is built per request, so
    the class is slotted and :meth:`DccStateTables.open_request` builds
    it positionally."""

    __slots__ = (
        "client", "request_id", "created_at", "queries_attributed", "queries_sent",
        "dropped_congestion", "dropped_policing", "anomaly", "relay_signals", "allocated_rate",
    )

    #: rough per-entry footprint used by the Figure 10 memory proxy
    APPROX_BYTES = 96

    def __init__(self, client: str, request_id: int, created_at: float) -> None:
        self.client = client
        self.request_id = request_id
        self.created_at = created_at
        self.queries_attributed = 0
        self.queries_sent = 0
        self.dropped_congestion = 0
        self.dropped_policing = 0
        #: the anomaly this request exhibited, if any (drives the local
        #: anomaly signal on its response)
        self.anomaly: Optional[AnomalyKind] = None
        #: signals received from upstream, to relay on the response
        self.relay_signals: List[object] = []
        #: fair rate currently allocated to the client on the congested
        #: channel (reported in congestion signals)
        self.allocated_rate = 0.0

    @property
    def key(self) -> Tuple[str, int]:
        return (self.client, self.request_id)


class DccStateTables:
    """The per-request table plus cross-granularity accounting."""

    #: per-server entry footprint for the memory proxy (per-client state
    #: is measured: :meth:`AnomalyMonitor.state_bytes`)
    PER_SERVER_BYTES = 120  # queue head/tails + rounds + token bucket

    def __init__(self, request_lifetime: float = 30.0) -> None:
        self.request_lifetime = request_lifetime
        self._requests: Dict[Tuple[str, int], PerRequestState] = {}
        self.created = 0
        self.completed = 0
        self.purged = 0

    # ------------------------------------------------------------------
    # per-request lifecycle
    # ------------------------------------------------------------------
    def open_request(self, client: str, request_id: int, now: float) -> PerRequestState:
        key = (client, request_id)
        state = self._requests.get(key)
        if state is None:
            state = PerRequestState(client, request_id, now)
            self._requests[key] = state
            self.created += 1
        return state

    def get_request(self, client: str, request_id: int) -> Optional[PerRequestState]:
        return self._requests.get((client, request_id))

    def close_request(self, client: str, request_id: int) -> Optional[PerRequestState]:
        state = self._requests.pop((client, request_id), None)
        if state is not None:
            self.completed += 1
        return state

    def purge(self, now: float) -> int:
        """Drop request entries past their lifetime (leaked by clients
        that never saw a response, e.g. dropped on the floor upstream)."""
        stale = [
            key
            for key, state in self._requests.items()
            if now - state.created_at > self.request_lifetime
        ]
        for key in stale:
            del self._requests[key]
        self.purged += len(stale)
        return len(stale)

    # ------------------------------------------------------------------
    # accounting (Table 1 / Figure 10)
    # ------------------------------------------------------------------
    def open_request_count(self) -> int:
        return len(self._requests)

    def approx_bytes(
        self, client_state_bytes: int, tracked_servers: int, queued_messages: int
    ) -> int:
        """Approximate resident bytes across all three granularities."""
        return (
            client_state_bytes
            + tracked_servers * self.PER_SERVER_BYTES
            + (len(self._requests) + queued_messages) * PerRequestState.APPROX_BYTES
        )
