"""Per-client anomaly monitoring (paper Section 3.2.2).

The FQ scheduler guarantees fair channel shares, but attackers can still
craft query patterns that hurt disproportionately: amplification
(requests eliciting many queries), pseudo-random names bypassing the
cache into NXDOMAIN floods, etc.  The monitor tracks a set of metrics
per client over a sliding window and runs an alarm -> suspicion ->
conviction state machine:

- at the end of each window, any metric over threshold raises an
  **alarm**;
- the first alarm puts the client in a **suspicious** state;
- reaching ``alarm_threshold`` alarms within ``suspicion_period``
  **convicts** the client (pre-queue policing takes over);
- a suspicious client with no conviction by the end of the period is
  **released**.

The remaining-alarms countdown is exported to the signaling layer: it is
what the upstream's anomaly signal carries so a downstream resolver can
police the true culprit before the upstream polices *it*
(Section 3.3.1).

Per-client state is one packed slot table (docs/ALGORITHMS.md, "Anomaly
monitoring"): ``client -> slot``, and per slot 5 metrics x 8 buckets of
``uint32`` counts, one bucket epoch and one ``last_seen``.  The five
metrics of a client share that epoch, which is exact under a monotone
clock (``Simulator`` and ``AsyncioClock`` both are): a bucket is zeroed
the first time *any* metric of the client is touched after it aged out,
before anything can read it.  Verdict, alarm count and last anomaly
kind live in a sparse record that only clients which ever raised an
alarm have.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from sys import getsizeof
from typing import Dict, List, Optional

from repro.dnscore.rdata import RCode
from repro.obs import NULL_OBS


class AnomalyKind(enum.IntEnum):
    """Why a client is considered anomalous (carried in signals)."""

    NXDOMAIN = 1  # pseudo-random subdomain / Water Torture pattern
    AMPLIFICATION = 2  # disproportionate queries per request
    RATE = 3  # raw request-rate excess


class ClientVerdict(enum.Enum):
    NORMAL = "normal"
    SUSPICIOUS = "suspicious"
    CONVICTED = "convicted"


#: amplification-anomalous requests per window that raise an alarm
AMPLIFICATION_REQUEST_THRESHOLD = 4.0
#: client request rate (QPS) that raises an alarm; None disables
REQUEST_RATE_THRESHOLD: Optional[float] = None


@dataclass
class MonitorConfig:
    """Thresholds (defaults mirror the paper's evaluation, Section 5.1)."""

    window: float = 2.0
    #: alarms within the suspicion period that convict a client
    alarm_threshold: int = 10
    suspicion_period: float = 60.0
    #: NXDOMAIN-to-all-responses ratio that raises an alarm
    nxdomain_ratio_threshold: float = 0.2
    #: attributed queries a *single* request may spawn before the request
    #: counts as an amplification anomaly (per-request, so a forwarder's
    #: mixed traffic cannot dilute an attacker hiding behind it)
    amplification_threshold: float = 5.0
    #: ignore windows with fewer observations than this (noise floor)
    min_observations: int = 4


@dataclass
class AnomalyEvent:
    """One alarm, reported from :meth:`AnomalyMonitor.evaluate`."""

    client: str
    kind: AnomalyKind
    alarms: int
    #: remaining alarms until conviction (the signal countdown)
    countdown: int
    convicted: bool


#: sub-windows per sliding window (counts are exact at this granularity)
_BUCKETS = 8
#: offset of each metric's bucket row inside a slot
_REQUESTS = 0
_QUERIES = _BUCKETS
_ANOMALOUS = 2 * _BUCKETS
_NX_ANSWERS = 3 * _BUCKETS
_ANSWERS = 4 * _BUCKETS
_SLOT = 5 * _BUCKETS
_EMPTY_SLOT = array("I", [0] * _SLOT)


class _Suspicion:
    """Alarm state of one client that has left ``NORMAL`` at least once
    (kept until the client is purged: ``last_kind`` outlives a release)."""

    __slots__ = ("verdict", "alarms", "suspicious_since", "last_kind")

    def __init__(self) -> None:
        self.verdict = ClientVerdict.NORMAL
        self.alarms = 0
        self.suspicious_since: Optional[float] = None
        self.last_kind: Optional[AnomalyKind] = None


@dataclass
class MonitorStats:
    alarms_raised: int = 0
    convictions: int = 0
    releases: int = 0
    external_alarms: int = 0


class AnomalyMonitor:
    """Tracks per-client anomaly metrics and the suspicion state machine."""

    def __init__(self, config: Optional[MonitorConfig] = None) -> None:
        self.config = config or MonitorConfig()
        self._window = float(self.config.window)
        if self._window <= 0:
            raise ValueError(f"window must be positive, got {self.config.window}")
        self._bucket_width = self._window / _BUCKETS
        #: the slot table: client -> slot, then per slot _SLOT counts
        #: (metric-major), the absolute index of its newest bucket, and
        #: when the client was last seen; purged slots wait in _free
        self._slots: Dict[str, int] = {}
        self._counts = array("I")
        self._epochs = array("q")
        self._last_seen = array("d")
        self._free: List[int] = []
        self._suspects: Dict[str, _Suspicion] = {}
        self.stats = MonitorStats()
        #: the thresholds in force: the config's, or tighter while
        #: raise_sensitivity is in effect (the config itself is shared
        #: between shims and never written)
        self._nx_threshold = self.config.nxdomain_ratio_threshold
        self._amp_threshold = AMPLIFICATION_REQUEST_THRESHOLD
        self._sensitivity_until = 0.0
        #: observability facade + the owning shim's track (scenario wiring)
        self.obs = NULL_OBS
        self.obs_track = ""

    def _touch(self, client: str, now: float) -> int:
        """Mark ``client`` seen at ``now`` (tracking it from here on) and
        return the index of the newest bucket of its first metric row;
        add a row offset to count into another metric."""
        slot = self._slots.get(client)
        if slot is None:
            if self._free:
                slot = self._free.pop()
            else:
                slot = len(self._epochs)
                self._counts.extend(_EMPTY_SLOT)
                self._epochs.append(0)
                self._last_seen.append(0.0)
            self._slots[client] = slot
        self._last_seen[slot] = now
        epoch = self._epochs[slot]
        if int(now / self._bucket_width) > epoch:
            epoch = self._roll(slot, now)
        return slot * _SLOT + epoch % _BUCKETS

    def _roll(self, slot: int, now: float) -> int:
        """Age the slot's buckets to ``now``; returns its epoch.  An
        earlier ``now`` leaves the epoch alone, so it counts into the
        newest bucket."""
        index = int(now / self._bucket_width)
        epoch = self._epochs[slot]
        if index <= epoch:
            return epoch
        counts = self._counts
        base = slot * _SLOT
        if index - epoch >= _BUCKETS:
            counts[base : base + _SLOT] = _EMPTY_SLOT
        else:
            for expired in range(epoch + 1, index + 1):
                for bucket in range(base + expired % _BUCKETS, base + _SLOT, _BUCKETS):
                    counts[bucket] = 0
        self._epochs[slot] = index
        return index

    def _total(self, slot: int, metric: int) -> int:
        start = slot * _SLOT + metric
        return sum(self._counts[start : start + _BUCKETS])

    # ------------------------------------------------------------------
    # event feeds (called from the shim's I/O path)
    # ------------------------------------------------------------------
    def record_request(self, client: str, now: float) -> None:
        """A client request entered the resolution path (cache misses
        only: cache hits are 'treated as normal by DCC', Section 3.2.3)."""
        self._counts[self._touch(client, now) + _REQUESTS] += 1

    def record_query(self, client: str, now: float) -> None:
        """An outgoing query was attributed to ``client``."""
        self._counts[self._touch(client, now) + _QUERIES] += 1

    def record_answer(self, client: str, rcode: RCode, now: float) -> None:
        """An upstream answer for a query attributed to ``client``."""
        newest = self._touch(client, now)
        self._counts[newest + _ANSWERS] += 1
        if rcode == RCode.NXDOMAIN:
            self._counts[newest + _NX_ANSWERS] += 1

    def record_anomalous_request(self, client: str, now: float) -> None:
        """One of the client's requests crossed the per-request
        amplification threshold (reported by the shim the moment the
        request's attributed-query count exceeds it)."""
        self._counts[self._touch(client, now) + _ANOMALOUS] += 1

    def raise_sensitivity(self, now: float, factor: float = 0.5, duration: float = 30.0) -> None:
        """Temporarily tighten detection thresholds (Section 3.3.2):
        called when an upstream policing signal shows we failed to catch
        the culprit ourselves."""
        if self._sensitivity_until <= now:
            self._nx_threshold = self.config.nxdomain_ratio_threshold * factor
            self._amp_threshold = max(
                1.0, AMPLIFICATION_REQUEST_THRESHOLD * factor
            )
        self._sensitivity_until = now + duration

    def _maybe_restore_sensitivity(self, now: float) -> None:
        if self._sensitivity_until and now > self._sensitivity_until:
            self._nx_threshold = self.config.nxdomain_ratio_threshold
            self._amp_threshold = AMPLIFICATION_REQUEST_THRESHOLD
            self._sensitivity_until = 0.0

    def external_alarm(self, client: str, kind: AnomalyKind, now: float, weight: int = 1) -> Optional[AnomalyEvent]:
        """Pressure from upstream signals: count extra alarms directly.

        Used when an upstream anomaly signal names this client as the
        suspect, or when a policing signal tells us to raise sensitivity.
        """
        self._touch(client, now)
        self.stats.external_alarms += 1
        return self._raise_alarm(client, kind, now, weight=weight)

    # ------------------------------------------------------------------
    # window evaluation
    # ------------------------------------------------------------------
    def evaluate(self, now: float) -> List[AnomalyEvent]:
        """End-of-window check across all tracked clients.

        Call every ``config.window`` seconds (the shim schedules this).
        """
        self._maybe_restore_sensitivity(now)
        for suspicion in self._suspects.values():
            self._maybe_release(suspicion, now)
        events: List[AnomalyEvent] = []
        # alarms only touch the sparse records, never the slot table
        for client, slot in self._slots.items():
            kind = self._detect(slot, now)
            if kind is None:
                continue
            event = self._raise_alarm(client, kind, now)
            if event is not None:
                events.append(event)
        return events

    def _detect(self, slot: int, now: float) -> Optional[AnomalyKind]:
        self._roll(slot, now)
        config = self.config
        if self._total(slot, _ANOMALOUS) >= self._amp_threshold:
            return AnomalyKind.AMPLIFICATION
        observations = self._total(slot, _ANSWERS)
        if (
            observations >= config.min_observations
            and observations > 0
            and self._total(slot, _NX_ANSWERS) / observations > self._nx_threshold
        ):
            return AnomalyKind.NXDOMAIN
        if (
            REQUEST_RATE_THRESHOLD is not None
            and self._total(slot, _REQUESTS) / self._window > REQUEST_RATE_THRESHOLD
        ):
            return AnomalyKind.RATE
        return None

    def _raise_alarm(
        self, client: str, kind: AnomalyKind, now: float, weight: int = 1
    ) -> Optional[AnomalyEvent]:
        state = self._suspects.get(client)
        if state is None:
            state = self._suspects[client] = _Suspicion()
        if state.verdict == ClientVerdict.CONVICTED:
            return None  # already policed; nothing new to report
        if state.verdict == ClientVerdict.NORMAL:
            state.verdict = ClientVerdict.SUSPICIOUS
            state.suspicious_since = now
            state.alarms = 0
        state.alarms += weight
        state.last_kind = kind
        self.stats.alarms_raised += weight
        threshold = self.config.alarm_threshold
        convicted = state.alarms >= threshold
        if self.obs.enabled:
            self.obs.inc("monitor.alarms")
            self.obs.instant(
                "monitor.alarm",
                self.obs_track,
                now,
                client=client,
                kind=kind.name,
                alarms=state.alarms,
            )
        if convicted:
            state.verdict = ClientVerdict.CONVICTED
            self.stats.convictions += 1
            if self.obs.enabled:
                self.obs.inc("monitor.convictions")
        return AnomalyEvent(
            client=client,
            kind=kind,
            alarms=state.alarms,
            countdown=max(0, threshold - state.alarms),
            convicted=convicted,
        )

    def _maybe_release(self, state: _Suspicion, now: float) -> None:
        if (
            state.verdict == ClientVerdict.SUSPICIOUS
            and state.suspicious_since is not None
            and now - state.suspicious_since > self.config.suspicion_period
        ):
            state.verdict = ClientVerdict.NORMAL
            state.alarms = 0
            state.suspicious_since = None
            self.stats.releases += 1

    # ------------------------------------------------------------------
    # queries from the shim / signaling
    # ------------------------------------------------------------------
    def verdict(self, client: str) -> ClientVerdict:
        state = self._suspects.get(client)
        return state.verdict if state is not None else ClientVerdict.NORMAL

    def countdown(self, client: str) -> int:
        state = self._suspects.get(client)
        if state is None or state.verdict == ClientVerdict.NORMAL:
            return self.config.alarm_threshold
        return max(0, self.config.alarm_threshold - state.alarms)

    def last_kind(self, client: str) -> Optional[AnomalyKind]:
        state = self._suspects.get(client)
        return state.last_kind if state is not None else None

    def clear_conviction(self, client: str) -> None:
        """Called when a policy expires.

        The client drops back to *suspicious* with its alarm count
        intact: the suspicion period (Section 3.2.2) has not ended, so a
        single further alarm re-convicts immediately -- this is what
        keeps a persistent attacker "rate limited until the end"
        (Section 5.1, Scenario 2) instead of oscillating.  The normal
        release path (no alarms for a full suspicion period) still
        applies via :meth:`evaluate`.
        """
        state = self._suspects.get(client)
        if state is not None and state.verdict == ClientVerdict.CONVICTED:
            state.verdict = ClientVerdict.SUSPICIOUS
            state.alarms = max(0, self.config.alarm_threshold - 1)
            if state.suspicious_since is None:
                state.suspicious_since = self._last_seen[self._slots[client]]

    def top_talkers(self, n: int, now: float) -> List[tuple]:
        """The ``n`` clients issuing the most attributed queries in the
        current window, as ``(client, count)`` pairs: exact, by walking
        every tracked client's slot (the obs facade's Space-Saving
        sketches give an O(k) ranking of lifetime totals).
        """
        ranked = []
        for client, slot in self._slots.items():
            self._roll(slot, now)
            ranked.append((client, self._total(slot, _QUERIES)))
        ranked.sort(key=lambda item: (-item[1], item[0]))
        return ranked[:n]

    def tracked_clients(self) -> int:
        return len(self._slots)

    def state_bytes(self) -> int:
        """Resident bytes of the per-client state (Table 1 / Figure 10):
        the key dict with its keys and slot numbers, the three arrays,
        the free list and the sparse suspicion records."""
        slots, suspects = self._slots, self._suspects
        return (
            getsizeof(slots)
            + sum(map(getsizeof, slots))
            + sum(map(getsizeof, slots.values()))
            + getsizeof(self._counts)
            + getsizeof(self._epochs)
            + getsizeof(self._last_seen)
            + getsizeof(self._free)
            # records share their keys with the slot dict
            + getsizeof(suspects)
            + sum(map(getsizeof, suspects.values()))
        )

    def purge(self, now: float, idle_timeout: float) -> int:
        """Drop state for clients idle longer than ``idle_timeout``;
        their slots are zeroed and handed to the next new client."""
        last_seen = self._last_seen
        stale = [
            client
            for client, slot in self._slots.items()
            if now - last_seen[slot] > idle_timeout
            and self.verdict(client) == ClientVerdict.NORMAL
        ]
        for client in stale:
            slot = self._slots.pop(client)
            self._suspects.pop(client, None)
            self._counts[slot * _SLOT : (slot + 1) * _SLOT] = _EMPTY_SLOT
            self._epochs[slot] = 0
            self._free.append(slot)
        return len(stale)
