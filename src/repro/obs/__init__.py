"""repro.obs -- the unified observability subsystem.

One facade (:class:`Observability`) bundles the three pillars:

- :mod:`repro.obs.metrics` -- counters (a view over the components'
  ``*Stats`` blocks), gauges, log-bucketed histograms, and periodic
  time-series sampling on the virtual clock;
- :mod:`repro.obs.spans` -- per-query trace spans forming one causal
  tree per client request;
- :mod:`repro.obs.sketch` -- Space-Saving heavy-hitter sketches over
  per-client query/NXDOMAIN/byte streams.

Exporters live in :mod:`repro.obs.export` (JSONL metrics with the
heavy hitters, Chrome trace-event JSON for Perfetto); ``repro fig8
--obs DIR`` writes both for every Figure 8 cell.

**Zero overhead when off.**  Observability defaults to *disabled*: every
instrumented object carries :data:`NULL_OBS`, a process-wide no-op
singleton whose ``enabled`` class attribute is ``False`` -- the same
pattern SimSan uses.  Hot paths guard their instrumentation with a
single ``if self.obs.enabled:`` attribute test; everything else calls
the no-op methods directly.  Experiments opt in by putting an
:class:`ObsConfig` on their ``ScenarioConfig``.

**Never perturbs the simulation.**  The facade schedules no events,
draws no randomness, and sends no messages; its sampler piggybacks on
the simulator's own clock advances (``Simulator.obs_tick``).  The
determinism guard test proves the selfcheck event-trace digest is
byte-identical with observability on or off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Protocol

from repro.obs.metrics import DEFAULT_SIZE_BOUNDS, MetricsRegistry
from repro.obs.sketch import SpaceSaving
from repro.obs.spans import NO_PARENT, Tracer


class SupportsObsTick(Protocol):
    """Anything with an ``obs_tick`` clock-advance hook slot.

    Structurally matches :class:`repro.netsim.sim.Simulator`; a Protocol
    keeps ``obs`` below ``netsim`` in the layering contract (reprolint
    R6) instead of importing the simulator for one annotation.
    """

    obs_tick: Optional[Callable[[float], None]]


__all__ = [
    "ObsConfig",
    "Observability",
    "NullObservability",
    "NULL_OBS",
]


#: record per-query trace spans (the dominant memory cost)
TRACE_SPANS = True
#: counters per heavy-hitter sketch
HEAVY_HITTER_K = 32
#: span/instant memory cap (overflow is dropped and counted)
MAX_SPANS = 200_000


@dataclass(frozen=True)
class ObsConfig:
    """Knobs for one scenario's observability session."""

    #: virtual seconds between time-series snapshots
    sample_interval: float = 1.0


class NullObservability:
    """The disabled facade: every operation is a no-op.

    Doubles as the interface definition -- :class:`Observability`
    overrides each method.  Kept free of per-call allocation so leaving
    instrumentation un-guarded on warm (but not hot) paths costs one
    dynamic dispatch and nothing else.
    """

    enabled = False

    # -- spans ---------------------------------------------------------
    def begin(
        self, name: str, track: str, now: float, parent: int = NO_PARENT, **args: Any
    ) -> int:
        return NO_PARENT

    def end(self, span_id: int, now: float, **args: Any) -> None:
        pass

    def instant(self, name: str, track: str, now: float, **args: Any) -> None:
        pass

    # -- metrics -------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def observe_size(self, name: str, value: float) -> None:
        pass

    # -- heavy hitters -------------------------------------------------
    def client_query(self, client: str, wire_bytes: int) -> None:
        pass

    def client_nxdomain(self, client: str) -> None:
        pass

    # -- cross-layer span linkage --------------------------------------
    def note_query_span(self, message_id: int, span_id: int) -> None:
        pass

    def query_span(self, message_id: int) -> int:
        return NO_PARENT

    def forget_query_span(self, message_id: int) -> None:
        pass


#: the process-wide disabled facade every instrumented object defaults to
NULL_OBS = NullObservability()


class Observability(NullObservability):
    """The live facade: one per opted-in scenario."""

    enabled = True

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        self.config = config if config is not None else ObsConfig()
        self.metrics = MetricsRegistry(sample_interval=self.config.sample_interval)
        self.tracer = Tracer(max_spans=MAX_SPANS)
        self._trace_spans = TRACE_SPANS
        self.hh_queries = SpaceSaving(HEAVY_HITTER_K)
        self.hh_nxdomain = SpaceSaving(HEAVY_HITTER_K)
        self.hh_bytes = SpaceSaving(HEAVY_HITTER_K)
        #: upstream-query message id -> span handle, linking the layers
        #: a query crosses (resolution -> MOPI-FQ -> authoritative)
        self._query_spans: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, sim: SupportsObsTick) -> None:
        """Drive the time-series sampler from the simulator's clock.

        Installs :meth:`MetricsRegistry.on_advance` as the simulator's
        ``obs_tick`` callback -- invoked whenever the clock advances,
        adding zero events to the heap.
        """
        sim.obs_tick = self.metrics.on_advance

    def finish(self, now: float) -> None:
        """End-of-run flush: close abandoned spans, emit final samples."""
        self.metrics.on_advance(now)
        self.tracer.close_open_spans(now)

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def begin(
        self, name: str, track: str, now: float, parent: int = NO_PARENT, **args: Any
    ) -> int:
        if not self._trace_spans:
            return NO_PARENT
        return self.tracer.begin(name, track, now, parent, **args)

    def end(self, span_id: int, now: float, **args: Any) -> None:
        if span_id:
            self.tracer.end(span_id, now, **args)

    def instant(self, name: str, track: str, now: float, **args: Any) -> None:
        if self._trace_spans:
            self.tracer.instant(name, track, now, **args)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)

    def observe_size(self, name: str, value: float) -> None:
        self.metrics.histogram(name, DEFAULT_SIZE_BOUNDS).observe(value)

    # ------------------------------------------------------------------
    # heavy hitters
    # ------------------------------------------------------------------
    def client_query(self, client: str, wire_bytes: int) -> None:
        self.hh_queries.offer(client)
        self.hh_bytes.offer(client, float(wire_bytes))

    def client_nxdomain(self, client: str) -> None:
        self.hh_nxdomain.offer(client)

    # ------------------------------------------------------------------
    # cross-layer span linkage
    # ------------------------------------------------------------------
    def note_query_span(self, message_id: int, span_id: int) -> None:
        if span_id:
            self._query_spans[message_id] = span_id

    def query_span(self, message_id: int) -> int:
        return self._query_spans.get(message_id, NO_PARENT)

    def forget_query_span(self, message_id: int) -> None:
        self._query_spans.pop(message_id, None)
