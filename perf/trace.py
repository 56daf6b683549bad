"""Per-layer tracing of ``src/repro`` from outside.

``Tracer.install()`` replaces the public entry points of each layer with
timing wrappers (and ``uninstall()`` puts the originals back); nothing in
``src/repro`` knows it is being traced.  A wrapper opens a *span* on entry
and closes it on exit.  The open spans form a stack (kept in the wrappers'
own frames), which gives every span its **self time**: its duration minus
the part covered by the spans it called.

Simulator (and asyncio-clock) callbacks are attributed to the layer that
owns them by wrapping the callable handed to ``schedule_at``: the event
carries ``Tracer._dispatch`` plus the real callable, the span that scheduled
it and the client-query id that was current, so a query's spans stay linked
across events.

Aggregates (calls, busy seconds, self seconds, flagged outcomes) are kept for
every span name for the whole timed phase.  Full span records
``(id, name, start, end, parent id, client-query id)`` are kept in memory for
the first ``keep_queries`` client queries only.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter
_MISSING = object()

#: per-name aggregate slots
CALLS, BUSY, SELF, FLAGGED = 0, 1, 2, 3
#: slots of ``Tracer._open``, the innermost open span: seconds its finished
#: children took, its span id, whether span records are being kept, and the
#: last span id handed out
_CHILDREN, _SID, _RECORDING, _NEXT_SID = 0, 1, 2, 3


def _flag_falsy(agg: list, result: Any, args: tuple) -> None:
    if not result:
        agg[FLAGGED] += 1


def _flag_none(agg: list, result: Any, args: tuple) -> None:
    if result is None:
        agg[FLAGGED] += 1


def _flag_rejected(agg: list, result: Any, args: tuple) -> None:
    if not result[0].ok:  # MopiFq.enqueue -> (status, evicted)
        agg[FLAGGED] += 1


def _flag_convictions(agg: list, result: Any, args: tuple) -> None:
    for event in result:  # AnomalyMonitor.evaluate -> [AnomalyEvent]
        if event.convicted:
            agg[FLAGGED] += 1


class Tracer:
    """Wrappers, span stack and aggregates for one traced run."""

    def __init__(self, keep_queries: int = 2000) -> None:
        self.keep_queries = keep_queries
        #: span name -> [calls, busy seconds, self seconds, flagged results]
        self.agg: Dict[str, list] = {}
        #: enqueue -> dequeue waits of MOPI-FQ payloads, in the clock the
        #: scheduler was driven with (virtual seconds in the simulator)
        self.mopifq_waits: List[float] = []
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.qid = 0
        self.queries_seen = 0
        self.began = 0.0
        self.ended = 0.0
        self._open: list = [0.0, 0, False, 0]
        self._patches: List[Tuple[Any, str, Any]] = []
        self._callbacks: Dict[Any, Callable[..., Any]] = {}

    # ------------------------------------------------------------------
    # the timed window
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Start the window the aggregates cover (wrappers hold references
        to the aggregate lists, so they are zeroed in place)."""
        for agg in self.agg.values():
            agg[:] = [0, 0.0, 0.0, 0]
        del self.mopifq_waits[:]
        del self.spans[:]
        self.qid = self.queries_seen = 0
        self._open[:] = [0.0, 0, self.keep_queries > 0, 0]
        self.began = self.ended = _clock()

    def end(self) -> None:
        self.ended = _clock()
        self._open[_RECORDING] = False

    def new_query(self) -> None:
        """A client query enters: spans from here on carry its id (wrappers
        built with ``starts_query`` call this; a workload that drives a layer
        directly calls it itself)."""
        self.queries_seen += 1
        self.qid = self.queries_seen
        if self.queries_seen > self.keep_queries:
            self._open[_RECORDING] = False

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        on_result: Optional[Callable[[list, Any, tuple], None]] = None,
        starts_query: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` timed as a span called ``name``.  ``on_result`` sees the
        aggregate, the return value and the positional arguments;
        ``starts_query`` marks a boundary where a new client query enters."""
        agg = self.agg.setdefault(name, [0, 0.0, 0.0, 0])
        open_span = self._open
        spans = self.spans
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if starts_query:
                tracer.new_query()
            # The span stack lives in this frame's locals: remember the
            # caller's open span, become the open span, restore on exit.
            outer_children, outer_sid = open_span[_CHILDREN], open_span[_SID]
            sid = 0
            if open_span[_RECORDING]:
                sid = open_span[_NEXT_SID] = open_span[_NEXT_SID] + 1
            open_span[_CHILDREN] = 0.0
            open_span[_SID] = sid
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                duration = end - start
                agg[CALLS] += 1
                agg[BUSY] += duration
                agg[SELF] += duration - open_span[_CHILDREN]
                open_span[_CHILDREN] = outer_children + duration
                open_span[_SID] = outer_sid
                if sid:
                    spans.append((sid, name, start, end, outer_sid, tracer.qid))
            if on_result is not None:
                on_result(agg, result, args)
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _wrap_schedule(self, fn: Callable[..., Any], name: str, fn_at: int) -> Callable[..., Any]:
        """A clock's ``schedule``-style method: positional argument ``fn_at``
        (counting the clock itself) is the callback.  The event gets
        ``_dispatch`` instead, with the callback, the scheduling span and the
        current query id in front of the callback's own arguments."""
        tracer = self
        open_span = self._open
        dispatch = self._dispatch

        def schedule(*args: Any) -> Any:
            return fn(*args[:fn_at], dispatch, args[fn_at], open_span[_SID], tracer.qid, *args[fn_at + 1:])

        return self.wrap(schedule, name)

    def _dispatch(self, fn: Callable[..., Any], parent: int, qid: int, *args: Any) -> None:
        """Run a scheduled callback as a span of the layer that owns it, with
        the span that scheduled it as its (causal) parent."""
        self.qid = qid
        function = getattr(fn, "__func__", fn)
        if hasattr(function, "__wrapped__"):  # an entry point that opens its own span
            fn(*args)
            return
        wrapped = self._callbacks.get(function)
        if wrapped is None:
            module = getattr(function, "__module__", None) or "other"
            if module.startswith("repro."):
                module = module[len("repro."):]
            name = f"{module}.{getattr(function, '__name__', 'callback')}"
            wrapped = self._callbacks[function] = self.wrap(function, name)
        open_span = self._open
        enclosing = open_span[_SID]
        open_span[_SID] = parent
        try:
            if function is fn:
                wrapped(*args)
            else:
                wrapped(fn.__self__, *args)
        finally:
            open_span[_SID] = enclosing

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = vars(owner).get(attr, _MISSING)  # inherited: not in vars()
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_method(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        self._patch(owner, attr, self.wrap(getattr(owner, attr), name, **options))

    def _patch_function(self, module: Any, attr: str, name: str) -> None:
        """A module-level function, under every name a ``repro`` module
        imported it as."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapped)

    def wrap_hooks(self, resolver: Any) -> None:
        """The DCC shim's side of a resolver's public hook surface; without
        this the shim's own glue would be charged to the resolver."""
        for attr in ("egress_query_hook", "ingress_answer_hook", "egress_response_hook"):
            hook = getattr(resolver, attr, None)
            if hook is not None:
                setattr(resolver, attr, self.wrap(hook, f"dcc.shim.{attr}"))

    def install(self) -> None:
        from repro.dcc import signaling
        from repro.dcc.monitor import AnomalyMonitor
        from repro.dcc.mopifq import MopiFq
        from repro.dcc.policing import PolicyEngine
        from repro.dcc.state import DccStateTables
        from repro.dnscore import wire
        from repro.dnscore.message import Message
        from repro.dnscore.name import Name
        from repro.fluid.bridge import FluidBridge
        from repro.netsim.link import Network
        from repro.netsim.sim import Event, Simulator
        from repro.server.authoritative import AuthoritativeServer
        from repro.server.cache import ResolverCache
        from repro.server.ratelimit import RateLimiter
        from repro.server.resolver import RecursiveResolver
        from repro.transport.engine import QueryEngine
        from repro.transport.udp import AsyncioClock, UdpFabric
        from repro.util.ordmap import OrderedMap
        from repro.util.tokenbucket import TokenBucket
        from repro.workloads.clients import StubClient

        method = self._patch_method
        # netsim
        self._patch(Simulator, "schedule_at",
                    self._wrap_schedule(Simulator.schedule_at, "netsim.sim.schedule_at", 2))
        method(Simulator, "run", "netsim.sim.run")
        method(Event, "cancel", "netsim.sim.cancel")
        method(Network, "send", "netsim.link.send")
        # dnscore
        method(Name, "__init__", "dnscore.name.init")
        method(Message, "wire_length", "dnscore.message.wire_length")
        self._patch_function(wire, "encode_message", "dnscore.wire.encode")
        self._patch_function(wire, "decode_message", "dnscore.wire.decode")
        # server
        method(ResolverCache, "get", "server.cache.get", on_result=_flag_none)
        method(ResolverCache, "put_rrset", "server.cache.put_rrset")
        method(ResolverCache, "put_negative", "server.cache.put_negative")
        method(RecursiveResolver, "receive", "server.resolver.receive")
        method(RecursiveResolver, "raw_send_query", "server.resolver.raw_send_query")
        method(RecursiveResolver, "deliver_answer", "server.resolver.deliver_answer")
        method(AuthoritativeServer, "receive", "server.authoritative.receive")
        method(RateLimiter, "allow", "server.ratelimit.allow", on_result=_flag_falsy)
        # dcc
        method(MopiFq, "enqueue", "dcc.mopifq.enqueue", on_result=_flag_rejected)
        method(MopiFq, "dequeue", "dcc.mopifq.dequeue", on_result=self._note_dequeue)
        method(MopiFq, "next_ready_time", "dcc.mopifq.next_ready_time")
        for attr in ("record_request", "record_query", "record_answer", "record_anomalous_request"):
            method(AnomalyMonitor, attr, f"dcc.monitor.{attr}")
        method(AnomalyMonitor, "evaluate", "dcc.monitor.evaluate", on_result=_flag_convictions)
        method(PolicyEngine, "check", "dcc.policing.check", on_result=_flag_falsy)
        self._patch_function(signaling, "attach_signal", "dcc.signaling.attach_signal")
        self._patch_function(signaling, "extract_signals", "dcc.signaling.extract_signals")
        for attr in ("open_request", "get_request", "close_request"):
            method(DccStateTables, attr, f"dcc.state.{attr}")
        # util
        for attr in ("__len__", "__bool__", "__contains__", "__getitem__", "get",
                     "__setitem__", "__delitem__", "pop", "min_item", "pop_min"):
            method(OrderedMap, attr, f"util.ordmap.{attr.strip('_')}")
        for attr in ("tokens", "available", "try_consume", "next_available"):
            method(TokenBucket, attr, f"util.tokenbucket.{attr}")
        # transport
        method(UdpFabric, "send", "transport.udp.send")
        method(QueryEngine, "lookup", "transport.engine.lookup", starts_query=True)
        method(QueryEngine, "deliver", "transport.engine.deliver")
        self._patch(AsyncioClock, "schedule",
                    self._wrap_schedule(AsyncioClock.schedule, "transport.udp.schedule", 2))
        self._patch(AsyncioClock, "call_soon",
                    self._wrap_schedule(AsyncioClock.call_soon, "transport.udp.call_soon", 1))
        # fluid
        method(FluidBridge, "advance", "fluid.bridge.advance")
        # workloads
        method(StubClient, "send", "workloads.clients.send", starts_query=True)
        method(StubClient, "receive", "workloads.clients.receive")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        del self._patches[:]

    def _note_dequeue(self, agg: list, result: Any, args: tuple) -> None:
        if result is None:
            agg[FLAGGED] += 1
        else:
            self.mopifq_waits.append(args[1] - result.arr_time)  # dequeue(self, now)

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def total(self, prefix: str, slot: int) -> float:
        """Sum of one aggregate slot over the span names under ``prefix``."""
        return sum(agg[slot] for name, agg in self.agg.items() if name.startswith(prefix))

    def layer_calls(self) -> Dict[str, int]:
        """Calls per layer (first component of the span name)."""
        calls: Dict[str, int] = {}
        for name, agg in self.agg.items():
            layer = name.split(".", 1)[0]
            calls[layer] = calls.get(layer, 0) + agg[CALLS]
        return calls

    def metrics(self, queries: int) -> Dict[str, float]:
        """The tracer's share of the per-layer metrics (names as in
        ``BENCHMARK.json``); the workload adds the program's own counters."""
        wall = max(self.ended - self.began, 1e-12)
        queries = max(queries, 1)
        total = self.total

        def ratio(flagged_of: str) -> float:
            calls = total(flagged_of, CALLS)
            return total(flagged_of, FLAGGED) / calls if calls else 0.0

        scheduled = total("netsim.sim.schedule_at", CALLS)
        resolver = ("server.resolver.", "server.resolution.", "server.health.", "server.overload.")
        waits = self.mopifq_waits
        attributed = sum(agg[SELF] for agg in self.agg.values())
        return {
            "netsim.sim.schedule_calls": scheduled,
            "netsim.sim.schedule_self_s": total("netsim.sim.schedule_at", SELF),
            "netsim.sim.dispatch_self_s": total("netsim.sim.run", SELF),
            "netsim.sim.cancelled_frac": total("netsim.sim.cancel", CALLS) / scheduled if scheduled else 0.0,
            "netsim.link.send_calls": total("netsim.link.send", CALLS),
            "netsim.link.send_self_s": total("netsim.link.send", SELF),
            "dnscore.name.constructs": total("dnscore.name.", CALLS),
            "dnscore.name.constructs_per_query": total("dnscore.name.", CALLS) / queries,
            "dnscore.name.self_s": total("dnscore.name.", SELF),
            "dnscore.message.wire_length_calls": total("dnscore.message.wire_length", CALLS),
            "dnscore.message.wire_length_self_s": total("dnscore.message.wire_length", SELF),
            "dnscore.wire.encode_calls": total("dnscore.wire.encode", CALLS),
            "dnscore.wire.encode_self_s": total("dnscore.wire.encode", SELF),
            "dnscore.wire.decode_calls": total("dnscore.wire.decode", CALLS),
            "dnscore.wire.decode_self_s": total("dnscore.wire.decode", SELF),
            "server.cache.get_calls": total("server.cache.get", CALLS),
            "server.cache.get_self_s": total("server.cache.get", SELF),
            "server.cache.put_calls": total("server.cache.put_", CALLS),
            "server.cache.put_self_s": total("server.cache.put_", SELF),
            "server.cache.hit_ratio": 1.0 - ratio("server.cache.get") if total("server.cache.get", CALLS) else 0.0,
            "server.resolver.self_s": sum(total(prefix, SELF) for prefix in resolver),
            "server.authoritative.self_s": total("server.authoritative.", SELF),
            "server.ratelimit.allow_calls": total("server.ratelimit.allow", CALLS),
            "server.ratelimit.drop_frac": ratio("server.ratelimit.allow"),
            "dcc.mopifq.enqueue_calls": total("dcc.mopifq.enqueue", CALLS),
            "dcc.mopifq.enqueue_self_s": total("dcc.mopifq.enqueue", SELF),
            "dcc.mopifq.dequeue_calls": total("dcc.mopifq.dequeue", CALLS),
            "dcc.mopifq.dequeue_self_s": total("dcc.mopifq.dequeue", SELF),
            "dcc.mopifq.dequeue_empty_frac": ratio("dcc.mopifq.dequeue"),
            "dcc.mopifq.reject_frac": ratio("dcc.mopifq.enqueue"),
            "dcc.mopifq.wait_p50_ms": statistics.median(waits) * 1e3 if waits else 0.0,
            "dcc.monitor.record_calls": total("dcc.monitor.record_", CALLS),
            "dcc.monitor.record_self_s": total("dcc.monitor.record_", SELF),
            "dcc.monitor.evaluate_self_s": total("dcc.monitor.evaluate", SELF),
            "dcc.monitor.convictions": total("dcc.monitor.evaluate", FLAGGED),
            "dcc.policing.check_calls": total("dcc.policing.check", CALLS),
            "dcc.policing.check_self_s": total("dcc.policing.check", SELF),
            "dcc.policing.policed_frac": ratio("dcc.policing.check"),
            "dcc.signaling.calls": total("dcc.signaling.", CALLS),
            "dcc.signaling.self_s": total("dcc.signaling.", SELF),
            "dcc.state.calls": total("dcc.state.", CALLS),
            "dcc.state.self_s": total("dcc.state.", SELF),
            "dcc.busy_share": total("dcc.", SELF) / wall,
            "util.ordmap.calls": total("util.ordmap.", CALLS),
            "util.ordmap.self_s": total("util.ordmap.", SELF),
            "util.tokenbucket.calls": total("util.tokenbucket.", CALLS),
            "util.tokenbucket.self_s": total("util.tokenbucket.", SELF),
            "transport.udp.send_self_s": total("transport.udp.send", SELF),
            "transport.engine.lookup_self_s": total("transport.engine.lookup", SELF),
            "transport.engine.deliver_self_s": total("transport.engine.deliver", SELF),
            "fluid.bridge.advance_self_s": total("fluid.bridge.advance", SELF),
            "workloads.clients.self_s": total("workloads.", SELF),
            "trace.unattributed_share": max(0.0, 1.0 - attributed / wall),
        }

    def dump(self) -> Dict[str, Any]:
        """Aggregates and kept span records, for ``--trace-out``."""
        return {
            "wall_s": self.ended - self.began,
            "queries_seen": self.queries_seen,
            "aggregates": {
                name: {"calls": agg[CALLS], "busy_s": agg[BUSY], "self_s": agg[SELF], "flagged": agg[FLAGGED]}
                for name, agg in sorted(self.agg.items()) if agg[CALLS]
            },
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "query"],
            "spans": [
                [sid, name, start - self.began, end - self.began, parent, qid]
                for sid, name, start, end, parent, qid in self.spans
            ],
        }
