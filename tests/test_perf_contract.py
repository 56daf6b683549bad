"""The contract between ``src/repro`` and the perf ledger's tracer.

``perf/trace.py::Tracer.install`` patches a fixed list of methods by name
and relies on them being plain functions that are *called* on the message
path.  Breaking that (a method turned into a property, a class that skips
``__init__``, a deleted module) leaves ``perf/run.py --trace 0`` green and
makes ``--trace 1`` exit 1 with no JSON line -- which only the benchmark
driver would notice.  This file notices in tier-1.  It reads ``perf/`` and
edits nothing there.
"""

import inspect
import os
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perf.trace import CALLS, Tracer  # noqa: E402

from repro.dcc.mopifq import MopiFq  # noqa: E402
from repro.dnscore import wire  # noqa: E402
from repro.dnscore.message import Message  # noqa: E402
from repro.dnscore.name import Name  # noqa: E402
from repro.experiments.common import AttackScenario, ScenarioConfig  # noqa: E402
from repro.netsim.link import Network  # noqa: E402
from repro.netsim.sim import Event, Simulator  # noqa: E402
from repro.netsim.trace import MessageTrace  # noqa: E402
from repro.dnscore.rdata import RRType  # noqa: E402
from repro.transport import chaosproxy, udp  # noqa: E402
from repro.transport.udp import AsyncioClock  # noqa: E402
from repro.workloads.schedule import table2_clients  # noqa: E402
from tools.perf_fence import _faults  # noqa: E402
from tools.perf_pairs import quartiles, verdict  # noqa: E402

VIRTUAL_SECONDS = 1.0

#: spans every packet-simulator run must enter
PACKET_SPANS = (
    "netsim.sim.schedule_at",
    "netsim.sim.run",
    "netsim.sim.cancel",
    "netsim.link.send",
    "dnscore.name.init",
    "dnscore.message.wire_length",
    "server.cache.get",
    "server.cache.put_rrset",
    "server.resolver.receive",
    "server.resolver.raw_send_query",
    "server.resolver.deliver_answer",
    "server.authoritative.receive",
    "server.ratelimit.allow",
    "workloads.clients.send",
    "workloads.clients.receive",
)
#: and, with the shim in the path, these too
DCC_SPANS = (
    "dcc.mopifq.enqueue",
    "dcc.mopifq.dequeue",
    "dcc.mopifq.next_ready_time",
    "dcc.monitor.record_request",
    "dcc.monitor.record_query",
    "dcc.monitor.record_answer",
    "dcc.policing.check",
    "dcc.signaling.extract_signals",
    "dcc.state.open_request",
    "dcc.state.get_request",
    "dcc.state.close_request",
    "util.tokenbucket.try_consume",
)


def _run(use_dcc: bool):
    """(events processed, delivered-message digest) of one short FF run."""
    scale = VIRTUAL_SECONDS / 60.0
    scenario = AttackScenario(ScenarioConfig(
        seed=11, duration=VIRTUAL_SECONDS, channel_capacity=1000.0,
        use_dcc=use_dcc, ff_instances=20,
    ))
    trace = MessageTrace(scenario.net)
    scenario.add_clients(table2_clients("amplification", time_scale=scale))
    result = scenario.run(grace=2.5)
    return result.events_processed, trace.sha256(result.events_processed).hexdigest()


@pytest.mark.parametrize("use_dcc", [False, True], ids=["vanilla", "dcc"])
def test_a_traced_run_is_the_untraced_run(use_dcc):
    untraced = _run(use_dcc)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run(use_dcc)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert _run(use_dcc) == untraced  # uninstall() put everything back
    expected = PACKET_SPANS + (DCC_SPANS if use_dcc else ())
    never_entered = [name for name in expected if not tracer.agg.get(name, [0])[CALLS]]
    assert not never_entered
    if not use_dcc:
        assert not any(agg[CALLS] for name, agg in tracer.agg.items() if name.startswith("dcc."))


def test_every_patch_point_is_a_plain_function():
    """``install`` wraps ``getattr(owner, attr)`` and calls it with the
    original positional arguments: a property, a descriptor or a missing
    attribute breaks the traced pass only."""
    tracer = Tracer()
    tracer.install()
    try:
        patched = [(owner, attr) for owner, attr, _original in tracer._patches]
    finally:
        tracer.uninstall()
    assert len(patched) > 40
    for owner, attr in patched:  # inherited ones (StubClient.send) resolve up the MRO
        found = inspect.getattr_static(owner, attr)
        assert isinstance(found, types.FunctionType), f"{getattr(owner, '__name__', owner)}.{attr}"
    for owner, attr in ((Name, "__init__"), (Message, "wire_length"), (Event, "cancel"),
                        (Simulator, "schedule_at"), (Simulator, "run"), (Network, "send")):
        assert isinstance(vars(owner)[attr], types.FunctionType), f"{owner.__name__}.{attr}"


def test_positional_signatures_the_tracer_indexes_into():
    def positional(function):
        return [p.name for p in inspect.signature(function).parameters.values()]

    assert positional(Simulator.schedule_at) == ["self", "time", "fn", "args"]
    assert positional(AsyncioClock.schedule)[:3] == ["self", "delay", "fn"]
    assert positional(AsyncioClock.call_soon)[:2] == ["self", "fn"]
    assert positional(MopiFq.dequeue) == ["self", "now"]


def test_the_wire_codec_is_two_plain_functions_looked_up_at_call_time():
    """``_patch_function`` swaps ``encode_message``/``decode_message`` in
    every ``repro`` module's globals.  A codec that became a callable
    object, grew a parameter, or was bound into a default argument or a
    class attribute at import would run unpatched: the live workloads'
    ``dnscore.wire.*`` rows would read zero and nothing else would say."""
    def positional(function):
        return [p.name for p in inspect.signature(function).parameters.values()]

    assert isinstance(wire.encode_message, types.FunctionType) and positional(wire.encode_message) == ["message"]
    assert isinstance(wire.decode_message, types.FunctionType) and positional(wire.decode_message) == ["data"]
    codec = (wire.encode_message, wire.decode_message)

    def functions(module):
        holders = [module] + [obj for obj in vars(module).values()
                              if inspect.isclass(obj) and obj.__module__ == module.__name__]
        return holders, [value for holder in holders for value in vars(holder).values()
                         if isinstance(value, types.FunctionType)]

    def sites(module, name):  # functions that look ``name`` up when they run
        return sorted(f.__qualname__ for f in functions(module)[1] if name in f.__code__.co_names)

    assert sites(udp, "encode_message") == ["UdpFabric._tcp_exchange", "UdpFabric._tcp_serve", "UdpFabric.send"]
    assert sites(udp, "decode_message") == ["UdpFabric._on_datagram", "UdpFabric._tcp_exchange", "UdpFabric._tcp_serve"]
    assert sites(chaosproxy, "decode_message") == ["ChaosProxy._key"]
    for module in (udp, chaosproxy):
        holders, found = functions(module)
        for function in found:
            bound = (function.__defaults__ or ()) + tuple((function.__kwdefaults__ or {}).values())
            assert not any(value in codec for value in bound), function.__qualname__
        for holder in holders[1:]:
            assert not any(value in codec for value in vars(holder).values()), holder.__name__
        assert all(vars(module).get(function.__name__, function) is function for function in codec)

    # and by behaviour: under the tracer, what the fabric and the proxy
    # do per datagram lands in the two spans
    query = Message.query(Name.from_text("a.example."), RRType.A)
    datagram = wire.encode_message(query)
    clock = AsyncioClock(seed=1)
    fabric = udp.UdpFabric(clock)
    tracer = Tracer()
    tracer.install()
    try:
        fabric.send("10.9.9.8", "10.9.9.9", query)  # encoded, then unroutable: no socket is bound
        fabric._on_datagram("10.9.9.9", datagram, ("127.0.0.1", 9))  # decoded, then unroutable
        key = chaosproxy.ChaosProxy(fabric, clock, "a", "b", chaosproxy.ChaosSpec(), seed=1)._key(datagram)
    finally:
        tracer.uninstall()
    assert (fabric.stats.decode_errors, fabric.stats.messages_unroutable, key) == (0, 2, "a.example./1")
    assert tracer.agg["dnscore.wire.encode"][CALLS] == 1
    assert tracer.agg["dnscore.wire.decode"][CALLS] == 2
    assert udp.encode_message is wire.encode_message  # uninstall() put them back


def test_schedule_and_call_soon_go_through_schedule_at():
    tracer = Tracer()
    tracer.install()
    try:
        sim = Simulator(seed=1)
        fired = []
        sim.schedule(0.5, fired.append, "later")
        sim.call_soon(fired.append, "soon")
        sim.schedule_at(0.25, fired.append, "at")
        sim.run()
    finally:
        tracer.uninstall()
    assert fired == ["soon", "at", "later"]
    assert tracer.agg["netsim.sim.schedule_at"][CALLS] == 3
    assert sim.now == 0.5 and sim.events_processed == 3


class TestPerfFenceVerdicts:
    """``tools/perf_fence.py`` decides from (exit code, last line, printed
    checks); the twelve real invocations run in CI's ``perf-smoke`` job."""

    @staticmethod
    def _run(exit_code=0, correct=True, failed=0, digest="a" * 64, checks=(), result=True):
        last_line = {"correct": correct, "attempted": 100, "failed": failed, "metrics": {}}
        return {"exit": exit_code, "result": last_line if result else None, "digest": digest,
                "checks": list(checks), "stderr": ""}

    def test_a_clean_run_has_no_faults(self):
        assert _faults(self._run(), None, full_size=True) == []
        assert _faults(self._run(), "a" * 64, full_size=True) == []
        assert _faults(self._run(digest=None), None, full_size=True) == []  # live: no digest

    def test_each_rejection_reason_is_a_fault(self):
        assert _faults(self._run(exit_code=1, result=False), None, True) == ["exit 1", "no JSON last line"]
        assert _faults(self._run(exit_code="timeout", result=False), None, True)[0] == "exit timeout"
        assert _faults(self._run(exit_code=1, correct=False), None, True) == ["exit 1", "correct: false"]
        assert _faults(self._run(failed=3), None, True) == ["failed 3"]
        assert len(_faults(self._run(), "b" * 64, True)) == 1
        assert len(_faults(self._run(digest=None), "b" * 64, True)) == 1

    def test_shape_checks_are_excused_only_below_the_benchmark_size(self):
        shape = self._run(exit_code=1, correct=False, checks=["pass 1: shape: attacker ends suspicious"])
        assert _faults(shape, None, full_size=False) == []
        assert _faults(shape, None, full_size=True) == ["exit 1", "correct: false"]
        mixed = self._run(exit_code=1, correct=False,
                          checks=["pass 1: shape: x", "traced digest abc != untraced def"])
        assert _faults(mixed, None, full_size=False) == ["exit 1", "correct: false"]
        stranded = self._run(exit_code=1, correct=False, failed=2, checks=["pass 1: shape: x"])
        assert _faults(stranded, None, full_size=False) == ["failed 2"]


class TestPerfPairsVerdicts:
    """``tools/perf_pairs.py`` judges a metric by the claim rule (at least
    nine tenths of all pairs won, ties for neither side, **and** medians
    further apart than the parent's quartiles); CI's ``perf-smoke`` runs
    one real pair."""

    PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_quartiles_stay_inside_the_data(self):
        assert quartiles([5.0]) == (5.0, 5.0, 5.0)
        assert quartiles([1.0, 2.0, 3.0]) == (1.5, 2.0, 2.5)
        q1, median, q3 = quartiles(self.PARENT)
        assert min(self.PARENT) <= q1 <= median <= q3 <= max(self.PARENT)

    def test_a_clear_gain_in_either_direction_of_better(self):
        higher = verdict(self.PARENT, [value * 1.1 for value in self.PARENT], "higher")
        assert (higher["verdict"], higher["won"], higher["lost"], higher["pairs"]) == ("gain", 10, 0, 10)
        assert higher["ratio"] == pytest.approx(1.1) and higher["gap"] > higher["parent_iqr"] > 0
        lower = verdict(self.PARENT, [value * 0.9 for value in self.PARENT], "lower")
        assert (lower["verdict"], lower["won"]) == ("gain", 10)
        assert lower["gap"] == pytest.approx(10.0, abs=0.1)  # positive: the change is the better side
        assert verdict(self.PARENT, [value * 0.9 for value in self.PARENT], "higher")["verdict"] == "worse"
        assert verdict(self.PARENT, [value * 1.1 for value in self.PARENT], "lower")["verdict"] == "worse"

    def test_nine_of_ten_is_enough_eight_is_not(self):
        change = [value + 5.0 for value in self.PARENT]
        change[3] = self.PARENT[3] - 1.0
        assert verdict(self.PARENT, change, "higher")["verdict"] == "gain"
        change[4] = self.PARENT[4] - 1.0
        outcome = verdict(self.PARENT, change, "higher")
        assert (outcome["verdict"], outcome["won"], outcome["lost"]) == ("unresolved", 8, 2)

    def test_ties_count_for_neither_side(self):
        change = [value + 5.0 for value in self.PARENT]
        change[0], change[1] = self.PARENT[0], self.PARENT[1]
        outcome = verdict(self.PARENT, change, "higher")
        assert (outcome["verdict"], outcome["won"], outcome["lost"]) == ("unresolved", 8, 0)
        same = verdict([0.405948] * 10, [0.405948] * 10, "higher")
        assert (same["verdict"], same["won"], same["lost"], same["gap"]) == ("same", 0, 0, 0.0)

    def test_a_gap_inside_the_parents_own_spread_is_not_a_gain(self):
        noisy = [90.0, 110.0, 95.0, 105.0, 92.0, 108.0, 97.0, 103.0, 99.0, 101.0]
        change = [value + 1.0 for value in noisy]  # wins every pair, by less than the parent's IQR
        outcome = verdict(noisy, change, "higher")
        assert outcome["won"] == 10 and outcome["gap"] < outcome["parent_iqr"]
        assert outcome["verdict"] == "unresolved"
