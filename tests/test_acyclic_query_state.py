"""Per-query state dies by reference count: the invariant, not the speed.

Everything a client request creates on its way through the resolver (or
the forwarder) must be acyclic once it is done -- no back-reference
survives ``_finish``, cancel or fire (docs/ALGORITHMS.md, "Who references
whom on the per-query path").  With the cyclic collector switched off, a
whole scenario is run and a full collection afterwards must find nothing
to reclaim: every finished task, pending query, timer event and message
was already freed when its last reference went away.
"""

import gc

import pytest

from repro.dnscore.edns import ClientAttribution
from repro.dnscore.name import Name
from repro.dnscore.rdata import RCode, RRType
from repro.dnscore.zone import Zone
from repro.experiments.common import AttackScenario, ScenarioConfig
from repro.experiments.fig8_resilience import paper_monitor_config, paper_policy_templates
from repro.netsim.faults import NodeOutage, Partition
from repro.server import resolution
from repro.server.health import HealthConfig
from repro.server.resolver import ResolverConfig
from repro.workloads.schedule import ClientSpec, table2_clients
from repro.workloads.zonegen import DEAD_ADDRESS

from tests.conftest import RESOLVER_ADDR, TARGET_ANS_ADDR, build_topology

VIRTUAL_SECONDS = 1.0
SCALE = VIRTUAL_SECONDS / 60.0


def _ff_vanilla():
    scenario = AttackScenario(ScenarioConfig(
        seed=11, duration=VIRTUAL_SECONDS, channel_capacity=1000.0, use_dcc=False, ff_instances=20))
    scenario.add_clients(table2_clients("amplification", time_scale=SCALE))
    return scenario


def _nx_dcc():
    scenario = AttackScenario(ScenarioConfig(
        seed=11, duration=VIRTUAL_SECONDS, channel_capacity=1000.0, use_dcc=True,
        monitor=paper_monitor_config(time_scale=SCALE),
        policy_templates=paper_policy_templates(time_scale=SCALE)))
    scenario.add_clients(table2_clients("nxdomain", time_scale=SCALE))
    return scenario


def _forwarder_cast():
    """The Figure 9 topology (DCC-enabled forwarder in front of a
    DCC-enabled resolver, FF attacker behind the forwarder), one virtual
    second of it, with the forwarder cut off from its resolver for a
    while so that its own timers fire as well as get cancelled."""
    scenario = AttackScenario(ScenarioConfig(
        seed=11, duration=VIRTUAL_SECONDS, channel_capacity=1000.0, rr_channel_capacity=1000.0,
        use_dcc=True, dcc_on_forwarder=True, dcc_signaling=True, with_forwarder=True,
        forwarded_clients=["heavy", "light", "attacker"],
        monitor=paper_monitor_config(time_scale=SCALE),
        policy_templates=paper_policy_templates(time_scale=SCALE), ff_instances=20))
    scenario.add_clients([
        ClientSpec("heavy", 0.0, 1.0, 600.0, "WC"),
        ClientSpec("medium", 0.0, 1.0, 350.0, "WC"),
        ClientSpec("light", 0.3, 1.0, 150.0, "WC"),
        ClientSpec("attacker", 0.1, 1.0, 20.0, "FF", is_attacker=True),
    ])
    scenario.injector.add_partition(
        Partition(scenario.forwarder.address, scenario.resolvers[0].address, start=0.4, end=0.6))
    return scenario


def _crashed_mid_run(use_dcc):
    def build():
        scenario = _nx_dcc() if use_dcc else _ff_vanilla()
        # twice: abandon() runs on whatever trees are live at 0.35 s and 0.7 s
        scenario.injector.add_node_outage(
            NodeOutage(scenario.resolvers[0].address, at=0.35, duration=0.1, flaps=2, period=0.35))
        return scenario
    return build


@pytest.mark.parametrize("build", [
    pytest.param(_ff_vanilla, id="ff-vanilla"),
    pytest.param(_nx_dcc, id="nx-dcc"),
    pytest.param(_forwarder_cast, id="forwarder-cast"),
    pytest.param(_crashed_mid_run(False), id="ff-resolver-crashed"),
    # the shim dies with its host: its MOPI-FQ, queries queued, is dropped
    pytest.param(_crashed_mid_run(True), id="nx-dcc-resolver-crashed"),
])
def test_a_run_leaves_nothing_for_the_cyclic_collector(build):
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        scenario = build()
        result = scenario.run(grace=2.5)
        gc.collect()  # the scenario is still held: only garbage counts
        garbage = sorted({type(found).__name__ for found in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert garbage == []
    records = [record for client in result.clients.values() for record in client.records]
    assert len(records) > 500
    assert all(record.completed_at is not None or record.timed_out for record in records)
    assert any(record.success for record in records)
    assert scenario.resolvers[0].stats.queries_sent > 0
    if scenario.injector.stats.crashes:
        assert any(record.timed_out for record in records)  # abandoned: no SERVFAIL went out
    if scenario.forwarder is not None:
        assert scenario.forwarder.stats.upstream_timeouts > 0
        assert len(scenario.forwarder._pending) == 0


# ----------------------------------------------------------------------
# the tree state: budget, loop guard and deadline outlive the root task
# ----------------------------------------------------------------------
def _background_subtask_world(monkeypatch, budget):
    """``www.bg.attacker-com.`` sits behind a glue-less delegation with two
    nameservers: ``ns1.target-domain.`` resolves at once, so the root
    task resumes and finishes; ``ns.dead-zone.``'s own zone is served by
    a dead address, so its subtask keeps retrying in the background."""
    monkeypatch.setattr(resolution, "MAX_QUERIES_PER_REQUEST", budget)
    topo = build_topology()
    attacker_zone = topo.attacker_ans.zone_for(Name.from_text("attacker-com."))
    attacker_zone.add_ns("bg", "ns1.target-domain.")
    attacker_zone.add_ns("bg", "ns.dead-zone.")
    root_zone = topo.root.zone_for(Name.from_text("."))
    root_zone.add_ns("dead-zone.", "a.dead-zone.")
    root_zone.add_a("a.dead-zone.", DEAD_ADDRESS)
    served = Zone("bg.attacker-com.", default_ttl=60)
    served.add_soa()
    served.add_ns("@", "ns1.target-domain.")
    served.add_a("www", "192.0.2.77")
    topo.target_ans.add_zone(served)

    tasks, outcomes = [], []
    spied = resolution.ResolutionTask.__init__

    def spy(self, *args, **kwargs):
        spied(self, *args, **kwargs)
        tasks.append(self)
        if self.depth == 0:
            done = self.on_done
            self.on_done = lambda outcome: (outcomes.append(outcome), done(outcome))

    return topo, tasks, outcomes, spy


def test_background_subtasks_charge_the_shared_budget_after_the_root_finished(monkeypatch):
    topo, tasks, outcomes, spy = _background_subtask_world(monkeypatch, budget=400)
    monkeypatch.setattr(resolution.ResolutionTask, "__init__", spy)
    query = topo.client.query(RESOLVER_ADDR, "www.bg.attacker-com.")
    topo.sim.run(until=0.1)
    root, tree = tasks[0], tasks[0]._tree
    assert topo.client.response_to(query).rcode == RCode.NOERROR
    assert root.finished and root.on_done is None
    running = [task for task in tasks if not task.finished]
    assert [str(task.qname) for task in running] == ["ns.dead-zone."]
    assert all(task._tree is tree for task in tasks)  # one state object per tree
    # the outcome carries the tree total as of the root's finish
    assert [outcome.queries_sent for outcome in outcomes] == [tree.queries_sent]
    at_finish = tree.queries_sent
    assert at_finish == topo.resolver.stats.queries_sent
    topo.sim.run(until=5.0)
    # the retransmission to the dead server was charged to the same budget
    assert tree.queries_sent > at_finish
    assert tree.queries_sent == topo.resolver.stats.queries_sent
    assert all(task.finished and task.on_done is None and task._pending is None for task in tasks)
    assert not tree.in_progress


def test_the_budget_still_trips_for_a_subtask_that_outlives_its_root(monkeypatch):
    unbounded, *_ = _background_subtask_world(monkeypatch, budget=400)
    unbounded.client.query(RESOLVER_ADDR, "www.bg.attacker-com.")
    unbounded.sim.run(until=5.0)
    needed = unbounded.resolver.stats.queries_sent

    topo, tasks, _outcomes, spy = _background_subtask_world(monkeypatch, budget=needed - 1)
    monkeypatch.setattr(resolution.ResolutionTask, "__init__", spy)
    query = topo.client.query(RESOLVER_ADDR, "www.bg.attacker-com.")
    topo.sim.run(until=5.0)
    assert topo.client.response_to(query).rcode == RCode.NOERROR  # the root was done long before
    assert tasks[0]._tree.queries_sent == topo.resolver.stats.queries_sent == needed - 1
    assert all(task.finished for task in tasks)


def test_finish_twice_reports_once_and_releases_the_callback():
    topo = build_topology()
    outcomes = []
    task = resolution.ResolutionTask(
        topo.resolver, Name.from_text("www.target-domain."), RRType.A,
        ClientAttribution("10.1.0.1", 0, 1), on_done=outcomes.append)
    task.start()
    topo.sim.run(until=1.0)
    assert [outcome.rcode for outcome in outcomes] == [RCode.NOERROR]
    assert outcomes[0].queries_sent == task._tree.queries_sent == 2  # root referral, then the answer
    assert task.finished and task.on_done is None
    task._finish(resolution.ResolutionOutcome(rcode=RCode.SERVFAIL))
    task.abandon()
    assert len(outcomes) == 1


def test_every_query_of_a_tree_carries_the_one_encoded_attribution():
    topo = build_topology()
    seen = []
    topo.resolver.egress_tap = lambda query, server: seen.append(list(query.edns_options))
    attribution = ClientAttribution("10.1.0.1", 0, 7)
    task = resolution.ResolutionTask(
        topo.resolver, Name.from_text("q-0.attacker-com."), RRType.A, attribution, on_done=lambda _: None)
    task.start()
    topo.sim.run(until=5.0)
    assert len(seen) > 10
    option = task._tree.attribution_option
    assert option == attribution.encode()
    assert all(len(options) == 1 and options[0] is option for options in seen)
    assert topo.target_ans.stats.queries_received > 0
    # ...and it was stripped, not edited, before the query left the host
    assert TARGET_ANS_ADDR in topo.resolver.stats.queries_per_server


def test_timers_are_unlinked_when_cancelled_or_fired():
    topo = build_topology(ResolverConfig(max_retries=1, health=HealthConfig(base_timeout=0.2)))
    pendings = []
    spied = resolution._PendingQuery.__init__

    def spy(self, *args, **kwargs):
        spied(self, *args, **kwargs)
        pendings.append(self)

    resolution._PendingQuery.__init__ = spy
    try:
        topo.client.query(RESOLVER_ADDR, "www.target-domain.")  # answered: timers cancelled
        topo.client.query(RESOLVER_ADDR, "q-1.attacker-com.")  # dead servers: timers fire, retry, give up
        topo.sim.run(until=10.0)
    finally:
        resolution._PendingQuery.__init__ = spied
    assert len(pendings) > 10
    assert topo.resolver.stats.query_timeouts > 0 and topo.resolver.stats.query_retries > 0
    assert all(pending.timer is None for pending in pendings)


def test_forwarder_timers_are_unlinked_when_cancelled_fired_or_lost_in_a_crash(monkeypatch):
    from repro.server import forwarder as forwarder_module

    monkeypatch.setattr(forwarder_module, "MAX_ATTEMPTS", 2)
    topo = build_topology()
    forwarder = forwarder_module.Forwarder("10.0.2.1", forwarder_module.ForwarderConfig(
        upstreams=["10.9.9.9", RESOLVER_ADDR], query_timeout=0.3))  # the first is dead
    topo.net.attach(forwarder)
    pendings = []
    spied = forwarder_module._PendingForward.__init__

    def spy(self, *args, **kwargs):
        spied(self, *args, **kwargs)
        pendings.append(self)

    forwarder_module._PendingForward.__init__ = spy
    try:
        topo.client.query(forwarder.address, "a.wc.target-domain.")  # times out, fails over, answered
        topo.sim.run(until=2.0)
        topo.client.query(forwarder.address, "b.wc.target-domain.")
        topo.sim.run(until=2.1)
        assert len(forwarder._pending) == 1 and pendings[-1].timer is not None
        topo.sim.run(until=4.0)  # answered: its timer is cancelled
    finally:
        forwarder_module._PendingForward.__init__ = spied
    assert forwarder.stats.upstream_timeouts == 2 and forwarder.stats.responses_sent == 2
    assert len(pendings) == 2 and all(pending.timer is None for pending in pendings)
