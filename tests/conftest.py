"""Shared fixtures: small DNS topologies for server-level tests."""

import os
from dataclasses import dataclass
from typing import Iterator, List, Optional

import pytest

from repro import sanitize
from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import RRType
from repro.netsim.link import Network
from repro.netsim.node import Node
from repro.netsim.sim import Simulator
from repro.server.authoritative import AuthoritativeServer
from repro.server.resolver import RecursiveResolver, ResolverConfig
from repro.workloads.zonegen import (
    add_cq_instances,
    build_ff_attacker_zone,
    build_root_zone,
    build_target_zone,
)

# The fluid/scale tests need numpy (the only non-stdlib runtime dep);
# a numpy-less environment still runs the rest of the tier-1 suite.
try:
    import numpy  # noqa: F401
except ImportError:
    collect_ignore_glob = ["test_fluid*", "test_scale*"]

ROOT_ADDR = "10.0.0.1"
TARGET_ANS_ADDR = "10.0.0.2"
ATTACKER_ANS_ADDR = "10.0.0.3"
RESOLVER_ADDR = "10.0.1.1"


class Collector(Node):
    """A test client that records responses and can send arbitrary
    messages."""

    def __init__(self, address: str = "10.1.0.1") -> None:
        super().__init__(address)
        self.responses: List[Message] = []

    def receive(self, message: Message, src: str) -> None:
        self.responses.append(message)

    def query(self, dst: str, name: str, rrtype: RRType = RRType.A) -> Message:
        msg = Message.query(Name.from_text(name), rrtype)
        self.send(dst, msg)
        return msg

    def response_to(self, query: Message) -> Optional[Message]:
        for response in self.responses:
            if response.id == query.id:
                return response
        return None


@dataclass
class Topology:
    sim: Simulator
    net: Network
    root: AuthoritativeServer
    target_ans: AuthoritativeServer
    attacker_ans: AuthoritativeServer
    resolver: RecursiveResolver
    client: Collector

    def resolve(self, name: str, rrtype: RRType = RRType.A, wait: float = 5.0) -> Optional[Message]:
        """Send one request through the resolver and run to completion."""
        query = self.client.query(RESOLVER_ADDR, name, rrtype)
        self.sim.run(until=self.sim.now + wait)
        return self.client.response_to(query)


def build_topology(
    resolver_config: Optional[ResolverConfig] = None,
    seed: int = 1,
    answer_ttl: int = 60,
    negative_ttl: int = 30,
    ff_fanout: int = 3,
    ff_instances: int = 4,
    cq_instances: int = 2,
    cq_chain: int = 4,
    cq_labels: int = 5,
) -> Topology:
    sim = Simulator(seed=seed)
    net = Network(sim)
    root_zone = build_root_zone({
        "target-domain.": ("ns1.target-domain.", TARGET_ANS_ADDR),
        "attacker-com.": ("ns1.attacker-com.", ATTACKER_ANS_ADDR),
    })
    target_zone = build_target_zone(
        "target-domain.", "ns1", TARGET_ANS_ADDR,
        answer_ttl=answer_ttl, negative_ttl=negative_ttl, ff_ttl=answer_ttl,
    )
    add_cq_instances(target_zone, cq_instances, chain_len=cq_chain, labels=cq_labels)
    attacker_zone = build_ff_attacker_zone(
        "attacker-com.", "target-domain.", "ns1", ATTACKER_ANS_ADDR,
        instances=ff_instances, fanout=ff_fanout,
    )
    root = AuthoritativeServer(ROOT_ADDR, zones=[root_zone])
    target_ans = AuthoritativeServer(TARGET_ANS_ADDR, zones=[target_zone])
    attacker_ans = AuthoritativeServer(ATTACKER_ANS_ADDR, zones=[attacker_zone])
    resolver = RecursiveResolver(RESOLVER_ADDR, resolver_config or ResolverConfig())
    resolver.add_root_hint("a.root-servers.net.", ROOT_ADDR)
    client = Collector()
    for node in (root, target_ans, attacker_ans, resolver, client):
        net.attach(node)
    return Topology(
        sim=sim, net=net, root=root, target_ans=target_ans,
        attacker_ans=attacker_ans, resolver=resolver, client=client,
    )


@pytest.fixture
def topology():
    return build_topology()


@pytest.fixture(scope="session", autouse=True)
def _simsan_from_env() -> Iterator[None]:
    """Honour ``REPRO_SIMSAN=1`` for the whole test session.

    The flag is read again here (not just at import) so a test runner
    that mutates ``os.environ`` in its own conftest still gets the
    sanitizer, and so the suite reports the mode once per session.
    """
    if sanitize._truthy(os.environ.get("REPRO_SIMSAN", "")):
        sanitize.enable()
    yield


@pytest.fixture
def simsan() -> Iterator[None]:
    """Force the SimSan runtime sanitizer on for one test, then restore."""
    previous = sanitize.ENABLED
    sanitize.enable()
    try:
        yield
    finally:
        sanitize.ENABLED = previous
