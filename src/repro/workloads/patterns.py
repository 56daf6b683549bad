"""Query-pattern generators (paper Section 2.2.1, P1-P4)."""

from __future__ import annotations

import random
from typing import Optional

from repro.dnscore.message import Question
from repro.dnscore.name import Name, NameLike, as_name
from repro.dnscore.rdata import RRType


class QueryPattern:
    """Produces the next question a client should ask."""

    #: short tag used in reports ("WC", "NX", "CQ", "FF")
    tag = "??"

    def next_question(self, rng: random.Random) -> Question:
        raise NotImplementedError


def _random_label(rng: random.Random, length: int = 12) -> str:
    """``length`` characters drawn as ``rng.choice`` over the alphabet draws each
    (six bits, redrawn while >= 36), minus its frames: same strings, same stream state."""
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    getrandbits = rng.getrandbits
    label = ""
    while len(label) < length:
        index = getrandbits(6)
        if index < 36:
            label += alphabet[index]
    return label


class WildcardPattern(QueryPattern):
    """P1 (WC): pseudo-random names under a wildcard-covered subtree.

    Every query bypasses the cache (the name is fresh) yet gets a
    NOERROR answer synthesised from ``*.<subtree>`` -- indistinguishable
    from legitimate traffic, which is why the paper calls the WC
    scenario the worst case for detection (Section 5.1, Scenario 1).
    """

    tag = "WC"

    def __init__(
        self,
        zone_origin: NameLike,
        subtree: str = "wc",
        rrtype: RRType = RRType.A,
        pool_size: Optional[int] = None,
    ) -> None:
        self.base = as_name(zone_origin) if subtree in ("", "@") else as_name(zone_origin).child(subtree)
        self.rrtype = rrtype
        #: with a pool, names are reused (mostly cache hits) -- the
        #: paper's measurements bound unique names to the probing QPS to
        #: isolate ingress RL from egress effects (Appendix A.1)
        self.pool_size = pool_size
        self._pool: list = []

    def next_question(self, rng: random.Random) -> Question:
        if self.pool_size is not None:
            if len(self._pool) < self.pool_size:
                self._pool.append(_random_label(rng))
                label = self._pool[-1]
            else:
                label = rng.choice(self._pool)
            return Question(self.base.child(label), self.rrtype)
        return Question(self.base.child(_random_label(rng)), self.rrtype)


class NxdomainPattern(QueryPattern):
    """P2 (NX): pseudo-random names with no covering wildcard.

    The classic pseudo-random-subdomain / Water Torture pattern [8]:
    cache-bypassing and NXDOMAIN-eliciting, so resolvers that track the
    NXDOMAIN ratio (as DCC's monitor does) can spot it.
    """

    tag = "NX"

    def __init__(
        self,
        zone_origin: NameLike,
        subtree: str = "nx",
        rrtype: RRType = RRType.A,
        pool_size: Optional[int] = None,
    ) -> None:
        self.base = as_name(zone_origin) if subtree in ("", "@") else as_name(zone_origin).child(subtree)
        self.rrtype = rrtype
        self.pool_size = pool_size
        self._pool: list = []

    def next_question(self, rng: random.Random) -> Question:
        if self.pool_size is not None:
            if len(self._pool) < self.pool_size:
                self._pool.append(_random_label(rng))
                label = self._pool[-1]
            else:
                label = rng.choice(self._pool)
            return Question(self.base.child(label), self.rrtype)
        return Question(self.base.child(_random_label(rng)), self.rrtype)


class CnameChainPattern(QueryPattern):
    """P3 (CQ): predefined heads of CNAME chains (CNAME x QMIN).

    Instance ``i`` is the chain head installed by
    :func:`repro.workloads.zonegen.add_cq_instances`.  A resolver doing
    QNAME minimisation spends ~``labels`` queries per link, so the
    message amplification factor approaches ``chain_len * labels``.
    """

    tag = "CQ"

    def __init__(
        self,
        zone_origin: NameLike,
        instances: int,
        labels: int = 15,
        rrtype: RRType = RRType.A,
        cycle: bool = True,
    ) -> None:
        if instances <= 0:
            raise ValueError("need at least one CQ instance")
        self.origin = as_name(zone_origin)
        self.instances = instances
        self.labels = labels
        self.rrtype = rrtype
        self.cycle = cycle
        self._next_instance = 0

    def head_name(self, instance: int) -> Name:
        labels = tuple(str(self.labels - k) for k in range(self.labels)) + (f"r1-{instance}",)
        return Name(labels).concat(self.origin)

    def next_question(self, rng: random.Random) -> Question:
        if self.cycle:
            instance = self._next_instance % self.instances
            self._next_instance += 1
        else:
            instance = rng.randrange(self.instances)
        return Question(self.head_name(instance), self.rrtype)


class FanoutPattern(QueryPattern):
    """P4 (FF): predefined names owning nested NS fan-outs.

    Instance ``i`` is ``q-{i}.<attacker zone>``; resolving it forces
    fanout^2 address lookups against the *target* zone's server
    (Figure 12b), for a message amplification factor of ~fanout^2
    (~50 with the paper's BIND setup).
    """

    tag = "FF"

    def __init__(
        self,
        attacker_origin: NameLike,
        instances: int,
        rrtype: RRType = RRType.A,
        cycle: bool = True,
    ) -> None:
        if instances <= 0:
            raise ValueError("need at least one FF instance")
        self.origin = as_name(attacker_origin)
        self.instances = instances
        self.rrtype = rrtype
        self.cycle = cycle
        self._next_instance = 0

    def head_name(self, instance: int) -> Name:
        return self.origin.child(f"q-{instance}")

    def next_question(self, rng: random.Random) -> Question:
        if self.cycle:
            instance = self._next_instance % self.instances
            self._next_instance += 1
        else:
            instance = rng.randrange(self.instances)
        return Question(self.head_name(instance), self.rrtype)


class FixedPattern(QueryPattern):
    """Always the same question -- cache-friendly control traffic."""

    tag = "FX"

    def __init__(self, name: NameLike, rrtype: RRType = RRType.A) -> None:
        self.question = Question(as_name(name), rrtype)

    def next_question(self, rng: random.Random) -> Question:
        return self.question
