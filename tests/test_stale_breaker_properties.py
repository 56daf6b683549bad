"""Unit-level property tests: serve-stale bound, breaker legality.

Seeded-PRNG random walks over the component APIs (no simulator):
whatever operation sequence is thrown at them,

- ``ResolverCache`` never serves an entry more than ``stale_window``
  seconds past expiry (RFC 8767), and never serves stale at all when
  the window is zero;
- ``HealthRegistry`` breakers only take their mode's legal edges, at
  non-decreasing times.

These are the same invariants the fuzzer's oracles check end-to-end;
holding them at the unit level localises a future violation.
"""

import random

import pytest

from repro.dnscore.name import Name
from repro.dnscore.rdata import AData, RRType
from repro.dnscore.rrset import ResourceRecord, RRSet
from repro.fuzz.oracles import LEGAL_TRANSITIONS
from repro.server import health as health_module
from repro.server.cache import ResolverCache
from repro.server.health import HealthConfig, HealthRegistry

NAMES = [Name.from_text(f"n{i}.example.") for i in range(8)]


def a_rrset(name, ttl):
    return RRSet.of(ResourceRecord(name, ttl, AData("192.0.2.1")))


class TestServeStaleBound:
    def random_walk(self, cache, rng, steps=600):
        """Random puts and (stale) gets over advancing time; returns
        the ages recorded by the probe."""
        ages = []
        cache.stale_probe = lambda name, rrtype, age: ages.append(age)
        now = 0.0
        for _ in range(steps):
            now += rng.uniform(0.0, 5.0)
            name = rng.choice(NAMES)
            op = rng.random()
            if op < 0.4:
                cache.put_rrset(a_rrset(name, ttl=rng.choice((1, 4, 30))), now)
            elif op < 0.7:
                cache.get(name, RRType.A, now)
            else:
                entry = cache.get_stale(name, RRType.A, now)
                if entry is not None:
                    assert now < entry.expires + cache.stale_window
        return ages

    def test_ages_never_exceed_window(self):
        for seed in range(20):
            rng = random.Random(seed)
            window = rng.choice((5.0, 10.0, 30.0))
            cache = ResolverCache(stale_window=window)
            ages = self.random_walk(cache, rng)
            assert all(0.0 < age <= window for age in ages)

    def test_zero_window_never_serves_stale(self):
        for seed in range(10):
            cache = ResolverCache(stale_window=0.0)
            ages = self.random_walk(cache, random.Random(seed))
            assert ages == []


class TestBreakerTransitionLegality:
    @pytest.fixture(autouse=True)
    def short_hold_down(self, monkeypatch):
        monkeypatch.setattr(health_module, "HOLD_DOWN", 1.0)

    def random_walk(self, mode, seed, steps=400):
        """Random success/failure/availability-check walks; returns the
        transitions the probe recorded."""
        rng = random.Random(seed)
        registry = HealthRegistry(
            HealthConfig(
                mode=mode,
                base_timeout=0.5,
                failure_threshold=rng.choice((1, 2, 3)),
                backoff_base=0.2,
                backoff_cap=2.0,
            ),
            lambda: random.Random(seed + 1),
        )
        transitions = []
        registry.transition_probe = lambda server, old, new, now: transitions.append(
            (server, old.value, new.value, now)
        )
        servers = ["10.0.40.1", "10.0.40.2"]
        now = 0.0
        for _ in range(steps):
            now += rng.uniform(0.01, 0.8)
            server = rng.choice(servers)
            op = rng.random()
            if op < 0.35:
                registry.on_failure(server, now)
            elif op < 0.6:
                registry.on_success(server, rng.uniform(0.01, 0.4), now)
            elif op < 0.9:
                if registry.available(server, now):
                    registry.acquire_probe(server, now)
            else:
                registry.release_probe(server)
        return transitions

    def test_edges_legal_and_time_ordered(self):
        for mode in ("legacy", "adaptive"):
            legal = LEGAL_TRANSITIONS[mode]
            for seed in range(15):
                last_at = {}
                for server, old, new, at in self.random_walk(mode, seed):
                    assert (old, new) in legal, (mode, old, new)
                    assert at >= last_at.get(server, 0.0)
                    last_at[server] = at

    def test_probe_fans_out_to_existing_entries(self):
        registry = HealthRegistry(
            HealthConfig(mode="adaptive", failure_threshold=2),
            lambda: random.Random(0),
        )
        registry.on_failure("10.0.40.1", 1.0)  # entry exists, probe not yet set
        seen = []
        registry.transition_probe = lambda *args: seen.append(args)
        registry.on_failure("10.0.40.1", 1.1)  # second failure trips the breaker
        assert seen, "probe attached after entry creation must still fire"
        assert seen[0][1].value == "closed" and seen[0][2].value == "open"
