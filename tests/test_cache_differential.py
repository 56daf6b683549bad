"""The label-keyed resolver cache against the name-keyed one it replaced.

``tests/reference_cache.py`` is the cache as it was when its keys held the
``Name`` itself, verbatim.  ``repro.server.cache`` keys on ``name.labels``
instead, which hashes and compares in C.  That is only a speed change if a
label tuple is interchangeable with its name as a key: same hash, same
equality.  The property pin below checks that premise on random names; the
differential stream checks its consequence -- over a seeded mix of every
operation, with a bound small enough to evict and a serve-stale window,
both caches return the same entries, hold them in the same LRU order and
count the same hits, misses, expirations, evictions and stale hits after
every single operation.
"""

import random

import pytest

from repro.dnscore.name import ROOT, Name
from repro.dnscore.rdata import AAAAData, AData, NSData, RCode, RRType
from repro.dnscore.rrset import ResourceRecord, RRSet
from repro.server.cache import ResolverCache

from tests import reference_cache as reference

LABELS = ("www", "ns1", "ns2", "a", "b", "x-1", "WWW", "Ns1", "wc", "q17c0")
SUFFIXES = ("example.com.", "example.org.", "sub.example.com.", "target-domain.", "com.", ".")
TYPES = (RRType.A, RRType.AAAA, RRType.NS)
TTLS = (0, 1, 2, 5, 30, 300, 3600)
COUNTERS = ("hits", "misses", "expirations", "evictions", "stale_hits")
READ_COUNTERS = ("hits", "misses", "stale_hits")


def random_name(rng: random.Random) -> Name:
    """A fresh object each time, so equal names are seldom the same object."""
    labels = [rng.choice(LABELS) for _ in range(rng.randrange(0, 3))]
    return Name(labels + list(Name.from_text(rng.choice(SUFFIXES)).labels))


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_a_label_tuple_is_interchangeable_with_its_name_as_a_key(seed):
    rng = random.Random(seed)
    names = [random_name(rng) for _ in range(400)] + [ROOT]
    for name in names:
        assert hash(name) == hash(name.labels)
        assert hash((name, RRType.NS)) == hash((name.labels, RRType.NS))
    for _ in range(20_000):
        name, other = rng.choice(names), rng.choice(names)
        assert (name == other) == (name.labels == other.labels)
        assert (name != other) == (name.labels != other.labels)


def rrset_for(rng: random.Random, name: Name, rrtype: RRType, universe) -> RRSet:
    ttl = rng.choice(TTLS)
    records = []
    for index in range(rng.randrange(1, 3)):
        if rrtype is RRType.A:
            rdata = AData(f"192.0.2.{rng.randrange(256)}")
        elif rrtype is RRType.AAAA:
            rdata = AAAAData(f"2001:db8::{rng.randrange(1, 65536):x}")
        else:
            rdata = NSData(rng.choice(universe))
        records.append(ResourceRecord(name, ttl + index, rdata))
    return RRSet.of(*records)


def same_entry(new, old) -> bool:
    if new is None or old is None:
        return new is None and old is None
    return (new.rrset is old.rrset and new.rcode == old.rcode and new.expires == old.expires
            and new.is_negative == old.is_negative)


def assert_same_state(new: ResolverCache, old: reference.ResolverCache) -> None:
    assert list(new._entries) == [(name.labels, rrtype) for name, rrtype in old._entries]
    assert all(same_entry(a, b) for a, b in zip(new._entries.values(), old._entries.values()))
    assert [getattr(new, counter) for counter in COUNTERS] == [getattr(old, counter) for counter in COUNTERS]


def run_stream(seed: int, max_entries: int, exact: bool) -> ResolverCache:
    """20 000 seeded operations on both caches, compared after each one.

    ``exact``: the reference is flushed before every put, and the whole
    state must agree.  Otherwise every read and the read counters must
    agree, and the cache must hold no more than the reference.
    """
    rng = random.Random(seed)
    universe = [random_name(rng) for _ in range(40)] + [ROOT]
    new = ResolverCache(max_entries=max_entries, stale_window=8.0)
    old = reference.ResolverCache(max_entries=max_entries, stale_window=8.0)
    probes = {"new": [], "old": []}
    new.stale_probe = lambda *args: probes["new"].append(args)
    old.stale_probe = lambda *args: probes["old"].append(args)
    now = 0.0
    operations = ("put_rrset", "put_negative", "get", "peek", "get_stale",
                  "deepest_known_cut", "addresses_for", "flush_expired")
    seen = dict.fromkeys(operations, 0)
    hits = 0
    for _ in range(20_000):
        now += rng.choice((0.0, 0.0, 0.25, 1.0, 3.0))
        operation = rng.choices(operations, weights=(6, 3, 8, 3, 5, 4, 3, 1))[0]
        name, rrtype = rng.choice(universe), rng.choice(TYPES)
        if exact and operation.startswith("put_"):
            old.flush_expired(now)
        if operation == "put_rrset":
            rrset = rrset_for(rng, name, rrtype, universe)
            assert new.put_rrset(rrset, now) is None and old.put_rrset(rrset, now) is None
        elif operation == "put_negative":
            rcode, ttl = rng.choice((RCode.NXDOMAIN, RCode.NOERROR)), float(rng.choice(TTLS))
            new.put_negative(name, rrtype, rcode, ttl, now)
            old.put_negative(name, rrtype, rcode, ttl, now)
        elif operation in ("get", "peek", "get_stale"):
            got = getattr(new, operation)(name, rrtype, now)
            assert same_entry(got, getattr(old, operation)(name, rrtype, now))
            hits += got is not None
        elif operation == "deepest_known_cut":
            cut, expected = new.deepest_known_cut(name, now), old.deepest_known_cut(name, now)
            assert (cut is None) == (expected is None)
            if cut is not None:
                assert cut[0] is expected[0] and cut[1] is expected[1]
        elif operation == "addresses_for":
            assert new.addresses_for(name, now) == old.addresses_for(name, now)
        else:
            dropped = new.flush_expired(now), old.flush_expired(now)
            assert not exact or dropped[0] == dropped[1]
        seen[operation] += 1
        if exact:
            assert_same_state(new, old)
        else:
            assert len(new) <= len(old)
            assert [getattr(new, c) for c in READ_COUNTERS] == [getattr(old, c) for c in READ_COUNTERS]
    assert probes["new"] == probes["old"]
    # the stream reached every branch it is meant to compare
    assert all(seen.values()) and hits > 500
    return new


@pytest.mark.parametrize("seed", [3, 11, 2024])
def test_every_operation_agrees_with_the_name_keyed_cache(seed):
    new = run_stream(seed, max_entries=20, exact=True)
    # live entries, not dead ones, fill the bound
    assert new.evictions > 100 and new.expirations > 100 and new.stale_hits > 20


@pytest.mark.parametrize("seed", [3, 11, 2024])
def test_every_read_agrees_with_the_plain_name_keyed_cache_below_its_bound(seed):
    new = run_stream(seed, max_entries=10_000, exact=False)
    assert new.evictions == 0 and new.expirations > 100 and new.stale_hits > 20
