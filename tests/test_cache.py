"""Resolver cache tests: TTL, negatives, LRU, delegation walk."""

from repro.dnscore.name import ROOT, Name
from repro.dnscore.rdata import AData, NSData, RCode, RRType
from repro.dnscore.rrset import ResourceRecord, RRSet
from repro.server.cache import ResolverCache

WWW = Name.from_text("www.example.com.")


def a_rrset(name=WWW, address="192.0.2.1", ttl=60):
    return RRSet.of(ResourceRecord(name, ttl, AData(address)))


class TestPositiveCaching:
    def test_put_get(self):
        cache = ResolverCache()
        cache.put_rrset(a_rrset(), now=0.0)
        entry = cache.get(WWW, RRType.A, now=10.0)
        assert entry is not None and not entry.is_negative

    def test_ttl_expiry(self):
        cache = ResolverCache()
        cache.put_rrset(a_rrset(ttl=60), now=0.0)
        assert cache.get(WWW, RRType.A, now=61.0) is None
        assert cache.expirations == 1

    def test_replacement(self):
        cache = ResolverCache()
        cache.put_rrset(a_rrset(address="1.1.1.1"), now=0.0)
        cache.put_rrset(a_rrset(address="2.2.2.2"), now=1.0)
        entry = cache.get(WWW, RRType.A, now=2.0)
        assert entry.rrset.records[0].rdata.address == "2.2.2.2"
        assert len(cache) == 1

    def test_hit_miss_stats(self):
        cache = ResolverCache()
        cache.put_rrset(a_rrset(), now=0.0)
        cache.get(WWW, RRType.A, now=1.0)
        cache.get(WWW, RRType.AAAA, now=1.0)
        assert cache.hits == 1 and cache.misses == 1

    def test_peek_does_not_touch_stats(self):
        cache = ResolverCache()
        cache.put_rrset(a_rrset(), now=0.0)
        cache.peek(WWW, RRType.A, now=1.0)
        assert cache.hits == 0 and cache.misses == 0


class TestNegativeCaching:
    def test_nxdomain(self):
        cache = ResolverCache()
        cache.put_negative(WWW, RRType.A, RCode.NXDOMAIN, ttl=30, now=0.0)
        entry = cache.get(WWW, RRType.A, now=10.0)
        assert entry.is_negative and entry.rcode == RCode.NXDOMAIN

    def test_negative_ttl_expiry(self):
        cache = ResolverCache()
        cache.put_negative(WWW, RRType.A, RCode.NXDOMAIN, ttl=5, now=0.0)
        assert cache.get(WWW, RRType.A, now=6.0) is None

    def test_nodata(self):
        cache = ResolverCache()
        cache.put_negative(WWW, RRType.AAAA, RCode.NOERROR, ttl=30, now=0.0)
        entry = cache.get(WWW, RRType.AAAA, now=1.0)
        assert entry.is_negative and entry.rcode == RCode.NOERROR


class TestLru:
    def test_eviction_at_capacity(self):
        cache = ResolverCache(max_entries=3)
        for i in range(5):
            cache.put_rrset(a_rrset(Name.from_text(f"h{i}.example.")), now=0.0)
        assert len(cache) == 3
        assert cache.evictions == 2
        assert cache.peek(Name.from_text("h0.example."), RRType.A, 0.0) is None
        assert cache.peek(Name.from_text("h4.example."), RRType.A, 0.0) is not None

    def test_get_refreshes_lru_position(self):
        cache = ResolverCache(max_entries=2)
        cache.put_rrset(a_rrset(Name.from_text("a.example.")), now=0.0)
        cache.put_rrset(a_rrset(Name.from_text("b.example.")), now=0.0)
        cache.get(Name.from_text("a.example."), RRType.A, now=0.0)
        cache.put_rrset(a_rrset(Name.from_text("c.example.")), now=0.0)
        # "b" was least recently used, so it went first.
        assert cache.peek(Name.from_text("b.example."), RRType.A, 0.0) is None
        assert cache.peek(Name.from_text("a.example."), RRType.A, 0.0) is not None


class TestDelegationWalk:
    def _seed(self, cache):
        root_ns = RRSet.of(ResourceRecord(ROOT, 10**9, NSData(Name.from_text("a.root."))))
        cache.put_rrset(root_ns, now=0.0)
        com_ns = RRSet.of(ResourceRecord(
            Name.from_text("com."), 3600, NSData(Name.from_text("ns.gtld."))))
        cache.put_rrset(com_ns, now=0.0)

    def test_deepest_known_cut(self):
        cache = ResolverCache()
        self._seed(cache)
        cut, rrset = cache.deepest_known_cut(WWW, now=1.0)
        assert cut == Name.from_text("com.")

    def test_falls_back_to_root(self):
        cache = ResolverCache()
        self._seed(cache)
        cut, _ = cache.deepest_known_cut(Name.from_text("x.org."), now=1.0)
        assert cut == ROOT

    def test_no_hints_returns_none(self):
        assert ResolverCache().deepest_known_cut(WWW, 0.0) is None

    def test_expired_cut_skipped(self):
        cache = ResolverCache()
        self._seed(cache)
        cut, _ = cache.deepest_known_cut(WWW, now=4000.0)  # com. expired
        assert cut == ROOT

    def test_addresses_for(self):
        cache = ResolverCache()
        ns_name = Name.from_text("ns.gtld.")
        cache.put_rrset(a_rrset(ns_name, "10.0.0.9"), now=0.0)
        assert cache.addresses_for(ns_name, now=1.0) == ["10.0.0.9"]
        assert cache.addresses_for(Name.from_text("none."), now=1.0) == []

    def test_nameserver_names(self):
        cache = ResolverCache()
        ns = RRSet.of(
            ResourceRecord(ROOT, 60, NSData(Name.from_text("a."))),
            ResourceRecord(ROOT, 60, NSData(Name.from_text("b."))),
        )
        assert set(map(str, cache.nameserver_names(ns))) == {"a.", "b."}
        assert cache.nameserver_names(a_rrset()) == ()

    def test_addresses_for_reads_both_families_and_follows_add(self):
        from repro.dnscore.rdata import AAAAData

        cache = ResolverCache()
        ns_name = Name.from_text("ns.gtld.")
        glue = a_rrset(ns_name, "10.0.0.9")
        cache.put_rrset(glue, now=0.0)
        cache.put_rrset(RRSet.of(ResourceRecord(ns_name, 60, AAAAData("2001:db8::9"))), now=0.0)
        assert cache.addresses_for(ns_name, now=1.0) == ["10.0.0.9", "2001:db8::9"]
        glue.add(ResourceRecord(ns_name, 60, AData("10.0.0.10")))
        assert cache.addresses_for(ns_name, now=1.0) == ["10.0.0.9", "10.0.0.10", "2001:db8::9"]
        assert cache.addresses_for(ns_name, now=61.0) == []  # expired entries contribute nothing


class TestCacheEntry:
    """A ``__slots__`` class since one is built per cache write; what the
    resolver reads of it is unchanged."""

    def test_is_negative_and_fresh(self):
        from repro.server.cache import CacheEntry

        positive = CacheEntry(a_rrset(), RCode.NOERROR, 60.0)
        negative = CacheEntry(None, RCode.NXDOMAIN, 5.0)
        assert not positive.is_negative and negative.is_negative
        assert positive.fresh(59.999) and not positive.fresh(60.0)
        assert (negative.rrset, negative.rcode, negative.expires) == (None, RCode.NXDOMAIN, 5.0)
        assert not hasattr(positive, "__dict__")

    def test_what_the_cache_stores(self):
        cache = ResolverCache()
        cache.put_rrset(a_rrset(ttl=60), now=2.0)
        cache.put_negative(WWW, RRType.AAAA, RCode.NOERROR, 5.0, now=2.0)
        positive, nodata = cache.get(WWW, RRType.A, 3.0), cache.get(WWW, RRType.AAAA, 3.0)
        assert (positive.rcode, positive.expires, positive.is_negative) == (RCode.NOERROR, 62.0, False)
        assert (nodata.rrset, nodata.rcode, nodata.expires, nodata.is_negative) == (None, RCode.NOERROR, 7.0, True)


class TestMaintenance:
    def test_flush_expired(self):
        cache = ResolverCache()
        cache.put_rrset(a_rrset(ttl=10), now=0.0)
        cache.put_rrset(a_rrset(Name.from_text("y.example."), ttl=100), now=0.0)
        assert cache.flush_expired(now=50.0) == 1
        assert len(cache) == 1
