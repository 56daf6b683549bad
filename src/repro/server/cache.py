"""Resolver cache: positive and negative entries with TTL and LRU bound.

Caching is central to the attack model: "At the onset of adversarial
congestion ... [a resolver] can still answer queries from cache for a
certain period of time.  As cached records expire ... the attack's effect
will intensify" (Section 2.3).  Attackers bypass the cache with
pseudo-random names; the WC/NX patterns do exactly that.

The cache stores:

- **positive** RRsets keyed by (``name.labels``, type), hashed in C;
- **negative** entries (NXDOMAIN or NODATA) keyed the same way, with the
  SOA-minimum TTL (RFC 2308);
- **delegations** (NS RRsets + glue addresses) which the iterative
  resolver consults to find the deepest known zone cut.

An entry leaves when it dies, not when it is next read: each put first
pops the entries past their TTL and stale window off per-TTL expiry
queues, so single-use attack names cost about one TTL's worth of entries.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict, deque
from typing import Callable, DefaultDict, Deque, List, Optional, Tuple

from repro.dnscore.name import Name
from repro.dnscore.rdata import RCode, RRType
from repro.dnscore.rrset import RRSet

_ADDRESS_TYPES = (RRType.A, RRType.AAAA)
_Key = Tuple[Tuple[str, ...], RRType]


class CacheEntry:
    """One cached fact: either an RRset or a negative answer."""

    __slots__ = ("rrset", "rcode", "expires", "key")

    def __init__(self, rrset: Optional[RRSet], rcode: RCode, expires: float, key: _Key) -> None:
        self.rrset = rrset  # None for negative entries
        self.rcode = rcode  # NOERROR (positive/NODATA) or NXDOMAIN
        self.expires = expires
        self.key = key  # the cache key, so an expiry queue can find it

    @property
    def is_negative(self) -> bool:
        return self.rrset is None

    def fresh(self, now: float) -> bool:
        return now < self.expires


class ResolverCache:
    """TTL + LRU-bounded DNS cache.

    With ``stale_window > 0``, expired positive entries are retained for
    that many extra seconds and can be served via :meth:`get_stale` when
    fresh resolution fails (RFC 8767 serve-stale) -- a deployed
    availability mitigation that softens adversarial congestion for
    *popular* names (cache-bypassing attack patterns are unaffected).

    Expiry is eager: a put that finds a queue front due runs
    :meth:`flush_expired` first, as if the cache were flushed before every
    put; no read can tell.  ``now`` must not decrease (``Simulator`` and
    ``AsyncioClock`` guarantee it); the one backwards put, a root hint
    re-installed at 0.0 with a 10^9 s TTL, can only delay a drop.
    """

    def __init__(self, max_entries: int = 100_000, stale_window: float = 0.0) -> None:
        self.max_entries = max_entries
        self.stale_window = stale_window
        self._entries: "OrderedDict[_Key, CacheEntry]" = OrderedDict()
        #: TTL -> entries put with that TTL, oldest first; the earliest
        #: ``expires + stale_window`` among the queue fronts is ``_due``
        self._queues: "DefaultDict[float, Deque[CacheEntry]]" = defaultdict(deque)
        self._due = float("inf")
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.evictions = 0
        self.stale_hits = 0
        self.denial_hits = 0
        #: cached NSEC ranges: (prev canonical key, next key, expires)
        self._denials: List[Tuple[Tuple[str, ...], Tuple[str, ...], float]] = []
        #: observation hook fired on every stale serve with
        #: ``(name, rrtype, age_past_expiry)``; the fuzzer's serve-stale
        #: oracle attaches here to prove the RFC 8767 window bound
        self.stale_probe: Optional[Callable[[Name, RRType, float], None]] = None

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # store
    # ------------------------------------------------------------------
    def put_rrset(self, rrset: RRSet, now: float) -> None:
        self._put((rrset.name.labels, rrset.rrtype), rrset, RCode.NOERROR, rrset.ttl, now)

    def put_negative(
        self, name: Name, rrtype: RRType, rcode: RCode, ttl: float, now: float
    ) -> None:
        """Cache an NXDOMAIN or NODATA answer for ``ttl`` seconds."""
        self._put((name.labels, rrtype), None, rcode, ttl, now)

    def _put(self, key: _Key, rrset: Optional[RRSet], rcode: RCode, ttl: float, now: float) -> None:
        if now >= self._due:
            self.flush_expired(now)
        entry = CacheEntry(rrset, rcode, now + ttl, key)
        queue = self._queues[ttl]
        if not queue:
            self._due = min(self._due, entry.expires + self.stale_window)
        queue.append(entry)
        if key in self._entries:
            del self._entries[key]
        self._entries[key] = entry
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, name: Name, rrtype: RRType, now: float) -> Optional[CacheEntry]:
        """Fresh entry for (name, type), counting hit/miss statistics."""
        key = (name.labels, rrtype)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if not entry.fresh(now):
            if now >= entry.expires + self.stale_window:
                del self._entries[key]
                self.expirations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def get_stale(self, name: Name, rrtype: RRType, now: float) -> Optional[CacheEntry]:
        """An expired-but-retained positive entry (RFC 8767).

        Only meaningful when the cache was built with a ``stale_window``;
        negative entries are never served stale.
        """
        if self.stale_window <= 0:
            return None
        entry = self._entries.get((name.labels, rrtype))
        if entry is None or entry.is_negative:
            return None
        if entry.fresh(now) or now >= entry.expires + self.stale_window:
            return None
        self.stale_hits += 1
        if self.stale_probe is not None:
            self.stale_probe(name, rrtype, now - entry.expires)
        return entry

    def peek(self, name: Name, rrtype: RRType, now: float) -> Optional[CacheEntry]:
        """Like :meth:`get` but without touching statistics or LRU order."""
        entry = self._entries.get((name.labels, rrtype))
        if entry is not None and now < entry.expires:
            return entry
        return None

    # ------------------------------------------------------------------
    # delegation walk
    # ------------------------------------------------------------------
    def deepest_known_cut(self, qname: Name, now: float) -> Optional[Tuple[Name, RRSet]]:
        """The closest cached NS RRset enclosing ``qname``.

        Walks from ``qname`` towards the root; the iterative resolver
        starts its descent from here (root hints live in the cache as an
        NS RRset for ``.`` with effectively infinite TTL).
        """
        entries, ns = self._entries, RRType.NS
        for ancestor in qname.ancestors():
            entry = entries.get((ancestor.labels, ns))
            if entry is not None and now < entry.expires and entry.rrset is not None:
                return ancestor, entry.rrset
        return None

    def addresses_for(self, server_name: Name, now: float) -> List[str]:
        """Cached A/AAAA addresses for a nameserver host name."""
        addresses: List[str] = []
        for addr_type in _ADDRESS_TYPES:
            entry = self._entries.get((server_name.labels, addr_type))
            if entry is not None and now < entry.expires and entry.rrset is not None:
                addresses.extend(entry.rrset.addresses)
        return addresses

    def nameserver_names(self, ns_rrset: RRSet) -> Tuple[Name, ...]:
        return ns_rrset.ns_targets

    # ------------------------------------------------------------------
    # aggressive negative caching (RFC 8198)
    # ------------------------------------------------------------------
    def put_denial_range(self, prev_name: Name, next_name: Name, ttl: float, now: float) -> None:
        """Cache an NSEC denial range: nothing exists canonically
        between ``prev_name`` and ``next_name``."""
        self._denials.append((prev_name.canonical_key(), next_name.canonical_key(), now + ttl))

    def covered_by_denial(self, qname: Name, now: float) -> bool:
        """True if a fresh cached range proves ``qname`` does not exist.

        Ranges may wrap around the zone (prev > next), like the real
        NSEC chain's last record.
        """
        if not self._denials:
            return False
        key = qname.canonical_key()
        live = []
        covered = False
        for prev_key, next_key, expires in self._denials:
            if now >= expires:
                continue
            live.append((prev_key, next_key, expires))
            if prev_key < next_key:
                if prev_key < key < next_key:
                    covered = True
            else:  # wrap-around range
                if key > prev_key or key < next_key:
                    covered = True
        self._denials = live
        if covered:
            self.denial_hits += 1
        return covered

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def flush_expired(self, now: float) -> int:
        """Drop the entries no read can return: past their TTL and the
        stale window.  Every put that finds one due calls this, and so
        does the resolver's purge tick.  A queued entry that was since
        replaced, evicted or dropped on read leaves the queue uncounted."""
        entries, window, dropped, due = self._entries, self.stale_window, 0, float("inf")
        for queue in self._queues.values():
            while queue and now >= queue[0].expires + window:
                entry = queue.popleft()
                if entries.get(entry.key) is entry:
                    del entries[entry.key]
                    dropped += 1
            if queue:
                due = min(due, queue[0].expires + window)
        self._due = due
        self.expirations += dropped
        return dropped
