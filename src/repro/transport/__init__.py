"""Pluggable transport backends (ROADMAP item 3: sockets, not just sims).

The reproduction's control code -- the recursive resolver, the DCC shim,
MOPI-FQ, policing, the health machinery -- is written against two small
duck-typed protocols:

- a **clock** (``now``, ``rng``, ``schedule``/``schedule_at``/
  ``call_soon`` returning cancellable handles), historically provided by
  :class:`repro.netsim.sim.Simulator`;
- a **fabric** (``attach``/``send``/``node``/``stats``), historically
  provided by :class:`repro.netsim.link.Network`.

This package names those protocols (:mod:`repro.transport.base`) and
adds a second implementation of each over real asyncio UDP sockets
(:mod:`repro.transport.udp`), plus a fault-injecting UDP proxy
(:mod:`repro.transport.chaosproxy`) and a wire-level DNS query engine
with RFC 6298 retransmission and bounded-in-flight shedding
(:mod:`repro.transport.engine`).  The same server/dcc modules drive both
backends byte-for-byte -- there is no backend conditional anywhere in
them, which is the point: the shim architecture is proven on sockets,
not simulated.
"""
