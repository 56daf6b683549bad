"""SimSan: an opt-in runtime invariant sanitizer for the simulator.

The reproduction's claims rest on two properties that are easy to break
silently while refactoring:

- **determinism** -- the discrete-event core must replay identically for
  a given seed (heap ordering, lazy-cancellation compaction, and the
  named PRNG streams are the moving parts);
- **scheduler invariants** -- MOPI-FQ's fairness and complexity analysis
  (paper Appendix B) assumes per-output round monotonicity, per-source
  accounting that matches actual queue occupancy, message conservation,
  and non-negative token buckets.

SimSan enforces these at runtime.  It is **off by default** and adds
only a flag check to the hot paths when disabled; enable it with

- ``REPRO_SIMSAN=1`` in the environment (read once at import), or
- :func:`enable` / the ``Simulator(sanitize=True)`` /
  ``MopiFq(sanitize=True)`` constructor arguments for per-instance
  control.

Violations raise :class:`SimSanViolation` (an ``AssertionError``
subclass raised explicitly, so it survives ``python -O``).

See ``docs/STATIC_ANALYSIS.md`` for the full list of checked invariants
and their mapping to the paper.
"""

from __future__ import annotations

import os


class SimSanViolation(AssertionError):
    """A runtime invariant of the simulator or a DCC component broke."""


def _truthy(value: str) -> bool:
    return value.strip().lower() not in ("", "0", "false", "no", "off")


#: Global sanitizer switch.  Hot paths either read this directly (token
#: buckets) or snapshot it at construction time (``Simulator``,
#: ``MopiFq``), so flipping it mid-run affects objects built afterwards.
ENABLED: bool = _truthy(os.environ.get("REPRO_SIMSAN", ""))


def enable() -> None:
    """Turn the sanitizer on for subsequently constructed objects."""
    global ENABLED
    ENABLED = True


def fail(message: str) -> None:
    """Raise a :class:`SimSanViolation`; never stripped by ``-O``."""
    raise SimSanViolation(message)
