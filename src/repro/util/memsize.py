"""Approximate deep memory footprint of Python object graphs.

The paper's Figure 10 reports resident memory of the C++ DCC prototype
vs BIND.  The Python reproduction substitutes a deep ``sys.getsizeof``
walk over the relevant state containers -- not byte-exact versus a C++
implementation, but faithful for the *scaling shape* (how state grows
with tracked clients/servers), which is what the figure demonstrates.
"""

from __future__ import annotations

import sys
from typing import Any, Set


def approx_deep_size(obj: Any, max_objects: int = 2_000_000) -> int:
    """Recursively sum ``sys.getsizeof`` over an object graph.

    Shared objects are counted once; the walk stops (conservatively)
    after ``max_objects`` nodes.
    """
    seen: Set[int] = set()
    stack = [obj]
    total = 0
    while stack and len(seen) < max_objects:
        current = stack.pop()
        ident = id(current)
        if ident in seen:
            continue
        seen.add(ident)
        try:
            total += sys.getsizeof(current)
        except TypeError:  # pragma: no cover - exotic objects
            continue
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
        elif isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
        elif hasattr(current, "__dict__"):
            stack.append(current.__dict__)
        elif hasattr(current, "__slots__"):
            for slot in current.__slots__:
                if hasattr(current, slot):
                    stack.append(getattr(current, slot))
    return total
