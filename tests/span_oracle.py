"""The span-tree oracle of the obs tests, moved here verbatim from ``repro.obs.spans``: no driver validates
a span tree, the tests do."""

from __future__ import annotations

from typing import List

from repro.obs.spans import NO_PARENT, OPEN, Tracer


def validate_span_tree(tracer: Tracer) -> List[str]:
    """Well-formedness problems, empty when the span set is sound.

    Checks: every span closed with ``end >= start``; every non-root
    parent exists; every parent opens no later than its child (causality
    in virtual time).
    """
    problems: List[str] = []
    for span in tracer.spans:
        if span.end == OPEN:
            problems.append(f"span #{span.span_id} {span.name!r} never closed")
        elif span.end < span.start:
            problems.append(
                f"span #{span.span_id} {span.name!r} ends before it starts "
                f"({span.end:.9f} < {span.start:.9f})"
            )
        if span.parent_id != NO_PARENT:
            parent = tracer.get(span.parent_id)
            if parent is None:
                problems.append(
                    f"span #{span.span_id} {span.name!r} has unknown parent "
                    f"#{span.parent_id}"
                )
            elif parent.start > span.start:
                problems.append(
                    f"span #{span.span_id} {span.name!r} starts before its parent "
                    f"#{parent.span_id} ({span.start:.9f} < {parent.start:.9f})"
                )
    return problems
