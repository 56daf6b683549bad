"""Plain-text rendering of experiment outputs.

The experiment drivers print the same rows/series the paper's tables and
figures report; these helpers keep that output consistent and readable
in a terminal (and in EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

#: resilience-layer counters a stats block may carry (ResolverStats has
#: all of them, ForwarderStats none); reports pick up whichever are
#: present
RESILIENCE_COUNTERS = (
    "shed_requests",
    "shed_suspected",
    "stale_fastpath_responses",
    "stale_responses",
    "deadline_exhausted",
    "breaker_opens",
    "breaker_half_opens",
    "breaker_closes",
    "probe_failures",
    "karn_rejections",
    "server_backoffs",
)


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width table with a header rule."""
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    lines = [fmt(headers), "  ".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in materialized)
    return "\n".join(lines)


def resilience_counters(stats: object) -> Dict[str, int]:
    """The resilience-layer counters present on a stats block, in
    :data:`RESILIENCE_COUNTERS` order."""
    return {
        name: getattr(stats, name)
        for name in RESILIENCE_COUNTERS
        if hasattr(stats, name)
    }


def render_resilience_table(labeled_stats: Mapping[str, object]) -> str:
    """One row of resilience counters per labelled stats block.

    Columns are the union of counters present across the blocks, so a
    mixed resolver/forwarder report stays rectangular.
    """
    extracted = {label: resilience_counters(stats) for label, stats in labeled_stats.items()}
    columns = [
        name
        for name in RESILIENCE_COUNTERS
        if any(name in counters for counters in extracted.values())
    ]
    rows = [
        [label] + [counters.get(name, "-") for name in columns]
        for label, counters in extracted.items()
    ]
    return render_table([""] + columns, rows)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Unicode sparkline of a series, downsampled to ``width`` points."""
    if not values:
        return ""
    blocks = " ▁▂▃▄▅▆▇█"
    if len(values) > width:
        step = len(values) / width
        values = [values[int(i * step)] for i in range(width)]
    top = max(values) or 1.0
    return "".join(blocks[min(8, int(8 * v / top))] for v in values)
