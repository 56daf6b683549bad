"""Metrics registry: bucket edges, grid sampling, instrument semantics."""

from dataclasses import dataclass, field

import pytest

from repro.obs.metrics import (
    DEFAULT_SIZE_BOUNDS,
    DEFAULT_TIME_BOUNDS,
    Histogram,
    MetricsRegistry,
    log_bounds,
)


# ----------------------------------------------------------------------
# log-spaced bounds
# ----------------------------------------------------------------------

def test_log_bounds_shape():
    bounds = log_bounds(1e-3, 1.0, per_decade=4)
    assert bounds[0] == 1e-3
    assert bounds[-1] >= 1.0
    assert list(bounds) == sorted(bounds)
    # ends at the first bound reaching hi, and not a bound later
    assert bounds[-2] < 1.0 <= bounds[-1]


def test_log_bounds_bit_identical_prefix():
    """Edges come from integer exponents, so a longer range shares the
    shorter range's prefix exactly (no cumulative drift)."""
    short = log_bounds(1e-3, 1.0)
    long = log_bounds(1e-3, 1e3)
    assert long[: len(short)] == short


def test_log_bounds_rejects_bad_range():
    with pytest.raises(ValueError):
        log_bounds(0.0, 1.0)
    with pytest.raises(ValueError):
        log_bounds(1.0, 1.0)


def test_default_bounds_cover_declared_ranges():
    assert DEFAULT_TIME_BOUNDS[0] == 1e-5
    assert DEFAULT_TIME_BOUNDS[-1] >= 100.0
    assert DEFAULT_SIZE_BOUNDS[0] == 16.0
    assert DEFAULT_SIZE_BOUNDS[-1] >= 65536.0


# ----------------------------------------------------------------------
# histogram bucket edges
# ----------------------------------------------------------------------

def test_histogram_upper_edges_are_inclusive():
    hist = Histogram("h", bounds=(1.0, 10.0, 100.0))
    hist.observe(1.0)        # exactly on edge 0 -> bucket 0
    hist.observe(1.0000001)  # just past edge 0 -> bucket 1
    hist.observe(10.0)       # exactly on edge 1 -> bucket 1
    hist.observe(100.0)      # exactly on last edge -> bucket 2
    hist.observe(100.1)      # beyond last edge -> overflow
    assert hist.buckets == [1, 2, 1, 1]
    assert hist.count == 5


def test_histogram_below_first_edge_lands_in_first_bucket():
    hist = Histogram("h", bounds=(1.0, 10.0))
    hist.observe(0.0)
    hist.observe(-5.0)
    assert hist.buckets == [2, 0, 0]


def test_histogram_quantiles_and_mean():
    hist = Histogram("h", bounds=(1.0, 2.0, 4.0, 8.0))
    for value in [0.5, 1.5, 1.5, 3.0]:
        hist.observe(value)
    assert hist.mean() == pytest.approx(6.5 / 4)
    assert hist.quantile(0.25) == 1.0   # first observation's bucket edge
    assert hist.quantile(0.5) == 2.0
    assert hist.quantile(1.0) == 4.0
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_histogram_quantile_overflow_reports_last_finite_bound():
    hist = Histogram("h", bounds=(1.0, 2.0))
    hist.observe(99.0)
    assert hist.quantile(0.5) == 2.0


def test_empty_histogram():
    hist = Histogram("h")
    assert hist.quantile(0.5) == 0.0
    assert hist.mean() == 0.0


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

@dataclass
class Stats:
    """A component's stats block: the int fields are counters."""

    zeta: int = 0
    alpha: int = 0
    level: float = 0.0
    per_key: dict = field(default_factory=dict)


def test_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    assert reg.gauge("g") is reg.gauge("g")
    assert reg.histogram("h") is reg.histogram("h")


def test_name_cannot_span_instrument_kinds():
    reg = MetricsRegistry()
    reg.watch("p", Stats())
    with pytest.raises(ValueError):
        reg.gauge("p.alpha")
    with pytest.raises(ValueError):
        reg.histogram("p.zeta")
    reg.gauge("q.alpha")
    with pytest.raises(ValueError):
        reg.watch("q", Stats())


def test_views_are_sorted():
    reg = MetricsRegistry()
    stats = Stats()
    reg.watch("p", stats)
    stats.zeta += 1
    stats.alpha += 2
    assert list(reg.counters()) == ["p.alpha", "p.zeta"]
    assert reg.counters()["p.alpha"] == 2.0


def test_counters_sum_int_fields_per_prefix_and_hide_zeros():
    reg = MetricsRegistry()
    a, b, c = Stats(alpha=1, level=9.0, per_key={"k": 5}), Stats(alpha=2, zeta=3), Stats(alpha=7)
    reg.watch("p", a)
    reg.watch("p", b)
    reg.watch("q", c)
    assert reg.counters() == {"p.alpha": 3, "p.zeta": 3, "q.alpha": 7}
    c.alpha = 0
    assert "q.alpha" not in reg.counters()


def test_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        MetricsRegistry(sample_interval=0.0)


# ----------------------------------------------------------------------
# grid sampling
# ----------------------------------------------------------------------

def test_sampling_grid_emits_each_tick_once():
    reg = MetricsRegistry(sample_interval=1.0)
    stats = Stats(alpha=1)
    reg.watch("c", stats)
    reg.on_advance(0.0)    # tick 0
    stats.alpha += 1
    reg.on_advance(0.5)    # no new tick
    reg.on_advance(1.0)    # tick 1
    stats.alpha += 1
    reg.on_advance(1.0)    # same instant: no duplicate
    times = [(s.time, s.value) for s in reg.samples if s.name == "c.alpha"]
    assert times == [(0.0, 1.0), (1.0, 2.0)]
    assert not [s for s in reg.samples if s.name == "c.zeta"]  # zero: not sampled


def test_sampling_gap_emits_all_spanned_ticks():
    reg = MetricsRegistry(sample_interval=1.0)
    reg.gauge("g").set(7.0)
    reg.on_advance(3.5)  # ticks 0,1,2,3 at once
    times = [s.time for s in reg.samples if s.name == "g"]
    assert times == [0.0, 1.0, 2.0, 3.0]
    assert all(s.value == 7.0 for s in reg.samples)
