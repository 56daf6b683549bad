"""Space-Saving sketch: error bounds hold against exact counts."""

import random

import pytest

from repro.obs.sketch import SpaceSaving


def zipf_stream(n_items, n_draws, seed, exponent=1.2):
    """Deterministic zipf-ish stream of client keys (heavier = lower id)."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(n_items)]
    keys = [f"10.1.0.{rank}" for rank in range(n_items)]
    return rng.choices(keys, weights=weights, k=n_draws)


def exact_counts(stream):
    counts = {}
    for key in stream:
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_small_stream_is_exact():
    sketch = SpaceSaving(8)
    for key in ["a", "a", "b", "c", "a", "b"]:
        sketch.offer(key)
    assert sketch.count("a") == 3
    assert sketch.count("b") == 2
    assert sketch.count("c") == 1
    assert sketch.count("zzz") == 0
    assert sketch.evictions == 0
    top = sketch.top(2)
    assert [(h.key, h.count, h.error) for h in top] == [("a", 3, 0), ("b", 2, 0)]


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_zipf_overestimate_within_bound(seed):
    stream = zipf_stream(200, 5000, seed)
    exact = exact_counts(stream)
    sketch = SpaceSaving(32)
    for key in stream:
        sketch.offer(key)
    bound = sketch.error_bound()
    assert bound == pytest.approx(len(stream) / 32)
    for hitter in sketch.top(32):
        true = exact.get(hitter.key, 0)
        # Space-Saving never underestimates, and overestimates by <= n/k.
        assert hitter.count >= true
        assert hitter.count - true <= bound + 1e-9
        # the per-counter error field is itself a valid (tighter) bound
        assert hitter.count - true <= hitter.error + 1e-9


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_zipf_top_talkers_are_monitored(seed):
    """Any key with true count > n/k is guaranteed to be in the sketch."""
    stream = zipf_stream(200, 5000, seed)
    exact = exact_counts(stream)
    sketch = SpaceSaving(32)
    for key in stream:
        sketch.offer(key)
    bound = sketch.error_bound()
    monitored = {h.key for h in sketch.top(32)}
    for key, true in exact.items():
        if true > bound:
            assert key in monitored


def test_weighted_offers():
    sketch = SpaceSaving(4)
    sketch.offer("big", 100.0)
    sketch.offer("small", 1.0)
    assert sketch.count("big") == 100.0
    assert sketch.total_weight == 101.0
    assert sketch.top(1)[0].key == "big"


def test_eviction_inherits_victim_count():
    sketch = SpaceSaving(2)
    sketch.offer("a")
    sketch.offer("a")
    sketch.offer("b")
    sketch.offer("c")  # evicts b (count 1); c gets count 2, error 1
    assert sketch.evictions == 1
    assert sketch.count("b") == 0
    assert sketch.count("c") == 2
    (entry,) = [h for h in sketch.top(2) if h.key == "c"]
    assert entry.error == 1


def test_eviction_tie_breaks_on_insertion_order():
    sketch = SpaceSaving(2)
    sketch.offer("first")
    sketch.offer("second")
    sketch.offer("third")  # both candidates count 1; first inserted loses
    assert sketch.count("first") == 0
    assert sketch.count("second") == 1


def test_top_ties_break_lexicographically():
    sketch = SpaceSaving(4)
    for key in ["b", "a", "d", "c"]:
        sketch.offer(key)
    assert [h.key for h in sketch.top(4)] == ["a", "b", "c", "d"]


def test_rejects_bad_k():
    with pytest.raises(ValueError):
        SpaceSaving(0)
