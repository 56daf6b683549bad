"""Tier-1 regression-corpus replay: every checked-in counterexample
must load, replay against the current (fixed) code, and come back
green.  A red replay means a once-fixed bug is back."""

import os

import pytest

from repro.fuzz.corpus import load_counterexample, replay

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "regressions")

FILES = sorted(os.path.join(CORPUS_DIR, name) for name in os.listdir(CORPUS_DIR) if name.endswith(".json"))


def test_corpus_is_not_empty():
    assert FILES, "tests/regressions/ must hold at least one counterexample"


@pytest.mark.parametrize("path", FILES, ids=[os.path.basename(p) for p in FILES])
def test_counterexample_replays_green(path):
    scenario, record = load_counterexample(path)
    assert record["violations"], f"{path}: no recorded violations"
    _, observations, violations = replay(path)
    assert observations.crash is None
    assert violations == [], (
        f"{path} replays RED -- a fixed bug has regressed: "
        + "; ".join(f"[{v.oracle}] {v.detail}" for v in violations)
    )


@pytest.mark.parametrize("path", FILES, ids=[os.path.basename(p) for p in FILES])
def test_injected_counterexamples_still_demonstrate_the_bug(path):
    """Files produced under bug injection must stay red when the
    recorded injection is honored -- otherwise the file no longer
    demonstrates anything and should be regenerated."""
    _, record = load_counterexample(path)
    if not record.get("injected_bug"):
        pytest.skip("found on the live code path, nothing to re-inject")
    _, _, violations = replay(path, honor_injection=True)
    assert violations, f"{path}: recorded bug injection no longer reproduces"
