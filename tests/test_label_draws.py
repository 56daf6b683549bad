"""Random labels: the same strings from the same stream, draw for draw.

``patterns._random_label`` draws six bits per character and redraws at 36
or above instead of calling ``rng.choice`` once per character.  That is
what ``choice`` does inside (``Random._randbelow`` over the 36-character
alphabet), so every label -- and every digest built on the names a run
sends -- must be unchanged, and so must the stream's state afterwards:
a client's ``names`` stream also picks pooled labels.  The oracle below is
the one-``choice``-per-character draw.
"""

import random

import pytest

from repro.netsim.sim import Simulator
from repro.workloads import patterns
from repro.workloads.patterns import NxdomainPattern, WildcardPattern


def choice_label(rng: random.Random, length: int = 12) -> str:
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    return "".join(rng.choice(alphabet) for _ in range(length))


def names_stream(seed: int, address: str) -> random.Random:
    """The stream a stub client at ``address`` draws its query names from."""
    return Simulator(seed=seed).rng(f"client.{address}.names")


@pytest.mark.parametrize("seed, address", [(7, "10.1.0.1"), (42, "10.2.0.9"), (11, "10.66.0.3")])
def test_a_hundred_thousand_labels_and_the_state_after_them(seed, address):
    drawn, expected = names_stream(seed, address), names_stream(seed, address)
    labels = [patterns._random_label(drawn) for _ in range(100_000)]
    assert labels == [choice_label(expected) for _ in range(100_000)]
    assert drawn.getstate() == expected.getstate()
    assert [drawn.random() for _ in range(8)] == [expected.random() for _ in range(8)]


@pytest.mark.parametrize("length", [1, 2, 12, 63])
def test_every_label_length(length):
    drawn, expected = names_stream(3, "10.0.0.1"), names_stream(3, "10.0.0.1")
    assert [patterns._random_label(drawn, length) for _ in range(2_000)] == [
        choice_label(expected, length) for _ in range(2_000)]
    assert drawn.getstate() == expected.getstate()


@pytest.mark.parametrize("pattern_class", [WildcardPattern, NxdomainPattern])
@pytest.mark.parametrize("pool_size", [None, 1, 64])
def test_the_patterns_ask_the_same_questions(monkeypatch, pattern_class, pool_size):
    """Pool mode interleaves label draws with ``rng.choice`` over the pool
    on the same stream, so a draw out of step would show in the picks."""
    def questions():
        pattern = pattern_class("target-domain.", pool_size=pool_size)
        rng = names_stream(7, "10.1.0.1")
        return [str(pattern.next_question(rng)) for _ in range(5_000)], rng.getstate()

    asked, state = questions()
    monkeypatch.setattr(patterns, "_random_label", choice_label)
    assert questions() == (asked, state)
    assert len(set(asked)) == (5_000 if pool_size is None else pool_size)
