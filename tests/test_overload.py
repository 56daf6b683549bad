"""Unit tests for front-end admission control (server/overload.py)."""

import pytest

from repro.server.overload import (
    OverloadConfig,
    OverloadController,
    ShedPolicy,
)


def make(high=10, low=4, **overrides):
    return OverloadController(
        OverloadConfig(high_watermark=high, low_watermark=low, **overrides)
    )


class TestHysteresis:
    def test_starts_open(self):
        c = make()
        assert not c.shedding
        assert c.admit(0) is True

    def test_engages_at_high_watermark(self):
        c = make(high=10, low=4)
        assert not c.pressure(9)
        assert c.pressure(10)
        assert c.shedding
        assert c.stats.shed_engagements == 1

    def test_releases_only_at_low_watermark(self):
        c = make(high=10, low=4)
        c.observe(10)
        assert c.pressure(7)  # between the watermarks: still shedding
        assert c.pressure(5)
        assert not c.pressure(4)
        assert not c.shedding

    def test_reengaging_counts_again(self):
        c = make(high=10, low=4)
        c.observe(10)
        c.observe(3)
        c.observe(10)
        assert c.stats.shed_engagements == 2


def admit_all(controller, requests):
    """``admit`` each ``(pending, priority)`` in turn: ``[(priority, admitted)]``."""
    return [(priority, controller.admit(pending, priority)) for pending, priority in requests]


def shed_counts(verdicts):
    """What the resolver counts of the refused ones: ``(shed_requests, shed_suspected)``."""
    refused = [priority for priority, admitted in verdicts if not admitted]
    return len(refused), sum(1 for priority in refused if priority > 0)


class TestAdmission:
    def test_admits_everyone_when_not_shedding(self):
        c = make()
        verdicts = admit_all(c, [(5, 2)])
        assert verdicts == [(2, True)]
        assert shed_counts(verdicts)[0] == 0

    def test_sheds_suspects_first(self):
        c = make(high=10, low=4)
        c.observe(10)
        # In the hysteresis band, suspects are refused, normals drain.
        verdicts = admit_all(c, [(7, 1), (7, 2), (7, 0)])
        assert [admitted for _, admitted in verdicts] == [False, False, True]
        assert shed_counts(verdicts)[1] == 2
        assert c.stats.band_admissions == 1

    def test_sheds_normals_at_or_above_high(self):
        c = make(high=10, low=4)
        verdicts = admit_all(c, [(10, 0), (12, 0)])
        assert [admitted for _, admitted in verdicts] == [False, False]
        assert shed_counts(verdicts)[0] == 2
        assert shed_counts(verdicts)[1] == 0

    def test_deadline_for(self):
        c = make(request_deadline=1.5)
        assert c.deadline_for(10.0) == pytest.approx(11.5)
        assert make(request_deadline=0.0).deadline_for(10.0) is None

    def test_reset_clears_shedding_state(self):
        c = make(high=10, low=4)
        c.observe(10)
        c.reset()
        assert not c.shedding
        assert c.admit(5) is True


class TestConfigValidation:
    def test_high_watermark_must_be_positive(self):
        with pytest.raises(ValueError):
            OverloadConfig(high_watermark=0)

    def test_low_watermark_must_sit_below_high(self):
        with pytest.raises(ValueError):
            OverloadConfig(high_watermark=10, low_watermark=11)

    def test_shed_policies(self):
        assert OverloadConfig(shed_policy=ShedPolicy.DROP).shed_policy is ShedPolicy.DROP
