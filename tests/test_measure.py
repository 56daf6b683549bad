"""Measurement-study tests: population shape and prober methodology."""

import pytest

from repro.measure.population import (
    FIGURE2_BUCKETS,
    TABLE3_RESOLVERS,
    bucket_of,
    build_population,
)
from repro.measure.prober import RateLimitProber


class TestPopulation:
    def test_forty_five_resolvers(self):
        assert len(TABLE3_RESOLVERS) == 45
        assert len(build_population()) == 45

    def test_table3_names_present(self):
        names = {name for name, _ in TABLE3_RESOLVERS}
        for expected in ("Google DNS", "Cloudflare", "Quad9", "Quad101", "OpenNIC"):
            assert expected in names

    def test_deterministic_by_seed(self):
        a = build_population(seed=5)
        b = build_population(seed=5)
        assert [(p.ingress_limit, p.egress_limit) for p in a] == [
            (p.ingress_limit, p.egress_limit) for p in b
        ]
        c = build_population(seed=6)
        assert [(p.ingress_limit) for p in a] != [(p.ingress_limit) for p in c]

    def test_distribution_matches_figure2_shape(self):
        """Over a third below 100 QPS; ~40 of 45 below 1500 (Section 2.2.1)."""
        population = build_population()
        limits = [p.ingress_limit for p in population]
        below_100 = sum(1 for l in limits if l is not None and l <= 100)
        below_1500 = sum(1 for l in limits if l is not None and l <= 1500)
        assert below_100 >= 12
        assert below_1500 >= 33

    def test_some_nx_specific_limits(self):
        population = build_population()
        assert any(p.ingress_limit_nx is not None for p in population)
        for p in population:
            if p.ingress_limit_nx is not None:
                assert p.ingress_limit_nx <= p.ingress_limit

    def test_about_half_egress_uncertain(self):
        population = build_population()
        uncertain = sum(1 for p in population if p.egress_limit is None)
        assert 13 <= uncertain <= 32

    def test_effective_ingress(self):
        population = build_population()
        profile = next(p for p in population if p.ingress_limit_nx is not None)
        assert profile.effective_ingress(nxdomain=True) == profile.ingress_limit_nx
        assert profile.effective_ingress(nxdomain=False) == profile.ingress_limit

    def test_bucket_of(self):
        assert bucket_of(50) == "1-100"
        assert bucket_of(300) == "101-500"
        assert bucket_of(1000) == "501-1500"
        assert bucket_of(3000) == "1501-5000"
        assert bucket_of(None) == "Uncertain"
        assert bucket_of(9999) == "Uncertain"
        assert len(FIGURE2_BUCKETS) == 4


class TestProber:
    def _profile(self, **overrides):
        from repro.measure.population import ResolverProfile

        defaults = dict(
            name="TestResolver",
            address="198.18.0.1",
            ingress_limit=300.0,
            ingress_limit_nx=None,
            egress_limit=None,
            action="drop",
        )
        defaults.update(overrides)
        return ResolverProfile(**defaults)

    def test_ingress_estimate_close_to_truth(self):
        prober = RateLimitProber(self._profile(), scale=0.1)
        result = prober.probe_ingress("WC")
        assert not result.uncertain and result.probe_steps >= 1
        assert result.limit == pytest.approx(300.0, rel=0.4)
        assert bucket_of(result.limit) == bucket_of(300.0)

    def test_unlimited_resolver_reported_uncertain(self):
        prober = RateLimitProber(
            self._profile(ingress_limit=None), scale=0.1
        )
        result = prober.probe_ingress("WC")
        assert result.uncertain

    def test_nx_specific_limit_detected_lower(self):
        profile = self._profile(ingress_limit=800.0, ingress_limit_nx=100.0)
        prober = RateLimitProber(profile, scale=0.1)
        wc = prober.probe_ingress("WC")
        nx = prober.probe_ingress("NX")
        assert nx.limit < wc.limit

    def test_servfail_action_still_measurable(self):
        prober = RateLimitProber(
            self._profile(action="servfail"), scale=0.1
        )
        result = prober.probe_ingress("WC")
        assert not result.uncertain
        assert result.limit == pytest.approx(300.0, rel=0.4)

    def test_egress_limit_detected_via_amplification(self):
        profile = self._profile(ingress_limit=2000.0, egress_limit=500.0)
        prober = RateLimitProber(profile, scale=0.1)
        result = prober.probe_egress("FF", ingress_limit=2000.0)
        assert not result.uncertain
        # Best-effort estimate (the paper flags the same caveat).
        assert result.limit == pytest.approx(500.0, rel=0.7)

    def test_invalid_pattern_tags(self):
        prober = RateLimitProber(self._profile(), scale=0.1)
        with pytest.raises(ValueError):
            prober.probe_ingress("FF")
        with pytest.raises(ValueError):
            prober.probe_egress("WC", None)
