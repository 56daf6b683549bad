"""Flash crowds (false-positive control) and end-to-end weighted shares.

Filtering-based defenses notoriously punish flash crowds (paper §2.2,
§7: "filtering methods are subject to false positives").  DCC must not:
a sudden benign surge of many distinct clients is exactly fair-queueing's
home turf -- everyone gets a share, nobody gets convicted.
"""

import pytest

from repro.experiments.common import AttackScenario, ScenarioConfig
from repro.experiments.fig8_resilience import paper_monitor_config
from repro.workloads.schedule import ClientSpec


class TestFlashCrowd:
    def _surge(self, use_dcc: bool, crowd: int = 25, seed: int = 3):
        duration = 8.0
        config = ScenarioConfig(
            seed=seed,
            duration=duration,
            channel_capacity=500.0,
            use_dcc=use_dcc,
            monitor=paper_monitor_config(time_scale=duration / 60.0),
        )
        scenario = AttackScenario(config)
        specs = [ClientSpec("steady", 0.0, duration, 50.0, "WC")]
        # The crowd surges in together at t=2 (a viral event).
        specs.extend(
            ClientSpec(f"crowd{i}", 2.0, duration, 18.0, "WC") for i in range(crowd)
        )
        scenario.add_clients(specs)
        result = scenario.run()
        return scenario, result

    def test_no_convictions_during_flash_crowd(self):
        scenario, result = self._surge(use_dcc=True)
        shim = scenario.shims[0]
        assert shim.monitor.stats.convictions == 0
        assert shim.stats.queries_policed == 0

    def test_crowd_served_fairly(self):
        scenario, result = self._surge(use_dcc=True)
        # Aggregate demand 50 + 25*18 = 500 = capacity: everyone fits.
        ratios = [
            result.success_ratio(f"crowd{i}", 3.0, 7.5) for i in range(0, 25, 5)
        ]
        assert min(ratios) > 0.8
        assert result.success_ratio("steady", 3.0, 7.5) > 0.8

    def test_pre_existing_client_not_crowded_out(self):
        scenario, result = self._surge(use_dcc=True)
        steady_before = result.success_ratio("steady", 0.5, 1.9)
        steady_during = result.success_ratio("steady", 3.0, 7.5)
        assert steady_before > 0.95
        assert steady_during > 0.8  # fair share (500/26) exceeds demand


class TestWeightedSharesEndToEnd:
    def test_isp_share_carries_through_full_stack(self):
        """A share-4 client (an admitted ISP) sustains ~4x the rate of
        share-1 clients on a congested channel, end to end."""
        duration = 8.0
        addresses = {}

        def share_of(address: str) -> int:
            return 4 if address == addresses.get("isp") else 1

        config = ScenarioConfig(
            seed=5,
            duration=duration,
            channel_capacity=200.0,
            use_dcc=True,
            monitor=paper_monitor_config(time_scale=duration / 60.0),
        )
        scenario = AttackScenario(config)
        scenario.shims[0].scheduler.share_of = share_of  # MOPI-FQ shares map addresses
        scenario.add_clients([
            ClientSpec("isp", 0.0, duration, 400.0, "WC"),
            ClientSpec("home1", 0.0, duration, 400.0, "WC"),
            ClientSpec("home2", 0.0, duration, 400.0, "WC"),
        ])
        addresses["isp"] = scenario._client_addr["isp"]
        result = scenario.run()

        def mean_rate(name):
            series = result.effective_qps[name]
            return sum(series[3:8]) / 5

        isp = mean_rate("isp")
        homes = (mean_rate("home1") + mean_rate("home2")) / 2
        # Weighted MMF: isp 4/6 of 200 ~ 133, homes ~ 33 each.
        assert isp > 2.0 * homes
        assert isp + 2 * homes == pytest.approx(200.0, rel=0.25)
