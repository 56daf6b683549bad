"""Time-series / percentile / report helper tests."""

import pytest

from repro.analysis.report import render_table, sparkline
from repro.analysis.series import TimeSeries, percentile


class TestTimeSeries:
    def test_bucketing(self):
        ts = TimeSeries(duration=10.0, bucket=1.0)
        ts.add(0.5)
        ts.add(0.7)
        ts.add(3.2)
        rates = ts.rates()
        assert rates[0] == 2.0
        assert rates[3] == 1.0
        assert rates[5] == 0.0

    def test_rates_per_second(self):
        ts = TimeSeries(duration=4.0, bucket=2.0)
        for _ in range(10):
            ts.add(1.0)
        assert ts.rates()[0] == 5.0  # 10 events / 2 s bucket

    def test_out_of_range_ignored(self):
        ts = TimeSeries(duration=5.0)
        ts.add(-1.0)
        ts.add(100.0)
        assert sum(ts.rates()) == 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TimeSeries(0)
        with pytest.raises(ValueError):
            TimeSeries(10, bucket=0)

    def test_weighted_add(self):
        ts = TimeSeries(duration=2.0)
        ts.add(0.5, amount=5.0)
        assert ts.rates()[0] == 5.0


class TestDistributions:
    def test_percentile_basics(self):
        data = list(range(1, 101))
        assert percentile(data, 50) == pytest.approx(50.5)
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 100

    def test_percentile_single_sample(self):
        assert percentile([42.0], 99) == 42.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)



class TestReport:
    def test_render_table_alignment(self):
        table = render_table(["name", "value"], [["a", 1], ["longer", 22]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4
        assert "longer" in lines[3]

    def test_sparkline_shape(self):
        line = sparkline([0, 1, 2, 3, 4, 5])
        assert len(line) == 6
        assert line[0] == " " and line[-1] == "█"

    def test_sparkline_empty_and_flat(self):
        assert sparkline([]) == ""
        assert sparkline([0, 0, 0]) == "   "

    def test_sparkline_downsamples(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40
