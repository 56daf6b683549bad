"""Each figure driver's ``failures()``: quiet on the paper's shape, loud on a doctored one."""

import pytest

from repro.experiments import ablations, fig2_ratelimits, fig4_attacks, fig8_resilience, fig9_signaling
from repro.experiments import fig10_overhead, fig11_delay, table1_state
from repro.experiments.common import ScenarioResult
from repro.measure.population import build_population


class _Client:
    def __init__(self, ratio):
        self.ratio = ratio

    def success_ratio(self, since, until):
        return self.ratio


def _result(qps=None, ratios=None):
    """A six-second scenario result with flat per-second series / fixed success ratios."""
    return ScenarioResult(
        clients={name: _Client(ratio) for name, ratio in (ratios or {}).items()},
        effective_qps={name: [value] * 6 for name, value in (qps or {}).items()},
        wire_qps={}, duration=6.0, resolver_stats=[], ans_queries=0, events_processed=0)


def _fig2(hit):
    return fig2_ratelimits.Figure2Result(measurements=[
        fig2_ratelimits.ResolverMeasurement(p, p.ingress_limit if hit else (p.ingress_limit or 0) + 5000, None, None, None)
        for p in build_population()[:8]])


def _sweep(*success):
    return [fig4_attacks.SweepResult("x", [fig4_attacks.SweepPoint(qps, s) for qps, s in enumerate(success, 1)])]


VANILLA8 = fig8_resilience.Figure8Run("wildcard", False, _result({"heavy": 270, "medium": 158, "light": 67}))
DCC8 = fig8_resilience.Figure8Run("wildcard", True, _result({"heavy": 297, "medium": 350, "light": 150}))
OFF9 = fig9_signaling.Figure9Run("nxdomain", False, _result(ratios={"heavy": 0.23, "light": 0.49, "medium": 1.0}))
ON9 = fig9_signaling.Figure9Run("nxdomain", True, _result(ratios={"heavy": 0.89, "light": 0.89, "medium": 1.0}))
#: signaling off, and the collateral reaches the direct client too
SPILLED9 = fig9_signaling.Figure9Run("nxdomain", False, _result(ratios={"heavy": 0.23, "light": 0.49, "medium": 0.3}))
SNAPSHOT = {"per-client (monitoring, policies)": 8, "per-server (NS info, RL, SRTT)": 6404}
ABLATIONS = {
    "fairness": {"fifo": (4.9, 78.0), "MOPI-FQ": (19.9, 32.0)},
    "hol": {"fifo": (0, 250), "leapfrog": (100, 250), "MOPI-FQ": (250, 250)},
    "depth": {50: {"heavy": 220.0, "medium": 351.0, "light": 150.0, "attacker": 279.0},
              300: {"heavy": 283.0, "medium": 283.0, "light": 150.0, "attacker": 283.0}},
    "mitigations": {"vanilla": {"benign_success": 0.13}, "rfc8198": {"benign_success": 1.0, "channel_load": 248,
                    "nsec_suppressed": 3195}, "dcc": {"benign_success": 1.0}},
    "countdown": {5: {"heavy": 0.89, "light": 0.88, "attacker": 0.0}},
    "e2e": {"MOPI-FQ": (1.0, 219.0), "fifo": (0.22, 280.0), "io-isolated": (1.0, 219.0)},
}


def _point(ops, dcc_bytes, servers):
    return fig10_overhead.OverheadPoint(1000, servers, ops, ops, dcc_bytes, 100_000_000)


def _e2e(vanilla_ms, dcc_ms):
    return [fig11_delay.DelaySample("vanilla (end-to-end)", [vanilla_ms]), fig11_delay.DelaySample("DCC (end-to-end)", [dcc_ms])]


#: driver, what it names, a result with the paper's shape, the same result doctored
CASES = [
    (fig2_ratelimits, "Figure 2", _fig2(hit=True), _fig2(hit=False)),
    (fig4_attacks, "Figure 4(a)", {"a": _sweep(1.0, 0.18)}, {"a": _sweep(0.18, 1.0)}),
    (fig8_resilience, "Figure 8", {"wildcard": {"vanilla": VANILLA8, "dcc": DCC8}},
     {"wildcard": {"vanilla": DCC8, "dcc": VANILLA8}}),
    (fig9_signaling, "Figure 9", {"nxdomain": {"off": OFF9, "on": ON9}}, {"nxdomain": {"off": ON9, "on": OFF9}}),
    (fig10_overhead, "Figure 10(a)", {"a": [_point(9e4, 2_000_000, 10_000), _point(8e4, 18_000_000, 100_000)]},
     {"a": [_point(9e4, 2_000_000, 10_000), _point(8e4, 180_000_000, 100_000)]}),  # DCC state above the resolver's
    (fig11_delay, "Figure 11", _e2e(2.0, 2.0), _e2e(2.0, 4.0)),
    (table1_state, "Table 1", table1_state.StateSnapshot(SNAPSHOT, {**SNAPSHOT, "per-server (NS info, RL, SRTT)": 2}),
     table1_state.StateSnapshot(SNAPSHOT, {**SNAPSHOT, "per-client (monitoring, policies)": 9000})),
    (ablations, "Figure 7 fairness", ABLATIONS, {"fairness": {"fifo": (19.9, 32.0)}}),  # a FIFO row that is fair
    (ablations, "Figure 7 head-of-line", ABLATIONS, {"hol": {"fifo": (250, 250)}}),
    (ablations, "Theorem B.1", ABLATIONS, {"depth": {300: ABLATIONS["depth"][50]}}),
    (ablations, "mitigation matrix: DCC", ABLATIONS,
     {"mitigations": {**ABLATIONS["mitigations"], "dcc": {"benign_success": 0.2}}}),
    (ablations, "countdown threshold 5", ABLATIONS, {"countdown": {5: {"heavy": 0.29, "light": 0.6, "attacker": 0.4}}}),
    (ablations, "Figure 7 end to end", ABLATIONS, {"e2e": {"MOPI-FQ": (0.5, 219.0)}}),
    (fig9_signaling, "signaling off", {"nxdomain": {"off": OFF9, "on": ON9}}, {"nxdomain": {"off": SPILLED9, "on": ON9}}),
]


@pytest.mark.parametrize("driver,names,good,doctored", CASES, ids=[f"{c[0].__name__[18:]}-{c[1]}" for c in CASES])
def test_failures_name_the_figure_whose_claim_broke(driver, names, good, doctored):
    assert driver.failures(good) == []
    problems = driver.failures(doctored)
    assert problems and all(names in problem for problem in problems)


def test_a_run_too_small_to_judge_says_so_on_stderr(capsys):
    small = fig2_ratelimits.Figure2Result(measurements=_fig2(hit=False).measurements[:3])
    assert fig2_ratelimits.failures(small) == [] and fig4_attacks.failures({"a": _sweep(1.0)}) == []
    captured = capsys.readouterr()
    assert captured.err.count("not judged: Figure") == 2 and captured.out == ""


def test_driver_exits_1_with_the_claim_on_stderr_and_the_figure_on_stdout(monkeypatch, capsys):
    monkeypatch.setattr(table1_state, "run_table1", lambda: CASES[6][3])
    assert table1_state.main([]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("Table 1: DCC's state should be no larger") and "Table 1" in captured.out


def test_a_changed_rate_constant_breaks_figure_8_end_to_end(monkeypatch):
    monkeypatch.setattr(fig8_resilience, "CHANNEL_QPS", 100.0)
    pair = {label: fig8_resilience.Figure8Run("wildcard", label == "dcc",
                                              fig8_resilience.build_scenario("wildcard", label == "dcc", 0.1).run())
            for label in ("vanilla", "dcc")}
    problems = fig8_resilience.failures({"wildcard": pair})
    assert problems and all(problem.startswith("Figure 8 (wildcard)") for problem in problems)
