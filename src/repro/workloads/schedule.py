"""Client schedules for the evaluation scenarios (paper Table 2).

Table 2 defines four traffic sources over a 60-second measurement
window:

=========  =====  ===  ====  ==========================================
Client     Start  End  QPS   Query pattern
=========  =====  ===  ====  ==========================================
Heavy      0      60   600   WC (scenarios a, c) or NX then WC (b)
Medium     0      50   350   WC
Light      20     60   150   WC
Attacker   10     60   1100  WC (a); 200/1100 NX (b); 50/20 FF (c)
=========  =====  ===  ====  ==========================================

(The attacker rate is 1100 for the WC scenario, 1100 -> policing-rate
comparisons for NX, and 50 QPS for FF, where amplification multiplies it
at the channel; Figure 9 reduces NX to 200 QPS and FF to 20 QPS.)

The helpers here return :class:`ClientSpec` lists that the experiment
drivers instantiate; a ``scale`` factor shrinks both rates and the
timeline for fast test runs while preserving every ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional


@dataclass(frozen=True)
class ClientSpec:
    """One row of Table 2."""

    name: str
    start: float
    stop: float
    rate: float
    pattern: str  # "WC", "NX", "FF", or "NX_THEN_WC"
    is_attacker: bool = False

    def scaled(self, time_scale: float = 1.0, rate_scale: float = 1.0) -> "ClientSpec":
        return replace(
            self,
            start=self.start * time_scale,
            stop=self.stop * time_scale,
            rate=self.rate * rate_scale,
        )


def table2_clients(
    scenario: str,
    attacker_rate: Optional[float] = None,
    time_scale: float = 1.0,
    rate_scale: float = 1.0,
) -> List[ClientSpec]:
    """The Table 2 client set for one evaluation scenario.

    ``scenario`` is ``"wildcard"`` (Figure 8a), ``"nxdomain"``
    (Figure 8b), or ``"amplification"`` (Figure 8c).
    """
    if scenario == "wildcard":
        heavy_pattern, attacker_pattern = "WC", "WC"
        default_attacker_rate = 1100.0
    elif scenario == "nxdomain":
        # The heavy client abuses NX for its first 20 seconds, then
        # switches to the benign WC pattern (Section 5.1, Scenario 2).
        heavy_pattern, attacker_pattern = "NX_THEN_WC", "NX"
        default_attacker_rate = 1100.0
    elif scenario == "amplification":
        heavy_pattern, attacker_pattern = "WC", "FF"
        default_attacker_rate = 50.0
    else:
        raise ValueError(f"unknown scenario {scenario!r}")

    rate = attacker_rate if attacker_rate is not None else default_attacker_rate
    specs = [
        ClientSpec("heavy", 0.0, 60.0, 600.0, heavy_pattern),
        ClientSpec("medium", 0.0, 50.0, 350.0, "WC"),
        ClientSpec("light", 20.0, 60.0, 150.0, "WC"),
        ClientSpec("attacker", 10.0, 60.0, rate, attacker_pattern, is_attacker=True),
    ]
    return [spec.scaled(time_scale, rate_scale) for spec in specs]


#: Scenario name -> Figure 8 subfigure, for reports.
TABLE2_SCENARIOS: Dict[str, str] = {
    "wildcard": "Figure 8(a)",
    "nxdomain": "Figure 8(b)",
    "amplification": "Figure 8(c)",
}

#: The signaling experiments (Figure 9) reduce the attacker's rate.
FIGURE9_ATTACKER_RATES: Dict[str, float] = {
    "nxdomain": 200.0,
    "amplification": 20.0,
}
