"""The shrunk regression corpus: counterexamples as checked-in JSON.

Every oracle violation the engine finds is minimised and written as one
self-describing JSON file.  ``tests/regressions/`` holds the curated
set; tier-1 replays each file on every run, so a once-found bug stays
found.

A corpus file records the *scenario* and the *historical* violations
(plus the bug injection that produced them, if any).  Replay runs the
scenario against the current code **without** re-injecting the bug:
a file whose defect has been fixed replays green, which is exactly the
regression-test contract.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.fuzz.oracles import Violation, check_all
from repro.fuzz.runner import FuzzObservations, run_scenario
from repro.fuzz.scenario import FuzzScenario

FORMAT_VERSION = 1


def counterexample_record(
    scenario: FuzzScenario,
    violations: List[Violation],
    master_seed: int,
    iteration: int,
    injected_bug: Optional[str] = None,
    note: str = "",
) -> Dict:
    """The JSON-ready form of one minimised counterexample."""
    return {
        "format_version": FORMAT_VERSION,
        "scenario_id": scenario.scenario_id,
        "note": note,
        "found_by": {"master_seed": master_seed, "iteration": iteration},
        "injected_bug": injected_bug,
        "violations": [v.to_dict() for v in violations],
        "scenario": scenario.to_dict(),
    }


def save_counterexample(directory: str, record: Dict) -> str:
    """Write one record as ``ce-<scenario_id>.json``; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"ce-{record['scenario_id']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_counterexample(path: str) -> Tuple[FuzzScenario, Dict]:
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    version = record.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported counterexample format {version!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    scenario = FuzzScenario.from_dict(record["scenario"])
    return scenario, record


def replay(
    path: str, honor_injection: bool = False
) -> Tuple[FuzzScenario, FuzzObservations, List[Violation]]:
    """Re-run a corpus file against the current code.

    ``honor_injection=True`` re-enables the recorded bug injection --
    useful to demonstrate what the file originally caught; the default
    replays the fixed code path, where the file must come back clean.
    """
    scenario, record = load_counterexample(path)
    inject = record.get("injected_bug") if honor_injection else None
    observations = run_scenario(scenario, inject_bug=inject)
    return scenario, observations, check_all(scenario, observations)
