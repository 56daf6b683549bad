"""The per-rule ratchet: finding counts may only go down.

The ratchet tracks one integer per rule.  CI fails on any increase; on
a decrease it prints the shrunken table so the developer commits the
tightened budget with the fix.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence, Tuple

from tools.reprolint.rules import RULES, Finding

#: the checked-in ratchet state
DEFAULT_RATCHET = os.path.join(os.path.dirname(__file__), "ratchet.json")


def count_by_rule(findings: Sequence[Finding]) -> Dict[str, int]:
    counts = {rule_id: 0 for rule_id in sorted(RULES)}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return counts


def load_ratchet(path: str) -> Dict[str, int]:
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    rules = payload.get("rules", {})
    return {str(k): int(v) for k, v in rules.items()}


def write_ratchet(path: str, counts: Dict[str, int]) -> None:
    payload = {
        "comment": "Per-rule reprolint finding budgets; counts may only "
                   "decrease. Regenerate with --update-ratchet.",
        "rules": {rule_id: counts.get(rule_id, 0) for rule_id in sorted(RULES)},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def check_ratchet(
    findings: Sequence[Finding], path: str
) -> Tuple[bool, List[str]]:
    """(ok, messages).  Missing budgets default to 0 -- a brand-new rule
    starts fully ratcheted."""
    counts = count_by_rule(findings)
    budgets = load_ratchet(path)
    regressions: List[str] = []
    improvements: List[str] = []
    for rule_id in sorted(counts):
        budget = budgets.get(rule_id, 0)
        count = counts[rule_id]
        if count > budget:
            regressions.append(
                f"{rule_id}: {count} finding(s) > ratcheted budget {budget}")
        elif count < budget:
            improvements.append(f"{rule_id}: {budget} -> {count}")
    messages: List[str] = []
    if regressions:
        messages.append("ratchet violated (counts may only decrease):")
        messages.extend(f"  {r}" for r in regressions)
    if improvements:
        messages.append(
            "ratchet can tighten -- run with --update-ratchet and commit "
            + path + ":")
        messages.extend(f"  {i}" for i in improvements)
    return (not regressions, messages)
