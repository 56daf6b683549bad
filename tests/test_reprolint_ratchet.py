"""The per-rule ratchet gate: counts may only decrease."""

import json
import os
import sys
import textwrap

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from tools.reprolint import engine, ratchet  # noqa: E402
from tools.reprolint.rules import RULES  # noqa: E402


def findings_from(tmp_path, source):
    bad = tmp_path / "src" / "repro" / "netsim" / "bad.py"
    bad.parent.mkdir(parents=True, exist_ok=True)
    bad.write_text(textwrap.dedent(source))
    return engine.run([str(tmp_path)]).findings


def test_count_by_rule_covers_every_rule():
    counts = ratchet.count_by_rule([])
    assert set(counts) == set(RULES)
    assert all(v == 0 for v in counts.values())


def test_missing_budget_defaults_to_zero(tmp_path):
    findings = findings_from(tmp_path, """\
        import time

        def f():
            return time.time()
        """)
    ok, messages = ratchet.check_ratchet(findings, str(tmp_path / "none.json"))
    assert not ok
    assert any("R1" in m and "budget 0" in m for m in messages)


def test_within_budget_passes_and_suggests_tightening(tmp_path):
    findings = findings_from(tmp_path, """\
        import time

        def f():
            return time.time()
        """)
    budgets = tmp_path / "ratchet.json"
    ratchet.write_ratchet(str(budgets), {"R1": 2})
    ok, messages = ratchet.check_ratchet(findings, str(budgets))
    assert ok
    assert any("--update-ratchet" in m for m in messages)
    assert any("R1: 2 -> 1" in m for m in messages)


def test_regression_fails_the_gate(tmp_path):
    findings = findings_from(tmp_path, """\
        import time

        def f():
            return time.time() + time.monotonic()
        """)
    budgets = tmp_path / "ratchet.json"
    ratchet.write_ratchet(str(budgets), {"R1": 1})
    ok, messages = ratchet.check_ratchet(findings, str(budgets))
    assert not ok
    assert any("2 finding(s) > ratcheted budget 1" in m for m in messages)


def test_write_load_roundtrip(tmp_path):
    path = tmp_path / "ratchet.json"
    ratchet.write_ratchet(str(path), {"R1": 3, "R6": 1})
    loaded = ratchet.load_ratchet(str(path))
    assert loaded["R1"] == 3
    assert loaded["R6"] == 1
    assert loaded["R2"] == 0  # every rule gets an explicit budget
    payload = json.loads(path.read_text())
    assert "comment" in payload


def test_checked_in_ratchet_is_fully_tightened():
    budgets = ratchet.load_ratchet(ratchet.DEFAULT_RATCHET)
    assert set(budgets) == set(RULES)
    assert all(v == 0 for v in budgets.values()), (
        "the tree lints clean; budgets must all be 0")


def test_cli_ratchet_is_the_gate(tmp_path):
    from tools.reprolint import __main__ as cli

    findings_from(tmp_path, """\
        import time

        def f():
            return time.time()
        """)
    budgets = tmp_path / "ratchet.json"
    ratchet.write_ratchet(str(budgets), {"R1": 1})
    # within budget: findings are printed but do not fail the gate
    assert cli.main([str(tmp_path), "--ratchet", str(budgets)]) == 0
    # tightened to zero: the same finding now fails
    ratchet.write_ratchet(str(budgets), {})
    assert cli.main([str(tmp_path), "--ratchet", str(budgets)]) == 1


def test_cli_update_ratchet_writes_current_counts(tmp_path):
    from tools.reprolint import __main__ as cli

    findings_from(tmp_path, """\
        import time

        def f():
            return time.time()
        """)
    budgets = tmp_path / "ratchet.json"
    assert cli.main([str(tmp_path), "--update-ratchet", "--ratchet", str(budgets)]) == 0
    assert ratchet.load_ratchet(str(budgets))["R1"] == 1
