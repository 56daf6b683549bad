"""Unit tests for the reprolint per-file rules (R1-R5) and the CLI.

The whole-program rules (R6-R11) and the ratchet each have their own
test module (``test_reprolint_*.py``).
"""

import json
import os
import subprocess
import sys
import textwrap


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from tools import reprolint  # noqa: E402
from tools.reprolint import rules  # noqa: E402

SIM_PATH = "src/repro/netsim/fake.py"
EXPERIMENT_PATH = "src/repro/experiments/fake.py"


def lint(source, path=SIM_PATH):
    return reprolint.lint_source(textwrap.dedent(source), path)


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# R1: wall clock / unseeded randomness
# ----------------------------------------------------------------------

def test_r1_flags_wall_clock_reads():
    src = """\
    import time
    import datetime

    def stamp():
        a = time.time()
        b = time.monotonic()
        c = datetime.datetime.now()
        return a, b, c
    """
    findings = lint(src)
    assert rules_of(findings) == ["R1"]
    assert len(findings) == 3


def test_r1_flags_module_level_random():
    src = """\
    import random

    def jitter():
        return random.random() + random.uniform(0, 1)
    """
    findings = lint(src)
    assert rules_of(findings) == ["R1"]
    assert len(findings) == 2


def test_r1_allows_seeded_instance_rng():
    src = """\
    import random

    def jitter(rng: random.Random) -> float:
        local = random.Random(7)
        return rng.random() + local.uniform(0, 1)
    """
    assert lint(src) == []


def test_r1_only_applies_to_sim_packages():
    src = """\
    import time

    def stamp():
        return time.time()
    """
    assert lint(src, path=EXPERIMENT_PATH) == []
    assert lint(src, path="tools/somewhere.py") == []


# ----------------------------------------------------------------------
# R2: mutation after handoff to schedule/send
# ----------------------------------------------------------------------

def test_r2_flags_mutation_after_schedule():
    src = """\
    def fire(sim, event):
        sim.schedule(1.0, on_fire, event)
        event.payload = None
    """
    findings = lint(src)
    assert rules_of(findings) == ["R2"]
    assert findings[0].line == 3


def test_r2_flags_subscript_mutation_after_send():
    src = """\
    def fire(node, msg):
        node.send("10.0.0.1", msg)
        msg.answers[0] = None
    """
    assert rules_of(lint(src)) == ["R2"]


def test_r2_allows_handoff_assignment_pattern():
    # The idiomatic `x.timer = sim.schedule(..., x)` must not self-flag.
    src = """\
    def arm(sim, pending):
        pending.timer = sim.schedule(1.0, on_timeout, pending)
    """
    assert lint(src) == []


def test_r2_allows_mutation_before_schedule():
    src = """\
    def fire(sim, event):
        event.payload = 3
        sim.schedule(1.0, on_fire, event)
    """
    assert lint(src) == []


def test_r2_scope_is_per_function():
    src = """\
    def a(sim, event):
        sim.schedule(1.0, on_fire, event)

    def b(event):
        event.payload = None
    """
    assert lint(src) == []


# ----------------------------------------------------------------------
# R3: set iteration
# ----------------------------------------------------------------------

def test_r3_flags_iteration_over_set_literal():
    src = """\
    def walk():
        for item in {"a", "b"}:
            yield item
    """
    assert rules_of(lint(src)) == ["R3"]


def test_r3_flags_iteration_over_set_call_and_comprehension():
    src = """\
    def walk(xs):
        for item in set(xs):
            yield item
        total = sum(x for x in {v for v in xs})
        return total
    """
    findings = lint(src)
    assert rules_of(findings) == ["R3"]
    assert len(findings) == 2


def test_r3_flags_sorted_not_required_elsewhere():
    src = """\
    def walk(xs):
        for item in sorted(set(xs)):
            yield item
    """
    assert lint(src) == []


# ----------------------------------------------------------------------
# R4: schedule callbacks must be named callables
# ----------------------------------------------------------------------

def test_r4_flags_lambda_callback():
    src = """\
    def arm(sim):
        sim.schedule(1.0, lambda: None)
    """
    assert rules_of(lint(src)) == ["R4"]


def test_r4_flags_closure_callback():
    src = """\
    def arm(sim):
        def later():
            pass
        sim.schedule(1.0, later)
    """
    assert rules_of(lint(src)) == ["R4"]


def test_r4_allows_bound_method_and_module_function():
    src = """\
    def on_fire():
        pass

    class Node:
        def arm(self, sim):
            sim.schedule(1.0, self._tick)
            sim.schedule(1.0, on_fire)

        def _tick(self):
            pass
    """
    assert lint(src) == []


# ----------------------------------------------------------------------
# R5: print outside cli/experiments
# ----------------------------------------------------------------------

def test_r5_flags_print_in_sim_code():
    src = """\
    def debug(x):
        print(x)
    """
    assert rules_of(lint(src)) == ["R5"]


def test_r5_allows_print_in_experiments_cli_tests():
    src = """\
    def report(x):
        print(x)
    """
    assert lint(src, path=EXPERIMENT_PATH) == []
    assert lint(src, path="src/repro/cli.py") == []
    assert lint(src, path="tests/test_something.py") == []


# ----------------------------------------------------------------------
# suppressions, fingerprints, CLI
# ----------------------------------------------------------------------

def test_suppression_comment_silences_one_rule():
    src = """\
    import time

    def stamp():
        return time.time()  # reprolint: disable=R1 -- intentional
    """
    assert lint(src) == []


def test_suppression_all_and_multiple_rules():
    src = """\
    def debug(x):
        print(x)  # reprolint: disable=all
        for item in {"a"}:  # reprolint: disable=R3, R5
            print(item)  # reprolint: disable=R5
    """
    assert lint(src) == []


def test_suppression_of_wrong_rule_keeps_finding():
    src = """\
    def debug(x):
        print(x)  # reprolint: disable=R1
    """
    assert rules_of(lint(src)) == ["R5"]


def test_fingerprint_is_line_number_independent():
    a = lint("def f():\n    print(1)\n")[0]
    b = lint("\n\n\ndef f():\n    print(1)\n")[0]
    assert a.line != b.line
    assert reprolint.fingerprint(a) == reprolint.fingerprint(b)


def test_every_rule_has_id_and_description():
    assert set(rules.RULES) == {
        "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "R11",
    }
    for rule_id, description in rules.RULES.items():
        assert description, rule_id


def test_cli_json_names_the_rule(tmp_path, capsys):
    from tools.reprolint import __main__ as cli

    bad = tmp_path / "src" / "repro" / "netsim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")

    assert cli.main([str(bad), "--format=json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert [finding["rule"] for finding in payload["findings"]] == ["R1"]


def test_clean_file_exits_zero(tmp_path):
    from tools.reprolint import __main__ as cli

    good = tmp_path / "src" / "repro" / "netsim" / "good.py"
    good.parent.mkdir(parents=True)
    good.write_text("def f(rng):\n    return rng.random()\n")
    assert cli.main([str(good)]) == 0


def test_nonexistent_path_is_a_hard_error(tmp_path):
    """A path that does not exist must exit 2, not silently pass."""
    from tools.reprolint import __main__ as cli

    missing = tmp_path / "does-not-exist"
    assert cli.main([str(missing)]) == 2
    # ...even when mixed with paths that do exist.
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert cli.main([str(good), str(missing)]) == 2


def test_repo_source_tree_is_clean():
    """The checked-in tree must lint clean (acceptance criterion)."""
    result = subprocess.run(
        [sys.executable, "-m", "tools.reprolint", "src/", "tests/", "tools/",
         "--format=json"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["findings"] == []
