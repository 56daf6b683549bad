"""CLI dispatcher tests (fast paths only)."""

import argparse
import json
import re

import pytest

from repro.cli import COMMANDS, main

#: what ``repro <command>`` defaulted to before every driver owned its
#: parser (the table in cli.py restated them); they are the only defaults
DEFAULTS = {
    "fig2": {"scale": 0.1, "resolvers": None},
    "fig4": {"scale": 0.15, "quick": False},
    "fig8": {"scale": 0.25, "seed": 42, "obs": None},
    "fig9": {"scale": 0.25, "seed": 42},
    "fig10": {"quick": False, "ops": 50_000, "seed": 11},
    "fig11": {"quick": False},
    "table1": {},
    "ablations": {"seed": 1},
    "selfcheck": {"seed": 42, "scale": 0.05, "runs": 2, "out": None},
    "fuzz": {"seed": 42, "iterations": 25, "time_budget": None, "log": None,
             "corpus_dir": "results/fuzz-corpus", "shrink_budget": 150, "inject_bug": None,
             "replay": None, "replay_with_bug": False, "quiet": False},
    "chaos": {"backend": "sim", "seed": 1, "plan": "default", "out": None,
              "metrics_out": None, "check_against": None, "slo": False,
              "min_recovery": 0.8, "max_mttr": None, "min_goodput": None},
    "scale": {"clients": 1_000_000, "seed": 42, "duration": 20.0, "tick": 0.1, "mode": "all", "runs": 2,
              "attacker_rate": 1200.0, "no_check_verdicts": False, "out": "results/scale.txt"},
}


def test_table1_runs(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "DCC total" in out


def test_fig2_small(capsys):
    assert main(["fig2", "--scale", "0.05", "--resolvers", "2"]) == 0
    out = capsys.readouterr().out
    assert "IRL WC" in out
    assert "Uncertain" in out


def test_fig11_quick(capsys):
    assert main(["fig11", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "p99" in out


def test_fig10_quick_small_ops(capsys):
    assert main(["fig10", "--quick", "--ops", "2000"]) == 0
    out = capsys.readouterr().out
    assert "Figure 10(a)" in out and "Figure 10(b)" in out


def test_ablations(capsys, monkeypatch):
    """The scheduler-level studies run for real; the three that run
    whole simulations are left to the results-drift job, which
    regenerates results/ablations.txt, so tier-1 gains no simulation."""
    for study in ("mitigation_study", "countdown_study", "e2e_scheduler_study"):
        monkeypatch.setattr(f"repro.experiments.ablations.{study}", lambda seed: {})
    assert main(["ablations"]) == 0
    out = capsys.readouterr().out
    assert "MOPI-FQ" in out
    assert "MMF deviation" in out
    assert "head-of-line" in out
    assert "Ablation 5" in out


def test_lint_subcommand_forwards_to_reprolint(capsys, tmp_path):
    bad = tmp_path / "src" / "repro" / "netsim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "R1" in out

    good = tmp_path / "src" / "repro" / "netsim" / "good.py"
    good.write_text("def f(rng):\n    return rng.random()\n")
    assert main(["lint", str(good)]) == 0


def test_lint_subcommand_forwards_value_flags_verbatim(capsys):
    """``repro lint --format json``: no path given, a flag that takes a
    value -- the whole tree is linted and the flag reaches reprolint."""
    assert main(["lint", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 0


def test_lint_subcommand_propagates_path_errors(tmp_path):
    assert main(["lint", str(tmp_path / "missing")]) == 2


def test_help_lists_exactly_the_readme_cli_table(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    listed = re.search(r"\{([a-z0-9,]+)\}", capsys.readouterr().out).group(1)
    with open("README.md", encoding="utf-8") as fh:
        table = fh.read().split("All `repro` subcommands:")[1].split("\n\nSee ")[0]
    documented = re.findall(r"^\| `([a-z0-9-]+)` \|", table, re.MULTILINE)
    assert sorted(documented) == sorted(listed.split(","))
    assert "chaos" in documented and len(documented) == 13


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_subcommand_has_its_own_help(name, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([name, "--help"])
    assert exit_info.value.code == 0
    usage = "usage: reprolint" if name == "lint" else f"usage: repro {name}"
    assert capsys.readouterr().out.startswith(usage)


@pytest.mark.parametrize("name", sorted(set(COMMANDS) - {"lint"}))  # lint's are reprolint's
def test_subcommand_defaults_are_the_ones_repro_cmd_had(name, monkeypatch):
    """Stop each driver at its ``parse_args`` and parse an empty command
    line with its parser instead."""
    class Parsed(Exception):
        pass

    parse_args = argparse.ArgumentParser.parse_args

    def parse_nothing(parser, args=None, namespace=None):
        raise Parsed(vars(parse_args(parser, [])))

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_nothing)
    with pytest.raises(Parsed) as parsed:
        main([name])
    assert parsed.value.args[0] == DEFAULTS[name]


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_command_required():
    with pytest.raises(SystemExit):
        main([])
