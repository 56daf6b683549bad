"""CLI dispatcher tests (fast paths only)."""

import re

import pytest

from repro.cli import main


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


def test_ablations(capsys):
    assert main(["ablations"]) == 0
    out = capsys.readouterr().out
    assert "MOPI-FQ" in out
    assert "MMF deviation" in out
    assert "head-of-line" in out


def test_resilience_small(capsys, tmp_path):
    out_file = tmp_path / "matrix.txt"
    assert main(["resilience", "--scale", "0.05", "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "Resilience matrix" in out
    assert "hardened retains benign service" in out
    assert "plan total-outage" in out and "plan crash-ramp" in out
    assert "hardened+dcc" in out and "degradation start" in out
    assert "Resilience matrix" in out_file.read_text()


def test_lint_subcommand_forwards_to_reprolint(capsys, tmp_path):
    bad = tmp_path / "src" / "repro" / "netsim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    assert main(["lint", str(bad), "--no-cache", "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "R1" in out

    good = tmp_path / "src" / "repro" / "netsim" / "good.py"
    good.write_text("def f(rng):\n    return rng.random()\n")
    assert main(["lint", str(good), "--no-cache", "--no-baseline"]) == 0


def test_lint_subcommand_propagates_path_errors(tmp_path):
    assert main(["lint", str(tmp_path / "missing"), "--no-cache"]) == 2


def test_help_lists_exactly_the_readme_cli_table(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    listed = re.search(r"\{([a-z0-9,]+)\}", capsys.readouterr().out).group(1)
    with open("README.md", encoding="utf-8") as fh:
        table = fh.read().split("All `repro` subcommands:")[1].split("\n\nSee ")[0]
    documented = re.findall(r"^\| `([a-z0-9-]+)` \|", table, re.MULTILINE)
    assert sorted(documented) == sorted(listed.split(","))
    assert "chaos" in documented and len(documented) == 16


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_command_required():
    with pytest.raises(SystemExit):
        main([])
