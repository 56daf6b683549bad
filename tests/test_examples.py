"""Keep the example scripts green: run the fast ones end to end."""

import runpy
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=None):
    saved_argv = sys.argv
    sys.argv = [str(EXAMPLES / name)] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = saved_argv


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "quickstart OK" in out
    assert "NXDOMAIN" in out


def test_oblivious_and_stale(capsys):
    run_example("oblivious_and_stale.py")
    out = capsys.readouterr().out
    assert "anon-" in out
    assert "served stale" in out


def test_measure_rate_limits_small(capsys):
    run_example("measure_rate_limits.py", ["2"])
    out = capsys.readouterr().out
    assert "probing 2 resolvers" in out
    assert "bucket ok" in out


def test_figure1_walkthrough(capsys):
    run_example("figure1_walkthrough.py")
    out = capsys.readouterr().out
    assert "only E suffers" in out
    assert "every stub keeps its fair slice" in out


def test_chaos_resilience(capsys):
    run_example("chaos_resilience.py")
    out = capsys.readouterr().out
    assert "chaos walkthrough OK" in out
    assert "resolver restarted" in out


def test_all_examples_exist_and_are_documented():
    scripts = sorted(p.name for p in EXAMPLES.glob("*.py"))
    assert len(scripts) >= 7
    for script in scripts:
        source = (EXAMPLES / script).read_text()
        assert source.lstrip().startswith(('#!/usr/bin/env python3', '"""')), script
        assert '"""' in source, f"{script} lacks a docstring"
