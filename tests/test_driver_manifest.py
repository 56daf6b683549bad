"""The driver manifest (``tools/results_drift.TABLE``) is the one list of driver command lines, checked without
running a driver: its rows are well formed, every ``results/*.txt`` is one of them, and every ``python -m repro``
and ``python -m tools.reprolint`` command CI runs is a row's ``argv`` or ``reach`` form once the flags that only
say where output goes are dropped."""

import glob
import os
import re
import shlex
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from tools.results_drift import TABLE  # noqa: E402

from repro.cli import COMMANDS  # noqa: E402

#: flags whose value is only where output goes; ``--replay`` keeps the flag and drops its path
OUTPUT_FLAGS = ("--out", "--metrics-out", "--check-against", "--log", "--out-dir", "--corpus-dir")
#: judgement flags a ``--check-against`` rerun may leave out, with how many values each takes
JUDGEMENT_FLAGS = {"--slo": 0, "--min-recovery": 1, "--min-goodput": 1}
#: one shell command line (continuations joined), up to the first ``&&``, ``||`` or ``|``
CI_COMMAND = re.compile(r"^\s*(?:run:\s*)?(?:timeout \d+ )?python -m (repro|tools\.reprolint) ((?:(?!&&|\|).)*)",
                        re.MULTILINE)


def ci_commands(text):
    """Every ``repro`` argv the workflow ``text`` runs, ``python -m tools.reprolint`` as ``lint``."""
    joined = re.sub(r"\\\n\s*", "", text)
    return [(["lint"] if module == "tools.reprolint" else []) + shlex.split(rest)
            for module, rest in CI_COMMAND.findall(joined)]


def normal(argv, rerun):
    """``argv`` without output paths, and without judgement flags when it is compared with a rerun."""
    kept, args = [], iter(argv)
    for arg in args:
        if arg in OUTPUT_FLAGS:
            next(args)
        elif rerun and arg in JUDGEMENT_FLAGS:
            for _ in range(JUDGEMENT_FLAGS[arg]):
                next(args)
        else:
            kept.append(arg)
            if arg == "--replay":
                next(args)
    return kept


def matching_rows(argv):
    rerun = "--check-against" in argv
    return [row.name for row in TABLE for form in (row.argv, row.reach)
            if form is not None and normal(form, rerun) == normal(argv, rerun)]


with open(os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml"), encoding="utf-8") as handle:
    CI = ci_commands(handle.read())


def test_the_ci_parser_finds_every_driver_step():
    # lint; two selfchecks; the matrix plans and their rerun; obs; the fuzz sweep, self-test and two replays;
    # live smoke, rerun and loss leg; scale smoke; sim and live chaos, each with a rerun
    assert len(CI) == 1 + 2 + 3 + 1 + 4 + 3 + 1 + 4
    assert {argv[0] for argv in CI} == {"lint", "selfcheck", "chaos", "obs", "fuzz", "scale"}


@pytest.mark.parametrize("argv", CI, ids=lambda argv: " ".join(argv))
def test_every_ci_command_is_a_manifest_row(argv):
    assert matching_rows(argv)


def test_a_ci_command_with_another_seed_matches_no_row():
    line = ("        run: |\n          timeout 120 python -m repro chaos --backend sim --seed {} \\\n"
            "            --slo --out results/chaos_sim.txt && exit 1 || true\n")
    same, other = ci_commands(line.format(7)), ci_commands(line.format(8))
    assert same == [["chaos", "--backend", "sim", "--seed", "7", "--slo", "--out", "results/chaos_sim.txt"]]
    assert matching_rows(same[0]) == ["chaos_sim.txt"]
    assert matching_rows(other[0]) == []


def test_row_names_are_unique():
    names = [row.name for row in TABLE]
    assert len(names) == len(set(names))


def test_every_row_runs_a_repro_subcommand():
    assert [row.name for row in TABLE for form in (row.argv, row.reach) if form and form[0] not in COMMANDS] == []


def test_every_diffed_row_has_its_results_file():
    results = os.path.join(REPO_ROOT, "results")
    assert [row.name for row in TABLE if row.diffed and not os.path.isfile(os.path.join(results, row.name))] == []


def test_every_results_file_is_a_row():
    recorded = sorted(os.path.basename(path) for path in glob.glob(os.path.join(REPO_ROOT, "results", "*.txt")))
    rows = sorted(row.name for row in TABLE if row.diffed or row.by_hand)
    assert recorded == rows and len(rows) == 14
    assert sum(row.diffed for row in TABLE) == 12
