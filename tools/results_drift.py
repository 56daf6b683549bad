"""The driver manifest ``TABLE``, and the tool that regenerates every deterministic ``results/*.txt`` from it.

``TABLE`` holds every driver command line: the recorded results, the drivers CI runs, what ``tools/reach.py`` runs.
``python tools/results_drift.py [--write]`` runs each row that has a diffed results file through ``repro.cli.main``.
What a row names as wall clock is masked on both sides, the rest must match byte for byte.  Exits non-zero on any
diff and on any driver that exits non-zero (a figure whose ``failures()`` is not empty says why on stderr).
``--write`` overwrites the recorded files instead (review the ``git diff``).  CI runs this under two
``PYTHONHASHSEED`` values and on the oldest supported interpreter: same seed => same bytes.  Object sizes
(``sys.getsizeof`` sums, fig10's MB columns) are the interpreter's, not the seed's; before 3.11 they are masked too.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import os
import re
import sys
import tempfile
from typing import List, NamedTuple, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Row(NamedTuple):
    name: str  # the results/ file the row regenerates, or a label for a driver that writes none
    argv: List[str]  # ``repro`` argv; ``{out}``: the driver writes the file itself (otherwise it is stdout)
    reach: Optional[List[str]] = None  # the smaller argv tools/reach.py runs instead; None: argv as it stands
    wall_clock: Optional[str] = None  # pattern of what in the file is wall clock
    expect: int = 0  # the exit code the driver must give
    by_hand: bool = False  # a results file regenerated by hand, not diffed: wall clock or real sockets

    @property
    def diffed(self) -> bool:
        return self.name.endswith(".txt") and not self.by_hand


LIVE_SLO = ["chaos", "--backend", "live", "--seed", "7", "--slo", "--min-recovery", "0.8"]
SCALE_REACH = ["scale", "--clients", "10000", "--duration", "4", "--out", "{tmp}/scale.txt"]
#: ``{tmp}``, ``{ce}`` and a ``{tmp}/<plan>.json`` plan in an argv are what tools/reach.py makes of them
TABLE: List[Row] = [
    Row("fig2.txt", ["fig2", "--scale", "0.1"], ["fig2", "--scale", "0.05", "--resolvers", "10"]),
    Row("fig4.txt", ["fig4", "--scale", "0.15"], ["fig4", "--scale", "0.1", "--quick"]),
    Row("fig8.txt", ["fig8", "--scale", "0.25"], ["fig8", "--scale", "0.05"]),
    Row("fig9.txt", ["fig9", "--scale", "0.25"], ["fig9", "--scale", "0.05"]),
    Row("fig10.txt", ["fig10", "--quick"], ["fig10", "--quick", "--ops", "5000"],
        r"[\d,]+ +[\d,]+ +(?=[\d.]+ MB +[\d.]+ MB)"),  # both ops/s columns
    Row("table1.txt", ["table1"]),
    Row("ablations.txt", ["ablations"]),
    Row("chaos_sim.txt", ["chaos", "--backend", "sim", "--seed", "7", "--slo", "--out", "{out}"]),
    *[Row(f"chaos_{plan.replace('-', '_')}.txt",
          ["chaos", "--plan", plan, "--seed", "42", "--metrics-out", os.devnull, "--out", "{out}"],
          ["chaos", "--plan", f"{{tmp}}/{plan}.json", "--seed", "42", "--metrics-out", os.devnull])
      for plan in ("total-outage", "crash-ramp")],
    Row("chaos_resolver_crash.txt", ["chaos", "--plan", "resolver-crash", "--seed", "42", "--slo", "--metrics-out",
                                     os.devnull, "--out", "{out}"]),
    Row("scale.txt", ["scale", "--clients", "1000000", "--out", "{out}"], SCALE_REACH,
        r"wall=[\d.]+s|\([\d,]+ client-seconds/wall"),
    Row("fig11.txt", ["fig11", "--quick"], by_hand=True),  # wall clock, but for two constant rows
    Row("selfcheck", ["selfcheck", "--scale", "0.05"]),
    Row("obs", ["obs", "--scale", "0.1", "--out-dir", "{tmp}/obs"]),
    Row("chaos_live.txt", [*LIVE_SLO, "--out", "{out}"], [*LIVE_SLO, "--metrics-out", os.devnull], by_hand=True),
    *[Row(f"{plan} {backend}", ["chaos", "--backend", backend, "--seed", "1", "--plan", f"examples/{plan}.json",
                                *extra, "--metrics-out", os.devnull])
      for backend in ("sim", "live")
      for plan, extra in (("chaos_none", []), ("chaos_loss30", ["--min-goodput", "0.7"]))],
    Row("fuzz sweep", ["fuzz", "--seed", "42", "--iterations", "20", "--quiet", "--time-budget", "600",
                       "--corpus-dir", "{tmp}/fuzz-corpus"]),
    Row("fuzz self-test", ["fuzz", "--seed", "12", "--iterations", "1", "--inject-bug", "dangling-glueless",
                           "--corpus-dir", "{tmp}/fuzz-selftest", "--quiet"], expect=1),
    Row("fuzz replay", ["fuzz", "--replay", "{ce}"]),
    Row("fuzz replay with bug", ["fuzz", "--replay", "{ce}", "--replay-with-bug"], expect=1),
    Row("lint", ["lint", "src/", "tests/", "tools/", "--ratchet", "--stats"]),
    Row("scale smoke", ["scale", "--clients", "100000", "--seed", "42", "--runs", "2", "--out",
                        "{tmp}/scale_smoke.txt"], SCALE_REACH),
]


def regenerate(argv: List[str], out: str) -> Tuple[int, str]:
    """Run one row; its exit code and the text of the results file it stands for."""
    from repro.cli import main as repro_main  # src/ is on the path only once main() has put it there

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = repro_main([arg.format(out=out) for arg in argv])
    if "{out}" not in argv:
        return code, stdout.getvalue()
    with open(out, "r", encoding="utf-8") as handle:
        return code, handle.read()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="regenerate the deterministic results/*.txt and diff them")
    parser.add_argument("--write", action="store_true", help="overwrite results/*.txt instead of comparing")
    write = parser.parse_args(argv).write
    os.chdir(ROOT)  # drivers resolve results/ and examples/ against the checkout
    sys.path.insert(0, os.path.join(ROOT, "src"))
    status = 0
    with tempfile.TemporaryDirectory() as scratch:
        for row in [row for row in TABLE if row.diffed]:
            path = os.path.join("results", row.name)
            code, text = regenerate(row.argv, path if write else os.path.join(scratch, row.name))
            status |= code != 0
            if write:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                print(f"{path}: written, driver exited {code}")
                continue
            with open(path, "r", encoding="utf-8") as handle:
                recorded = handle.read()
            sides = [re.sub(row.wall_clock, "~", side) if row.wall_clock else side for side in (recorded, text)]
            if sys.version_info < (3, 11):  # 3.11 shrank str-keyed dicts, so fig10's recorded sizes are its own
                sides = [re.sub(r"[\d.]+ MB", "~ MB", side) for side in sides]
            diff = list(difflib.unified_diff(sides[0].splitlines(), sides[1].splitlines(),
                                             path, f"repro {' '.join(row.argv)}", lineterm=""))
            print("\n".join([f"{path}: {'DRIFT' if diff else 'same'}, driver exited {code}"] + diff))
            status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())
