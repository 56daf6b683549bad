"""Regenerate every deterministic ``results/*.txt`` and diff it against the checked-in file.

``python tools/results_drift.py [--write]`` runs each row of ``TABLE`` through ``repro.cli.main``.
What a row names as wall clock is masked on both sides, the rest must match byte for byte.  Exits
non-zero on any diff and on any driver that exits non-zero (a figure whose ``failures()`` is not
empty says why on stderr).  ``--write`` overwrites the recorded files instead (review the ``git
diff``).  CI runs this under two ``PYTHONHASHSEED`` values and on the oldest supported interpreter:
same seed => same bytes.  Object sizes (``sys.getsizeof`` sums, fig10's MB columns) are the
interpreter's, not the seed's; before 3.11 they are masked too.
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
from typing import List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: results file, ``repro`` argv (``{out}``: the driver writes the file itself, otherwise it is stdout), pattern
#: of what in it is wall clock.  Why ``fig11.txt`` and ``chaos_live.txt`` are not here: results/README.md.
TABLE: List[Tuple[str, List[str], Optional[str]]] = [
    ("fig2.txt", ["fig2", "--scale", "0.1"], None),
    ("fig4.txt", ["fig4", "--scale", "0.15"], None),
    ("fig8.txt", ["fig8", "--scale", "0.25"], None),
    ("fig9.txt", ["fig9", "--scale", "0.25"], None),
    ("fig10.txt", ["fig10", "--quick"], r"[\d,]+ +[\d,]+ +(?=[\d.]+ MB +[\d.]+ MB)"),  # both ops/s columns
    ("table1.txt", ["table1"], None),
    ("ablations.txt", ["ablations"], None),
    ("chaos_sim.txt", ["chaos", "--backend", "sim", "--seed", "7", "--slo", "--out", "{out}"], None),
    ("chaos_total_outage.txt", ["chaos", "--plan", "total-outage", "--seed", "42", "--metrics-out", os.devnull,
                                "--out", "{out}"], None),
    ("chaos_crash_ramp.txt", ["chaos", "--plan", "crash-ramp", "--seed", "42", "--metrics-out", os.devnull,
                              "--out", "{out}"], None),
    ("chaos_resolver_crash.txt", ["chaos", "--plan", "resolver-crash", "--seed", "42", "--slo", "--metrics-out",
                                  os.devnull, "--out", "{out}"], None),
    ("scale.txt", ["scale", "--clients", "1000000", "--out", "{out}"], r"wall=[\d.]+s|\([\d,]+ client-seconds/wall"),
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
        for name, row, wall_clock in TABLE:
            path = os.path.join("results", name)
            code, text = regenerate(row, path if write else os.path.join(scratch, name))
            status |= code != 0
            if write:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                print(f"{path}: written, driver exited {code}")
                continue
            with open(path, "r", encoding="utf-8") as handle:
                sides = [re.sub(wall_clock, "~", side) if wall_clock else side for side in (handle.read(), text)]
            if sys.version_info < (3, 11):  # 3.11 shrank str-keyed dicts, so fig10's recorded sizes are its own
                sides = [re.sub(r"[\d.]+ MB", "~ MB", side) for side in sides]
            diff = list(difflib.unified_diff(sides[0].splitlines(), sides[1].splitlines(),
                                             path, f"repro {' '.join(row)}", lineterm=""))
            print("\n".join([f"{path}: {'DRIFT' if diff else 'same'}, driver exited {code}"] + diff))
            status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())
