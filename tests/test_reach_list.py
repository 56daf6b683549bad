"""The checked-in unreached list (``tools/reach_unreached.txt``) and line list (``tools/reach_lines.txt``) stay true
to ``src/`` without running a driver: every entry names a function that exists, every line offset falls inside it
on a line start, every reason is from the fixed vocabulary, and each list is sorted and free of duplicates.  A
rename or an edit that leaves an entry behind fails here, not in the next ``tools/reach.py`` run."""

import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from tools import reach  # noqa: E402

ENTRIES = reach.read_listed()
LINE_ENTRIES = reach.read_listed_lines()
FUNCTIONS = {fn.key: fn for fn in reach.functions()}
STARTS = reach.line_starts()
#: the line list holds CPython 3.11+ line tables (``co_lines()``); older interpreters start lines elsewhere
LINE_TABLES = sys.version_info >= (3, 11)


def test_every_entry_is_an_existing_non_stub_function():
    for keys in ([key for key, _ in ENTRIES], [key for key, _, _ in LINE_ENTRIES]):
        missing = [key for key in keys if key not in FUNCTIONS]
        stubs = [key for key in keys if key in FUNCTIONS and FUNCTIONS[key].stub]
        assert missing == [] and stubs == []


def test_every_entry_gives_a_reason_from_the_vocabulary():
    assert ENTRIES and LINE_ENTRIES
    assert [key for key, reason in ENTRIES if not reach.reason_ok(reason)] == []
    assert [key for key, _, reason in LINE_ENTRIES if not reach.reason_ok(reason)] == []


def test_entries_are_sorted_and_unique():
    for keys in ([key for key, _ in ENTRIES], [key for key, _, _ in LINE_ENTRIES]):
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))


def bad_offsets(key, spans):
    """The span ends of a line entry that are not inside the function on one of its line starts, or out of order."""
    fn, starts = FUNCTIONS[key], STARTS.get(key, [])
    ends = sorted({offset for span in spans for offset in span})
    bad = [offset for offset in ends if not 0 < offset < fn.lines or (LINE_TABLES and offset not in starts)]
    return bad + [b for a, b in spans if a > b]


def test_every_line_offset_is_a_line_start_of_its_function():
    assert [(key, bad_offsets(key, spans)) for key, spans, _ in LINE_ENTRIES
            if key in FUNCTIONS and bad_offsets(key, spans)] == []


def test_line_spans_are_sorted_and_disjoint():
    for key, spans, _ in LINE_ENTRIES:
        assert all(b < next_a for (_, b), (next_a, _) in zip(spans, spans[1:])), key


@pytest.mark.skipif(not LINE_TABLES, reason="line starts of CPython before 3.11 differ from the list's")
def test_an_off_by_one_offset_is_rejected():
    # the first listed function with a line start whose next line is no line start (a blank or closing line)
    key, start = next((key, offset) for key, _, _ in LINE_ENTRIES for offset in STARTS[key]
                      if offset + 1 not in STARTS[key] and offset + 1 < FUNCTIONS[key].lines)
    assert bad_offsets(key, [(start, start)]) == []
    assert bad_offsets(key, [(start + 1, start + 1)]) == [start + 1]
    assert bad_offsets(key, [(start, start + 1)]) == [start + 1]
    assert bad_offsets(key, [(0, 0)]) != []  # the first line is the decorator or def line, never listed


def test_the_vocabulary_check_rejects_free_text():
    assert reach.reason_ok("owned by ROADMAP item 7: the live TCP fallback")
    assert reach.reason_ok("asyncio/OS callback")
    assert not reach.reason_ok("")
    assert not reach.reason_ok("owned by ROADMAP item N")
    assert not reach.reason_ok("nobody calls it")
