"""The checked-in unreached list (``tools/reach_unreached.txt``) stays true to ``src/`` without running a driver:
every entry names a function that exists, gives a reason from the fixed vocabulary, and the list is sorted and
free of duplicates.  A rename that leaves an entry behind fails here, not in the next ``tools/reach.py`` run."""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from tools import reach  # noqa: E402

ENTRIES = reach.read_listed()


def test_every_entry_is_an_existing_non_stub_function():
    functions = {fn.key: fn for fn in reach.functions()}
    missing = [key for key, _ in ENTRIES if key not in functions]
    stubs = [key for key, _ in ENTRIES if key in functions and functions[key].stub]
    assert missing == [] and stubs == []


def test_every_entry_gives_a_reason_from_the_vocabulary():
    assert ENTRIES
    assert [key for key, reason in ENTRIES if not reach.reason_ok(reason)] == []


def test_entries_are_sorted_and_unique():
    keys = [key for key, _ in ENTRIES]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_the_vocabulary_check_rejects_free_text():
    assert reach.reason_ok("owned by ROADMAP item 7: the live TCP fallback")
    assert reach.reason_ok("asyncio/OS callback")
    assert not reach.reason_ok("")
    assert not reach.reason_ok("owned by ROADMAP item N")
    assert not reach.reason_ok("nobody calls it")
