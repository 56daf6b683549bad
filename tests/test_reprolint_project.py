"""Whole-program reprolint rules (R6-R11) over synthetic package trees.

Each test materialises a small ``src/repro/...`` tree under a tmp dir
and runs the full engine on it; ``module_name_for_path`` roots module
names after the last ``src`` component, so the synthetic trees resolve
exactly like the checked-in one.
"""

import os
import sys
import textwrap

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from tools.reprolint import engine, layering  # noqa: E402
from tools.reprolint.project import module_name_for_path  # noqa: E402


def lint_tree(tmp_path, files):
    """Write ``files`` (relpath -> source) and lint the tree."""
    for rel, src in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(src))
    return engine.run([str(tmp_path)])


def findings_for(result, rule):
    return [f for f in result.findings if f.rule == rule]


# ----------------------------------------------------------------------
# module naming and the import graph
# ----------------------------------------------------------------------

def test_module_names_root_after_src_and_anchors():
    assert module_name_for_path("src/repro/dcc/mopifq.py") == "repro.dcc.mopifq"
    assert module_name_for_path("/tmp/x/src/repro/util/a.py") == "repro.util.a"
    assert module_name_for_path("src/repro/obs/__init__.py") == "repro.obs"
    assert module_name_for_path("tests/test_foo.py") == "tests.test_foo"
    assert module_name_for_path("tools/reprolint/rules.py") == "tools.reprolint.rules"


def test_import_graph_on_synthetic_tree(tmp_path):
    result = lint_tree(tmp_path, {
        "src/repro/util/a.py": "",
        "src/repro/dnscore/b.py": "from repro.util import a\n",
        "src/repro/netsim/c.py": "import repro.dnscore.b\n",
    })
    graph = result.index.import_graph()
    assert graph["repro.dnscore.b"] == ["repro.util.a"]
    assert graph["repro.netsim.c"] == ["repro.dnscore.b"]
    assert graph["repro.util.a"] == []
    assert result.findings == []


# ----------------------------------------------------------------------
# R6: the layering contract
# ----------------------------------------------------------------------

def test_r6_rejects_dnscore_importing_netsim(tmp_path):
    """The acceptance-criterion fixture: a deliberate dnscore -> netsim
    edge must be rejected."""
    result = lint_tree(tmp_path, {
        "src/repro/netsim/sim.py": "",
        "src/repro/dnscore/bad.py": "from repro.netsim import sim\n",
    })
    r6 = findings_for(result, "R6")
    assert len(r6) == 1
    assert "'dnscore' may not import 'netsim'" in r6[0].message
    assert r6[0].path.endswith("src/repro/dnscore/bad.py")


def test_r6_allows_contracted_edges(tmp_path):
    result = lint_tree(tmp_path, {
        "src/repro/util/a.py": "",
        "src/repro/dnscore/b.py": "from repro.util import a\n",
        "src/repro/netsim/c.py": "from repro.dnscore import b\n",
        "src/repro/dcc/d.py": "from repro.netsim import c\n",
    })
    assert findings_for(result, "R6") == []


def test_r6_flags_type_checking_escaped_edge(tmp_path):
    """Hiding a forbidden edge behind TYPE_CHECKING does not excuse it."""
    result = lint_tree(tmp_path, {
        "src/repro/netsim/sim.py": "",
        "src/repro/dnscore/bad.py": """\
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.netsim import sim
            """,
    })
    r6 = findings_for(result, "R6")
    assert len(r6) == 1
    assert "TYPE_CHECKING-only" in r6[0].message


def test_r6_flags_import_cycles_including_type_only(tmp_path):
    result = lint_tree(tmp_path, {
        "src/repro/util/a.py": "from repro.util import b\n",
        "src/repro/util/b.py": """\
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.util import a
            """,
    })
    r6 = findings_for(result, "R6")
    # one finding per in-cycle import site
    assert len(r6) == 2
    assert all("import cycle" in f.message for f in r6)
    assert any("via TYPE_CHECKING" in f.message for f in r6)


def test_r6_suppression_with_justification(tmp_path):
    result = lint_tree(tmp_path, {
        "src/repro/netsim/sim.py": "",
        "src/repro/dnscore/bad.py":
            "from repro.netsim import sim"
            "  # reprolint: disable=R6 -- fixture justification\n",
    })
    assert findings_for(result, "R6") == []
    assert result.stats.suppressed == 1


# ----------------------------------------------------------------------
# R10: every src/ module is reached from an entry point
# ----------------------------------------------------------------------

_ENTRY_POINTS = {
    "src/repro/cli.py": 'COMMANDS = {"fig": ("repro.experiments.fig:main", "one figure")}\n',
    "src/repro/__main__.py": "from repro.cli import COMMANDS\n",
}


def test_r10_flags_a_module_nothing_reaches(tmp_path):
    result = lint_tree(tmp_path, {
        **_ENTRY_POINTS,
        "src/repro/experiments/fig.py": """\
            def main(argv):
                from repro.util import used
                return used.X
            """,
        "src/repro/util/used.py": "X = 1\n",
        "src/repro/util/planted.py": "Y = 2\n",
    })
    r10 = findings_for(result, "R10")
    assert [f.path.rpartition("src/")[2] for f in r10] == ["repro/util/planted.py"]
    assert "repro.util.planted" in r10[0].message


def test_r10_a_package_re_export_reaches_nothing(tmp_path):
    result = lint_tree(tmp_path, {
        **_ENTRY_POINTS,
        "src/repro/experiments/fig.py": "from repro.util import helper\n",
        "src/repro/util/__init__.py": "from repro.util.helper import helper\nfrom repro.util.hidden import Hidden\n",
        "src/repro/util/helper.py": "def helper():\n    return 1\n",
        "src/repro/util/hidden.py": "class Hidden:\n    pass\n",
    })
    assert [f.message.rpartition(" ")[2] for f in findings_for(result, "R10")] == ["repro.util.hidden"]


def test_r10_without_the_perf_root_flags_ordmap():
    """The checked-in tree is clean only because perf/trace.py imports
    util/ordmap.py for its ledger rows."""
    result = engine.run([os.path.join(REPO_ROOT, "src")])
    index, sources = result.index, result.sources
    assert layering.check_unreached(index, sources) == []
    without_perf = layering.check_unreached(index, sources, layering.entry_roots(index, sources, perf=False))
    assert [f.message.rpartition(" ")[2] for f in without_perf] == ["repro.util.ordmap"]


# ----------------------------------------------------------------------
# R11: every *Config field is set by a driver
# ----------------------------------------------------------------------

_KNOBS = """\
    from dataclasses import dataclass

    @dataclass
    class KnobConfig:
        rate: float = 1.0
        burst: float = 2.0
        idle: float = 3.0
        planted: int = 4  # SUPPRESS
    """


def r11_unset(tmp_path, driver, suppress="", **extra):
    """Names R11 flags when ``driver`` is the figure ``cli.COMMANDS`` runs."""
    result = lint_tree(tmp_path, {
        **_ENTRY_POINTS, **extra,
        "src/repro/util/knobs.py": _KNOBS.replace("# SUPPRESS", suppress),
        "src/repro/experiments/fig.py": "from repro.util.knobs import KnobConfig\n" + textwrap.dedent(driver),
    })
    return [f.message.split(": ")[1].split(" ")[0] for f in findings_for(result, "R11")]


def test_r11_flags_planted_and_test_only_fields(tmp_path):
    assert r11_unset(tmp_path, "X = KnobConfig(5.0, burst=6.0)\n", **{
        "tests/test_knobs.py": "from repro.util.knobs import KnobConfig\nY = KnobConfig(idle=9.0)\n",
    }) == ["KnobConfig.idle", "KnobConfig.planted"]


def test_r11_replace_and_config_attribute_writes_count_as_set(tmp_path):
    assert r11_unset(tmp_path, """\
        from dataclasses import replace

        def main(node):
            node.config.idle = 1.0
            return replace(KnobConfig(), rate=2.0, burst=3.0)
        """) == ["KnobConfig.planted"]


def test_r11_suppressed_line_is_not_flagged(tmp_path):
    driver = "X = KnobConfig(rate=1.0, burst=2.0, idle=3.0)\n"
    assert r11_unset(tmp_path, driver, suppress="# reprolint: disable=R11 -- paper mechanism") == []


# ----------------------------------------------------------------------
# R7: RNG-taint dataflow
# ----------------------------------------------------------------------

def test_r7_flags_module_global_rng_binding_and_draw(tmp_path):
    result = lint_tree(tmp_path, {
        "src/repro/netsim/g.py": """\
            import random

            _RNG = random.Random(7)

            def jitter():
                return _RNG.random()
            """,
    })
    r7 = findings_for(result, "R7")
    assert len(r7) == 2
    assert any("stored on module global '_RNG'" in f.message for f in r7)
    assert any("draws from module-global RNG '_RNG'" in f.message for f in r7)


def test_r7_follows_rng_across_modules_and_helpers(tmp_path):
    result = lint_tree(tmp_path, {
        "src/repro/netsim/pool.py": """\
            import random

            _RNG = random.Random(7)

            def get_rng():
                return _RNG
            """,
        "src/repro/netsim/user.py": """\
            from repro.netsim.pool import _RNG, get_rng

            def direct():
                return _RNG.random()

            def indirect():
                return get_rng().random()
            """,
    })
    r7 = findings_for(result, "R7")
    messages = [f.message for f in r7]
    # binding + imported-name draw + through-helper draw
    assert len(r7) == 3
    assert any("through get_rng()" in m for m in messages)
    assert any("direct()" in m for m in messages)


def test_r7_injected_rng_is_clean(tmp_path):
    result = lint_tree(tmp_path, {
        "src/repro/netsim/clean.py": """\
            import random

            class Node:
                def __init__(self, sim):
                    self.rng = sim.rng("node")

                def jitter(self, rng: random.Random) -> float:
                    local = random.Random(7)
                    stream = self.rng
                    return rng.random() + local.uniform(0, 1) + stream.random()
            """,
    })
    assert findings_for(result, "R7") == []


def test_r7_flags_unseeded_construction_outside_sim_packages(tmp_path):
    """R1 exempts experiments/ -- R7 does not let broken seed plumbing
    start there."""
    result = lint_tree(tmp_path, {
        "src/repro/experiments/e.py": """\
            import random

            def run():
                rng = random.Random()
                return rng.random()

            def run_seeded(seed):
                rng = random.Random(seed)
                return rng.random()
            """,
    })
    r7 = findings_for(result, "R7")
    assert len(r7) == 1
    assert "unseeded random.Random()" in r7[0].message
    assert "run()" in r7[0].message


# ----------------------------------------------------------------------
# R8: inter-procedural callback escape
# ----------------------------------------------------------------------

def test_r8_flags_aliased_module_lambda_and_partial(tmp_path):
    result = lint_tree(tmp_path, {
        "src/repro/netsim/s.py": """\
            import functools

            HANDLER = lambda: None

            def arm(sim):
                sim.schedule(1.0, HANDLER)

            def arm_partial(sim):
                fn = functools.partial(HANDLER)
                sim.schedule(1.0, fn)
            """,
    })
    r8 = findings_for(result, "R8")
    assert len(r8) == 2
    assert all("module-level" in f.message for f in r8)


def test_r8_flags_nested_function_through_alias(tmp_path):
    result = lint_tree(tmp_path, {
        "src/repro/netsim/s.py": """\
            def arm(sim):
                def later():
                    pass
                cb = later
                sim.schedule(1.0, cb)
            """,
    })
    r8 = findings_for(result, "R8")
    assert len(r8) == 1
    assert "nested function" in r8[0].message


def test_r8_allows_module_function_and_bound_method_aliases(tmp_path):
    result = lint_tree(tmp_path, {
        "src/repro/netsim/ok.py": """\
            def on_fire():
                pass

            class Node:
                def arm(self, sim):
                    cb = on_fire
                    tick = self.on_tick
                    sim.schedule(1.0, cb)
                    sim.schedule(2.0, tick)

                def on_tick(self):
                    pass
            """,
    })
    assert findings_for(result, "R8") == []


def test_r8_resolves_imported_lambda_bindings(tmp_path):
    result = lint_tree(tmp_path, {
        "src/repro/netsim/handlers.py": "ON_FIRE = lambda: None\n",
        "src/repro/netsim/s.py": """\
            from repro.netsim.handlers import ON_FIRE

            def arm(sim):
                sim.schedule(1.0, ON_FIRE)
            """,
    })
    r8 = findings_for(result, "R8")
    assert len(r8) == 1
    assert r8[0].path.endswith("src/repro/netsim/s.py")


# ----------------------------------------------------------------------
# R9: event-handler exception swallowing
# ----------------------------------------------------------------------

def test_r9_flags_swallowed_exception_in_scheduled_callback(tmp_path):
    result = lint_tree(tmp_path, {
        "src/repro/netsim/h.py": """\
            def work(now):
                pass

            def on_fire(now):
                try:
                    work(now)
                except Exception:
                    pass

            def arm(sim):
                sim.schedule(1.0, on_fire)
            """,
    })
    r9 = findings_for(result, "R9")
    assert len(r9) == 1
    assert "on_fire()" in r9[0].message
    assert "scheduled at" in r9[0].message


def test_r9_allows_reraise_and_unscheduled_handlers(tmp_path):
    result = lint_tree(tmp_path, {
        "src/repro/netsim/h.py": """\
            def on_fire(now):
                try:
                    work(now)
                except Exception:
                    log(now)
                    raise

            def never_scheduled(now):
                try:
                    work(now)
                except Exception:
                    pass

            def work(now):
                pass

            def log(now):
                pass

            def arm(sim):
                sim.schedule(1.0, on_fire)
            """,
    })
    assert findings_for(result, "R9") == []


def test_r9_resolves_bound_method_callbacks(tmp_path):
    result = lint_tree(tmp_path, {
        "src/repro/netsim/n.py": """\
            class Node:
                def arm(self, sim):
                    sim.schedule(1.0, self.on_tick)

                def on_tick(self):
                    try:
                        self.step()
                    except:
                        pass

                def step(self):
                    pass
            """,
    })
    r9 = findings_for(result, "R9")
    assert len(r9) == 1
    assert "Node.on_tick()" in r9[0].message
    assert "bare except" in r9[0].message
