"""Recovery-SLO auditor unit tests: windows, guards, MTTR, gating."""

import json

import pytest

from repro.chaos import RecoveryAuditor, SloConfig, segment_windows
from repro.experiments.chaos_unified import ChaosConfig, ChaosReport, canonical_metrics
from repro.obs.export import canonical_json
from repro.server.resolver import ResolverStats

SPAN = (3.0, 6.0)
DURATION = 12.0


def make_auditor(config=None):
    return RecoveryAuditor(SPAN, DURATION, config)


def fill(auditor, lo, hi, step=0.25, verdict="answered", rcode="NOERROR"):
    """Feed a uniform sample train over [lo, hi)."""
    t = lo
    while t < hi:
        auditor.add_sample(round(t, 6), verdict, rcode)
        t += step


class TestSegmentWindows:
    def test_default_geometry(self):
        w = segment_windows(SPAN, DURATION)
        assert w.pre == (0.0, 2.5)            # fault_start - guard
        assert w.fault == (3.5, 4.5)          # +guard .. end - ladder_guard
        assert w.recovery == (8.5, 12.0)      # end + heal_guard .. duration

    def test_short_run_degrades_to_empty_not_overlapping(self):
        w = segment_windows((3.0, 6.0), 4.0)
        assert w.recovery == (4.0, 4.0)       # clamped empty, not inverted
        assert w.fault[0] <= w.fault[1]
        for _, (lo, hi) in w.items():
            assert lo <= hi

    def test_fault_window_never_inverts_when_guards_overlap(self):
        w = segment_windows((3.0, 3.5), DURATION)
        assert w.fault[0] == w.fault[1]       # guards swallow the window

    def test_items_order_is_stable(self):
        w = segment_windows(SPAN, DURATION)
        assert [name for name, _ in w.items()] == ["pre", "fault", "recovery"]


class TestGuardExclusion:
    def test_boundary_samples_are_counted_but_not_judged(self):
        auditor = make_auditor()
        auditor.add_sample(2.7, "timeout", "")     # inside the start guard
        auditor.add_sample(5.0, "timeout", "")     # inside the ladder guard
        auditor.add_sample(7.0, "answered", "SERVFAIL")  # inside the heal guard
        assert auditor.guard_excluded == 3
        assert all(c.sent == 0 for c in auditor.counts.values())

    def test_guarded_samples_do_not_enter_the_series(self):
        auditor = make_auditor()
        auditor.add_sample(2.7, "answered", "NOERROR")
        auditor.add_sample(1.0, "answered", "NOERROR")
        series = auditor.goodput_series()
        assert series == [[1.0, 1, 1]]

    def test_window_classification_half_open(self):
        auditor = make_auditor()
        auditor.add_sample(2.5, "answered", "NOERROR")   # == pre hi: excluded
        auditor.add_sample(0.0, "answered", "NOERROR")   # == pre lo: included
        assert auditor.counts["pre"].sent == 1
        assert auditor.guard_excluded == 1


class TestVerdictTallies:
    def test_rcode_split(self):
        auditor = make_auditor()
        auditor.add_sample(4.0, "answered", "NOERROR")
        auditor.add_sample(4.0, "answered", "SERVFAIL")
        auditor.add_sample(4.0, "timeout", "")
        auditor.add_sample(4.0, "shed", "")
        fault = auditor.counts["fault"]
        assert (fault.sent, fault.answered) == (4, 2)
        assert (fault.noerror, fault.servfail) == (1, 1)
        assert (fault.timeout, fault.shed) == (1, 1)
        assert fault.goodput == pytest.approx(0.25)

    def test_goodput_of_empty_window_is_zero(self):
        auditor = make_auditor()
        assert auditor.counts["pre"].goodput == 0.0


class TestRecoveryMetrics:
    def test_goodput_retained(self):
        auditor = make_auditor()
        fill(auditor, 0.0, 2.5)                              # pre: all good
        fill(auditor, 8.5, 12.0, verdict="answered", rcode="NOERROR")
        fill(auditor, 8.5, 9.0, verdict="timeout", rcode="")  # dent recovery
        retained = auditor.goodput_retained
        assert retained is not None and 0.8 < retained < 1.0

    def test_retained_undefined_without_baseline_or_recovery(self):
        auditor = make_auditor()
        assert auditor.goodput_retained is None
        fill(auditor, 0.0, 2.5)
        assert auditor.goodput_retained is None              # recovery empty

    def test_mttr_bucket_math(self):
        # goodput returns in the first post-heal bucket => MTTR equals
        # the distance from fault end to that bucket's *right* edge
        auditor = make_auditor()
        fill(auditor, 0.0, 2.5)
        fill(auditor, 8.5, 12.0)
        assert auditor.mttr() == pytest.approx(9.0 - SPAN[1])
        assert auditor.time_to_restore() == pytest.approx(9.0 - SPAN[1])

    def test_mttr_skips_low_goodput_buckets(self):
        auditor = make_auditor()
        fill(auditor, 0.0, 2.5)
        fill(auditor, 8.5, 10.0, verdict="timeout", rcode="")  # still dark
        fill(auditor, 10.0, 12.0)                              # lights back on
        assert auditor.mttr() == pytest.approx(10.5 - SPAN[1])

    def test_mttr_undefined_when_goodput_never_returns(self):
        auditor = make_auditor()
        fill(auditor, 0.0, 2.5)
        fill(auditor, 8.5, 12.0, verdict="timeout", rcode="")
        assert auditor.mttr() is None

    def test_mttr_undefined_without_baseline(self):
        auditor = make_auditor()
        fill(auditor, 8.5, 12.0)
        assert auditor.mttr() is None


class TestGating:
    def test_pass_is_empty(self):
        auditor = make_auditor()
        fill(auditor, 0.0, 2.5)
        fill(auditor, 8.5, 12.0)
        assert auditor.failures() == []

    def test_missing_windows_fail_early(self):
        auditor = make_auditor()
        assert "no pre-fault samples" in auditor.failures()[0]
        fill(auditor, 0.0, 2.5)
        assert "no recovery-window samples" in auditor.failures()[0]

    def test_retained_floor(self):
        auditor = make_auditor()
        fill(auditor, 0.0, 2.5)
        fill(auditor, 8.5, 12.0, verdict="answered", rcode="SERVFAIL")
        failures = auditor.failures()
        assert len(failures) == 1 and "goodput retained" in failures[0]

    def test_mttr_ceiling(self):
        auditor = make_auditor(SloConfig(max_mttr=1.0))
        fill(auditor, 0.0, 2.5)
        fill(auditor, 8.5, 12.0)
        failures = auditor.failures()
        assert len(failures) == 1 and "MTTR" in failures[0]
        relaxed = make_auditor(SloConfig(max_mttr=5.0))
        fill(relaxed, 0.0, 2.5)
        fill(relaxed, 8.5, 12.0)
        assert relaxed.failures() == []


class TestCanonicalOutput:
    def test_canonical_is_byte_stable_and_order_free(self):
        forward = make_auditor()
        fill(forward, 0.0, 2.5)
        fill(forward, 8.5, 12.0)
        shuffled = make_auditor()
        fill(shuffled, 8.5, 12.0)     # ingestion order must not matter
        fill(shuffled, 0.0, 2.5)
        assert canonical_json(forward.metrics()) == canonical_json(shuffled.metrics())
        assert canonical_json(forward.metrics()).endswith("\n")

    def test_extra_keys_merge_into_the_document(self):
        report = ChaosReport(ChaosConfig(), make_auditor(), ResolverStats(),
                             extra={"backend": "sim", "seed": 7})
        doc = json.loads(canonical_metrics({"cell": report}))["cell"]
        assert doc["backend"] == "sim" and doc["seed"] == 7
        assert doc["fault_span"] == [3.0, 6.0]
        assert set(doc["windows"]) == {"pre", "fault", "recovery"}
