"""Recovery-SLO auditing: window segmentation + deterministic metrics.

The paper's resilience claims are all *recovery* claims -- DCC plus the
hardening layers keep a resolver serving through a fault and bring
goodput back once the fault clears.  This module turns one run's
per-query verdicts into the three numbers those claims need:

- **goodput retained** -- recovery-window goodput as a fraction of the
  pre-fault window's;
- **MTTR** -- time from fault end until bucketed goodput first returns
  to :data:`MTTR_FRACTION` of the pre-fault level;
- **time-to-90%-restoration** -- the same scan at :data:`RESTORE_FRACTION`.

**Determinism.**  Every sample is classified by the query's *nominal*
send time -- the cumulative seeded-gap timestamp recorded by
:class:`repro.transport.engine.EngineClient` -- which is a pure function
of the seed on either backend.  Wall-clock jitter can still flip the
*verdict* of a query whose resolution straddles a fault boundary, so
guard bands around each boundary exclude exactly those samples from the
windows and the goodput series: what remains is byte-identical across
same-seed reruns (``--check-against`` in ``repro chaos`` compares the
canonical JSON directly).  The guard widths are part of the metric
definition, not tuning: the crash-side guard covers client-observed
answer latency, the pre-heal guard covers the resolver's retry ladder
crossing the heal, and the post-heal guard covers breaker re-close and
RTO recovery (see docs/CHAOS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple


#: verdict/rcode combination counted as goodput
_GOOD_RCODE = "NOERROR"

#: MTTR threshold: goodput back to this fraction of pre-fault
MTTR_FRACTION = 0.5
#: restoration threshold (the "time to 90%" metric)
RESTORE_FRACTION = 0.9
#: goodput-series bucket width, seconds of nominal time
BUCKET = 0.5
#: exclusion band on both sides of the fault-start boundary
GUARD = 0.5
#: exclusion band *before* fault end (resolver retry ladders started
#: here may cross the heal and resolve either way)
LADDER_GUARD = 1.5
#: exclusion band *after* fault end (breaker re-close, RTO recovery)
HEAL_GUARD = 2.5


@dataclass(frozen=True)
class SloConfig:
    """Gate thresholds for one audit."""

    #: recovery goodput must reach this fraction of pre-fault goodput
    min_recovery_fraction: float = 0.8
    #: optional hard MTTR ceiling for --slo gating (None = no ceiling)
    max_mttr: Optional[float] = None


@dataclass(frozen=True)
class Windows:
    """Half-open ``[lo, hi)`` nominal-time windows; possibly empty."""

    pre: Tuple[float, float]
    fault: Tuple[float, float]
    recovery: Tuple[float, float]

    def items(self) -> List[Tuple[str, Tuple[float, float]]]:
        return [("pre", self.pre), ("fault", self.fault), ("recovery", self.recovery)]


def segment_windows(span: Tuple[float, float], duration: float) -> Windows:
    """Carve ``[0, duration)`` into pre / fault / recovery windows.

    ``span`` is the schedule's fault envelope (:func:`~repro.netsim.faults.fault_span`).
    Windows are clamped so a short run degrades to empty windows rather
    than overlapping ones.
    """
    fault_start, fault_end = span
    pre_hi = max(0.0, min(fault_start - GUARD, duration))
    fault_lo = min(fault_start + GUARD, duration)
    fault_hi = max(fault_lo, min(fault_end - LADDER_GUARD, duration))
    rec_lo = min(fault_end + HEAL_GUARD, duration)
    return Windows(
        pre=(0.0, pre_hi),
        fault=(fault_lo, fault_hi),
        recovery=(rec_lo, duration),
    )


@dataclass
class WindowCounts:
    """Verdict tallies for the samples inside one window."""

    sent: int = 0
    answered: int = 0
    noerror: int = 0
    servfail: int = 0
    timeout: int = 0
    shed: int = 0

    @property
    def goodput(self) -> float:
        return self.noerror / self.sent if self.sent else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sent": self.sent,
            "answered": self.answered,
            "noerror": self.noerror,
            "servfail": self.servfail,
            "timeout": self.timeout,
            "shed": self.shed,
            "goodput": round(self.goodput, 6),
        }


class RecoveryAuditor:
    """Aggregate ``(nominal, verdict, rcode)`` samples into SLO metrics.

    Feed it every benign client's :attr:`~repro.transport.engine.EngineClient.samples`
    (arrival order is irrelevant -- everything aggregates), then read
    :meth:`metrics` and gate with :meth:`failures`.
    """

    def __init__(
        self,
        span: Tuple[float, float],
        duration: float,
        config: Optional[SloConfig] = None,
    ) -> None:
        self.config = config if config is not None else SloConfig()
        self.span = span
        self.duration = duration
        self.windows = segment_windows(span, duration)
        self.counts: Dict[str, WindowCounts] = {
            name: WindowCounts() for name, _ in self.windows.items()
        }
        #: samples in a guard band: counted (the count is seed-pure),
        #: never judged (their verdicts are timing-sensitive)
        self.guard_excluded = 0
        # bucket index -> [sent, noerror]; only non-guarded samples
        self._buckets: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def add_sample(self, nominal: float, verdict: str, rcode: str) -> None:
        window = None
        for name, (lo, hi) in self.windows.items():
            if lo <= nominal < hi:
                window = name
                break
        if window is None:
            self.guard_excluded += 1
            return
        counts = self.counts[window]
        counts.sent += 1
        if verdict == "answered":
            counts.answered += 1
            if rcode == _GOOD_RCODE:
                counts.noerror += 1
            elif rcode == "SERVFAIL":
                counts.servfail += 1
        elif verdict == "timeout":
            counts.timeout += 1
        elif verdict == "shed":
            counts.shed += 1
        bucket = self._buckets.setdefault(int(nominal // BUCKET), [0, 0])
        bucket[0] += 1
        if verdict == "answered" and rcode == _GOOD_RCODE:
            bucket[1] += 1

    def add_samples(self, samples: Iterable[Tuple[float, str, str]]) -> None:
        for nominal, verdict, rcode in samples:
            self.add_sample(nominal, verdict, rcode)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    @property
    def pre_goodput(self) -> float:
        return self.counts["pre"].goodput

    @property
    def goodput_retained(self) -> Optional[float]:
        """Recovery goodput / pre-fault goodput; None when undefined."""
        pre = self.counts["pre"]
        recovery = self.counts["recovery"]
        if pre.sent == 0 or recovery.sent == 0 or pre.goodput == 0.0:
            return None
        return recovery.goodput / pre.goodput

    def goodput_series(self) -> List[List[float]]:
        """``[bucket_start, sent, noerror]`` rows over non-guarded samples."""
        width = BUCKET
        return [
            [round(index * width, 6), self._buckets[index][0], self._buckets[index][1]]
            for index in sorted(self._buckets)
        ]

    def _restoration_time(self, fraction: float) -> Optional[float]:
        """Nominal seconds from fault end until bucketed goodput first
        reaches ``fraction * pre_goodput``; None if it never does.

        Resolution is bounded below by :data:`HEAL_GUARD` (guarded buckets
        are empty and skipped) plus the bucket width -- by construction,
        not measurement noise.
        """
        target = fraction * self.pre_goodput
        if target <= 0.0:
            return None
        _, fault_end = self.span
        width = BUCKET
        for index in sorted(self._buckets):
            if (index + 1) * width <= fault_end:
                continue
            sent, noerror = self._buckets[index]
            if sent == 0:
                continue
            if noerror / sent >= target:
                return round((index + 1) * width - fault_end, 6)
        return None

    def mttr(self) -> Optional[float]:
        return self._restoration_time(MTTR_FRACTION)

    def time_to_restore(self) -> Optional[float]:
        return self._restoration_time(RESTORE_FRACTION)

    def metrics(self) -> Dict[str, Any]:
        """The deterministic metrics document (everything seed-pure)."""
        retained = self.goodput_retained
        return {
            "windows": {
                name: dict(self.counts[name].to_dict(), lo=round(lo, 6), hi=round(hi, 6))
                for name, (lo, hi) in self.windows.items()
            },
            "series": self.goodput_series(),
            "slo": {
                "pre_goodput": round(self.pre_goodput, 6),
                "goodput_retained": None if retained is None else round(retained, 6),
                "mttr": self.mttr(),
                "time_to_90pct": self.time_to_restore(),
            },
            "guard_excluded": self.guard_excluded,
            "fault_span": [round(self.span[0], 6), round(self.span[1], 6)],
            "geometry": {
                "bucket": BUCKET,
                "guard": GUARD,
                "ladder_guard": LADDER_GUARD,
                "heal_guard": HEAL_GUARD,
            },
        }

    # ------------------------------------------------------------------
    # gating + emission
    # ------------------------------------------------------------------
    def failures(self) -> List[str]:
        """SLO violations for ``--slo`` gating; empty list = pass."""
        out: List[str] = []
        pre = self.counts["pre"]
        recovery = self.counts["recovery"]
        if pre.sent == 0:
            out.append("no pre-fault samples: cannot establish a baseline")
            return out
        if recovery.sent == 0:
            out.append("no recovery-window samples: run too short for the schedule")
            return out
        retained = self.goodput_retained
        floor = self.config.min_recovery_fraction
        if retained is None or retained < floor:
            shown = "undefined" if retained is None else f"{retained:.3f}"
            out.append(
                f"goodput retained {shown} below required {floor:.3f} "
                f"(pre {pre.goodput:.3f}, recovery {recovery.goodput:.3f})"
            )
        ceiling = self.config.max_mttr
        if ceiling is not None:
            mttr = self.mttr()
            if mttr is None:
                out.append(
                    f"goodput never returned to {MTTR_FRACTION:.0%} "
                    "of the pre-fault level (MTTR undefined)"
                )
            elif mttr > ceiling:
                out.append(f"MTTR {mttr:.3f}s exceeds ceiling {ceiling:.3f}s")
        return out
