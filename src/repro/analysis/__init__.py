"""Analysis utilities: fairness math and experiment post-processing.

- :mod:`repro.analysis.maxmin` -- the water-filling procedure and the
  analytic max-min fair allocation ``f(C, r, R)`` from the paper's
  Appendix B.2 (the reference MOPI-FQ is property-tested against);
- :mod:`repro.analysis.fairness` -- Jain's index and MMF-deviation
  metrics for scheduler outputs;
- :mod:`repro.analysis.series` -- time-series bucketing and CDFs for the
  evaluation figures;
- :mod:`repro.analysis.report` -- fixed-width table rendering for the
  experiment harnesses.
"""
