"""Micro-benchmarks of MOPI-FQ, the DCC components and the simulation
substrate (``pytest benchmarks/ --benchmark-only``); each asserts what
it times, so CI runs them as plain tests.

The paper's figures and the design ablations are not here: each driver
in ``src/repro/experiments/`` judges its own claims (``failures()``) and
``repro <figure>`` exits non-zero when one does not hold.
"""
