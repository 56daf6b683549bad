"""Property-based scenario fuzzing with invariant oracles.

Self-contained (seeded-PRNG, no external fuzzing dependency) engine
that draws random DNS attack/defense scenarios, runs them through the
simulator with SimSan armed, checks invariant oracles, greedily shrinks
any violation, and maintains a replayable JSON regression corpus.

Entry points: :func:`repro.fuzz.engine.fuzz` (the loop),
:func:`repro.fuzz.runner.run_scenario` (one scenario),
:func:`repro.fuzz.corpus.replay` (one corpus file), and the
``repro fuzz`` CLI subcommand.
"""
