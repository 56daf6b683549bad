"""The package version, in a leaf module.

Lives below every layer so that low-level code (provenance headers,
exporters) can stamp artifacts.  The :mod:`repro` package re-exports
``__version__`` and nothing else; importing it from here keeps that
code off the facade, which the layering contract places above every
layer (see the R6 section of ``docs/STATIC_ANALYSIS.md``).
"""

__version__ = "1.0.0"
