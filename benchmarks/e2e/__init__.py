"""End-to-end benchmark: four migration workloads, two clocks, per-layer trace.

See ``benchmarks/e2e/README.md``.  Entry points: ``run.py`` (one workload
in the current process) and ``python -m benchmarks.e2e`` (``run`` every
workload in fresh subprocesses, ``compare`` two result files, ``reference``
regenerate the exact virtual references).
"""
