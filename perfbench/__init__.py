"""The repository's end-to-end benchmark (``python3 perfbench/run.py``).

See :mod:`perfbench.spec` for the workloads, metrics and the layer map,
and ``BENCHMARK.json`` (generated from it) for the machine-readable summary.
"""
