"""The repo's benchmark: five workloads, one result schema.

``python3 bench/run.py`` (or ``PYTHONPATH=src python -m bench.run``)
is the one command; ``BENCHMARK.json`` at the repo root names the
metrics and their bounds; ``bench/README.md`` explains the rest.

Everything here measures the product from outside -- public functions,
public counters -- and nothing under ``src/`` imports it.
"""
