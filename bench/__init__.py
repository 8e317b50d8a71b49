"""The repo benchmark: five workloads, six end-to-end metrics, a per-layer budget.

Run it from the repository root::

    PYTHONPATH=src python -m bench --seed 1

``bench/README.md`` documents every workload, every metric and how the
layers are expected to move the end-to-end numbers.  Nothing here is
imported by ``repro``; the benchmark measures the library from outside.
"""
