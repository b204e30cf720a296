"""The performance ledger (ISSUE 13, ROADMAP open item 1).

One benchmark for the whole stack: four workloads, the same end-to-end
metrics on each, and per-layer rows measured from outside ``src/`` by
wrapping each layer's public entry points.  ``README.md`` in this
directory is the manual; ``BENCHMARK.json`` at the repository root is
the contract the numbers are judged against.

Entry points:

* ``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one pass of one workload, one JSON line (the
  contract's command).
* ``PYTHONPATH=src python -m benchmarks.ledger run|compare|stability``
  — the whole ledger, the regression gate, and the steadiness check.
"""
