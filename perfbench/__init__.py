"""Probe-level benchmark of the GUESS simulator.

``python3 perfbench/run.py --workload NAME`` runs one named workload
against the public :class:`repro.GuessSimulation` API, checks every
trial's report, and prints each end-to-end metric with its unit; with
``--trace 1`` it adds a traced trial and prints the per-layer split.
``python3 perfbench/steadiness.py`` repeats the runs over several seeds
and prints the run-to-run spread the bounds in ``BENCHMARK.json`` are
set from.  ``perfbench/ledger.json`` records, per per-layer metric, its layer and
what it is expected to move, and each workload's pinned fingerprint.
"""

from pathlib import Path

#: Root of the checkout the benchmark measures (holds ``src/repro``).
ROOT = Path(__file__).resolve().parent.parent
