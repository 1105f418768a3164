"""The perf gate over the performance ledger: see :mod:`repro.bench.gate`."""
