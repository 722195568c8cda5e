"""Scenario benchmark for the SelSync simulator.

``perfbench/run.py`` is the entry point; this package holds its parts:

* :mod:`pbench.spans` — in-memory span recorder, the probe table that wraps
  public functions of ``repro`` modules from the outside, and self-time
  arithmetic;
* :mod:`pbench.checks` — trajectory digests and the per-run failure rules;
* :mod:`pbench.host` — the host fingerprint stamped into every result;
* :mod:`pbench.workloads` — the benchmark's workloads and their metrics.
"""
