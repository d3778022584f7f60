"""Bundler: site-to-site Internet traffic control (EuroSys 2021) — Python reproduction.

This package re-implements the Bundler system and the substrate needed to
evaluate it:

* :mod:`repro.net` — a packet-level discrete-event network simulator
  (links, routers, ECMP, tracing) standing in for the paper's mahimahi
  emulation and real WAN paths.
* :mod:`repro.qdisc` — queueing disciplines (FIFO, SFQ, CoDel, FQ-CoDel,
  DRR, strict priority, and the token-bucket sendbox datapath).
* :mod:`repro.cc` — congestion control: endhost window algorithms (Cubic,
  Reno, BBR) and bundle-level rate algorithms (Copa, Nimbus
  BasicDelay, BBR), plus Nimbus elasticity detection.
* :mod:`repro.transport` — TCP-like reliable flows, paced UDP streams and
  closed-loop latency probes.
* :mod:`repro.core` — the Bundler sendbox/receivebox pair: epoch-based
  measurement, the inner control loop, cross-traffic and multipath
  fallbacks.
* :mod:`repro.traffic` — everything that offers load: the trace format,
  deterministic generators, trace replay (including the §7.1 request
  load) and the two closed-loop sources (backlogged flows, probes).
  :mod:`repro.workload` holds only the request-size CDF.
* :mod:`repro.metrics` — flow-completion-time / slowdown / latency analysis.
* :mod:`repro.experiments` — scenario builders and runners reproducing every
  figure in the paper's evaluation.
* :mod:`repro.runner` — the parallel scenario-sweep engine: a registry of
  typed experiment factories (ParamSpace knobs, MetricSchema outputs),
  declarative grid/zip sweep specs, pluggable execution backends
  (serial / process pool) with deterministic derived seeds, a
  content-addressed result cache, schema-annotated CSV/JSONL exports,
  and the ``repro-runner`` CLI.
* :mod:`repro.api` — the **stable, typed facade** over the runner; import
  from here rather than from ``repro.runner.*`` internals.
* :mod:`repro.testing` — helpers shared by the test and benchmark suites.

Quickstart::

    from repro.experiments import ScenarioConfig, run_scenario

    result = run_scenario(ScenarioConfig(mode="bundler_sfq", seed=1))
    print(result.median_slowdown())

Sweep a whole figure in parallel, with caching::

    python -m repro.runner sweep --smoke --workers 2
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
