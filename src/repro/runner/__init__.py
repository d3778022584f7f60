"""Parallel scenario-sweep engine with result caching.

The paper's evaluation is a grid of scenario x mode x seed runs; this
subsystem turns each figure into a declarative sweep that executes in
parallel, caches every cell by content, and re-simulates only what is
missing.  The pieces:

* :mod:`repro.runner.registry` — named, parameterized scenario factories
  registered by the experiment modules;
* :mod:`repro.runner.params` — typed parameter spaces (:class:`ParamSpace`
  of :class:`ParamSpec`: type, default, unit, choices, bounds) that coerce
  and validate every override before it can reach a cache key;
* :mod:`repro.runner.schema` — metric schemas (:class:`MetricSchema` of
  :class:`MetricSpec`: unit, direction) validated against every fresh run;
* :mod:`repro.runner.spec` — :class:`SweepSpec` (grid / zip / seeds) that
  expands into concrete :class:`RunSpec` cells;
* :mod:`repro.runner.engine` — cache-aware sweep orchestration with
  deterministic per-run seeds (``derive_seed``);
* :mod:`repro.runner.backends` — pluggable :class:`ExecutionBackend`
  implementations (serial, multiprocessing pool) behind a narrow,
  transport-friendly protocol;
* :mod:`repro.runner.distributed` — the cross-host dispatcher:
  :class:`DistributedBackend` fanning work out to per-host worker
  processes over a :class:`WorkerTransport` (local subprocesses or SSH),
  with heartbeats, worker quarantine, and re-dispatch of lost cells;
* :mod:`repro.runner.worker` — the remote worker entrypoint
  (``python -m repro.runner.worker``) those transports launch;
* :mod:`repro.runner.wire` — the length-prefixed JSON framing the
  scheduler and workers speak;
* :mod:`repro.runner.export` — schema-annotated long-format CSV / JSONL
  exports of runs and aggregates;
* :mod:`repro.runner.cache` — the content-addressed JSON result store
  under ``.repro-cache/``, with a ``manifest.json`` index and
  :meth:`~repro.runner.cache.ResultCache.gc` eviction (stale scenario
  versions, age cutoffs);
* :mod:`repro.runner.aggregate` — cross-seed statistics: results grouped
  by (scenario, params) with mean / stdev / 95% CI per metric, the layer
  the benchmarks assert against;
* :mod:`repro.runner.result` — the pure :class:`RunResult` record consumed
  by :func:`repro.metrics.reporting.format_run_results`;
* :mod:`repro.runner.cli` — the ``repro-runner`` / ``python -m
  repro.runner`` command line (``list``, ``run``, ``sweep``, ``report``,
  ``trace``, ``trace-export``, ``workers``, ``profile``, ``gc``, ``lint``).

This package re-exports nothing: the public facade is :mod:`repro.api`, and
in-repo code imports the submodule it needs, so importing one small
submodule (say :mod:`repro.runner.wire`) never drags in the scheduler.

Paper figures map to registered scenarios as follows:

==============================  =======================================
scenario name                   paper figure / section
==============================  =======================================
``fig02_queue_shift``           Figure 2 (queue moves to the sendbox)
``fig05_fig06_estimates``       Figures 5-6 (RTT / rate estimate error)
``fig07_multipath``             Figure 7 and §7.6 (multipath detection)
``fig09_slowdown``              Figure 9 / §7.2 (FCT slowdowns per mode)
``fig10_phased_cross_traffic``  Figure 10 (cross-traffic phases)
``fig11_short_cross_traffic``   Figure 11 (short cross-traffic sweep)
``fig12_elastic_cross``         Figure 12 (elastic cross-traffic share)
``fig13_competing_bundles``     Figure 13 (two bundles, one bottleneck)
``fig14_sendbox_cc``            Figure 14 / §7.2 (sendbox CC choice)
``fig15_proxy``                 Figure 15 / §7.5 (idealized proxy)
``fig16_internet_paths``        Figure 16 / §8 (emulated WAN regions)
``sec72_fq_codel``              §7.2 text (FQ-CoDel short-flow latency)
``sec72_priority``              §7.2 text (strict priority classes)
``sec74_endhost_cc``            §7.4 table (endhost CC choice)
``ablation_epoch_sampling``     Ablation (epoch sampling period)
``ablation_pi_gains``           Ablation (pass-through PI gains)
==============================  =======================================

Quick start::

    python -m repro.runner list
    python -m repro.runner sweep --smoke --workers 2
    python -m repro.runner run fig09_slowdown -p mode=status_quo --seed 3
    python -m repro.runner report --aggregate
    python -m repro.runner gc --max-age-days 30
"""
