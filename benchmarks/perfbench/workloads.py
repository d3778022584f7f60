"""The four workloads, their correctness checks, and the worker entry point.

This module runs inside the *workload subprocess* that ``bench.py`` spawns
(one fresh interpreter per workload run), so importing it imports the
program under test.  A workload is a seeded :class:`repro.api.SweepSpec`
plus a ``repetition`` that runs it the way a user would; the program only
ever sees the generated specs, never the seed-to-spec recipe.

``run_untraced`` produces the end-to-end numbers (tracing off).
``run_traced`` is the separate attribution run: one repetition under a
``cProfile.Profile`` owned by this file (every call is a span with a
caller), bucketed by layer, with the run's deterministic counters read at
the same boundary from ``RunResult.telemetry``, followed by the layer
drives.
"""

from __future__ import annotations

import cProfile
import contextlib
import gc
import hashlib
import io
import json
import os
import pstats
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro import api
from repro.util.canonical import canonical_json

import catalog
import reference

clock = time.perf_counter
SRC_REPRO = os.path.dirname(os.path.abspath(api.__file__))


def _cpu_s() -> float:
    """User+system CPU of this process and of every child it has waited for."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


class Stopwatch:
    """Wall and CPU (self + waited-for children) of the program's part of a
    repetition; the benchmark's own checks and clean-up stay outside it.
    On the traced run it also switches the profiler on for just that part."""

    def __init__(self, profile: Optional[cProfile.Profile]) -> None:
        self.profile = profile
        self.wall_s = self.cpu_s = 0.0

    def __enter__(self) -> "Stopwatch":
        self._cpu0, self._wall0 = _cpu_s(), clock()
        if self.profile is not None:
            self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        if self.profile is not None:
            self.profile.disable()
        self.wall_s, self.cpu_s = clock() - self._wall0, _cpu_s() - self._cpu0


class Rep(NamedTuple):
    """What one repetition did and how long the program took to do it."""

    wall_s: float
    cpu_s: float
    ops: int
    attempted: int
    failures: List[str]
    #: cell label -> sha256 of the canonical result payload.
    digests: Dict[str, str]
    #: ``RunResult.telemetry`` of every cell the repetition produced.
    telemetry: List[Dict[str, Any]]
    #: Workload-specific numbers worth keeping beside the timing.
    detail: Dict[str, float]


def _digest(result: api.RunResult) -> str:
    return hashlib.sha256(result.canonical().encode("utf-8")).hexdigest()


def _packets(telemetry: Dict[str, Any]) -> int:
    return telemetry.get("counters", {}).get("links", {}).get("packets_sent", 0)


class Workload:
    """Base: a seeded sweep spec and how one repetition runs it."""

    name = ""
    #: Which reference operation the repetition's timings are scaled by
    #: (see :mod:`reference`): CPU-bound work, or process start-up + import.
    reference = "compute"

    def __init__(self, seed: int, quick: bool, tmp: str) -> None:
        self.seed = seed
        self.quick = quick
        self.tmp = tmp
        #: Set for the traced repetition only (see :class:`Stopwatch`).
        self.profile: Optional[cProfile.Profile] = None
        self.registry = api.load_builtin_scenarios()
        self.sweep = self.build()
        self.specs = self.sweep.expand()

    def build(self) -> api.SweepSpec:
        raise NotImplementedError

    def prepare(self) -> Dict[str, float]:
        """Unmeasured set-up beyond building the inputs."""
        return {}

    def repetition(self) -> Rep:
        raise NotImplementedError

    def warm(self) -> None:
        """Unmeasured: touch every code path once (lazy imports, caches)."""
        self.repetition()

    def traced(self) -> Rep:
        """The in-process part of a repetition (what a profiler can see)."""
        return self.repetition()

    def stopwatch(self) -> Stopwatch:
        return Stopwatch(self.profile)

    def fresh_dir(self, label: str) -> str:
        path = os.path.join(self.tmp, f"{label}-{time.monotonic_ns()}")
        os.makedirs(path)
        return path


class _Simulation(Workload):
    """Cells executed one by one through ``execute_run`` (no cache)."""

    #: metric the with/without-Bundler comparison is made on.
    gain_metric = ""

    def is_bundler(self, spec: api.RunSpec) -> bool:
        raise NotImplementedError

    def warm(self) -> None:
        # One cell of each kind is enough to warm the interpreter; a whole
        # repetition would cost a third of the worker's measuring time.
        for bundler in (True, False):
            api.execute_run(next(s for s in self.specs if self.is_bundler(s) == bundler),
                            registry=self.registry)

    def repetition(self) -> Rep:
        failures: List[str] = []
        results: List[Tuple[api.RunSpec, api.RunResult]] = []
        walls = {True: 0.0, False: 0.0}
        with self.stopwatch() as watch:
            for spec in self.specs:
                t0 = clock()
                try:
                    # execute_run validates the metrics against the scenario's
                    # MetricSchema and raises on a mismatch.
                    result = api.execute_run(spec, registry=self.registry)
                except Exception as exc:  # one bad cell must not hide the others
                    failures.append(f"{spec.describe()}: {type(exc).__name__}: {exc}")
                    continue
                walls[self.is_bundler(spec)] += clock() - t0
                results.append((spec, result))
        digests = {spec.describe(): _digest(result) for spec, result in results}
        telemetry = [result.telemetry for _, result in results]
        outputs = {(spec.seed, self.is_bundler(spec)): result.metric(self.gain_metric)
                   for spec, result in results}
        detail = {
            "bundler_wall_s": walls[True],
            "baseline_wall_s": walls[False],
            "bundler_overhead_ratio": walls[True] / walls[False] if walls[False] else 0.0,
        }
        gains = [
            1.0 - outputs[(seed, True)] / outputs[(seed, False)]
            for seed, bundler in outputs
            if bundler and (seed, False) in outputs and outputs[(seed, False)]
        ]
        if gains:
            detail["simulated_gain"] = statistics.fmean(gains)
        return Rep(
            wall_s=watch.wall_s,
            cpu_s=watch.cpu_s,
            ops=sum(_packets(t) for t in telemetry),
            attempted=len(self.specs),
            failures=failures,
            digests=digests,
            telemetry=telemetry,
            detail=detail,
        )


class RequestSfq(_Simulation):
    name = "request_sfq"
    gain_metric = "median_slowdown"
    #: Per-packet cost depends on how congested a seed's draw is (about 3%
    #: between seeds); averaging three independent draws keeps the metric
    #: a property of the simulator rather than of one seed.
    SUB_SEEDS = 3

    def build(self) -> api.SweepSpec:
        return api.SweepSpec(
            "fig09_slowdown",
            base={"duration_s": 1.2 if self.quick else 2.5, "warmup_s": 1, "num_servers": 4},
            grid={"mode": ["status_quo", "bundler_sfq"]},
            seeds=[self.seed + 1000 * i for i in range(1 if self.quick else self.SUB_SEEDS)],
        )

    def is_bundler(self, spec: api.RunSpec) -> bool:
        return spec.params["mode"] != "status_quo"


class BackloggedTbf(_Simulation):
    name = "backlogged_tbf"
    gain_metric = "mean_bottleneck_delay_ms"

    def build(self) -> api.SweepSpec:
        # fig02 is registered seed-insensitive (the runner collapses its seed
        # to 0): two backlogged flows have no random input.  Path parameters
        # are deliberately not drawn from the seed either — per-packet cost
        # moves >10% with small RTT changes (different loss-recovery
        # episodes), which would measure the draw, not the simulator.
        return api.SweepSpec(
            "fig02_queue_shift",
            base={"duration_s": 1 if self.quick else 6},
            grid={"with_bundler": [True, False]},
            seeds=[self.seed],
        )

    def is_bundler(self, spec: api.RunSpec) -> bool:
        return bool(spec.params["with_bundler"])


def _pi_grid(seed: int, side: int) -> api.SweepSpec:
    """``side`` x ``side`` distinct PI-gain cells drawn from ``seed``."""
    rng = random.Random(seed)

    def axis(lo: float, hi: float) -> List[float]:
        values: set = set()
        while len(values) < side:
            values.add(round(rng.uniform(lo, hi), 6))
        return sorted(values)

    return api.SweepSpec(
        "ablation_pi_gains",
        base={"horizon_s": 10},
        grid={"alpha": axis(1.0, 40.0), "beta": axis(0.0, 40.0)},
    )


class _Sweep(Workload):
    #: Grid side: cells = SIDE ** 2.
    SIDE = 0
    # Process start-up, pipes and small files, not interpreter-bound
    # compute: the host's slow mode costs a cold sweep 1.25x and a warm one
    # 1.4x, like the spawn reference (1.4x) and unlike the compute one (1.65x).
    reference = "spawn"

    def build(self) -> api.SweepSpec:
        return _pi_grid(self.seed, 4 if self.quick else self.SIDE)


BACKENDS = ("serial", "process", "distributed")


class SweepCold(_Sweep):
    name = "sweep_cold"
    SIDE = 20

    def _cold(self, backend: str) -> Tuple[api.SweepOutcome, str]:
        root = self.fresh_dir(f"cold-{backend}")
        outcome = api.run_spec(
            self.sweep, workers=2, cache=api.ResultCache(root),
            backend=api.make_backend(backend, workers=2),
        )
        return outcome, root

    def _check(self, passes: Dict[str, Tuple[api.SweepOutcome, str]], watch: Stopwatch) -> Rep:
        """Every cell executed, passes its schema, and the three caches hold
        byte-identical ``result`` payloads key for key."""
        failures: List[str] = []
        n = len(self.specs)
        baseline: Dict[str, str] = {}
        for backend, (outcome, root) in passes.items():
            if outcome.misses != n:
                failures.append(f"{backend}: {outcome.misses}/{n} cells executed")
            stored: Dict[str, str] = {}
            for cell in outcome.outcomes:
                key = cell.result.key
                try:
                    with open(os.path.join(root, f"{key}.json"), encoding="utf-8") as fh:
                        stored[key] = canonical_json(json.load(fh)["result"])
                    self.registry.get(cell.result.scenario).validate_metrics(cell.result.metrics)
                except (OSError, ValueError, KeyError) as exc:
                    failures.append(f"{backend} {key[:12]}: {type(exc).__name__}: {exc}")
            if not baseline:
                baseline = stored
            elif stored != baseline:
                diff = sum(1 for k in baseline if stored.get(k) != baseline[k])
                failures.append(f"{backend}: {diff} cached payloads differ from serial")
        first = next(iter(passes.values()))[0]
        return Rep(
            wall_s=watch.wall_s,
            cpu_s=watch.cpu_s,
            ops=n * len(passes),
            attempted=n * len(passes),
            failures=failures,
            digests={"cache": hashlib.sha256(
                "".join(baseline[k] for k in sorted(baseline)).encode("utf-8")).hexdigest()},
            telemetry=[cell.result.telemetry for cell in first.outcomes],
            detail={"workers_elapsed_s": sum(
                cell.elapsed_s for outcome, _ in passes.values() for cell in outcome.outcomes)},
        )

    def _run(self, backends: Tuple[str, ...]) -> Rep:
        passes: Dict[str, Tuple[api.SweepOutcome, str]] = {}
        try:
            with self.stopwatch() as watch:
                for backend in backends:
                    passes[backend] = self._cold(backend)
            return self._check(passes, watch)
        finally:
            for _, root in passes.values():
                shutil.rmtree(root, ignore_errors=True)

    def repetition(self) -> Rep:
        return self._run(BACKENDS)

    def traced(self) -> Rep:
        # Pool and distributed workers are other processes, which an
        # in-process profiler cannot see: attribute the serial pass.
        return self._run(("serial",))


_HITS = re.compile(r"(\d+) runs?: (\d+) executed, (\d+) served from cache")
_AGGREGATED = re.compile(r"\((\d+) cell\(s\) aggregated from (\d+) cached runs")


class SweepWarm(_Sweep):
    name = "sweep_warm"
    SIDE = 32

    def prepare(self) -> Dict[str, float]:
        self.cache_root = self.fresh_dir("warm-cache")
        self.spec_path = os.path.join(self.tmp, "warm-spec.json")
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump(self.sweep.to_dict(), fh)
        t0 = clock()
        api.run_spec(self.sweep, cache=api.ResultCache(self.cache_root), backend="serial")
        return {"populate_s": clock() - t0}

    COMMANDS = (("sweep", "--backend", "serial"), ("report", "--aggregate"))

    def _argv(self, command: Tuple[str, ...]) -> List[str]:
        spec = ["--spec", self.spec_path] if command[0] == "sweep" else []
        return ["--cache-dir", self.cache_root, *command, *spec]

    def _check(self, outputs: List[str], codes: List[int], watch: Stopwatch) -> Rep:
        n = len(self.specs)
        sweep_out, report_out = outputs
        failures = [f"CLI exit code {code}" for code in codes if code != 0]
        hits = _HITS.search(sweep_out)
        if hits is None or (int(hits[1]), int(hits[2]), int(hits[3])) != (n, 0, n):
            failures.append(f"warm sweep did not report {n}/{n} hits: "
                            f"{hits[0] if hits else sweep_out[-200:]!r}")
        cells = _AGGREGATED.search(report_out)
        if cells is None or (int(cells[1]), int(cells[2])) != (n, n):
            failures.append(f"report --aggregate did not list {n} cells: "
                            f"{cells[0] if cells else report_out[:200]!r}")
        return Rep(
            wall_s=watch.wall_s, cpu_s=watch.cpu_s, ops=n, attempted=2, failures=failures,
            # The report names its cache directory, which is scratch.
            digests={"report": hashlib.sha256(
                report_out.replace(self.cache_root, "<cache>").encode("utf-8")).hexdigest()},
            telemetry=[], detail={},
        )

    def repetition(self) -> Rep:
        """What a user pays on every re-run of a figure: two fresh processes."""
        outputs, codes = [], []
        with self.stopwatch() as watch:
            for command in self.COMMANDS:
                proc = subprocess.run(
                    [sys.executable, "-m", "repro.runner", *self._argv(command)],
                    capture_output=True, text=True,
                )
                outputs.append(proc.stdout)
                codes.append(proc.returncode)
        return self._check(outputs, codes, watch)

    def traced(self) -> Rep:
        from repro.runner.cli import main as cli_main

        outputs, codes = [], []
        with self.stopwatch() as watch:
            for command in self.COMMANDS:
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    codes.append(cli_main(self._argv(command)))
                outputs.append(buffer.getvalue())
        return self._check(outputs, codes, watch)


WORKLOADS = {cls.name: cls for cls in (RequestSfq, BackloggedTbf, SweepCold, SweepWarm)}


# -- running repetitions ----------------------------------------------------


def _peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


class _Ledger:
    """Attempted/failed operations and the digest every repetition must match."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.digests: Optional[Dict[str, str]] = None

    def record(self, rep: Rep, label: str) -> None:
        self.attempted += rep.attempted
        self.failures += [f"{label}: {f}" for f in rep.failures]
        # Determinism: identical canonical payloads in every repetition,
        # traced or not.
        self.attempted += 1
        if self.digests is None:
            self.digests = rep.digests
        elif rep.digests != self.digests:
            changed = sorted(k for k in self.digests if rep.digests.get(k) != self.digests[k])
            self.failures.append(f"{label}: result digests differ from the first repetition "
                                 f"({', '.join(changed[:3])})")

    def summary(self) -> Dict[str, Any]:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "digests": self.digests or {},
        }


def _time_setup(workload: Workload) -> float:
    """Wall time, seen from outside, of a fresh interpreter that imports the
    program, loads the registry and builds this workload's inputs."""
    argv = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench.py"),
            "_setup", "--workload", workload.name, "--seed", str(workload.seed)]
    t0 = clock()
    subprocess.run(argv + (["--quick"] if workload.quick else []), check=True, cwd=workload.tmp)
    return clock() - t0


#: Per worker process (bench.py pools several); ``--quick`` does 1 of each.
MIN_REPS = 2
SETUP_SAMPLES = 2


def run_untraced(workload: Workload, *, seconds: float) -> Dict[str, Any]:
    """Warm-up, then measured repetitions for ``seconds`` (``--quick``: one,
    cold).

    Set-up and the reference operations are timed between repetitions
    rather than in one block up front: interference on a shared host comes
    in bursts of seconds, and samples spread over the whole run cannot all
    land in one.
    """
    min_reps, setup_samples = (1, 1) if workload.quick else (MIN_REPS, SETUP_SAMPLES)
    if workload.quick:
        seconds = 0.0
    ledger = _Ledger()
    prepared = workload.prepare()
    if not workload.quick:
        workload.warm()
    reps: List[Rep] = []
    setup_s: List[float] = []
    references: Dict[str, List[float]] = {kind: [] for kind in reference.OPERATIONS}
    started = clock()
    # Stop when one more repetition would overrun the budget.
    while len(reps) < min_reps or clock() - started + reps[-1].wall_s <= seconds:
        for kind, operation in reference.OPERATIONS.items():
            references[kind] += [operation(), operation()]
        if len(setup_s) < setup_samples:
            setup_s.append(_time_setup(workload))
        # Start every repetition from the same collector state, so a pending
        # full collection of the previous repetition's garbage is not billed
        # to this one.
        gc.collect()
        reps.append(workload.repetition())
        ledger.record(reps[-1], f"rep {len(reps)}")
    last = reps[-1]
    return {
        **ledger.summary(),
        "ops": last.ops,
        "wall_s": [r.wall_s for r in reps],
        "cpu_s": [r.cpu_s for r in reps],
        "wall_us_per_op": [r.wall_s / r.ops * 1e6 for r in reps if r.ops],
        "cpu_us_per_op": [r.cpu_s / r.ops * 1e6 for r in reps if r.ops],
        "setup_s": setup_s,
        "reference": workload.reference,
        "reference_s": references,
        "peak_rss_mb": _peak_rss_mb(),
        "detail": {**prepared,
                   **{k: statistics.median(r.detail[k] for r in reps if k in r.detail)
                      for k in last.detail}},
        "counters": fold_counters(last.telemetry),
    }


# -- the traced run ----------------------------------------------------------


def _bucket(filename: str) -> Tuple[str, str]:
    """``(package, package.module)`` of a file under ``src/repro/``."""
    if filename.startswith(SRC_REPRO + os.sep):
        parts = filename[len(SRC_REPRO) + 1:].split(os.sep)
        if len(parts) >= 2 and parts[0] in catalog.SHARE_PACKAGES:
            return parts[0], f"{parts[0]}.{os.path.splitext(parts[1])[0]}"
    return "other", "other"


def attribute(profile: cProfile.Profile) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """Self-time shares by layer, plus the top functions by self time.

    Code outside ``src/repro`` (C builtins such as ``heappush`` and
    ``deque.append``, and the stdlib: ``json``, ``hashlib``, ``os``) belongs
    to no layer: its self time is charged to the ``src/repro`` function it
    ran on behalf of, following the profiler's caller edges (split pro rata
    by each edge's self time where there are several callers).  Every
    nanosecond of self time lands in exactly one bucket, so shares sum to
    1; what cannot be traced back to a layer (this harness) is ``other``.
    """
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tottime, cumtime, callers)
    by_package: Dict[str, float] = {}
    by_module: Dict[str, float] = {}
    charged: Dict[Tuple[str, int, str], float] = {}

    def charge(func, seconds: float, depth: int) -> None:
        package, module = _bucket(func[0])
        if package == "other" and depth < 12:
            edges = {caller: edge[2] for caller, edge in stats[func][4].items()
                     if caller != func and caller in stats}
            total = sum(edges.values())
            if total > 0.0:
                for caller, edge_s in edges.items():
                    charge(caller, seconds * edge_s / total, depth + 1)
                return
        by_package[package] = by_package.get(package, 0.0) + seconds
        by_module[module] = by_module.get(module, 0.0) + seconds
        charged[func] = charged.get(func, 0.0) + seconds

    for func, entry in stats.items():
        if entry[2] > 0.0:
            charge(func, entry[2], 0)
    total = sum(by_package.values()) or 1.0
    shares = {f"{p}.self_share": by_package.get(p, 0.0) / total
              for p in (*catalog.SHARE_PACKAGES, "other")}
    shares.update({f"{m}.self_share": by_module.get(m, 0.0) / total
                   for m in catalog.SHARE_MODULES})
    top = [
        {"function": f"{os.path.relpath(f[0], SRC_REPRO) if f[0].startswith(SRC_REPRO) else f[0]}"
                     f":{f[1]}:{f[2]}",
         "self_share": s / total, "calls": stats[f][1]}
        for f, s in sorted(charged.items(), key=lambda kv: -kv[1])[:30]
    ]
    return shares, top


def fold_counters(telemetry: List[Dict[str, Any]]) -> Dict[str, float]:
    """Sum the deterministic counters of every cell's telemetry envelope."""
    total: Dict[str, float] = {
        k: 0 for k in ("events_processed", "events_scheduled", "events_cancelled",
                       "link_packets", "link_drops", "qdisc_enqueued", "qdisc_dequeued",
                       "qdisc_dropped", "tcp_packets", "retransmits", "epoch_updates",
                       "sim_time_s")
    }
    for envelope in telemetry:
        counters = envelope.get("counters", {})
        for key in ("events_processed", "events_scheduled", "events_cancelled", "sim_time_s"):
            total[key] += counters.get(key, 0)
        links = counters.get("links", {})
        total["link_packets"] += links.get("packets_sent", 0)
        total["link_drops"] += links.get("packets_dropped", 0)
        for qdisc in counters.get("qdiscs", {}).values():
            total["qdisc_enqueued"] += qdisc.get("enqueued", 0)
            total["qdisc_dequeued"] += qdisc.get("dequeued", 0)
            total["qdisc_dropped"] += qdisc.get("dropped", 0)
        transports = counters.get("transports", {})
        total["tcp_packets"] += transports.get("tcp_packets_sent", 0)
        total["retransmits"] += transports.get("retransmits", 0)
        total["epoch_updates"] += counters.get("bundler", {}).get("epoch_updates", 0)
    return total


def _span_s(telemetry: List[Dict[str, Any]], name: str) -> float:
    return sum(t.get("spans", {}).get(name, {}).get("total_s", 0.0) for t in telemetry)


def _ratio(numerator: float, denominator: float) -> float:
    """0 when the workload has none of the denominator (no packets on a sweep)."""
    return numerator / denominator if denominator else 0.0


def count_metrics(telemetry: List[Dict[str, Any]]) -> Dict[str, float]:
    c = fold_counters(telemetry)
    body_s = _span_s(telemetry, "scenario-body")
    sim_wall_s = sum(t.get("sim_wall_s", 0.0) for t in telemetry)
    return {
        "net.events_per_packet": _ratio(c["events_processed"], c["link_packets"]),
        "net.scheduled_per_packet": _ratio(c["events_scheduled"], c["link_packets"]),
        "net.cancelled_event_share": _ratio(c["events_cancelled"], c["events_scheduled"]),
        "net.events_per_s": _ratio(c["events_processed"], sim_wall_s),
        "qdisc.drop_share": _ratio(c["qdisc_dropped"], c["qdisc_enqueued"] + c["qdisc_dropped"]),
        "transport.retransmit_share": _ratio(c["retransmits"], c["tcp_packets"]),
        "core.epoch_updates_per_sim_s": _ratio(c["epoch_updates"], c["sim_time_s"]),
        "traffic.replay_share": _ratio(_span_s(telemetry, "trace-replay"), body_s),
        "workload.generate_share": _ratio(_span_s(telemetry, "workload-generate"), body_s),
    }


def run_traced(workload: Workload, *, with_drives: bool) -> Dict[str, Any]:
    import drives

    quick = workload.quick
    ledger = _Ledger()
    workload.prepare()
    if not quick:
        ledger.record(workload.traced(), "warm-up")
    untraced = workload.traced()
    ledger.record(untraced, "untraced")
    workload.profile = cProfile.Profile()
    traced = workload.traced()
    ledger.record(traced, "traced")
    shares, top = attribute(workload.profile)
    workload.profile = None
    per_layer: Dict[str, float] = {
        **shares,
        **count_metrics(traced.telemetry),
        # A rate, so from the repetition that ran without the profiler.
        "net.events_per_s": count_metrics(untraced.telemetry)["net.events_per_s"],
        "trace.overhead_ratio": traced.wall_s / untraced.wall_s,
    }
    if with_drives:
        per_layer.update(drives.run_micro(workload.tmp, size=0.02 if quick else 1.0,
                                          reps=1 if quick else 3))
        per_layer.update(drives.run_pipeline(workload.tmp, _pi_grid(1, 4 if quick else 32)))
        per_layer.update(drives.run_experiments(fig09_s=1.2 if quick else 4,
                                                fig02_s=1 if quick else 6))
    return {
        **ledger.summary(),
        "per_layer": per_layer,
        "counters": fold_counters(traced.telemetry),
        "top_functions": top,
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced.wall_s,
    }


def setup_only(name: str, seed: int, quick: bool) -> None:
    """What ``setup_s`` times: import (already done), registry, inputs."""
    WORKLOADS[name](seed, quick, tmp=os.getcwd())
