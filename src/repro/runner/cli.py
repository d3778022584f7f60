"""Command-line interface: ``python -m repro.runner`` / ``repro-runner``.

Subcommands:

``list``
    Show every registered scenario with its paper figure and parameters;
    ``-v`` renders each scenario's typed knob table (type, unit, choices,
    default) and metric schema (unit, direction) from its declarations.
    ``--format md`` emits the same catalogue as Markdown —
    ``docs/scenarios.md`` is generated from ``list -v --format md`` and CI
    fails when it goes stale.
``run``
    Execute a single scenario cell and print its metrics.
``sweep``
    Expand a sweep (from ``--spec FILE.json``, inline ``--grid`` axes, or
    the built-in ``--smoke`` grid) and execute it on the selected
    ``--backend`` (serial / process / auto / distributed — the latter
    fanning out to ``--hosts host[:slots],...`` over local subprocesses or
    SSH); repeat invocations are served from the result cache, and the
    summary line reports the cache-hit percentage.  Cells are cached as
    they finish, so an interrupted sweep (Ctrl-C exits 130) resumes the
    same way.  ``--progress`` streams per-cell scheduling events to stderr
    as they happen.
``fidelity``
    Judge the paper's claims (:mod:`repro.experiments.claims`) over seeds
    ``1..N``: one sweep over every figure's cells, with ``sweep``'s
    execution flags and cache, then a verdict per claim from the mean and
    95% CI across seeds.  ``--format md`` emits ``docs/fidelity.md``.
``report``
    Render cached results; ``--aggregate`` groups by (scenario, params)
    with mean ± 95% CI per metric across seeds.  ``--format`` selects
    human tables (default), or schema-annotated long-format ``csv`` /
    ``jsonl`` ready for pandas with no hand-editing; ``--timeseries``
    exports each run's in-simulation probe series (queue backlog,
    utilization, cwnd, rates) one retained sample per row.  Record files
    that cannot be read are left out and counted on stderr.
``trace-export``
    Run one cell fresh with probes forced on and write a Chrome/Perfetto
    ``trace_event`` JSON (counter tracks, drop/epoch instants, flow
    spans), viewable at ui.perfetto.dev — see ``docs/observability.md``.
``gc``
    Evict cached records whose scenario version is stale (and, with
    ``--max-age-days``, records older than a cutoff), updating the
    manifest; temp files left by a killed writer are swept in the same
    pass.
``trace``
    Work with canonical traffic traces (see ``docs/workloads.md``):
    ``generate`` renders a generator spec to a trace file, ``inspect``
    streams a trace and prints its digest and summary without ever
    materializing it, ``validate`` checks record schema and
    time-ordering, exiting non-zero on a bad file.
``workers``
    Distributed-fleet helpers: ``doctor --hosts ...`` runs one pinned
    calibration cell on every host through the sweep's own scheduler
    (hello handshake, python/scenario report, events/s) before a long
    sweep, exiting non-zero on unhealthy hosts; ``join`` adds this
    machine to a listening sweep's pool.
``profile``
    Run one scenario cell fresh under ``cProfile`` and print the top-N
    functions by cumulative time; ``--out`` dumps raw pstats data.
``lint``
    The AST-based invariant linter (see ``docs/static-analysis.md``):
    checks the determinism, scheduler-discipline, qdisc-contract,
    cache-purity, wire-compatibility and import-layering rules
    (``RPR0xx``) over the given paths, exiting non-zero on unsuppressed
    findings.  Delegates to ``repro.analysis`` — ``python -m
    repro.analysis`` is the same tool.

Parameter values given as ``-p key=value`` / ``-g key=v1,v2`` are parsed
as JSON-ish literals and then *coerced through the scenario's typed
ParamSpace* by the engine, so a CLI-run cell and a JSON-spec-run cell of
the same configuration always share one cache key (``"96"``, ``96`` and
``96.0`` cannot mint distinct keys).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.metrics.reporting import (
    Table,
    format_aggregate_cells,
    format_run_results,
    markdown_escape,
    markdown_table,
)
from repro.runner.aggregate import aggregate_results
from repro.runner.backends import BACKEND_CHOICES, make_backend
from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.engine import run_sweep
from repro.runner.registry import load_builtin_scenarios
from repro.runner.spec import RunSpec, SweepSpec

#: The tiny grid behind ``sweep --smoke``: 2 modes x 2 rates x 2 seeds = 8
#: cells, each a few simulated seconds, suitable for CI.
SMOKE_SPEC: Dict[str, Any] = {
    "scenario": "fig09_slowdown",
    "base": {
        "rtt_ms": 20.0,
        "load_fraction": 0.7,
        "duration_s": 4.0,
        "warmup_s": 0.5,
        "num_servers": 4,
        "max_requests": 800,
    },
    "grid": {
        "mode": ["status_quo", "bundler_sfq"],
        "bottleneck_mbps": [12.0, 24.0],
    },
    "seeds": [1, 2],
}


def _parse_value(text: str) -> Any:
    """Parse a CLI parameter value: JSON if possible, else a bare string.

    Python-style spellings (``None``, ``True``, ``False``, any case) are
    accepted alongside the JSON ones — otherwise ``-p with_bundler=False``
    would silently become the *truthy* string ``"False"``.

    Type fidelity is deliberately loose here (``-p rate=96`` parses as the
    int ``96`` even for a float knob): the engine re-coerces every value
    through the scenario's ParamSpace, which canonicalizes all spellings of
    a value to the same cache key.
    """
    lowered = text.strip().lower()
    if lowered in ("none", "null"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_params(pairs: Sequence[str]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad parameter {pair!r}: expected key=value")
        key, _, value = pair.partition("=")
        params[key.strip()] = _parse_value(value)
    return params


def _parse_grid(pairs: Sequence[str]) -> Dict[str, List[Any]]:
    grid: Dict[str, List[Any]] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad grid axis {pair!r}: expected key=v1,v2,...")
        key, _, values = pair.partition("=")
        grid[key.strip()] = [_parse_value(v) for v in values.split(",") if v != ""]
    return grid


def render_scenarios_markdown(registry, *, verbose: bool = False) -> str:
    """The scenario catalogue as Markdown (``list --format md``).

    ``docs/scenarios.md`` is exactly ``list -v --format md``'s output;
    ``tests/test_docs.py`` regenerates it through this function and fails
    when the committed file no longer matches the registry.
    """
    lines = [
        "# Registered scenarios",
        "",
        "<!-- Auto-generated; do not edit by hand.  Regenerate with:",
        "     PYTHONPATH=src python -m repro.runner list -v --format md > docs/scenarios.md -->",
        "",
        "Every figure and table of the paper's evaluation, as a registered",
        "sweep scenario (see [runner.md](runner.md) for how to run them).",
        "",
    ]
    index_rows = []
    for name in registry.names():
        scenario = registry.get(name)
        index_rows.append(
            (f"`{name}`", scenario.figure or "-", scenario.description or "-")
        )
    lines.extend(markdown_table(["scenario", "paper figure / section", "description"], index_rows))
    if verbose:
        for name in registry.names():
            scenario = registry.get(name)
            lines.extend(["", f"## `{name}`", ""])
            if scenario.description:
                lines.extend([markdown_escape(scenario.description), ""])
            lines.extend(
                markdown_table(
                    ["parameter", "type", "default", "description"],
                    scenario.params.describe_rows(),
                )
            )
            if scenario.metrics is not None:
                lines.append("")
                lines.extend(
                    markdown_table(
                        ["metric", "unit", "direction", "description"],
                        scenario.metrics.describe_rows(),
                    )
                )
    return "\n".join(lines) + "\n"


def _cmd_list(args: argparse.Namespace) -> int:
    registry = load_builtin_scenarios()
    if args.format == "md":
        sys.stdout.write(render_scenarios_markdown(registry, verbose=args.verbose))
        return 0
    table = Table(["scenario", "figure", "parameters"], title="Registered scenarios")
    for name in registry.names():
        scenario = registry.get(name)
        params = ", ".join(f"{k}={v}" for k, v in scenario.defaults.items())
        table.add_row(name, scenario.figure or "-", params)
    print(table.render())
    if args.verbose:
        for name in registry.names():
            scenario = registry.get(name)
            print()
            print(f"{name}: {scenario.description}")
            knobs = Table(["parameter", "type", "default", "description"])
            for row in scenario.params.describe_rows():
                knobs.add_row(*row)
            print(knobs.render())
            if scenario.metrics is not None:
                metrics = Table(["metric", "unit", "direction", "description"])
                for row in scenario.metrics.describe_rows():
                    metrics.add_row(*row)
                print(metrics.render())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    registry = load_builtin_scenarios()
    spec = RunSpec(scenario=args.scenario, params=_parse_params(args.param), seed=args.seed)
    outcome = run_sweep(
        [spec],
        workers=1,
        cache=ResultCache(args.cache_dir),
        use_cache=not args.no_cache,
    )
    cell = outcome.outcomes[0]
    result = cell.result
    source = "cache" if cell.cached else "simulated"
    print(f"{cell.spec.describe()}  [{source}, key={result.key[:12]}]")
    schema = registry.get(args.scenario).metrics if args.scenario in registry else None
    names = schema.column_order(result.metrics) if schema else sorted(result.metrics)
    table = Table(["metric", "unit", "value"])
    for name in names:
        metric_spec = schema.spec_for(name) if schema else None
        unit = metric_spec.unit if metric_spec and metric_spec.unit else "-"
        table.add_row(name, unit, result.metrics[name])
    print(table.render())
    return 0


def _load_sweep_spec(args: argparse.Namespace) -> SweepSpec:
    if args.smoke or args.spec:
        # The whole sweep comes from one source; refuse to silently drop
        # inline axes the user also passed.
        conflicting = []
        if args.smoke and args.spec:
            conflicting.append("--spec")
        if args.scenario:
            conflicting.append("--scenario")
        if args.param:
            conflicting.append("-p/--param")
        if args.grid:
            conflicting.append("-g/--grid")
        if args.seeds:
            conflicting.append("--seeds")
        if conflicting:
            source = "--smoke" if args.smoke else "--spec"
            raise SystemExit(
                f"{source} defines the whole sweep; it cannot be combined with "
                f"{', '.join(conflicting)}"
            )
    if args.smoke:
        return SweepSpec.from_dict(SMOKE_SPEC)
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            return SweepSpec.from_dict(json.load(fh))
    if not args.scenario:
        raise SystemExit("sweep needs --smoke, --spec FILE, or --scenario NAME")
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [1]
    except ValueError:
        raise ValueError(
            f"--seeds: expected comma-separated integers, got {args.seeds!r}"
        ) from None
    return SweepSpec(
        scenario=args.scenario,
        base=_parse_params(args.param),
        grid=_parse_grid(args.grid),
        seeds=seeds,
    )


def _execute(args: argparse.Namespace, specs: Sequence[RunSpec], what: str, *, log):
    """Run ``specs`` under the execution flags ``sweep`` and ``fidelity`` share.

    Prints the one-line header to ``log``; returns the
    :class:`~repro.runner.engine.SweepOutcome`, or ``None`` when the user
    interrupted (finished cells are in the cache — the same command resumes).
    """
    chaos_plan = None
    if args.chaos_plan:
        with open(args.chaos_plan, "r", encoding="utf-8") as fh:
            chaos_plan = json.load(fh)
    # Build the backend up front when a flag only some backends understand
    # is involved (--hosts and friends), so bad combinations fail before
    # any work.
    backend = args.backend
    distributed_flags = (
        args.hosts is not None
        or args.listen is not None
        or chaos_plan is not None
        or args.batch_size is not None
    )
    if distributed_flags or args.backend == "distributed":
        backend = make_backend(
            args.backend,
            workers=args.workers,
            hosts=args.hosts,
            batch_size=args.batch_size,
            listen=args.listen,
            chaos=chaos_plan,
        )
        if getattr(backend, "endpoint", None):
            host, port = backend.endpoint
            print(
                f"accepting worker joins on {host}:{port} "
                f"(repro-runner workers join --connect {host}:{port})",
                file=sys.stderr,
            )
    # Mirror the concurrency the backend will actually run with, so the
    # header and the outcome summary line agree.
    if not isinstance(backend, str):
        shown_workers = backend.workers
    else:
        shown_workers = 1 if args.backend == "serial" else args.workers
    print(
        f"{what}: {len(specs)} cells on {shown_workers} worker(s) [{args.backend} backend]",
        file=log,
    )
    on_progress = None
    if args.progress:
        progress_started = time.perf_counter()

        def on_progress(event):
            line = event.describe()
            if event.kind == "completed" and event.done:
                elapsed = time.perf_counter() - progress_started
                if elapsed > 0:
                    line += f"  [{event.done / elapsed:.1f} cells/s]"
            print(f"  {line}", file=sys.stderr, flush=True)
    cache = ResultCache(args.cache_dir)
    try:
        return run_sweep(
            specs,
            workers=args.workers,
            cache=cache,
            use_cache=not args.no_cache,
            backend=backend,
            on_progress=on_progress,
        )
    except KeyboardInterrupt:
        print(
            f"interrupted: {cache.stats.hits + cache.stats.writes} of {len(specs)} cells "
            "are in the cache; rerun the same command to resume",
            file=sys.stderr,
        )
        return None
    finally:
        if not isinstance(backend, str):
            close = getattr(backend, "close", None)
            if close is not None:
                close()


def _cmd_sweep(args: argparse.Namespace) -> int:
    registry = load_builtin_scenarios()
    sweep = _load_sweep_spec(args)
    specs = sweep.expand()
    if not specs:
        raise SystemExit("sweep expanded to zero runs")
    outcome = _execute(args, specs, f"sweep {sweep.scenario}", log=sys.stdout)
    if outcome is None:
        return 130
    schema = registry.get(sweep.scenario).metrics if sweep.scenario in registry else None
    print(
        format_run_results(
            outcome.results, schema=schema, title=f"sweep results: {sweep.scenario}"
        )
    )
    print(outcome.summary())
    return 0


def _cmd_fidelity(args: argparse.Namespace) -> int:
    # Imported here: only this command reads the claims table.
    from repro.experiments import claims

    n_seeds = claims.N if args.seeds is None else args.seeds
    claims.validate()
    outcome = _execute(
        args, claims.sweep_specs(n_seeds), f"fidelity over seeds 1..{n_seeds}", log=sys.stderr
    )
    if outcome is None:
        return 130
    print(outcome.summary(), file=sys.stderr)
    rows = claims.evaluate(outcome.results)
    if args.format == "md":
        sys.stdout.write(claims.render_markdown(rows, n_seeds))
        return 0
    table = Table(["claim", "statistic", "band", "measured", "verdict"])
    for row in rows:
        table.add_row(row.claim.id, row.claim.statistic, row.claim.band, row.measured, row.verdict)
    print(table.render())
    print(claims.tally(rows))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    # The registry supplies metric schemas: unit/direction columns in
    # exports and schema-ordered columns in tables.
    registry = load_builtin_scenarios()
    grouped = cache.by_scenario()
    if cache.stats.unreadable:
        print(
            f"skipped {cache.stats.unreadable} unreadable record(s) under {cache.root!r}",
            file=sys.stderr,
        )
    if args.scenario:
        grouped = {k: v for k, v in grouped.items() if k == args.scenario}
    if not grouped:
        print(f"no cached results under {cache.root!r}")
        return 1
    if args.timeseries:
        if args.format not in ("csv", "jsonl"):
            raise SystemExit("--timeseries needs --format csv or --format jsonl")
        if args.aggregate:
            raise SystemExit("--timeseries exports per-run samples; drop --aggregate")
        from repro.runner.export import timeseries_long_table

        results = [r for name in sorted(grouped) for r in grouped[name]]
        table = timeseries_long_table(results)
        if not table.rows:
            print(
                "note: no cached run carries probe series; they are recorded "
                "on request — rerun the sweep with REPRO_PROBES=1, or use "
                "trace-export for one cell",
                file=sys.stderr,
            )
        sys.stdout.write(table.to_csv() if args.format == "csv" else table.to_jsonl())
        return 0
    if args.format in ("csv", "jsonl"):
        # Imported here: the long-format exporters (and csv) serve these
        # two formats only; the tables below never touch them.
        from repro.runner.export import export_aggregates, export_runs

        results = [r for name in sorted(grouped) for r in grouped[name]]
        if args.aggregate:
            text = export_aggregates(aggregate_results(results), args.format, registry=registry)
        else:
            text = export_runs(
                results, args.format, registry=registry, telemetry=args.telemetry
            )
        sys.stdout.write(text)
        return 0
    total = 0
    for name in sorted(grouped):
        results = grouped[name]
        schema = registry.get(name).metrics if name in registry else None
        total += len(results)
        if args.aggregate:
            cells = aggregate_results(results)
            print(
                format_aggregate_cells(
                    cells,
                    schema=schema,
                    title=(
                        f"{name} ({len(cells)} cell(s) aggregated from "
                        f"{len(results)} cached runs, mean ± 95% CI)"
                    ),
                )
            )
        else:
            print(
                format_run_results(
                    results, schema=schema, title=f"{name} ({len(results)} cached runs)"
                )
            )
        print()
    print(f"{total} cached result(s) in {cache.root!r}")
    return 0


def _trace_spec_from_args(args: argparse.Namespace) -> Dict[str, Any]:
    if args.spec and (args.generator or args.param):
        raise SystemExit("--spec defines the whole generator; drop --generator/-p")
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            return json.load(fh)
    if not args.generator:
        raise SystemExit("trace generate needs --generator NAME or --spec FILE")
    return {"generator": args.generator, "params": _parse_params(args.param)}


def _cmd_trace_generate(args: argparse.Namespace) -> int:
    from repro.traffic.format import TraceWriter
    from repro.traffic.generators import coerce_generator_spec, generate_trace

    spec = coerce_generator_spec(_trace_spec_from_args(args))
    meta = {"spec": spec, "seed": args.seed}
    try:
        with TraceWriter(args.out, meta=meta) as writer:
            for event in generate_trace(spec, args.seed):
                writer.write(event)
    except BaseException:
        # Never leave a truncated trace behind — a partial file would still
        # digest as a valid (shorter) trace.
        try:
            os.unlink(args.out)
        except OSError:
            pass
        raise
    print(f"wrote {args.out}")
    table = Table(["property", "value"])
    for row in writer.digest.summary_rows():
        table.add_row(*row)
    print(table.render())
    return 0


def _cmd_trace_inspect(args: argparse.Namespace) -> int:
    from repro.traffic.format import trace_digest

    # Streams the file record by record — constant memory however many
    # million flows the trace holds (pinned by tests/test_trace_cli.py).
    digest = trace_digest(args.path)
    table = Table(["property", "value"], title=f"trace {args.path}")
    for row in digest.summary_rows():
        table.add_row(*row)
    print(table.render())
    return 0


def _cmd_trace_validate(args: argparse.Namespace) -> int:
    from repro.traffic.format import validate_trace

    digest, errors = validate_trace(args.path, max_errors=args.max_errors)
    if errors:
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        print(f"{args.path}: INVALID ({len(errors)} problem(s) shown)")
        return 1
    assert digest is not None
    print(f"{args.path}: valid trace, {digest.events} event(s), digest {digest.id}")
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro.obs.collect import OBS_ENV
    from repro.obs.export_trace import (
        build_trace,
        trace_summary,
        validate_trace,
        write_trace,
    )
    from repro.obs.probe import PROBES_ENV
    from repro.runner.engine import execute_run

    # Force the telemetry and probe layers on for this one run, whatever
    # the environment says — a trace export without probes is empty.  The
    # run executes fresh (no cache): probe payloads only exist on records
    # produced with probes enabled, and result bytes are identical either
    # way, so nothing is lost by re-simulating.
    prior = {key: os.environ.get(key) for key in (OBS_ENV, PROBES_ENV)}
    os.environ[OBS_ENV] = "1"
    os.environ[PROBES_ENV] = "1"
    try:
        result = execute_run(
            RunSpec(
                scenario=args.scenario,
                params=_parse_params(args.param),
                seed=args.seed,
            )
        )
    finally:
        for key, value in prior.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    trace = build_trace(result)
    errors = validate_trace(trace)
    if errors:
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        return 1
    out = args.out or f"trace_{args.scenario}.json"
    write_trace(trace, out)
    summary = trace_summary(trace)
    print(f"wrote {out}  (open in ui.perfetto.dev or chrome://tracing)")
    table = Table(["track type", "tracks", "samples"])
    table.add_row("counter", summary["counter_tracks"], summary["counter_samples"])
    table.add_row("instant", summary["instant_streams"], summary["instants"])
    table.add_row("span", summary["spans"], summary["spans"])
    print(table.render())
    return 0


def _cmd_workers_doctor(args: argparse.Namespace) -> int:
    from repro.runner.distributed import check_hosts

    rows = check_hosts(
        args.hosts,
        hello_timeout_s=args.hello_timeout,
        calibrate_timeout_s=args.calibrate_timeout,
    )
    table = Table(
        ["host", "slots", "status", "python", "scenarios", "hello", "events/s"],
        title="workers doctor",
    )
    for row in rows:
        hello_s, rate = row.get("hello_s"), row.get("events_per_sec")
        table.add_row(
            row["host"],
            row["slots"],
            f"UNHEALTHY [{row['check']}]" if row["check"] else "ok",
            row.get("python") or "-",
            row.get("scenarios") or "-",
            f"{hello_s:.2f}s" if hello_s is not None else "-",
            f"{rate:,.0f}" if rate else "-",
        )
    print(table.render())
    unfit = [row for row in rows if row["check"]]
    for row in unfit:
        print(f"{row['host']}: {row['error']}", file=sys.stderr)
    if unfit:
        print(f"{len(unfit)} of {len(rows)} host(s) unhealthy")
        return 1
    print(f"all {len(rows)} host(s) healthy")
    return 0


def _cmd_workers_join(args: argparse.Namespace) -> int:
    from repro.runner.worker import connect_and_serve, parse_endpoint

    try:
        address = parse_endpoint(args.connect)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(f"joining scheduler at {address[0]}:{address[1]}", file=sys.stderr)
    # The join conversation owns stdout (wire frames only in the stdio
    # case; here it is just hygiene in case library code prints).
    return connect_and_serve(
        address,
        heartbeat_s=args.heartbeat_s,
        leave_after=args.leave_after,
        reconnect_s=args.reconnect_s,
    )


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profiling import profile_run

    profile_run(
        args.scenario,
        params=_parse_params(args.param),
        seed=args.seed,
        top=args.top,
        sort=args.sort,
        out=args.out,
        stream=sys.stdout,
    )
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    max_age_s = args.max_age_days * 86400.0 if args.max_age_days is not None else None
    if max_age_s is not None and not max_age_s >= 0:
        raise ValueError("--max-age-days must be >= 0")
    cache = ResultCache(args.cache_dir)
    registry = None if args.keep_stale_versions else load_builtin_scenarios()
    stats = cache.gc(registry=registry, max_age_s=max_age_s, dry_run=args.dry_run)
    prefix = "gc (dry run): " if args.dry_run else "gc: "
    print(f"{prefix}{stats.summary()} in {cache.root!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-runner",
        description="Parallel scenario-sweep engine for the Bundler reproduction.",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    # Accept --cache-dir after the subcommand too (the conventional spot).
    # SUPPRESS keeps the subparser from clobbering a value given before the
    # subcommand with its own default.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache-dir", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    # Where and how cells execute: shared by every command that runs a sweep.
    execution = argparse.ArgumentParser(add_help=False)
    execution.add_argument("-w", "--workers", type=int, default=2, help="worker processes")
    execution.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="auto",
        help="execution backend (auto = process pool when --workers > 1)",
    )
    execution.add_argument(
        "--hosts", default=None, metavar="HOST[:SLOTS],...",
        help="distributed backend only: worker hosts, e.g. localhost:2 or "
             "nodeA:4,nodeB:4 (remote hosts are reached over ssh; default: "
             "localhost:<--workers>)",
    )
    execution.add_argument(
        "--progress", action="store_true",
        help="stream per-cell scheduling events (completions, re-dispatches, "
             "worker quarantines) to stderr",
    )
    execution.add_argument("--no-cache", action="store_true", help="force re-simulation of every cell")
    execution.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="distributed backend: dispatch up to N cells per wire frame "
             "(amortizes framing on large grids; default: 1)",
    )
    execution.add_argument(
        "--listen", default=None, metavar="[HOST:]PORT",
        help="distributed backend: accept elastic worker joins on this "
             "endpoint (port 0 = ephemeral; workers connect with "
             "'repro-runner workers join')",
    )
    execution.add_argument(
        "--chaos-plan", default=None, metavar="FILE",
        help="distributed backend (testing): JSON fault plan delivered to "
             "every worker's wire layer (see repro.testing.chaos)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered scenarios", parents=[common])
    p_list.add_argument(
        "-v", "--verbose", action="store_true",
        help="include per-scenario knob tables and metric schemas",
    )
    p_list.add_argument(
        "--format", choices=("table", "md"), default="table",
        help="output format; 'md' is the source of docs/scenarios.md",
    )
    p_list.set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="execute one scenario cell", parents=[common])
    p_run.add_argument("scenario", help="registered scenario name")
    p_run.add_argument(
        "-p", "--param", action="append", default=[], metavar="KEY=VALUE",
        help="override a scenario parameter (repeatable)",
    )
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--no-cache", action="store_true", help="force re-simulation")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="expand and execute a sweep", parents=[common, execution]
    )
    p_sweep.add_argument("--spec", help="JSON sweep-spec file")
    p_sweep.add_argument("--smoke", action="store_true", help="run the built-in 8-cell smoke grid")
    p_sweep.add_argument("--scenario", help="scenario name for an inline sweep")
    p_sweep.add_argument(
        "-p", "--param", action="append", default=[], metavar="KEY=VALUE",
        help="base parameter override (repeatable)",
    )
    p_sweep.add_argument(
        "-g", "--grid", action="append", default=[], metavar="KEY=V1,V2,...",
        help="grid axis (repeatable; cartesian product)",
    )
    p_sweep.add_argument("--seeds", default="", help="comma-separated seed list (default: 1)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_fidelity = sub.add_parser(
        "fidelity",
        help="judge the paper's claims (repro.experiments.claims) over seeds 1..N",
        parents=[common, execution],
    )
    p_fidelity.add_argument(
        "--seeds", type=int, default=None, metavar="N",
        help="judge over seeds 1..N (default: the tier-1 count, claims.N)",
    )
    p_fidelity.add_argument(
        "--format", choices=("table", "md"), default="table",
        help="output format; 'md' is the source of docs/fidelity.md",
    )
    p_fidelity.set_defaults(fn=_cmd_fidelity)

    p_report = sub.add_parser("report", help="summarize cached results", parents=[common])
    p_report.add_argument("--scenario", help="restrict to one scenario")
    p_report.add_argument(
        "--aggregate", action="store_true",
        help="group by (scenario, params) and print mean ± 95%% CI across seeds",
    )
    p_report.add_argument(
        "--format", choices=("table", "csv", "jsonl"), default="table",
        help="output format: human tables, or long-format csv/jsonl with "
             "schema unit/direction columns (plot-ready)",
    )
    p_report.add_argument(
        "--telemetry", action="store_true",
        help="csv/jsonl run exports only: also emit each run's recorded "
             "execution telemetry (events, events/s, wall time, speedup) "
             "as direction=info rows",
    )
    p_report.add_argument(
        "--timeseries", action="store_true",
        help="csv/jsonl only: export each cached run's in-simulation probe "
             "series (queue backlog, utilization, cwnd, rates — see "
             "docs/observability.md) as one row per retained sample",
    )
    p_report.set_defaults(fn=_cmd_report)

    p_trace = sub.add_parser(
        "trace", help="generate, inspect, and validate traffic traces", parents=[common]
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    p_generate = trace_sub.add_parser(
        "generate", help="render a generator spec to a trace file", parents=[common]
    )
    p_generate.add_argument("--generator", help="generator name (see docs/workloads.md)")
    p_generate.add_argument(
        "-p", "--param", action="append", default=[], metavar="KEY=VALUE",
        help="generator parameter override (repeatable)",
    )
    p_generate.add_argument("--spec", help="JSON generator-spec file (instead of --generator)")
    p_generate.add_argument("--seed", type=int, default=1, help="generation seed (default: 1)")
    p_generate.add_argument(
        "-o", "--out", required=True, metavar="PATH",
        help="output trace path (.jsonl or .jsonl.gz)",
    )
    p_generate.set_defaults(fn=_cmd_trace_generate)

    p_inspect = trace_sub.add_parser(
        "inspect", help="stream a trace and print its digest and summary", parents=[common]
    )
    p_inspect.add_argument("path", help="trace file (.jsonl or .jsonl.gz)")
    p_inspect.set_defaults(fn=_cmd_trace_inspect)

    p_validate = trace_sub.add_parser(
        "validate", help="check a trace file; non-zero exit when invalid", parents=[common]
    )
    p_validate.add_argument("path", help="trace file (.jsonl or .jsonl.gz)")
    p_validate.add_argument(
        "--max-errors", type=int, default=20, metavar="N",
        help="stop after reporting N problems (default: 20)",
    )
    p_validate.set_defaults(fn=_cmd_trace_validate)

    p_trace_export = sub.add_parser(
        "trace-export",
        help="run one cell with probes on and export a Chrome/Perfetto "
             "trace_event JSON of its in-simulation time series",
        parents=[common],
    )
    p_trace_export.add_argument("scenario", help="registered scenario name")
    p_trace_export.add_argument(
        "-p", "--param", action="append", default=[], metavar="KEY=VALUE",
        help="override a scenario parameter (repeatable)",
    )
    p_trace_export.add_argument("--seed", type=int, default=1)
    p_trace_export.add_argument(
        "-o", "--out", default=None, metavar="PATH",
        help="output trace path (default: trace_<scenario>.json)",
    )
    p_trace_export.set_defaults(fn=_cmd_trace_export)

    p_workers = sub.add_parser(
        "workers", help="distributed worker-fleet helpers", parents=[common]
    )
    workers_sub = p_workers.add_subparsers(dest="workers_command", required=True)
    p_doctor = workers_sub.add_parser(
        "doctor",
        help="run one calibration cell on every --hosts entry before a sweep",
        parents=[common],
    )
    p_doctor.add_argument(
        "--hosts", required=True, metavar="HOST[:SLOTS],...",
        help="hosts to probe, same syntax as sweep --hosts",
    )
    p_doctor.add_argument(
        "--hello-timeout", type=float, default=30.0, metavar="SECONDS",
        help="max wait for a worker's hello handshake (default: 30)",
    )
    p_doctor.add_argument(
        "--calibrate-timeout", type=float, default=60.0, metavar="SECONDS",
        help="max wait for the calibration cell (default: 60)",
    )
    p_doctor.set_defaults(fn=_cmd_workers_doctor)

    p_join = workers_sub.add_parser(
        "join",
        help="join a sweep's --listen endpoint as an elastic worker "
             "(stays until shutdown, --leave-after, or Ctrl-C)",
        parents=[common],
    )
    p_join.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the scheduler endpoint printed by sweep --listen",
    )
    p_join.add_argument(
        "--heartbeat-s", type=float, default=2.0, metavar="SECONDS",
        help="heartbeat interval while a cell runs (0 disables; default: 2.0)",
    )
    p_join.add_argument(
        "--leave-after", type=int, default=0, metavar="N",
        help="serve N cells, then leave the pool gracefully (0 = stay)",
    )
    p_join.add_argument(
        "--reconnect-s", type=float, default=10.0, metavar="SECONDS",
        help="keep retrying a lost connection this long before giving up "
             "(default: 10)",
    )
    p_join.set_defaults(fn=_cmd_workers_join)

    p_profile = sub.add_parser(
        "profile",
        help="run one scenario under cProfile and print the hot functions",
        parents=[common],
    )
    p_profile.add_argument("scenario", help="registered scenario name")
    p_profile.add_argument(
        "-p", "--param", action="append", default=[], metavar="KEY=VALUE",
        help="override a scenario parameter (repeatable)",
    )
    p_profile.add_argument("--seed", type=int, default=1)
    p_profile.add_argument(
        "--top", type=int, default=25, metavar="N",
        help="number of functions to print (default: 25)",
    )
    p_profile.add_argument(
        "--sort", choices=("cumulative", "tottime", "ncalls"), default="cumulative",
        help="pstats sort key (default: cumulative)",
    )
    p_profile.add_argument(
        "-o", "--out", default=None, metavar="PATH",
        help="also dump raw pstats data for snakeviz/pstats",
    )
    p_profile.set_defaults(fn=_cmd_profile)

    p_gc = sub.add_parser("gc", help="evict stale cached results", parents=[common])
    p_gc.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="also evict records older than this many days",
    )
    p_gc.add_argument(
        "--keep-stale-versions", action="store_true",
        help="skip the default eviction of records with outdated scenario versions",
    )
    p_gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be evicted without deleting anything",
    )
    p_gc.set_defaults(fn=_cmd_gc)

    sub.add_parser(
        "lint",
        help="run the invariant linter (RPR0xx rules) over source paths",
        add_help=False,
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "lint":
            # The linter owns its own argument parser (it is also exposed
            # as `python -m repro.analysis`); hand the rest of the line
            # straight through so both entry points behave identically.
            from repro.analysis.cli import main as lint_main

            return lint_main(argv[1:])
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (KeyError, ValueError, OSError, RuntimeError) as exc:
        # Domain errors (unknown scenario, bad parameter, unreadable spec
        # file) get a one-line message, not a traceback.
        message = exc.args[0] if exc.args and isinstance(exc.args[0], str) else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
