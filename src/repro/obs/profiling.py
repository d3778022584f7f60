"""Profiling entry point: cProfile around one scenario run.

``repro-runner profile <scenario>`` wraps :func:`profile_run`: executes the
cell fresh (no cache) under :mod:`cProfile`, prints the top-N functions by
cumulative time, and optionally dumps the raw stats for ``snakeviz`` /
``pstats`` spelunking.  Profiling is for humans at a terminal — speed
numbers come from ``benchmarks/perfbench/bench.py``, which times runs
*without* the profiler's ~2x interpreter overhead.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Any, Mapping, Optional, TextIO, Tuple

#: pstats sort keys accepted by ``repro-runner profile --sort``.
SORT_CHOICES = ("cumulative", "tottime", "ncalls")


def profile_run(
    scenario: str,
    params: Optional[Mapping[str, Any]] = None,
    seed: int = 1,
    *,
    top: int = 25,
    sort: str = "cumulative",
    out: Optional[str] = None,
    stream: Optional[TextIO] = None,
) -> Tuple[Any, str]:
    """Profile one fresh scenario run; returns ``(RunResult, report_text)``.

    ``out`` additionally dumps the raw profile in ``pstats`` format.  The
    report is also written to ``stream`` when given (the CLI passes
    ``sys.stdout``).
    """
    from repro.runner.engine import execute_run
    from repro.runner.registry import load_builtin_scenarios
    from repro.runner.spec import RunSpec

    if sort not in SORT_CHOICES:
        raise ValueError(f"unknown sort {sort!r}; expected one of {SORT_CHOICES}")
    registry = load_builtin_scenarios()
    spec = RunSpec(scenario=scenario, params=params or {}, seed=seed)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = execute_run(spec, registry=registry)
    finally:
        profiler.disable()
    if out:
        profiler.dump_stats(out)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    report = buffer.getvalue()
    if stream is not None:
        header = [f"profile: {spec.describe()}"]
        telemetry = result.telemetry
        if telemetry:
            header.append(
                f"{telemetry.get('events_processed', 0):,} events in "
                f"{telemetry.get('wall_s', 0.0):.2f}s wall "
                f"(profiler overhead included; speed numbers come from "
                f"benchmarks/perfbench/bench.py)"
            )
        print("\n".join(header), file=stream)
        stream.write(report)
        if out:
            print(f"raw pstats dump written to {out}", file=stream)
    return result, report

