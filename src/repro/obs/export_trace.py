"""Chrome/Perfetto ``trace_event`` export of in-simulation probe data.

Turns the probe payload riding a run's telemetry envelope
(:mod:`repro.obs.probe`) into the JSON object format consumed by
``ui.perfetto.dev`` and ``chrome://tracing``:

* every probe *series* becomes a **counter track** (``ph: "C"``) — queue
  backlog, link utilization, cwnd, bundle rate — one sample per retained
  point, timestamped in microseconds of simulated time;
* every probe *event stream* becomes an **instant** track (``ph: "i"``) —
  packet drops and epoch boundaries at their exact instants;
* every flow becomes a **complete span** (``ph: "X"``) from its start to
  its completion (or the end of the run), grouped one flow per thread row
  so concurrent flows stack;
* simulators map to processes (``pid``), named via metadata events.

The emitted object is self-describing (``otherData`` carries the scenario,
params, seed, and cache key) and validated by :func:`validate_trace` — a
code-level JSON schema check CI runs on the exported artifact.  CLI:
``repro-runner trace-export <scenario>``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping

#: Phases this exporter emits (a subset of the trace_event spec).
_COUNTER, _INSTANT, _SPAN, _METADATA = "C", "i", "X", "M"

#: Microseconds per simulated second (trace_event timestamps are µs).
_US = 1_000_000


def _us(t: float) -> int:
    return int(round(t * _US))


def build_trace(result) -> Dict[str, Any]:
    """Build a trace_event JSON object from a :class:`RunResult`.

    Requires the result to carry probe telemetry — run with
    ``REPRO_PROBES`` (and ``REPRO_OBS``) enabled, as the CLI does.
    """
    probes = (result.telemetry or {}).get("probes")
    if not probes or not probes.get("simulators"):
        raise ValueError(
            f"run {result.scenario!r} carries no probe telemetry; re-run with "
            f"REPRO_OBS=1 and REPRO_PROBES=1 (repro-runner trace-export does "
            f"this automatically)"
        )
    events: List[Dict[str, Any]] = []
    for sim_snapshot in probes["simulators"]:
        pid = int(sim_snapshot.get("sim", 0))
        events.append(
            {
                "ph": _METADATA,
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{result.scenario} sim{pid}"},
            }
        )
        for series in sim_snapshot.get("series", []):
            name = series["name"]
            unit = series.get("unit", "")
            label = f"{name} [{unit}]" if unit else name
            for t, v in zip(series.get("t", []), series.get("v", [])):
                events.append(
                    {
                        "ph": _COUNTER,
                        "name": label,
                        "pid": pid,
                        "tid": 0,
                        "ts": _us(t),
                        "args": {"value": v},
                    }
                )
        for stream in sim_snapshot.get("events", []):
            for t in stream.get("t", []):
                events.append(
                    {
                        "ph": _INSTANT,
                        "name": stream["name"],
                        "pid": pid,
                        "tid": 0,
                        "ts": _us(t),
                        "s": "p",
                    }
                )
        for tid, span in enumerate(sim_snapshot.get("spans", []), start=1):
            events.append(
                {
                    "ph": _METADATA,
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": span["name"]},
                }
            )
            events.append(
                {
                    "ph": _SPAN,
                    "name": span["name"],
                    "cat": "flow",
                    "pid": pid,
                    "tid": tid,
                    "ts": _us(span["t0"]),
                    "dur": max(_us(span["t1"]) - _us(span["t0"]), 0),
                    "args": {"complete": bool(span.get("complete"))},
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "scenario": result.scenario,
            "params": dict(result.params),
            "seed": result.seed,
            "run_key": result.key,
            "probe_interval_s": probes.get("interval_s"),
        },
    }


#: The shape :func:`validate_trace` enforces, stated as data for docs/CI.
TRACE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["traceEvents", "displayTimeUnit"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["ph", "name", "pid"],
                "properties": {
                    "ph": {"enum": [_COUNTER, _INSTANT, _SPAN, _METADATA]},
                    "name": {"type": "string"},
                    "pid": {"type": "integer"},
                    "tid": {"type": "integer"},
                    "ts": {"type": "integer", "minimum": 0},
                    "dur": {"type": "integer", "minimum": 0},
                    "args": {"type": "object"},
                },
            },
        },
        "displayTimeUnit": {"enum": ["ms", "ns"]},
    },
}


def validate_trace(trace: Mapping[str, Any]) -> List[str]:
    """Check ``trace`` against :data:`TRACE_SCHEMA`; returns problem list.

    A dependency-free structural validator (the container has no
    ``jsonschema``): empty list means the trace is loadable by Perfetto's
    JSON importer.
    """
    errors: List[str] = []
    if not isinstance(trace, Mapping):
        return ["trace is not a JSON object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not an array"]
    if trace.get("displayTimeUnit") not in ("ms", "ns"):
        errors.append("displayTimeUnit must be 'ms' or 'ns'")
    for index, event in enumerate(events):
        if len(errors) >= 50:
            errors.append("... (more problems suppressed)")
            break
        where = f"traceEvents[{index}]"
        if not isinstance(event, Mapping):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in (_COUNTER, _INSTANT, _SPAN, _METADATA):
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            errors.append(f"{where}: missing event name")
        if not isinstance(event.get("pid"), int):
            errors.append(f"{where}: missing integer pid")
        if ph != _METADATA:
            ts = event.get("ts")
            if not isinstance(ts, int) or ts < 0:
                errors.append(f"{where}: missing non-negative integer ts")
        if ph == _COUNTER:
            args = event.get("args")
            if not isinstance(args, Mapping) or not args:
                errors.append(f"{where}: counter event needs a non-empty args dict")
            elif not all(isinstance(v, (int, float)) for v in args.values()):
                errors.append(f"{where}: counter args must be numeric")
        if ph == _SPAN:
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                errors.append(f"{where}: span needs a non-negative integer dur")
        if ph == _INSTANT and event.get("s") not in (None, "t", "p", "g"):
            errors.append(f"{where}: instant scope must be one of t/p/g")
    return errors


def trace_summary(trace: Mapping[str, Any]) -> Dict[str, int]:
    """Headline counts for CLI output: tracks, samples, instants, spans."""
    counters: set = set()
    instants: set = set()
    samples = spans = instant_count = 0
    for event in trace.get("traceEvents", []):
        ph = event.get("ph")
        if ph == _COUNTER:
            counters.add((event.get("pid"), event.get("name")))
            samples += 1
        elif ph == _INSTANT:
            instants.add((event.get("pid"), event.get("name")))
            instant_count += 1
        elif ph == _SPAN:
            spans += 1
    return {
        "counter_tracks": len(counters),
        "counter_samples": samples,
        "instant_streams": len(instants),
        "instants": instant_count,
        "spans": spans,
    }


def write_trace(trace: Mapping[str, Any], path: str) -> None:
    """Write the trace JSON (stable key order, newline-terminated)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
