"""Trace-driven workloads: canonical traces, generators, replay.

The subsystem turns workloads from code into **data**:

* :mod:`repro.traffic.events` — the canonical trace record
  (:class:`TraceEvent`): one line per flow/stream event.
* :mod:`repro.traffic.format` — streaming JSONL(+gzip) reader/writer and
  content digests (:class:`TraceDigest`).
* :mod:`repro.traffic.generators` — composable deterministic generators
  that *emit traces* (Poisson, diurnal Markov-modulated, flash crowd,
  on/off bursty streams, mixes; Pareto/lognormal/empirical sizes).
* :mod:`repro.traffic.spec` — trace *specs* (generator / file) and their
  cache-key projection.
* :mod:`repro.traffic.replay` — :class:`TraceReplayWorkload`, replaying
  any trace through the simulator's transport stack (its
  ``poisson_requests`` constructor is the §7.1 request load).
* :mod:`repro.traffic.sources` — the two closed-loop sources a trace cannot
  express: backlogged flows and request/response probes.

See ``docs/workloads.md`` for the format specification, the generator
catalog, and a walkthrough of authoring a trace-replay scenario.
"""

from repro.traffic.events import (
    EVENT_GROUPS,
    EVENT_KINDS,
    TRACE_FORMAT,
    TraceEvent,
    TraceFormatError,
)
from repro.traffic.format import (
    TraceDigest,
    TraceWriter,
    events_digest,
    file_trace_digest,
    read_trace,
    trace_digest,
    validate_trace,
    write_trace,
)
from repro.traffic.generators import (
    GENERATORS,
    GeneratorDef,
    TraceSpecError,
    coerce_generator_spec,
    coerce_sizes_spec,
    generate_trace,
    make_size_sampler,
    merge_event_streams,
)
from repro.traffic.replay import TraceReplayWorkload
from repro.traffic.spec import coerce_trace_spec, open_trace, trace_cache_view

__all__ = [
    "EVENT_GROUPS",
    "EVENT_KINDS",
    "TRACE_FORMAT",
    "GENERATORS",
    "GeneratorDef",
    "TraceDigest",
    "TraceEvent",
    "TraceFormatError",
    "TraceReplayWorkload",
    "TraceSpecError",
    "TraceWriter",
    "coerce_generator_spec",
    "coerce_sizes_spec",
    "coerce_trace_spec",
    "events_digest",
    "file_trace_digest",
    "generate_trace",
    "make_size_sampler",
    "merge_event_streams",
    "open_trace",
    "read_trace",
    "trace_digest",
    "trace_cache_view",
    "validate_trace",
    "write_trace",
]
