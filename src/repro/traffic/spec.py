"""Trace *specs*: how a scenario parameter names a trace.

A ``trace``-kind scenario parameter (see :mod:`repro.runner.params`)
accepts two spec shapes:

``{"generator": name, "params": {...}}``
    A synthetic trace, generated on the fly.  Generation is deterministic
    under ``(spec, seed)``, so the canonical spec *is* a content address —
    no file, no digest field, workers regenerate identically.
``{"file": path}``
    A trace file on disk.  Coercion streams the file once to compute its
    digest; the canonical value carries both (``{"digest": ..., "file":
    ...}``) so the run is keyed by *content*, not by path.  The file
    must exist, at that path, on every host that executes the cell.

:func:`trace_cache_view` is the cache-key projection the engine applies:
file-backed specs collapse to their digest (two paths to identical bytes
share one key; editing the file mints a new one), generator specs pass
through whole.  :func:`open_trace` is the execution side: it turns any
coerced spec into a lazy event stream.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterator, Mapping, Union

from repro.traffic.events import TraceEvent, TraceFormatError
from repro.traffic.format import DIGEST_ALGO, file_trace_digest, parse_digest_id, read_trace
from repro.traffic.generators import TraceSpecError, coerce_generator_spec, generate_trace


def coerce_trace_spec(value: Union[str, Mapping[str, Any]]) -> Dict[str, Any]:
    """Canonicalize a trace spec (see the module docstring for the shapes).

    A bare string is sugar for a file spec.  Raises :class:`TraceSpecError`
    on anything malformed — including a file spec whose file cannot be
    read, since its digest is part of the run's identity, and a digest
    with no file: nothing resolves a trace from its digest alone.
    """
    if isinstance(value, str):
        value = {"digest": value} if value.startswith(f"{DIGEST_ALGO}:") else {"file": value}
    if not isinstance(value, Mapping):
        raise TraceSpecError(
            f"trace spec must be an object (or a path string), got {value!r}"
        )
    if "generator" in value:
        return coerce_generator_spec(value)
    if "file" in value:
        unknown = sorted(set(value) - {"file", "digest"})
        if unknown:
            raise TraceSpecError(f"file trace spec has unknown key(s) {unknown}")
        path = value["file"]
        if not isinstance(path, str) or not path:
            raise TraceSpecError(f"trace spec 'file' must be a path, got {path!r}")
        declared = value.get("digest")
        if declared is not None and not os.path.exists(path):
            # An already-coerced spec re-resolving where the file does not
            # exist — e.g. on a distributed worker that received the spec
            # from the scheduling host.  The declared digest *is* the
            # content identity (the scheduler hashed the bytes); keep it so
            # the worker derives the scheduler's cache key and open_trace
            # reports the missing file as the typed error.
            try:
                parse_digest_id(declared)
            except TraceFormatError as exc:
                raise TraceSpecError(str(exc)) from None
            return {"digest": declared, "file": path}
        try:
            digest = file_trace_digest(path)
        except TraceFormatError as exc:
            # Spec-level failures (missing/corrupt file) surface as spec
            # errors so the params layer maps them to ParamValidationError.
            raise TraceSpecError(str(exc)) from None
        if declared is not None and declared != digest.id:
            raise TraceSpecError(
                f"trace file {path!r} hashes to {digest.id} but the spec "
                f"declares {declared!r} (stale spec, or the file changed)"
            )
        return {"digest": digest.id, "file": path}
    if "digest" in value:
        raise TraceSpecError(
            f"trace spec names {value['digest']!r} by digest alone; pass the "
            f"trace file itself as {{\"file\": PATH}} (its digest is computed)"
        )
    raise TraceSpecError(
        f"trace spec needs a 'generator' or 'file' key; got {sorted(value)}"
    )


def trace_cache_view(value: Any) -> Any:
    """The cache-key projection of a coerced trace spec.

    File-backed specs are keyed by digest alone, so the path a trace
    happens to live at never enters a cache key.  Generator specs are
    already content addresses (deterministic generation) and pass through.
    """
    if isinstance(value, Mapping) and "digest" in value:
        return {"digest": value["digest"]}
    return value


def open_trace(spec: Union[str, Mapping[str, Any]], *, seed: int = 0) -> Iterator[TraceEvent]:
    """Stream the events a (possibly un-coerced) trace spec names.

    Generator specs generate lazily under ``seed``; file specs stream from
    disk.
    """
    coerced = coerce_trace_spec(spec)
    if "generator" in coerced:
        return generate_trace(coerced, seed)
    path = coerced["file"]
    if not os.path.exists(path):
        raise TraceSpecError(
            f"trace file {path!r} ({coerced['digest']}) not found on this host; "
            f"copy it to the same path on every worker, or name the trace "
            f"by its generator spec"
        )
    return read_trace(path)
