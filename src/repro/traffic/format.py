"""Streaming trace I/O and content digests.

A trace file is JSONL — one header line (see
:func:`repro.traffic.events.header_record`) followed by one canonical event
record per line — optionally gzip-compressed (by file extension:
``.jsonl.gz``).  Reading and writing are strictly streaming: a million-flow
trace never materializes as a list, which is what lets ``repro-runner trace
inspect`` run in bounded memory (the acceptance test pins the RSS).

The **digest** is the SHA-256 of the canonical event lines, in order,
excluding the header.  It is therefore independent of compression, of
metadata, and of how any particular writer spelled a record — the same
logical trace always hashes to the same :class:`TraceDigest`, which is what
the runner folds into cache keys (see ``docs/workloads.md``).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.traffic.events import (
    TRACE_FORMAT,
    TRACE_HEADER_TYPE,
    TraceEvent,
    TraceFormatError,
    header_record,
)

#: Digest algorithm baked into trace ids (``sha256:<hex>``).
DIGEST_ALGO = "sha256"


@dataclass(frozen=True)
class TraceDigest:
    """Content identity and summary statistics of one trace."""

    hexdigest: str
    events: int = 0
    flows: int = 0
    streams: int = 0
    flow_bytes: int = 0
    first_time_s: Optional[float] = None
    last_time_s: Optional[float] = None

    @property
    def id(self) -> str:
        """The ``sha256:<hex>`` string that names this trace everywhere."""
        return f"{DIGEST_ALGO}:{self.hexdigest}"

    @property
    def duration_s(self) -> float:
        if self.first_time_s is None or self.last_time_s is None:
            return 0.0
        return self.last_time_s - self.first_time_s

    def summary_rows(self) -> List[Tuple[str, str]]:
        """``(label, value)`` rows for CLI rendering."""
        return [
            ("digest", self.id),
            ("events", str(self.events)),
            ("flows", str(self.flows)),
            ("streams", str(self.streams)),
            ("flow bytes", str(self.flow_bytes)),
            ("first event", "-" if self.first_time_s is None else f"{self.first_time_s:.6f} s"),
            ("last event", "-" if self.last_time_s is None else f"{self.last_time_s:.6f} s"),
        ]


class _DigestAccumulator:
    """Incremental digest + summary over a stream of events."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.events = 0
        self.flows = 0
        self.streams = 0
        self.flow_bytes = 0
        self.first_time_s: Optional[float] = None
        self.last_time_s: Optional[float] = None

    def add(self, event: TraceEvent, line: Optional[str] = None) -> str:
        """Fold one event in; returns its canonical line."""
        if line is None:
            line = event.canonical()
        self._hash.update(line.encode("utf-8"))
        self._hash.update(b"\n")
        self.events += 1
        if event.kind == "flow":
            self.flows += 1
            self.flow_bytes += event.size_bytes or 0
        else:
            self.streams += 1
        if self.first_time_s is None:
            self.first_time_s = event.time_s
        self.last_time_s = event.time_s
        return line

    def finish(self) -> TraceDigest:
        return TraceDigest(
            hexdigest=self._hash.hexdigest(),
            events=self.events,
            flows=self.flows,
            streams=self.streams,
            flow_bytes=self.flow_bytes,
            first_time_s=self.first_time_s,
            last_time_s=self.last_time_s,
        )


def _is_gzip_path(path: str) -> bool:
    return path.endswith(".gz")


def _open_text(path: str, mode: str):
    if _is_gzip_path(path):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


class TraceWriter:
    """Streaming trace writer: header first, then one event line at a time.

    Usable as a context manager; :meth:`close` (or the ``with`` exit)
    finalizes the file and makes :attr:`digest` available.  Compression
    follows the file extension (``.gz`` → gzip).
    """

    def __init__(self, path: str, *, meta: Optional[Dict[str, Any]] = None) -> None:
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._fh = _open_text(path, "w")
        self._acc = _DigestAccumulator()
        self._digest: Optional[TraceDigest] = None
        self._fh.write(json.dumps(header_record(meta), sort_keys=True, separators=(",", ":")))
        self._fh.write("\n")

    def write(self, event: TraceEvent) -> None:
        if self._digest is not None:
            raise ValueError(f"trace writer for {self.path!r} is closed")
        self._fh.write(self._acc.add(event))
        self._fh.write("\n")

    def close(self) -> TraceDigest:
        if self._digest is None:
            self._fh.close()
            self._digest = self._acc.finish()
        return self._digest

    @property
    def digest(self) -> TraceDigest:
        if self._digest is None:
            raise ValueError("trace writer is still open; digest is available after close()")
        return self._digest

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_trace(
    path: str, events: Iterable[TraceEvent], *, meta: Optional[Dict[str, Any]] = None
) -> TraceDigest:
    """Stream ``events`` into a trace file at ``path``; returns its digest."""
    with TraceWriter(path, meta=meta) as writer:
        for event in events:
            writer.write(event)
    return writer.digest


def _iter_records(path: str) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Yield ``(line_number, record)`` for every non-header line."""
    with _open_text(path, "r") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"{path}:{number}: undecodable JSON: {exc}") from None
            if not isinstance(record, dict):
                raise TraceFormatError(
                    f"{path}:{number}: expected an object, got {type(record).__name__}"
                )
            if record.get("type") == TRACE_HEADER_TYPE:
                fmt = record.get("format")
                if fmt != TRACE_FORMAT:
                    raise TraceFormatError(
                        f"{path}:{number}: unsupported trace format {fmt!r} "
                        f"(this reader speaks {TRACE_FORMAT})"
                    )
                continue
            yield number, record


def read_trace(path: str) -> Iterator[TraceEvent]:
    """Stream the events of a trace file (header skipped, records validated)."""
    for number, record in _iter_records(path):
        yield TraceEvent.from_record(record, index=number)


def events_digest(events: Iterable[TraceEvent]) -> TraceDigest:
    """Digest an in-memory / generated event stream (consumes it)."""
    acc = _DigestAccumulator()
    for event in events:
        acc.add(event)
    return acc.finish()


def trace_digest(path: str) -> TraceDigest:
    """Digest a trace file by streaming it (bounded memory)."""
    return events_digest(read_trace(path))


def validate_trace(
    path: str, *, max_errors: int = 20
) -> Tuple[Optional[TraceDigest], List[str]]:
    """Check a trace file record by record.

    Returns ``(digest, errors)``: the digest of the *valid* prefix-or-whole
    (``None`` when the file itself is unreadable) and up to ``max_errors``
    human-readable problems — malformed records, non-monotone timestamps.
    An empty error list means the file is a valid trace.
    """
    errors: List[str] = []
    acc = _DigestAccumulator()
    last_t: Optional[float] = None
    try:
        for number, record in _iter_records(path):
            try:
                event = TraceEvent.from_record(record, index=number)
            except TraceFormatError as exc:
                errors.append(f"{path}:{number}: {exc}")
                if len(errors) >= max_errors:
                    errors.append("... (more errors suppressed)")
                    return acc.finish(), errors
                continue
            if last_t is not None and event.time_s < last_t:
                errors.append(
                    f"{path}:{number}: event time {event.time_s} precedes "
                    f"the previous event at {last_t} (traces must be time-ordered)"
                )
                if len(errors) >= max_errors:
                    errors.append("... (more errors suppressed)")
                    return acc.finish(), errors
            last_t = event.time_s
            acc.add(event)
    except (OSError, TraceFormatError) as exc:
        errors.append(str(exc))
        return None, errors
    return acc.finish(), errors


def parse_digest_id(value: str) -> str:
    """Validate a ``sha256:<hex>`` trace id; returns the bare hexdigest."""
    algo, sep, hexdigest = value.partition(":")
    if not sep or algo != DIGEST_ALGO:
        raise TraceFormatError(
            f"bad trace digest {value!r}: expected '{DIGEST_ALGO}:<hexdigest>'"
        )
    if len(hexdigest) != 64 or any(c not in "0123456789abcdef" for c in hexdigest):
        raise TraceFormatError(
            f"bad trace digest {value!r}: expected 64 lowercase hex characters"
        )
    return hexdigest


#: Digest cache keyed by ``(abspath, mtime_ns, size)`` so repeated cache-key
#: resolutions of the same (unchanged) trace file read it only once.
_FILE_DIGESTS: Dict[Tuple[str, int, int], TraceDigest] = {}


def file_trace_digest(path: str) -> TraceDigest:
    """Digest of a trace file, cached while the file is unchanged on disk."""
    try:
        stat = os.stat(path)
    except OSError as exc:
        raise TraceFormatError(f"cannot stat trace file {path!r}: {exc}") from None
    key = (os.path.abspath(path), stat.st_mtime_ns, stat.st_size)
    cached = _FILE_DIGESTS.get(key)
    if cached is None:
        cached = trace_digest(path)
        _FILE_DIGESTS[key] = cached
    return cached
