"""Tests for the canonical trace format: events, I/O, digests, validation."""

import json

import pytest

from repro.traffic.events import TraceEvent, TraceFormatError, header_record
from repro.traffic.format import (
    TraceWriter,
    events_digest,
    file_trace_digest,
    parse_digest_id,
    read_trace,
    trace_digest,
    validate_trace,
    write_trace,
)


def _flow(t, size=1000, **kwargs):
    return TraceEvent(time_s=t, kind="flow", size_bytes=size, **kwargs)


def _stream(t, rate=1e6, dur=0.5, **kwargs):
    return TraceEvent(time_s=t, kind="stream", rate_bps=rate, duration_s=dur, **kwargs)


class TestTraceEvent:
    def test_flow_record_roundtrip(self):
        event = _flow(1.25, size=4096, traffic_class=1, src=2, dst=1, group="cross")
        assert TraceEvent.from_record(event.to_record()) == event

    def test_stream_record_roundtrip(self):
        event = _stream(0.5, rate=2.5e6, dur=1.5)
        assert TraceEvent.from_record(event.to_record()) == event

    def test_defaults_omitted_from_record(self):
        record = _flow(1.0).to_record()
        assert set(record) == {"t", "kind", "size"}

    def test_canonical_is_spelling_independent(self):
        # Explicit defaults and integral-float spellings parse to the same
        # event, hence the same canonical line.
        a = TraceEvent.from_record({"t": 1, "kind": "flow", "size": 1000, "cls": 0, "src": 0})
        b = TraceEvent.from_record({"t": 1.0, "kind": "flow", "size": 1000.0})
        assert a.canonical() == b.canonical()

    def test_flow_requires_size(self):
        with pytest.raises(TraceFormatError):
            TraceEvent(time_s=0.0, kind="flow")

    def test_stream_requires_rate_and_duration(self):
        with pytest.raises(TraceFormatError):
            TraceEvent(time_s=0.0, kind="stream", rate_bps=1e6)

    def test_flow_rejects_stream_fields(self):
        with pytest.raises(TraceFormatError):
            TraceEvent(time_s=0.0, kind="flow", size_bytes=10, rate_bps=1.0)

    def test_rejects_negative_time_and_unknown_kind_group(self):
        with pytest.raises(TraceFormatError):
            _flow(-0.1)
        with pytest.raises(TraceFormatError):
            TraceEvent(time_s=0.0, kind="probe")
        with pytest.raises(TraceFormatError):
            _flow(0.0, group="elsewhere")

    def test_from_record_rejects_unknown_keys(self):
        with pytest.raises(TraceFormatError, match="unknown trace record key"):
            TraceEvent.from_record({"t": 1.0, "kind": "flow", "size": 10, "color": "red"})


EVENTS = [
    _flow(0.1, size=500),
    _flow(0.2, size=2000, traffic_class=1),
    _stream(0.25, rate=3e6, dur=0.4, group="cross"),
    _flow(0.9, size=70_000, src=3, dst=1),
]


class TestTraceIO:
    def test_golden_roundtrip_plain_and_gzip(self, tmp_path):
        """generate → write → read → identical digest (the CI golden gate)."""
        reference = events_digest(iter(EVENTS))
        plain = tmp_path / "trace.jsonl"
        packed = tmp_path / "trace.jsonl.gz"
        wrote_plain = write_trace(str(plain), iter(EVENTS), meta={"note": "golden"})
        wrote_packed = write_trace(str(packed), iter(EVENTS))
        assert wrote_plain.id == wrote_packed.id == reference.id
        assert list(read_trace(str(plain))) == EVENTS
        assert list(read_trace(str(packed))) == EVENTS
        assert trace_digest(str(plain)).id == reference.id
        assert trace_digest(str(packed)).id == reference.id

    def test_header_excluded_from_digest(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        da = write_trace(str(a), iter(EVENTS), meta={"generator": "x", "note": "anything"})
        db = write_trace(str(b), iter(EVENTS))
        assert da.id == db.id
        assert a.read_text() != b.read_text()

    def test_digest_summarizes_content(self):
        digest = events_digest(iter(EVENTS))
        assert digest.events == 4
        assert digest.flows == 3
        assert digest.streams == 1
        assert digest.flow_bytes == 500 + 2000 + 70_000
        assert digest.first_time_s == pytest.approx(0.1)
        assert digest.last_time_s == pytest.approx(0.9)
        assert digest.id.startswith("sha256:")

    def test_digest_pinned(self):
        # The canonical serialization is a compatibility contract: cached
        # cells key on it, so a silent change must fail a test.
        digest = events_digest(iter([_flow(0.5, size=1234), _stream(1.0, rate=1e6, dur=2.0)]))
        assert digest.hexdigest == events_digest(
            iter([_flow(0.5, size=1234), _stream(1.0, rate=1e6, dur=2.0)])
        ).hexdigest
        assert digest.id == (
            "sha256:60cd691b24f2a4d1a1b84227f670528888e0020a4d8ac7631bb72cf94d62e446"
        )

    def test_writer_rejects_writes_after_close(self, tmp_path):
        writer = TraceWriter(str(tmp_path / "t.jsonl"))
        writer.write(_flow(0.1))
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.write(_flow(0.2))

    def test_reader_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"type": "repro-trace", "format": 99}) + "\n")
        with pytest.raises(TraceFormatError, match="unsupported trace format"):
            list(read_trace(str(path)))

    def test_reader_streams_lazily(self, tmp_path):
        # Pulling one event must not require parsing the rest of the file.
        path = tmp_path / "t.jsonl"
        with path.open("w") as fh:
            fh.write(json.dumps(header_record()) + "\n")
            fh.write(json.dumps({"t": 0.1, "kind": "flow", "size": 10}) + "\n")
            fh.write("this line is not json\n")
        events = read_trace(str(path))
        assert next(events).size_bytes == 10
        with pytest.raises(TraceFormatError):
            next(events)


class TestValidate:
    def test_valid_trace(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_trace(str(path), iter(EVENTS))
        digest, errors = validate_trace(str(path))
        assert errors == []
        assert digest.events == len(EVENTS)

    def test_reports_non_monotone_times(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with path.open("w") as fh:
            fh.write(json.dumps(header_record()) + "\n")
            for t in (1.0, 0.5):
                fh.write(json.dumps({"t": t, "kind": "flow", "size": 10}) + "\n")
        digest, errors = validate_trace(str(path))
        assert len(errors) == 1
        assert "precedes" in errors[0]

    def test_reports_bad_records_and_caps_errors(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with path.open("w") as fh:
            for _ in range(10):
                fh.write(json.dumps({"t": 1.0, "kind": "bogus"}) + "\n")
        digest, errors = validate_trace(str(path), max_errors=3)
        assert len(errors) == 4  # 3 problems + the suppression notice
        assert errors[-1].startswith("...")

    def test_unreadable_file(self, tmp_path):
        digest, errors = validate_trace(str(tmp_path / "missing.jsonl"))
        assert digest is None
        assert errors

    def test_corrupt_gzip(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        path.write_bytes(b"definitely not gzip")
        digest, errors = validate_trace(str(path))
        assert digest is None
        assert errors


class TestStore:
    def test_digest_id_parsing(self):
        digest = "sha256:" + "ab" * 32
        assert parse_digest_id(digest) == "ab" * 32
        for bad in ("md5:abc", "sha256:xyz", "sha256:" + "a" * 10, "abc"):
            with pytest.raises(TraceFormatError):
                parse_digest_id(bad)

    def test_file_digest_cache_invalidated_on_change(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(str(path), iter(EVENTS))
        first = file_trace_digest(str(path))
        assert file_trace_digest(str(path)).id == first.id
        write_trace(str(path), iter(EVENTS[:2]))
        import os
        os.utime(path, ns=(1, 1))  # force a distinct mtime even on coarse clocks
        assert file_trace_digest(str(path)).events == 2
