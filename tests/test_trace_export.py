"""Perfetto trace export and ``report --timeseries``: artifact contracts.

The exported artifact is consumed by external tooling (ui.perfetto.dev,
pandas), so these tests pin the *output* shape: a structurally valid
trace_event JSON with the acceptance-criteria tracks (a bundler-qdisc
backlog counter and a drop instant stream), and long-format CSV/JSONL
carrying the same series the trace does.
"""

import json

import pytest

from repro.obs.export_trace import (
    build_trace,
    trace_summary,
    validate_trace,
    write_trace,
)
from repro.obs.probe import PROBES_ENV
from repro.runner.cache import ResultCache
from repro.runner.cli import main
from repro.runner.engine import execute_run
from repro.runner.export import export_timeseries, timeseries_long_table
from repro.runner.registry import load_builtin_scenarios
from repro.runner.spec import RunSpec

CHEAP = RunSpec("fig13_competing_bundles", {"duration_s": 1}, seed=1)


@pytest.fixture(scope="module")
def probed_result():
    # Series are recorded on request; the default run carries none.
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(PROBES_ENV, "1")
        return execute_run(CHEAP, registry=load_builtin_scenarios())


class TestBuildTrace:
    def test_refuses_result_without_probes(self, probed_result, monkeypatch):
        monkeypatch.delenv(PROBES_ENV, raising=False)
        bare = execute_run(CHEAP, registry=load_builtin_scenarios())
        with pytest.raises(ValueError, match="no probe telemetry"):
            build_trace(bare)

    def test_trace_is_schema_valid(self, probed_result):
        assert validate_trace(build_trace(probed_result)) == []

    def test_counter_and_instant_tracks_present(self, probed_result):
        trace = build_trace(probed_result)
        counters = {e["name"] for e in trace["traceEvents"] if e["ph"] == "C"}
        instants = {e["name"] for e in trace["traceEvents"] if e["ph"] == "i"}
        assert any("/qdisc/" in n and "backlog_bytes" in n for n in counters)
        # This cell drops nothing in 1s; its instants are epoch boundaries.
        # The drop instant stream is pinned on fig02 in TestTraceExportCli.
        assert any("epoch_boundary" in n for n in instants)

    def test_spans_one_per_thread_with_names(self, probed_result):
        trace = build_trace(probed_result)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        thread_names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert spans
        tids = [(s["pid"], s["tid"]) for s in spans]
        assert len(set(tids)) == len(tids)  # one flow per thread row
        for span in spans:
            assert thread_names[(span["pid"], span["tid"])] == span["name"]

    def test_timestamps_are_integer_microseconds(self, probed_result):
        trace = build_trace(probed_result)
        # Spans may extend past duration_s into the scenario's drain phase,
        # so only non-negativity and integer-ness are universal.
        for event in trace["traceEvents"]:
            if event["ph"] == "M":
                continue
            assert isinstance(event["ts"], int)
            assert event["ts"] >= 0

    def test_other_data_identifies_the_run(self, probed_result):
        other = build_trace(probed_result)["otherData"]
        assert other["scenario"] == CHEAP.scenario
        assert other["seed"] == CHEAP.seed
        assert other["run_key"] == probed_result.key
        assert other["params"]["duration_s"] == 1

    def test_counter_labels_carry_units(self, probed_result):
        trace = build_trace(probed_result)
        labels = {e["name"] for e in trace["traceEvents"] if e["ph"] == "C"}
        assert any(label.endswith("[bytes]") for label in labels)


class TestValidateTrace:
    def test_rejects_non_object_and_missing_events(self):
        assert validate_trace([]) == ["trace is not a JSON object"]
        assert validate_trace({}) == ["traceEvents missing or not an array"]

    def test_rejects_bad_display_unit(self):
        errors = validate_trace({"traceEvents": [], "displayTimeUnit": "s"})
        assert errors == ["displayTimeUnit must be 'ms' or 'ns'"]

    @pytest.mark.parametrize(
        "event, fragment",
        [
            ({"ph": "Z", "name": "x", "pid": 0}, "unknown phase"),
            ({"ph": "C", "pid": 0, "ts": 1, "args": {"v": 1}}, "missing event name"),
            ({"ph": "C", "name": "x", "ts": 1, "args": {"v": 1}}, "integer pid"),
            ({"ph": "C", "name": "x", "pid": 0, "args": {"v": 1}}, "integer ts"),
            ({"ph": "C", "name": "x", "pid": 0, "ts": -1, "args": {"v": 1}}, "integer ts"),
            ({"ph": "C", "name": "x", "pid": 0, "ts": 1}, "non-empty args"),
            ({"ph": "C", "name": "x", "pid": 0, "ts": 1, "args": {"v": "hi"}}, "numeric"),
            ({"ph": "X", "name": "x", "pid": 0, "ts": 1}, "dur"),
            ({"ph": "i", "name": "x", "pid": 0, "ts": 1, "s": "q"}, "scope"),
        ],
    )
    def test_rejects_malformed_events(self, event, fragment):
        errors = validate_trace({"traceEvents": [event], "displayTimeUnit": "ms"})
        assert any(fragment in error for error in errors), errors

    def test_error_list_is_capped(self):
        bad = {"traceEvents": [{"ph": "Z"}] * 200, "displayTimeUnit": "ms"}
        errors = validate_trace(bad)
        assert len(errors) <= 51
        assert errors[-1].startswith("...")


class TestWriteTrace:
    def test_written_file_parses_and_round_trips(self, probed_result, tmp_path):
        trace = build_trace(probed_result)
        path = tmp_path / "trace.json"
        write_trace(trace, str(path))
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == json.loads(json.dumps(trace))
        assert trace_summary(json.loads(text)) == trace_summary(trace)


class TestTraceExportCli:
    def test_exports_valid_trace_with_required_tracks(self, tmp_path, capsys):
        # The acceptance cell: fig02's bundler sheds queue into its own
        # token bucket, so the trace must show the bundler-qdisc backlog
        # counter and a populated drop instant stream.
        out = tmp_path / "fig02.json"
        assert (
            main(
                [
                    "--cache-dir", str(tmp_path / "cache"),
                    "trace-export", "fig02_queue_shift",
                    "-p", "duration_s=3", "--seed", "1",
                    "-o", str(out),
                ]
            )
            == 0
        )
        assert "ui.perfetto.dev" in capsys.readouterr().out
        trace = json.loads(out.read_text())
        assert validate_trace(trace) == []
        summary = trace_summary(trace)
        assert summary["counter_tracks"] >= 1
        assert summary["instant_streams"] >= 1
        assert summary["spans"] >= 1
        counters = {e["name"] for e in trace["traceEvents"] if e["ph"] == "C"}
        instants = {e["name"] for e in trace["traceEvents"] if e["ph"] == "i"}
        assert any("/qdisc/TokenBucketQdisc/backlog_bytes" in n for n in counters)
        assert any(n.endswith("/drop") for n in instants)

    def test_forces_probes_on_and_restores_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(PROBES_ENV, "0")
        out = tmp_path / "forced.json"
        assert (
            main(
                [
                    "--cache-dir", str(tmp_path / "cache"),
                    "trace-export", "fig13_competing_bundles",
                    "-p", "duration_s=1", "-o", str(out),
                ]
            )
            == 0
        )
        assert json.loads(out.read_text())["traceEvents"]
        import os

        assert os.environ[PROBES_ENV] == "0"


class TestReportTimeseries:
    @pytest.fixture()
    def warm_cache(self, tmp_path, probed_result):
        cache = ResultCache(tmp_path / "cache")
        cache.put(probed_result, elapsed_s=0.5)
        return tmp_path / "cache"

    def test_csv_exports_probe_series(self, warm_cache, capsys):
        assert (
            main(
                [
                    "--cache-dir", str(warm_cache),
                    "report", "--timeseries", "--format", "csv",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        header, *rows = out.strip().split("\n")
        assert header.split(",")[:2] == ["scenario", "seed"]
        assert "series" in header and "unit" in header and "kind" in header
        assert rows
        assert any("/qdisc/" in row for row in rows)
        assert any(",event," in row for row in rows)  # drop instants

    def test_jsonl_rows_parse_and_match_table(self, warm_cache, capsys, probed_result):
        assert (
            main(
                [
                    "--cache-dir", str(warm_cache),
                    "report", "--timeseries", "--format", "jsonl",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().split("\n")
        parsed = [json.loads(line) for line in lines]
        assert len(parsed) == len(timeseries_long_table([probed_result]).rows)
        assert {row["scenario"] for row in parsed} == {CHEAP.scenario}

    def test_requires_machine_format_and_rejects_aggregate(self, warm_cache):
        with pytest.raises(SystemExit, match="csv"):
            main(["--cache-dir", str(warm_cache), "report", "--timeseries"])
        with pytest.raises(SystemExit, match="aggregate"):
            main(
                [
                    "--cache-dir", str(warm_cache),
                    "report", "--timeseries", "--format", "csv", "--aggregate",
                ]
            )

    def test_probeless_records_export_no_rows_with_note(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv(PROBES_ENV, raising=False)
        bare = execute_run(CHEAP, registry=load_builtin_scenarios())
        cache = ResultCache(tmp_path / "cache")
        cache.put(bare, elapsed_s=0.5)
        assert (
            main(
                [
                    "--cache-dir", str(tmp_path / "cache"),
                    "report", "--timeseries", "--format", "csv",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert len(captured.out.strip().split("\n")) == 1  # header only
        assert "no cached run carries probe series" in captured.err
        # ... and says both ways to get them.
        assert "REPRO_PROBES=1" in captured.err and "trace-export" in captured.err


class TestTimeseriesTable:
    def test_export_timeseries_formats(self, probed_result):
        csv_text = export_timeseries([probed_result], "csv")
        jsonl_text = export_timeseries([probed_result], "jsonl")
        assert csv_text.count("\n") == jsonl_text.count("\n") + 1  # header
        with pytest.raises(ValueError, match="unknown export format"):
            export_timeseries([probed_result], "yaml")

    def test_rows_match_retained_samples(self, probed_result):
        table = timeseries_long_table([probed_result])
        [snapshot] = probed_result.telemetry["probes"]["simulators"]
        expected = sum(len(s["t"]) for s in snapshot["series"]) + sum(
            len(e["t"]) for e in snapshot["events"]
        )
        assert len(table.rows) == expected
