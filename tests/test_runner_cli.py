"""Tests for the repro-runner command line."""

import json

import pytest

from repro.runner.cli import SMOKE_SPEC, _parse_grid, _parse_params, _parse_value, main
from repro.runner.spec import SweepSpec

from test_runner_engine import _ReportsThenFails


class TestParsing:
    def test_parse_value(self):
        assert _parse_value("3") == 3
        assert _parse_value("3.5") == 3.5
        assert _parse_value("true") is True
        assert _parse_value("none") is None
        assert _parse_value("status_quo") == "status_quo"
        assert _parse_value("[1, 2]") == [1, 2]

    def test_parse_params(self):
        assert _parse_params(["a=1", "b=x"]) == {"a": 1, "b": "x"}
        with pytest.raises(SystemExit):
            _parse_params(["oops"])

    def test_parse_grid(self):
        assert _parse_grid(["mode=a,b", "rate=12,24"]) == {
            "mode": ["a", "b"],
            "rate": [12, 24],
        }
        with pytest.raises(SystemExit):
            _parse_grid(["oops"])


class TestSmokeSpec:
    def test_smoke_grid_has_at_least_8_cells(self):
        spec = SweepSpec.from_dict(SMOKE_SPEC)
        assert len(spec.expand()) >= 8

    def test_smoke_scenario_is_registered(self):
        from repro.runner.registry import load_builtin_scenarios

        registry = load_builtin_scenarios()
        scenario = registry.get(SMOKE_SPEC["scenario"])
        # The smoke base params must all be valid for the scenario.
        scenario.resolve_params(SMOKE_SPEC["base"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig09_slowdown" in out
        assert "Figure 9" in out

    def test_run_uses_cache_on_second_invocation(self, tmp_path, capsys):
        argv = [
            "--cache-dir", str(tmp_path / "cache"),
            "run", "fig09_slowdown",
            "-p", "duration_s=2.5", "-p", "warmup_s=0.25", "-p", "num_servers=2",
            "-p", "max_requests=60", "-p", "bottleneck_mbps=12", "-p", "rtt_ms=20",
            "--seed", "3",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "[simulated" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "[cache" in second

    def test_sweep_and_report(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "scenario": "fig09_slowdown",
                    "base": {
                        "duration_s": 2.5,
                        "warmup_s": 0.25,
                        "num_servers": 2,
                        "max_requests": 60,
                        "rtt_ms": 20.0,
                    },
                    "grid": {"mode": ["status_quo", "bundler_sfq"]},
                    "seeds": [1],
                }
            )
        )
        cache_dir = str(tmp_path / "cache")
        argv = ["--cache-dir", cache_dir, "sweep", "--spec", str(spec_file), "-w", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 runs: 2 executed, 0 served from cache (0% cache hits)" in out

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 runs: 0 executed, 2 served from cache (100% cache hits)" in out

        assert main(["--cache-dir", cache_dir, "report"]) == 0
        out = capsys.readouterr().out
        assert "fig09_slowdown" in out
        assert "2 cached result(s)" in out

    def test_report_empty_cache(self, tmp_path, capsys):
        assert main(["--cache-dir", str(tmp_path / "empty"), "report"]) == 1
        assert "no cached results" in capsys.readouterr().out

    def test_sweep_requires_a_spec_source(self):
        with pytest.raises(SystemExit):
            main(["sweep"])

    def test_report_aggregate_and_gc(self, tmp_path, capsys):
        # Seed a tiny cache directly (no simulation): two seeds of one cell
        # plus one record with a stale scenario version.
        from repro.runner.cache import ResultCache
        from repro.runner.registry import load_builtin_scenarios
        from repro.runner.result import RunResult, run_key

        registry = load_builtin_scenarios()
        current = registry.get("fig09_slowdown").version
        cache_dir = str(tmp_path / "cache")
        cache = ResultCache(cache_dir)
        for seed in (1, 2):
            params = {"mode": "status_quo"}
            cache.put(
                RunResult(
                    scenario="fig09_slowdown",
                    params=params,
                    seed=seed,
                    effective_seed=seed,
                    key=run_key("fig09_slowdown", params, seed, version=current),
                    metrics={"median_slowdown": 1.0 + seed},
                    scenario_version=current,
                )
            )
        stale_params = {"mode": "bundler_sfq"}
        cache.put(
            RunResult(
                scenario="fig09_slowdown",
                params=stale_params,
                seed=1,
                effective_seed=1,
                key=run_key("fig09_slowdown", stale_params, 1, version=current + 1),
                metrics={"median_slowdown": 1.0},
                scenario_version=current + 1,
            )
        )

        assert main(["--cache-dir", cache_dir, "report", "--aggregate"]) == 0
        out = capsys.readouterr().out
        # Two seeds of (status_quo) collapse into one aggregated row with a CI.
        assert "mean ± 95% CI" in out
        assert "±" in out
        assert "seeds" in out

        assert main(["--cache-dir", cache_dir, "gc", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "dry run" in out and "1 evicted" in out
        assert len(cache.rebuild_manifest()) == 3

        assert main(["--cache-dir", cache_dir, "gc"]) == 0
        out = capsys.readouterr().out
        assert "1 evicted (1 stale version, 0 expired), 2 kept" in out
        assert len(cache.rebuild_manifest()) == 2

    def test_gc_negative_max_age_is_refused_and_evicts_nothing(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["--cache-dir", cache_dir, "run", "ablation_pi_gains"]) == 0
        capsys.readouterr()
        assert main(["--cache-dir", cache_dir, "gc", "--max-age-days", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --max-age-days must be >= 0\n" and captured.out == ""
        assert main(["--cache-dir", cache_dir, "gc", "--max-age-days", "0.5"]) == 0
        assert "1 record(s) examined: 0 evicted" in capsys.readouterr().out

    def test_gc_empty_cache(self, tmp_path, capsys):
        assert main(["--cache-dir", str(tmp_path / "empty"), "gc"]) == 0
        assert "0 record(s) examined" in capsys.readouterr().out


class TestValueParsingBooleans:
    def test_python_style_booleans(self):
        assert _parse_value("True") is True
        assert _parse_value("False") is False
        assert _parse_value("TRUE") is True
        assert _parse_value("None") is None

    def test_smoke_rejects_inline_axes(self):
        with pytest.raises(SystemExit, match="--smoke defines the whole sweep"):
            main(["sweep", "--smoke", "--seeds", "3,4"])
        with pytest.raises(SystemExit, match="cannot be combined"):
            main(["sweep", "--smoke", "-g", "mode=a,b"])


class TestParamRoundTrip:
    """CLI `-p key=value` params and JSON spec-file params must canonicalize
    identically — a CLI-run cell and a spec-run cell of the same
    configuration share one cache key (the ISSUE-3 regression)."""

    def test_cli_string_spellings_share_spec_file_key(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        # CLI spelling: "5" parses to int 5; the typed ParamSpace coerces it
        # to the same canonical value as the spec file's 5.0.
        assert main([
            "--cache-dir", cache_dir,
            "run", "ablation_pi_gains", "-p", "alpha=5", "-p", "horizon_s=20",
        ]) == 0
        assert "[simulated" in capsys.readouterr().out

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "scenario": "ablation_pi_gains",
            "base": {"alpha": 5.0, "horizon_s": 20.0},
        }))
        assert main([
            "--cache-dir", cache_dir, "sweep", "--spec", str(spec_file), "-w", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 served from cache (100% cache hits)" in out

    def test_resolved_cells_identical_across_spellings(self):
        from repro.runner.engine import resolve_cell
        from repro.runner.spec import RunSpec

        from_cli = resolve_cell(
            RunSpec("ablation_pi_gains", params=_parse_params(["alpha=5", "beta=12"]))
        )
        from_json = resolve_cell(
            RunSpec("ablation_pi_gains", params={"alpha": 5.0, "beta": 12.0})
        )
        assert from_cli == from_json

    def test_grid_axis_spellings_share_keys(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv_int = [
            "--cache-dir", cache_dir, "sweep", "--scenario", "ablation_pi_gains",
            "-g", "alpha=5,10", "-w", "1",
        ]
        assert main(argv_int) == 0
        capsys.readouterr()
        argv_float = [
            "--cache-dir", cache_dir, "sweep", "--scenario", "ablation_pi_gains",
            "-g", "alpha=5.0,10.0", "-w", "1",
        ]
        assert main(argv_float) == 0
        assert "2 served from cache (100% cache hits)" in capsys.readouterr().out


class TestBackendFlag:
    def test_serial_and_process_sweeps_share_cache_keys(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        base = [
            "--cache-dir", cache_dir, "sweep", "--scenario", "ablation_pi_gains",
            "-g", "alpha=4,8", "-g", "beta=4,8", "-w", "2",
        ]
        assert main([*base, "--backend", "serial"]) == 0
        first = capsys.readouterr().out
        assert "[serial backend]" in first
        assert "4 executed" in first
        # The process backend resolves the same cells — all cache hits.
        assert main([*base, "--backend", "process"]) == 0
        second = capsys.readouterr().out
        assert "[process backend]" in second
        assert "4 served from cache (100% cache hits)" in second

    def test_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--smoke", "--backend", "smoke-signals"])


class TestInterrupt:
    def test_ctrl_c_exits_130_with_finished_cells_cached(self, tmp_path, capsys, monkeypatch):
        # Ctrl-C arrives while the sweep waits for its fourth outcome.
        monkeypatch.setattr(
            "repro.runner.engine.make_backend",
            lambda name, **_: _ReportsThenFails(3, KeyboardInterrupt()),
        )
        cache_dir = tmp_path / "cache"
        argv = [
            "--cache-dir", str(cache_dir), "sweep", "--scenario", "ablation_pi_gains",
            "-g", "alpha=4,8", "-g", "beta=4,8,16", "--backend", "serial",
        ]
        assert main(argv) == 130
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert (
            "interrupted: 3 of 6 cells are in the cache; rerun the same command to resume"
            in captured.err
        )
        manifest = json.loads((cache_dir / "manifest.json").read_text())
        assert len(manifest["records"]) == 3
        assert len(list(cache_dir.glob("*.json"))) == 3 + 1
        # The rerun counts what it found: hits and fresh writes alike.
        assert main(argv) == 130
        assert "interrupted: 6 of 6 cells" in capsys.readouterr().err
        monkeypatch.undo()
        assert main(argv) == 0
        assert "6 served from cache (100% cache hits)" in capsys.readouterr().out


class TestReportFormats:
    def _seed_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        for seed in ("1", "2"):
            assert main([
                "--cache-dir", cache_dir,
                "run", "ablation_pi_gains", "-p", "alpha=5", "--seed", seed,
            ]) == 0
        return cache_dir

    def test_csv_runs(self, tmp_path, capsys):
        cache_dir = self._seed_cache(tmp_path)
        capsys.readouterr()
        assert main(["--cache-dir", cache_dir, "report", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0].split(",")
        assert header[:2] == ["scenario", "seed"]
        assert header[-4:] == ["metric", "unit", "direction", "value"]
        assert "alpha" in header
        assert "settle_time_s,s,lower" in out

    def test_csv_aggregate_is_pandas_ready(self, tmp_path, capsys):
        import csv as csv_module
        import io

        cache_dir = self._seed_cache(tmp_path)
        capsys.readouterr()
        assert main([
            "--cache-dir", cache_dir, "report", "--aggregate", "--format", "csv",
        ]) == 0
        out = capsys.readouterr().out
        rows = list(csv_module.DictReader(io.StringIO(out)))
        assert rows, "aggregate csv export produced no rows"
        by_metric = {r["metric"]: r for r in rows}
        # Schema-described columns: every row names its metric and unit.
        assert by_metric["settle_time_s"]["unit"] == "s"
        assert by_metric["settle_time_s"]["direction"] == "lower"
        # The scenario is seed-insensitive, so both seeds collapsed to n=1.
        assert by_metric["settle_time_s"]["n"] == "1"
        float(by_metric["settle_time_s"]["mean"])  # parses as a number

    def test_jsonl_round_trips(self, tmp_path, capsys):
        cache_dir = self._seed_cache(tmp_path)
        capsys.readouterr()
        assert main(["--cache-dir", cache_dir, "report", "--format", "jsonl"]) == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.splitlines()]
        assert all(row["scenario"] == "ablation_pi_gains" for row in rows)
        assert {row["metric"] for row in rows} == {"settle_time_s", "settled"}

    def test_report_format_choices_are_the_export_formats(self):
        # cli spells the choices out so that naming them does not import
        # the exporters; this keeps the two from drifting.
        from repro.runner.cli import build_parser
        from repro.runner.export import EXPORT_FORMATS

        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--format", "yaml"])
        for fmt in EXPORT_FORMATS:
            assert build_parser().parse_args(["report", "--format", fmt]).format == fmt

    @pytest.mark.parametrize("flags", [[], ["--aggregate"]])
    def test_unreadable_records_are_reported_on_stderr(self, tmp_path, capsys, flags):
        import os

        cache_dir = self._seed_cache(tmp_path)
        capsys.readouterr()
        assert main(["--cache-dir", cache_dir, "report", *flags]) == 0
        clean = capsys.readouterr()
        assert clean.err == ""
        with open(os.path.join(cache_dir, "0" * 64 + ".json"), "w") as fh:
            fh.write('{"result": {"scenario": "ablation_pi_')  # truncated
        assert main(["--cache-dir", cache_dir, "report", *flags]) == 0
        broken = capsys.readouterr()
        assert broken.out == clean.out  # stdout and exit code unchanged
        assert broken.err == f"skipped 1 unreadable record(s) under {cache_dir!r}\n"

    def test_table_format_is_default(self, tmp_path, capsys):
        cache_dir = self._seed_cache(tmp_path)
        capsys.readouterr()
        assert main(["--cache-dir", cache_dir, "report"]) == 0
        out = capsys.readouterr().out
        assert "cached runs" in out
        # Unit-annotated headers come from the metric schema.
        assert "settle_time_s [s]" in out


class TestListVerbose:
    def test_knob_table_renders_types_units_choices(self, capsys):
        assert main(["list", "-v"]) == 0
        out = capsys.readouterr().out
        assert "parameter" in out and "type" in out
        assert "float Mbit/s" in out
        assert "{status_quo," in out  # mode choices rendered
        assert "metric" in out and "direction" in out
        assert "lower" in out


class TestProfileCli:
    def test_profile_prints_hot_functions_and_dumps_pstats(self, tmp_path, capsys):
        out = tmp_path / "prof.pstats"
        code = main([
            "profile", "fig13_competing_bundles", "-p", "duration_s=1",
            "--top", "5", "--sort", "tottime", "-o", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "profile: fig13_competing_bundles" in captured
        assert "function calls" in captured
        assert out.exists() and out.stat().st_size > 0

    def test_profile_run_api(self):
        from repro.obs.profiling import profile_run

        result, report = profile_run(
            "fig13_competing_bundles", {"duration_s": 1}, seed=1, top=3
        )
        assert result.metrics
        assert "function calls" in report

    def test_bad_sort_rejected(self):
        from repro.obs.profiling import profile_run

        with pytest.raises(ValueError):
            profile_run("fig13_competing_bundles", {"duration_s": 1}, sort="zorp")


class TestFidelity:
    """``fidelity`` end to end over a hand-filled cache — nothing simulates."""

    @pytest.fixture
    def warm_cache(self, tmp_path):
        from repro.experiments import claims
        from repro.runner.cache import ResultCache
        from repro.runner.engine import effective_seed, resolve_cell
        from repro.runner.result import RunResult

        # Every metric any claim reads, per scenario; 1.0 satisfies "= 1",
        # fails "= 0" and makes every ratio 1.
        wanted = {}
        for claim in claims.CLAIMS:
            for side in filter(None, (claim.value, claim.over)):
                scenario, _ = claims.pick_cell(claim.figure, side[1])
                wanted.setdefault(scenario, {}).update(
                    dict.fromkeys(claims._metric_names(side), 1.0)
                )
        cache = ResultCache(str(tmp_path / "cache"))
        for spec in claims.sweep_specs():
            spec, params, key = resolve_cell(spec)
            cache.put(RunResult(
                scenario=spec.scenario, params=params, seed=spec.seed,
                effective_seed=effective_seed(spec), key=key, metrics=wanted[spec.scenario],
            ))
        return cache.root

    def test_md_goes_to_stdout_alone_and_lists_every_claim(self, warm_cache, capsys):
        from repro.experiments.claims import CLAIMS

        assert main(["--cache-dir", warm_cache, "fidelity", "--format", "md", "--backend", "serial"]) == 0
        captured = capsys.readouterr()
        # The page is redirected into docs/fidelity.md: header and summary
        # lines belong on stderr.
        assert captured.out.startswith("# Fidelity ledger")
        assert "123 cells on 1 worker(s) [serial backend]" in captured.err
        assert "123 served from cache (100% cache hits)" in captured.err
        assert all(f"| `{claim.id}` |" in captured.out for claim in CLAIMS)
        assert "| `fig09.fifo_matches_status_quo` | " in captured.out
        assert "| [0.8, 1.25] | 1 ± 0 (n=3) | reproduces |" in captured.out
        assert "| = 0 | 1 ± 0 (n=3) | **contradicts** |" in captured.out

    def test_table_is_the_default_format(self, warm_cache, capsys):
        assert main(["--cache-dir", warm_cache, "fidelity", "--backend", "serial"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["claim", "statistic", "band", "measured", "verdict"]
        assert out.splitlines()[-1].startswith("64 claims: ")

    def test_more_seeds_than_the_cache_holds_would_simulate(self, warm_cache, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.runner.engine.make_backend",
            lambda name, **_: _ReportsThenFails(0, KeyboardInterrupt()),
        )
        assert main(["--cache-dir", warm_cache, "fidelity", "--seeds", "4", "--backend", "serial"]) == 130
        assert "interrupted: 123 of 158 cells are in the cache" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fidelity", "--seeds", "0"], "fidelity needs at least one seed"),
            (["sweep", "--scenario", "ablation_pi_gains", "--seeds", "1,,2"],
             "--seeds: expected comma-separated integers, got '1,,2'"),
            (["sweep", "--scenario", "ablation_pi_gains", "--seeds", "a"],
             "--seeds: expected comma-separated integers, got 'a'"),
            (["gc", "--max-age-days", "nan"], "--max-age-days must be >= 0"),
        ],
    )
    def test_bad_argument_is_a_usage_error(self, tmp_path, capsys, argv, message):
        assert main(["--cache-dir", str(tmp_path / "c"), *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sweep_and_fidelity_share_every_execution_flag(self):
        from repro.runner.cli import build_parser

        [sub] = [a for a in build_parser()._actions if hasattr(a, "choices") and a.choices]
        flags = {
            name: {o for action in sub.choices[name]._actions for o in action.option_strings}
            for name in ("sweep", "fidelity")
        }
        shared = {"--workers", "--backend", "--hosts", "--progress", "--no-cache",
                  "--batch-size", "--listen", "--chaos-plan", "--cache-dir"}
        assert shared <= flags["sweep"] & flags["fidelity"]
