"""Tests for the ``repro-runner trace`` subcommands.

Includes the subsystem's memory acceptance gate: a 1M-flow generated trace
must stream through ``trace inspect`` without loading into memory, pinned
by measuring the inspecting process's peak RSS in a subprocess.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.runner.cli import main
from repro.traffic.format import read_trace, trace_digest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _env():
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class TestTraceGenerate:
    def test_generate_inspect_validate_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl.gz"
        assert main(["trace", "generate", "--generator", "poisson",
                     "-p", "rate_per_s=50", "-p", "horizon_s=2",
                     "--seed", "3", "-o", str(out)]) == 0
        generated = capsys.readouterr().out
        digest = trace_digest(str(out))
        assert digest.id in generated
        assert main(["trace", "inspect", str(out)]) == 0
        assert digest.id in capsys.readouterr().out
        assert main(["trace", "validate", str(out)]) == 0
        assert "valid trace" in capsys.readouterr().out

    def test_generate_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl.gz"
        args = ["trace", "generate", "--generator", "diurnal", "--seed", "9"]
        assert main([*args, "-o", str(a)]) == 0
        assert main([*args, "-o", str(b)]) == 0
        assert trace_digest(str(a)).id == trace_digest(str(b)).id

    def test_generate_from_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"generator": "onoff", "params": {"horizon_s": 2.0}}))
        out = tmp_path / "t.jsonl"
        assert main(["trace", "generate", "--spec", str(spec), "-o", str(out)]) == 0
        events = list(read_trace(str(out)))
        assert events and all(e.kind == "stream" for e in events)

    def test_generate_flag_conflicts(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "generate", "--generator", "poisson"])  # no --out
        with pytest.raises(SystemExit):
            main(["trace", "generate", "--generator", "poisson", "--store"])  # gone
        with pytest.raises(SystemExit):
            main(["trace", "generate", "-o", "x.jsonl"])  # no generator
        spec = tmp_path / "s.json"
        spec.write_text("{}")
        with pytest.raises(SystemExit, match="drop --generator"):
            main(["trace", "generate", "--spec", str(spec), "--generator", "poisson",
                  "-o", "x.jsonl"])

    def test_unknown_generator_is_a_clean_error(self, tmp_path, capsys):
        code = main(["trace", "generate", "--generator", "hurricane",
                     "-o", str(tmp_path / "t.jsonl")])
        assert code == 2
        assert "unknown trace generator" in capsys.readouterr().err


class TestTraceValidateCli:
    def test_invalid_trace_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"t": 1.0, "kind": "flow", "size": 10}\n'
                       '{"t": 0.5, "kind": "flow", "size": 10}\n')
        assert main(["trace", "validate", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "INVALID" in captured.out
        assert "precedes" in captured.err

    def test_missing_file_is_a_clean_error(self, tmp_path):
        assert main(["trace", "validate", str(tmp_path / "nope.jsonl")]) == 1


@pytest.mark.slow
class TestMillionFlowBoundedMemory:
    """Acceptance: 1M flows stream through ``trace inspect`` in bounded RSS."""

    FLOWS = 1_000_000

    def test_inspect_streams_million_flow_trace(self, tmp_path):
        trace = tmp_path / "million.jsonl"
        # Generate in a subprocess (the writer must stream too) and measure
        # the inspecting process's own peak RSS, isolated from pytest's.
        script = f"""
import resource, sys
sys.argv = ["repro-runner", "trace", "generate", "--generator", "poisson",
            "-p", "rate_per_s=100000", "-p", "horizon_s=100",
            "-p", "max_flows={self.FLOWS}",
            "-p", 'sizes={{"dist": "constant", "bytes": 1000}}',
            "-o", {str(trace)!r}]
from repro.runner.cli import main
code = main(sys.argv[1:])
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(f"GENERATE_RSS_MB={{peak_mb:.1f}}")
sys.exit(code)
"""
        result = subprocess.run(
            [sys.executable, "-c", script], env=_env(),
            capture_output=True, text=True, timeout=600,
        )
        assert result.returncode == 0, result.stderr
        gen_rss = float(result.stdout.split("GENERATE_RSS_MB=")[1].split()[0])

        script = f"""
import resource, sys
from repro.runner.cli import main
code = main(["trace", "inspect", {str(trace)!r}])
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(f"INSPECT_RSS_MB={{peak_mb:.1f}}")
sys.exit(code)
"""
        result = subprocess.run(
            [sys.executable, "-c", script], env=_env(),
            capture_output=True, text=True, timeout=600,
        )
        assert result.returncode == 0, result.stderr
        assert f"{self.FLOWS}" in result.stdout  # events counted
        rss = float(result.stdout.split("INSPECT_RSS_MB=")[1].split()[0])
        # The trace file is ~40 MB of JSONL; a reader that materialized the
        # events would need hundreds of MB.  Interpreter + imports cost
        # ~40-60 MB; 200 MB is a generous streaming bound.
        assert rss < 200.0, f"trace inspect peaked at {rss:.0f} MB RSS (not streaming?)"
        assert gen_rss < 200.0, f"trace generate peaked at {gen_rss:.0f} MB RSS (not streaming?)"
