"""Naming a scenario does not import the simulator.

``list``, a fully cached ``sweep``, ``report``, ``gc`` and the claims
table's validation work from the catalogue of declarations
(:mod:`repro.experiments.catalog`) alone; a scenario's model — and with it
``repro.net``, ``core``, ``qdisc``, ``transport``, ``cc``, ``traffic``,
``workload`` — is imported by the first cell that executes.  Each case
needs a fresh interpreter: this process imported the simulator long ago.
The static half of the same contract is lint rule RPR050.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import api

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MODEL_PACKAGES = (
    "repro.net", "repro.core", "repro.qdisc", "repro.transport",
    "repro.cc", "repro.traffic", "repro.workload",
)

#: Near-empty cells (a fluid-model difference equation): cheap to populate.
SWEEP = api.SweepSpec(
    scenario="ablation_pi_gains", base={"horizon_s": 2.0}, grid={"alpha": [5.0, 10.0]}
)


def loaded_after(body: str) -> set:
    """Module names a fresh interpreter holds after ``body``: each in full,
    and cut to top-level-or-``repro.x``."""
    script = (
        "import json, sys\n"
        f"{body}\n"
        "names = {'.'.join(m.split('.')[:2]) if m.startswith('repro.') else m.split('.')[0]\n"
        "         for m in sys.modules}\n"
        "print('LOADED ' + json.dumps(sorted(names.union(sys.modules))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    marker = [line for line in result.stdout.splitlines() if line.startswith("LOADED ")]
    return set(json.loads(marker[-1][len("LOADED "):]))


def cli(*argv: str) -> str:
    return (
        "from repro.runner.cli import main\n"
        f"assert main({list(argv)!r}) == 0"
    )


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A populated cache directory and the spec file that fills it."""
    root = tmp_path_factory.mktemp("layering")
    cache_dir, spec_path = str(root / "cache"), str(root / "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(SWEEP.to_dict(), fh)
    api.run_spec(SWEEP, cache=api.ResultCache(cache_dir), backend="serial")
    return cache_dir, spec_path


@pytest.mark.parametrize("command", ["list", "sweep", "report", "gc"])
def test_commands_that_only_name_scenarios_load_no_model(command, warm):
    cache_dir, spec_path = warm
    argv = {
        "list": ("list", "-v"),
        "sweep": ("--cache-dir", cache_dir, "sweep", "--backend", "serial", "--spec", spec_path),
        "report": ("--cache-dir", cache_dir, "report", "--aggregate"),
        "gc": ("--cache-dir", cache_dir, "gc", "--dry-run"),
    }[command]
    loaded = loaded_after(cli(*argv))
    assert "repro.experiments" in loaded  # the catalogue did load
    assert loaded.isdisjoint(MODEL_PACKAGES), sorted(loaded.intersection(MODEL_PACKAGES))
    # No pool was started, so nothing paid for multiprocessing either.
    assert "multiprocessing" not in loaded
    if command == "list":
        # Start-up crumbs: no filter classes behind `repro.util`, and the
        # cache's write-side import stays with the writers.
        assert loaded.isdisjoint({"repro.util.windowed", "tempfile"})


def test_validating_the_claims_table_loads_no_model():
    loaded = loaded_after("from repro.experiments import claims\nclaims.validate()")
    assert loaded.isdisjoint(MODEL_PACKAGES), sorted(loaded.intersection(MODEL_PACKAGES))


def test_the_first_executed_cell_loads_its_model(warm, tmp_path):
    _, spec_path = warm
    loaded = loaded_after(
        cli("--cache-dir", str(tmp_path / "cold"), "sweep", "--backend", "serial",
            "--spec", spec_path)
    )
    assert {"repro.net", "repro.core"} <= loaded
