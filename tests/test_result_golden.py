"""Cross-commit result golden: a scenario's bytes only move with its version.

Byte parity elsewhere in the suite is checked *within* a commit (obs on/off,
probes on/off, backend vs backend).  This file pins one cheap cell of every
registered scenario to the sha256 of its :meth:`RunResult.canonical` bytes,
keyed ``"<scenario>@v<version>"``, so a change that moves a scenario's result
without bumping its ``version=`` fails here instead of being served stale
cells from a cache keyed by the old version.

After a *deliberate* change (version bumped, or a scenario added), regenerate
with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_result_golden.py

and commit the diff alongside the version bump.  CI runs this file a second
time under ``REPRO_SANITIZE=1``: the same digests must hold with the runtime
shadows engaged.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.runner.engine import execute_run
from repro.runner.registry import load_builtin_scenarios
from repro.runner.spec import RunSpec

GOLDEN = Path(__file__).resolve().parent / "golden" / "result_digests.json"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))
REGEN_HINT = (
    "regenerate with: REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest "
    "tests/test_result_golden.py"
)
SEED = 1

_REQUESTS = {"duration_s": 2, "warmup_s": 0.5, "num_servers": 2}

#: One pinned cell per scenario: about a second each, every mechanism engaged
#: (fig02 runs past the 5 s mark its delay means start from).
CELLS = {
    "ablation_epoch_sampling": _REQUESTS,
    "ablation_pi_gains": {"horizon_s": 10},
    "fig02_queue_shift": {"duration_s": 6.5},
    "fig05_fig06_estimates": {"duration_s": 3, "num_flows": 2},
    "fig07_multipath": {"duration_s": 2},
    "fig09_slowdown": _REQUESTS,
    "fig10_phased_cross_traffic": {"phase_duration_s": 1, "num_servers": 2},
    "fig11_short_cross_traffic": {"duration_s": 2},
    "fig12_elastic_cross": {"duration_s": 2, "warmup_s": 0.5, "bundle_flows": 2,
                            "competing_flows": 2},
    "fig13_competing_bundles": {"duration_s": 2},
    "fig14_sendbox_cc": {**_REQUESTS, "sendbox_cc": "bbr"},
    "fig15_proxy": _REQUESTS,
    "fig16_internet_paths": {"duration_s": 2, "num_probes": 3, "num_bulk_flows": 2},
    "sec72_fq_codel": _REQUESTS,
    "sec72_priority": {**_REQUESTS, "duration_s": 1.5},
    "sec74_endhost_cc": {**_REQUESTS, "endhost_cc": "reno"},
    "trace_bursty_cross": {"duration_s": 2},
    "trace_diurnal_load": {"duration_s": 1.5},
    "trace_flash_crowd": {"duration_s": 2},
}

REGISTRY = load_builtin_scenarios()


def _golden_key(name):
    return f"{name}@v{REGISTRY.get(name).version}"


def _digest(name):
    result = execute_run(RunSpec(name, CELLS[name], seed=SEED), registry=REGISTRY)
    return hashlib.sha256(result.canonical().encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    if REGEN:
        digests = {_golden_key(name): _digest(name) for name in sorted(CELLS)}
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return json.loads(GOLDEN.read_text())


def test_every_registered_scenario_is_pinned(golden):
    assert sorted(CELLS) == REGISTRY.names(), "CELLS must pin one cell of every scenario"
    missing = [_golden_key(name) for name in REGISTRY.names() if _golden_key(name) not in golden]
    assert not missing, f"no golden digest for {missing}; {REGEN_HINT}"


@pytest.mark.parametrize("name", sorted(CELLS))
def test_result_bytes_match_golden(name, golden):
    assert _digest(name) == golden.get(_golden_key(name)), (
        f"{name}'s result bytes changed without a version bump (or {_golden_key(name)} has "
        f"no golden yet) — bump version= in its register_scenario call if the change is "
        f"deliberate, then {REGEN_HINT}"
    )
