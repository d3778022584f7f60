"""Cross-commit golden: a scenario's bytes and counts only move on purpose.

Byte parity elsewhere in the suite is checked *within* a commit (obs on/off,
probes on/off, backend vs backend).  This file runs one cheap cell of every
registered scenario once and pins two things about it, both keyed
``"<scenario>@v<version>"``:

* ``golden/result_digests.json`` — the sha256 of its
  :meth:`RunResult.canonical` bytes, so a change that moves a scenario's
  result without bumping its ``version=`` fails here instead of being served
  stale cells from a cache keyed by the old version;
* ``golden/run_counters.json`` — the deterministic counter ledger: the run's
  ``telemetry["counters"]`` (events, packets, drops, retransmits, epoch
  updates, ...) minus the wall clock.  A refactor or an optimisation that
  claims to leave behaviour alone must leave every one of these counts alone,
  at zero tolerance; how *fast* the simulator runs is measured only by
  ``benchmarks/perfbench/bench.py``.

After a *deliberate* change (version bumped, a scenario added, or an
optimisation that really does schedule fewer events), regenerate with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_result_golden.py

and commit the diff.  CI runs this file a second time under
``REPRO_SANITIZE=1``: the same digests and the same counts must hold with the
runtime shadows engaged.
"""

import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, NamedTuple

import pytest

from repro.obs.collect import OBS_ENV
from repro.obs.probe import PROBES_ENV
from repro.runner.engine import execute_run
from repro.runner.registry import load_builtin_scenarios
from repro.runner.spec import RunSpec

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN_DIR / "result_digests.json"
COUNTERS = GOLDEN_DIR / "run_counters.json"
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


class Cell(NamedTuple):
    digest: str
    counters: Dict[str, Any]
    simulators: int


def _golden_key(name):
    return f"{name}@v{REGISTRY.get(name).version}"


@functools.cache
def cell(name) -> Cell:
    """Simulate the scenario's pinned cell — once per process, however many
    assertions read it."""
    # Telemetry on, probes off, whatever the environment says: the ledger
    # needs the counters, and probes add sampling-timer events to them.
    with pytest.MonkeyPatch.context() as env:
        env.setenv(OBS_ENV, "1")
        env.setenv(PROBES_ENV, "0")
        result = execute_run(RunSpec(name, CELLS[name], seed=SEED), registry=REGISTRY)
    counters = dict(result.telemetry["counters"])
    del counters["run_wall_s"]
    return Cell(
        digest=hashlib.sha256(result.canonical().encode()).hexdigest(),
        counters=counters,
        simulators=result.telemetry["simulators"],
    )


def _leaves(tree: Dict[str, Any], prefix=""):
    for name, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{name}.")
        else:
            yield f"{prefix}{name}", value


def counter_drift(expected: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    """Every counter path whose value differs, as ``"path old -> new"``."""
    old, new = dict(_leaves(expected)), dict(_leaves(actual))
    return [
        f"{path} {old.get(path, 'absent')} -> {new.get(path, 'absent')}"
        for path in sorted(old.keys() | new.keys())
        if old.get(path, "absent") != new.get(path, "absent")
    ]


@pytest.fixture(scope="module")
def golden():
    """The committed ``(digests, counters)``, regenerated first when asked."""
    if REGEN:
        runs = {_golden_key(name): cell(name) for name in sorted(CELLS)}
        for path, field in ((DIGESTS, "digest"), (COUNTERS, "counters")):
            column = {key: getattr(run, field) for key, run in runs.items()}
            path.write_text(json.dumps(column, indent=2, sort_keys=True) + "\n")
    return json.loads(DIGESTS.read_text()), json.loads(COUNTERS.read_text())


def test_every_registered_scenario_is_pinned(golden):
    assert sorted(CELLS) == REGISTRY.names(), "CELLS must pin one cell of every scenario"
    for path, pinned in zip((DIGESTS, COUNTERS), golden):
        missing = [_golden_key(n) for n in REGISTRY.names() if _golden_key(n) not in pinned]
        assert not missing, f"no entry in {path.name} for {missing}; {REGEN_HINT}"


@pytest.mark.parametrize("name", sorted(CELLS))
def test_result_bytes_match_golden(name, golden):
    digests, _ = golden
    assert cell(name).digest == digests.get(_golden_key(name)), (
        f"{name}'s result bytes changed without a version bump (or {_golden_key(name)} has "
        f"no golden yet) — bump version= in its register_scenario call if the change is "
        f"deliberate, then {REGEN_HINT}"
    )


@pytest.mark.parametrize("name", sorted(CELLS))
def test_run_counters_match_ledger(name, golden):
    _, ledger = golden
    run = cell(name)
    moved = counter_drift(ledger.get(_golden_key(name), {}), run.counters)
    assert not moved, (
        f"{name} no longer runs the same simulation under identical params and seed "
        f"(or {_golden_key(name)} has no ledger entry yet):\n  " + "\n  ".join(moved)
        + f"\nif the counts moved on purpose, {REGEN_HINT}"
    )
    if run.simulators >= 1:
        assert run.counters["events_processed"] > 0, (
            f"{name}'s pinned cell built a simulator but processed no events: "
            f"the cell exercises no event loop, so its ledger entry guards nothing"
        )


def test_counter_drift_names_every_path_that_moved():
    pinned = {
        "events_processed": 500,
        "links": {"packets_sent": 101977, "count": 10},
        "qdiscs": {"FifoQdisc": {"dropped": 3}},
        "transports": {"retransmits": 7},
    }
    doctored = {
        "events_processed": 500,
        "links": {"packets_sent": 101980, "count": 10},
        "qdiscs": {"FifoQdisc": {"dropped": 4}, "SfqQdisc": {"dropped": 0}},
    }
    assert counter_drift(pinned, pinned) == []
    assert counter_drift(pinned, doctored) == [
        "links.packets_sent 101977 -> 101980",
        "qdiscs.FifoQdisc.dropped 3 -> 4",
        "qdiscs.SfqQdisc.dropped absent -> 0",
        "transports.retransmits 7 -> absent",
    ]
