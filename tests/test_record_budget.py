"""The record envelope has a budget: a default run stores what cannot be
recomputed.

``tests/test_result_golden.py`` pins ``REPRO_PROBES=0`` for its ledger, so it
cannot see what a *default* run writes.  This file runs three of its pinned
cells with every ``REPRO_*`` variable deleted — the environment of a plain
``repro-runner sweep`` — and holds the two artifacts each cell produces, the
cache record and the one-outcome ``outcome_batch`` frame a distributed worker
ships home, to 16 KB.  With probe series recorded by default those records
were 248-632 KB and the frames 91-230 KB; the series are a pure function of
the ``(scenario, version, params, seed)`` the record already holds, and are
recorded on request (``REPRO_PROBES=1``, or ``trace-export`` for one cell).
"""

import os
from dataclasses import asdict

import pytest
from test_result_golden import CELLS, REGISTRY, SEED

from repro.runner.backends import WorkItem, execute_item
from repro.runner.cache import ResultCache
from repro.runner.result import RunResult
from repro.runner.wire import encode_message

BUDGET_BYTES = 16 * 1024

#: Request/response with SFQ, two backlogged flows through a TBF, and trace
#: replay: three of the 18 packet-moving pinned cells keep tier-1 time flat.
BUDGETED = ("fig09_slowdown", "fig02_queue_shift", "trace_bursty_cross")


@pytest.mark.parametrize("name", BUDGETED)
def test_default_record_and_frame_fit_the_budget(name, monkeypatch, tmp_path):
    for variable in [v for v in os.environ if v.startswith("REPRO_")]:
        monkeypatch.delenv(variable)
    outcome = execute_item(WorkItem(0, name, CELLS[name], SEED), registry=REGISTRY)
    assert outcome.error is None, outcome.error
    # What every record keeps, and what answers most "why is this metric
    # what it is": counters and spans.  What it leaves out: the series.
    assert outcome.telemetry["counters"]["events_processed"] > 0
    assert outcome.telemetry["spans"]
    assert "probes" not in outcome.telemetry

    frame = encode_message({"type": "outcome_batch", "outcomes": [asdict(outcome)]})
    assert len(frame) <= BUDGET_BYTES, f"{name}: {len(frame)}-byte outcome frame"

    result = RunResult.from_payload(outcome.payload, telemetry=outcome.telemetry)
    record = ResultCache(str(tmp_path)).put(result, elapsed_s=outcome.elapsed_s)
    size = os.path.getsize(record)
    assert size <= BUDGET_BYTES, f"{name}: {size}-byte cache record"
