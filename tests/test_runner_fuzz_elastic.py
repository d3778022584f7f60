"""Property-based fuzz of the elastic pool: 200 seeded chaos schedules.

Each iteration derives a schedule from a seed (via the same
:func:`repro.util.rng.derive_seed` splitter the simulator uses) and plays
it against a listening scheduler sweeping a 64-cell synthetic grid:
scripted in-process TCP workers join, serve a few batches, then suffer a
seeded fate — vanish mid-batch, vanish and redial (to the scheduler, a
stranger), deliver a batch twice and then replay it as a stranger, or
leave cleanly — until a final reliable worker drains whatever is left.
No subprocesses, no real scenarios: workers synthesize outcomes as a pure
function of the work item, so the invariant is exact:

* every schedule completes all 64 cells with the correct payload bytes;
* nothing but a stranger replaying a batch it was never handed is
  quarantined — crashes, redials and leaves are pool-lifecycle facts,
  not protocol violations;
* a frame delivered twice on a worker's own connection is absorbed as
  ``duplicate_outcomes``.

The default 200 iterations run in tier-1 (chunked so a failure names its
seed range); set ``REPRO_FUZZ_ITERS`` to widen the sweep, e.g.::

    REPRO_FUZZ_ITERS=2000 python -m pytest tests/test_runner_fuzz_elastic.py

Seeds are always derived from the iteration index, so any failure
reproduces by running the chunk that names it.
"""

import os
import random
import threading

import pytest

from repro.runner.backends import WorkItem
from repro.runner.distributed import DistributedBackend
from repro.util.rng import derive_seed

from test_runner_elastic import ScriptedWorker, _synth_payload

pytestmark = pytest.mark.distributed

GRID_CELLS = 64
CHUNKS = 8
TOTAL_ITERS = max(CHUNKS, int(os.environ.get("REPRO_FUZZ_ITERS", "200")))
FUZZ_SALT = 0x5EED


def _items():
    return [
        WorkItem(index=i, scenario="synthetic", params={"k": float(i)}, seed=1000 + i)
        for i in range(GRID_CELLS)
    ]


def _expected(item):
    return _synth_payload({"index": item.index, "seed": item.seed, "params": item.params})


def _join(endpoint, host):
    worker = ScriptedWorker(endpoint, host=host)
    worker.expect("welcome")
    return worker


def _play_schedule(seed):
    """One seeded chaos schedule; returns the backend telemetry."""
    rng = random.Random(derive_seed(FUZZ_SALT, f"elastic-fuzz:{seed}"))
    items = _items()
    backend = DistributedBackend(
        (),
        listen=True,
        join_grace_s=20.0,
        heartbeat_s=0.0,
        worker_timeout_s=20.0,
        poll_s=0.005,
        batch_size=rng.randint(1, 8),
        max_attempts=64,
    )
    outcomes = []
    thread = threading.Thread(
        target=lambda: outcomes.extend(backend.execute(items)), daemon=True
    )
    thread.start()
    replays = 0
    try:
        for lifecycle in range(rng.randint(1, 3)):
            host = f"chaotic{lifecycle}"
            worker = _join(backend.endpoint, host)
            for _ in range(rng.randint(0, 2)):
                worker.reply(worker.take_work())
            fate = rng.choice(["crash", "redial", "replay", "leave", "stall"])
            if fate == "crash":
                # Vanish mid-batch: the member departs, its cells re-queue.
                worker.take_work()
                worker.close()
            elif fate == "redial":
                # Vanish, then dial again — sometimes so fast the join
                # beats the EOF of the dead connection.  A new member.
                worker.take_work()
                worker.close()
                worker = _join(backend.endpoint, host)
                worker.reply(worker.take_work())
                worker.send({"type": "leave"})
                worker.close()
            elif fate == "replay":
                # Deliver a batch twice (absorbed: it was this member's),
                # blip, redial, deliver it a third time — refused: the
                # newcomer was never handed those cells.
                batch = worker.take_work()
                worker.reply(batch)
                worker.reply(batch)
                worker.close()
                worker = _join(backend.endpoint, host)
                worker.reply(batch)
                worker.close()
                replays += 1
            elif fate == "leave":
                worker.send({"type": "leave"})
                worker.close()
            else:  # stall: hold a batch silently, then vanish
                worker.take_work()
                worker.close()
        reliable = ScriptedWorker(backend.endpoint, host="reliable")
        reliable.expect("welcome")
        reliable.serve_until_shutdown()
        reliable.close()
        thread.join(timeout=60)
        assert not thread.is_alive(), f"seed {seed}: sweep hung"
        assert len(outcomes) == GRID_CELLS, f"seed {seed}: incomplete sweep"
        for item, outcome in zip(items, outcomes):
            assert outcome.error is None, f"seed {seed} cell {item.index}: {outcome.error}"
            assert outcome.payload == _expected(item), (
                f"seed {seed} cell {item.index}: wrong payload"
            )
        telemetry = backend.telemetry()
        reasons = [w["quarantine_reason"] for w in telemetry["workers"].values()
                   if w["state"] == "quarantined"]
        assert len(reasons) == telemetry["quarantined"] == replays and all(
            r.startswith("returned outcome for unassigned index") for r in reasons
        ), f"seed {seed}: chaos lifecycle misread as misbehavior: {telemetry}"
        return telemetry
    finally:
        backend.close()


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_seeded_chaos_schedules(chunk):
    per_chunk = (TOTAL_ITERS + CHUNKS - 1) // CHUNKS
    start = chunk * per_chunk
    for seed in range(start, min(start + per_chunk, TOTAL_ITERS)):
        _play_schedule(seed)


def test_schedules_actually_exercise_every_fate():
    # A meta-check on the generator: across the first 32 seeds, the fuzz
    # must hit joins, departures, re-queues, refused replays and duplicate
    # deliveries — otherwise the schedule space quietly collapsed and the
    # 200 iterations above prove less than they claim.
    totals = {"joined": 0, "departed": 0, "requeued": 0,
              "quarantined": 0, "duplicate_outcomes": 0}
    for seed in range(32):
        telemetry = _play_schedule(seed)
        for key in totals:
            totals[key] += telemetry[key]
    assert all(totals.values()), f"schedule space too narrow: {totals}"
