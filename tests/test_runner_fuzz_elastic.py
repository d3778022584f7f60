"""Property-based fuzz of the elastic pool: 200 seeded chaos schedules.

Each iteration derives a schedule from a seed (via the same
:func:`repro.util.rng.derive_seed` splitter the simulator uses) and plays
it against a listening scheduler sweeping a 64-cell synthetic grid:
scripted in-process TCP workers join, serve a few batches, then suffer a
seeded fate — vanish mid-batch, vanish and redial on their lease, replay
an already-delivered batch, or leave cleanly — until a final reliable
worker drains whatever is left.  No subprocesses, no real scenarios:
workers synthesize outcomes as a pure function of the work item, so the
invariant is exact:

* every schedule completes all 64 cells with the correct payload bytes;
* nothing is ever quarantined — crashes and leaves are pool-lifecycle
  facts, not protocol violations;
* duplicate deliveries are absorbed as ``duplicate_outcomes``.

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


def _join(endpoint, *, lease=None, host="fuzz"):
    worker = ScriptedWorker(endpoint, lease=lease, host=host)
    welcome = worker.expect("welcome")
    return worker, welcome["lease"]


def _play_schedule(seed):
    """One seeded chaos schedule; returns the backend telemetry."""
    rng = random.Random(derive_seed(FUZZ_SALT, f"elastic-fuzz:{seed}"))
    items = _items()
    backend = DistributedBackend(
        (),
        listen=True,
        join_grace_s=20.0,
        lease_timeout_s=0.25,
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
    try:
        for lifecycle in range(rng.randint(1, 3)):
            worker, lease = _join(backend.endpoint, host=f"chaotic{lifecycle}")
            for _ in range(rng.randint(0, 2)):
                worker.reply(worker.take_work())
            fate = rng.choice(["crash", "resume", "replay", "leave", "stall"])
            if fate == "crash":
                # Vanish mid-batch: cells re-queue, lease expires, departs.
                worker.take_work()
                worker.close()
            elif fate == "resume":
                # Vanish, then redial on the lease — sometimes so fast the
                # redial races the EOF of the dead connection.
                worker.take_work()
                worker.close()
                worker, _ = _join(backend.endpoint, lease=lease)
                worker.reply(worker.take_work())
                worker.send({"type": "leave"})
                worker.close()
            elif fate == "replay":
                # Deliver a batch, blip, redial, deliver the same batch
                # again: past_indices legitimizes it, dedupe absorbs it.
                batch = worker.take_work()
                worker.reply(batch)
                worker.close()
                worker, _ = _join(backend.endpoint, lease=lease)
                worker.reply(batch)
                worker.send({"type": "leave"})
                worker.close()
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
        assert telemetry["quarantined"] == 0, (
            f"seed {seed}: chaos lifecycle misread as misbehavior: {telemetry}"
        )
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
    # must hit lease resumes, departures, suspensions, and duplicate
    # deliveries — otherwise the schedule space quietly collapsed and the
    # 200 iterations above prove less than they claim.
    totals = {"lease_resumes": 0, "departed": 0, "suspended": 0,
              "duplicate_outcomes": 0, "requeued": 0}
    for seed in range(32):
        telemetry = _play_schedule(seed)
        for key in totals:
            totals[key] += telemetry[key]
    assert all(totals.values()), f"schedule space too narrow: {totals}"
