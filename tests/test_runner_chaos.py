"""Deterministic fault injection: plan semantics and chaos acceptance.

Two layers of coverage:

* **Plan mechanics** (no subprocesses) — :class:`FaultRule` validation,
  JSON round-trips, seeded-decision determinism, the frame-mangling
  semantics of :meth:`FaultSession.on_send` / :meth:`on_recv`, and the
  activation contract that keeps ``count=1`` rules from re-firing when
  a worker redials.

* **Acceptance drills** (``distributed`` marker) — the two pinned plans
  the CI chaos job runs and the redial drill, each proving an elasticity
  claim with a byte-parity gate against a serial sweep of the same spec:

  - ``worker_kill_mid_batch``: a worker dies at the exact point it would
    reply with its first batch; the batch re-queues and the sweep still
    matches serial byte-for-byte.
  - ``frame_delay_30pct``: a seeded 30% of frames are delayed both ways;
    scheduling order changes, results don't.
  - ``sever_on_result`` against a real ``--connect`` worker process: its
    first result frame is cut off with the connection; it redials, joins
    as a new pool member and the sweep still matches serial.

The pinned plans are committed under ``tests/fixtures/chaos/`` and must
stay byte-identical to the :data:`repro.testing.chaos.PLANS` builders —
CI feeds the *files* through ``sweep --chaos-plan FILE``, so drift between
the two would quietly change what CI tests.  (``REPRO_CHAOS_PLAN`` is the
other delivery, for faults that must fire before a welcome exists, such as
a delayed ``hello``; ``tests/test_runner_doctor.py`` uses it.)
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runner import worker as worker_mod
from repro.runner.backends import inherited_pythonpath
from repro.runner.cache import ResultCache
from repro.runner.distributed import DistributedBackend
from repro.runner.engine import run_sweep
from repro.runner.spec import SweepSpec
from repro.runner.wire import PROTOCOL_VERSION, chaos_session, read_message, write_message
from repro.testing import chaos
from repro.testing.chaos import (
    KILL_EXIT_CODE,
    ChaosDisconnect,
    FaultPlan,
    FaultRule,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "chaos"


class TestFaultRule:
    def test_validation_rejects_nonsense(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(action="explode")
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultRule(action="drop", point="sideways")
        with pytest.raises(ValueError, match="nth must be >= 0"):
            FaultRule(action="drop", nth=-1)
        with pytest.raises(ValueError, match="probability"):
            FaultRule(action="drop", probability=1.5)
        with pytest.raises(ValueError, match="count must be >= 0"):
            FaultRule(action="drop", count=-1)
        with pytest.raises(ValueError, match="truncate_to"):
            FaultRule(action="truncate", truncate_to=0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown FaultRule field"):
            FaultRule.from_dict({"action": "drop", "blast_radius": 9000})

    def test_worker_targeting(self):
        rule = FaultRule(action="drop", workers=(0, 2))
        assert rule.matches_site(0) and rule.matches_site(2)
        assert not rule.matches_site(1)
        assert not rule.matches_site(None)  # unindexed site, targeted rule
        assert FaultRule(action="drop").matches_site(None)  # untargeted

    def test_plan_json_roundtrip(self):
        plan = chaos.PLANS.kill_worker_mid_batch(1, seed=7)
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert FaultPlan.from_dict(plan.to_dict()) == plan


class TestFaultSession:
    def test_nth_counts_per_message_type(self):
        plan = FaultPlan(rules=(FaultRule(action="drop", message_type="outcome_batch", nth=2),))
        session = plan.session()
        # Heartbeats between results must not advance the result counter.
        assert session.on_send({"type": "outcome_batch"}, b"a") == [b"a"]
        assert session.on_send({"type": "heartbeat"}, b"h") == [b"h"]
        assert session.on_send({"type": "outcome_batch"}, b"b") == []  # the 2nd
        assert session.on_send({"type": "outcome_batch"}, b"c") == [b"c"]  # count=1 spent

    def test_send_semantics(self):
        session = FaultPlan(rules=(
            FaultRule(action="duplicate", message_type="a"),
            FaultRule(action="truncate", message_type="b", truncate_to=3),
        )).session()
        assert session.on_send({"type": "a"}, b"xyzzy") == [b"xyzzy", b"xyzzy"]
        assert session.on_send({"type": "b"}, b"xyzzy") == [b"xyz"]
        assert session.on_send({"type": "c"}, b"xyzzy") == [b"xyzzy"]

    def test_disconnect_raises_connection_error(self):
        session = FaultPlan(rules=(
            FaultRule(action="disconnect", message_type="outcome_batch", nth=1),
        )).session()
        assert session.on_send({"type": "work_batch"}, b"w") == [b"w"]
        with pytest.raises(ChaosDisconnect):
            session.on_send({"type": "outcome_batch"}, b"o")
        # count=1: the session survives and the rule is spent.
        assert session.on_send({"type": "outcome_batch"}, b"o") == [b"o"]
        assert session.log == [("disconnect", "send", "outcome_batch", 1)]

    def test_recv_drop(self):
        session = FaultPlan(rules=(
            FaultRule(action="drop", point="recv", message_type="heartbeat", nth=1),
        )).session()
        assert session.on_recv({"type": "heartbeat"}) is False
        assert session.on_recv({"type": "heartbeat"}) is True

    def test_probabilistic_decisions_are_seeded(self):
        plan = FaultPlan(seed=42, rules=(
            FaultRule(action="drop", probability=0.5, count=0),
        ))
        decisions = [
            [s.on_send({"type": "x"}, b"d") == [] for _ in range(64)]
            for s in (plan.session("w"), plan.session("w"))
        ]
        assert decisions[0] == decisions[1]  # same site: identical stream
        assert any(decisions[0]) and not all(decisions[0])
        other = [plan.session("elsewhere").on_send({"type": "x"}, b"d") == []
                 for _ in range(64)]
        assert other != decisions[0]  # sites decorrelate

    def test_kill_fires_monkeypatched_exit(self, monkeypatch):
        exits = []
        monkeypatch.setattr(chaos, "_exit", exits.append)
        session = chaos.PLANS.kill_worker_mid_batch(0).session(worker_index=0)
        session.on_send({"type": "outcome_batch"}, b"batch")
        assert exits == [KILL_EXIT_CODE]
        # The same plan on a different worker index never fires.
        calm = chaos.PLANS.kill_worker_mid_batch(0).session(worker_index=1)
        assert calm.on_send({"type": "outcome_batch"}, b"batch") == [b"batch"]
        assert exits == [KILL_EXIT_CODE]


class TestActivation:
    def teardown_method(self):
        chaos.deactivate()

    def test_activate_is_idempotent_per_plan(self):
        plan = chaos.PLANS.delay_frames(0.1)
        first = chaos.activate(plan, site="worker")
        first.on_send({"type": "x"}, b"d")
        # A redialling worker re-reads the environment plan on every
        # connection: same plan, same site — the session and its counters
        # must survive.
        assert chaos.activate(plan, site="worker") is first
        # A different plan replaces the session.
        assert chaos.activate(chaos.PLANS.delay_frames(0.9), site="worker") is not first

    def test_activate_upgrades_worker_index(self):
        plan = chaos.PLANS.delay_frames(0.1)
        session = chaos.activate(plan, site="worker")
        assert session.worker_index is None
        assert chaos.activate(plan, site="worker", worker_index=3) is session
        assert session.worker_index == 3

    def test_activate_from_env(self, monkeypatch, tmp_path):
        plan = chaos.PLANS.kill_worker_mid_batch()
        monkeypatch.setenv(chaos.CHAOS_PLAN_ENV, plan.to_json())
        session = chaos.activate_from_env()
        assert session.plan == plan
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        monkeypatch.setenv(chaos.CHAOS_PLAN_ENV, f"@{path}")
        monkeypatch.setenv(chaos.CHAOS_SITE_ENV, "worker3")
        session = chaos.activate_from_env()
        assert session.site == "worker3"
        monkeypatch.delenv(chaos.CHAOS_PLAN_ENV)
        monkeypatch.delenv(chaos.CHAOS_SITE_ENV)
        assert chaos.activate_from_env() is None


class TestResultFramePlans:
    """One result-frame shape, so one rule per fault and one ``nth`` count."""

    def teardown_method(self):
        chaos.deactivate()

    @pytest.mark.parametrize("plan", [
        chaos.PLANS.kill_worker_mid_batch(0),
        chaos.PLANS.kill_worker_mid_batch(1),
        chaos.PLANS.sever_on_result(2),
        chaos.PLANS.truncate_result(2),
    ], ids=lambda plan: plan.rules[0].action)
    def test_one_rule_per_fault(self, plan):
        assert [rule.message_type for rule in plan.rules] == ["outcome_batch"]

    def test_sever_fires_on_second_result_frame_of_uneven_batches(self):
        # Fair batching hands a worker one cell, then several.  When a
        # batch of one travelled as its own frame type, the per-type nth
        # counter never reached 2 and the fault silently did not fire.
        cells = [{"index": i, "scenario": "no_such_scenario", "params": {}, "seed": 0}
                 for i in range(3)]
        stdin, stdout = io.BytesIO(), io.BytesIO()
        for frame in (
            {"type": "welcome", "protocol": PROTOCOL_VERSION, "worker": 0,
             "chaos": chaos.PLANS.sever_on_result(nth=2).to_dict()},
            {"type": "work_batch", "items": cells[:1]},
            {"type": "work_batch", "items": cells[1:]},
            {"type": "shutdown"},
        ):
            write_message(stdin, frame)
        stdin.seek(0)
        state = {}
        assert worker_mod.serve(stdin, stdout, state=state) == 1
        assert state["exit_reason"] == "conn_lost"
        assert chaos_session().log == [("disconnect", "send", "outcome_batch", 2)]
        stdout.seek(0)
        replies = []
        while (reply := read_message(stdout)) is not None:
            replies.append(reply)
        assert [r["type"] for r in replies] == ["hello", "outcome_batch"]
        assert [o["index"] for o in replies[1]["outcomes"]] == [0]

    def test_a_redial_under_a_new_site_index_keeps_the_session(self):
        # A worker that redials is admitted as a new pool member, so its
        # second welcome names another site index.  The plan the first
        # welcome activated — session, counters, worker index — must stay,
        # or an untargeted count=1 rule would fire on every redial.
        plan = chaos.PLANS.sever_on_result(nth=1).to_dict()
        cell = {"index": 0, "scenario": "no_such_scenario", "params": {}, "seed": 0}
        state = {}
        for site, exit_code in ((0, 1), (1, 0)):
            stdin, stdout = io.BytesIO(), io.BytesIO()
            for frame in (
                {"type": "welcome", "protocol": PROTOCOL_VERSION, "worker": site, "chaos": plan},
                {"type": "work_batch", "items": [cell]},
                {"type": "shutdown"},
            ):
                write_message(stdin, frame)
            stdin.seek(0)
            assert worker_mod.serve(stdin, stdout, state=state) == exit_code
        assert state["exit_reason"] == "shutdown"
        assert chaos_session().worker_index == 0
        assert chaos_session().log == [("disconnect", "send", "outcome_batch", 1)]


class TestPinnedPlanFixtures:
    """The committed CI plans must match the library builders exactly."""

    @pytest.mark.parametrize("name, plan", [
        ("worker_kill_mid_batch", chaos.PLANS.kill_worker_mid_batch(0)),
        ("frame_delay_30pct", chaos.PLANS.delay_frames(0.3, 0.02)),
    ])
    def test_fixture_matches_builder(self, name, plan):
        committed = json.loads((FIXTURES / f"{name}.json").read_text())
        assert committed == plan.to_dict(), (
            f"tests/fixtures/chaos/{name}.json drifted from its "
            f"repro.testing.chaos.PLANS builder; regenerate the fixture"
        )
        # And the file itself must parse into a valid plan.
        assert FaultPlan.from_dict(committed).rules


# -- acceptance drills ----------------------------------------------------

pytestmark_distributed = pytest.mark.distributed


def _grid_specs():
    return SweepSpec(
        scenario="ablation_pi_gains",
        grid={"alpha": [5.0, 10.0], "beta": [5.0, 10.0]},
        seeds=(1,),
    ).expand()


#: Worker 1 sits on its first work frame for 1.5 s, so the chaos-targeted
#: worker 0 is guaranteed a share of the grid before the pool drains it.
_SLOW_SECOND = FaultRule(action="delay", point="recv", message_type="work_batch",
                         nth=1, delay_s=1.5, workers=(1,))


def _backend(**kwargs):
    kwargs.setdefault("poll_s", 0.02)
    kwargs.setdefault("heartbeat_s", 0.2)
    kwargs.setdefault("worker_timeout_s", 20)
    return DistributedBackend(kwargs.pop("hosts", "localhost:2"), **kwargs)


@pytest.mark.distributed
class TestChaosAcceptance:
    def test_worker_kill_mid_batch_requeues_and_matches_serial(self, tmp_path):
        specs = _grid_specs()
        serial = run_sweep(specs, cache=ResultCache(str(tmp_path / "ser")), backend="serial")
        plan = chaos.PLANS.kill_worker_mid_batch(0)
        backend = _backend(
            batch_size=2,
            chaos=FaultPlan(seed=plan.seed, rules=plan.rules + (_SLOW_SECOND,)),
        )
        dist = run_sweep(specs, cache=ResultCache(str(tmp_path / "dist")), backend=backend)
        assert [r.canonical() for r in serial.results] == [
            r.canonical() for r in dist.results
        ]
        stats = dist.worker_stats
        assert stats["quarantined"] == 1
        assert stats["requeued"] >= 1
        killed = [w for w in stats["workers"].values()
                  if w.get("quarantine_reason", "").startswith("exited")]
        assert killed and f"code {KILL_EXIT_CODE}" in killed[0]["quarantine_reason"]
        # Satellite: stats freeze at departure time, flagged as such.
        assert killed[0]["departed"] is True

    def test_frame_delays_do_not_change_bytes(self, tmp_path):
        specs = _grid_specs()
        serial = run_sweep(specs, cache=ResultCache(str(tmp_path / "ser")), backend="serial")
        plan = chaos.PLANS.delay_frames(0.3, 0.02)
        dist = run_sweep(
            specs,
            cache=ResultCache(str(tmp_path / "dist")),
            backend=_backend(batch_size=2, chaos=plan.to_dict()),
        )
        assert [r.canonical() for r in serial.results] == [
            r.canonical() for r in dist.results
        ]

    def test_severed_worker_process_redials_and_joins_as_a_new_member(self, tmp_path):
        # The real redial loop, end to end: a ``--connect`` worker process
        # joins a listening sweep, the plan cuts its connection as its first
        # result frame would leave, and connect_and_serve dials again.
        specs = _grid_specs()
        serial = run_sweep(specs, cache=ResultCache(str(tmp_path / "ser")), backend="serial")
        backend = DistributedBackend(
            (), listen=True, poll_s=0.02, join_grace_s=30, batch_size=2,
            chaos=chaos.PLANS.sever_on_result(1),
        )
        host, port = backend.endpoint
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro.runner.worker", "--connect", f"{host}:{port}",
             "--heartbeat-s", "0.2"],
            env=dict(os.environ, PYTHONPATH=inherited_pythonpath()),
            stderr=subprocess.DEVNULL,
        )
        try:
            dist = run_sweep(specs, cache=ResultCache(str(tmp_path / "dist")), backend=backend)
            assert worker.wait(timeout=30) == 0  # shut down by the scheduler
        finally:
            backend.close()
            worker.kill()
            worker.wait(timeout=30)
        assert [r.canonical() for r in serial.results] == [
            r.canonical() for r in dist.results
        ]
        stats = dist.worker_stats
        assert (stats["joined"], stats["departed"], stats["quarantined"]) == (2, 1, 0)
        assert stats["requeued"] == 2  # the severed batch, nothing else
        severed, redialled = sorted(stats["workers"].values(), key=lambda w: w["completed"])
        assert severed["departed_reason"] == "disconnected (connection closed)"
        assert (severed["completed"], redialled["completed"]) == (0, len(specs))

    def test_chaos_sweep_warms_serial_cache_to_100_percent(self, tmp_path):
        # The CI gate in one test: a chaos-ridden distributed sweep's cache
        # must serve a serial re-run entirely from warm hits.
        specs = _grid_specs()
        cache = ResultCache(str(tmp_path / "shared"))
        plan = chaos.PLANS.delay_frames(0.3, 0.02)
        run_sweep(specs, cache=cache, backend=_backend(batch_size=2, chaos=plan.to_dict()))
        warm = run_sweep(specs, cache=cache, backend="serial")
        assert warm.hits == len(specs) and warm.misses == 0
