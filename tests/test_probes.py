"""In-simulation probes: ring invariants, registration discipline, parity.

The probe layer's contract mirrors PR 6's telemetry contract one level
deeper: probe ticks are real heap events, yet result payloads and cache
keys must be byte-identical with probes on or off, the probe payload must
ride only the telemetry envelope, and the decimation/ring machinery must
be deterministic and RSS-bounded.  The overhead budget is enforced in
event counts (deterministic), not wall time (flaky): probes may add at
most 3% events when on and exactly zero when off.

Series are recorded on request: an unset ``REPRO_PROBES`` means off, so
every test that wants a payload asks for it (the ``probes_on`` fixture).
"""

import json

import pytest

from repro.net.simulator import Simulator
from repro.obs import OBS_ENV
from repro.obs.collect import TelemetryCollector, collect
from repro.obs.probe import (
    DEFAULT_MAX_EVENTS,
    PROBES_ENV,
    EventRing,
    ProbeSet,
    SeriesRing,
    probes_enabled,
)
from repro.runner.cache import ResultCache
from repro.runner.engine import execute_run, run_sweep
from repro.runner.registry import load_builtin_scenarios
from repro.runner.spec import RunSpec

#: Same sub-second real cell the PR 6 parity tests pin.
CHEAP = RunSpec("fig13_competing_bundles", {"duration_s": 1}, seed=1)


def sample_constant() -> float:
    """Module-level probe callback (the RPR012-conformant shape)."""
    return 42.0


@pytest.fixture
def probes_on(monkeypatch):
    monkeypatch.setenv(PROBES_ENV, "1")


class Sampler:
    def __init__(self) -> None:
        self.calls = 0

    def sample(self) -> float:
        self.calls += 1
        return float(self.calls)


class TestSeriesRing:
    def test_retained_grid_is_uniform_at_every_stride(self):
        ring = SeriesRing("x", max_points=8)
        for i in range(1000):
            ring.add(i * 0.1, float(i))
        assert ring.seen == 1000
        assert len(ring.t) < ring.max_points
        # kept = {i : i % stride == 0}, exactly.
        expected = [float(i) for i in range(1000) if i % ring.stride == 0]
        assert ring.v == expected
        assert ring.t[0] == 0.0  # index 0 always survives

    def test_stride_doubles_at_cap(self):
        ring = SeriesRing("x", max_points=4)
        strides = []
        for i in range(32):
            ring.add(float(i), float(i))
            strides.append(ring.stride)
        assert strides[0] == 1
        assert ring.stride in (16, 32) and ring.stride == strides[-1]
        assert sorted(set(strides)) == [2**k for k in range(len(set(strides)))]

    def test_same_stream_decimates_identically(self):
        a, b = SeriesRing("x", max_points=16), SeriesRing("x", max_points=16)
        for i in range(5000):
            a.add(i * 0.05, i % 37)
            b.add(i * 0.05, i % 37)
        assert a.snapshot() == b.snapshot()

    def test_sketch_sees_every_sample_not_just_retained(self):
        ring = SeriesRing("x", max_points=4)
        for i in range(100):
            ring.add(float(i), 7.0)
        assert ring.sketch.count == 100
        assert len(ring.v) < 100

    def test_snapshot_carries_quantiles_and_metadata(self):
        ring = SeriesRing("q", unit="bytes", kind="counter", max_points=8)
        ring.add(0.0, 10.0)
        snapshot = ring.snapshot()
        assert snapshot["name"] == "q"
        assert snapshot["unit"] == "bytes"
        assert snapshot["kind"] == "counter"
        assert snapshot["quantiles"]["p50"] == 10.0
        assert snapshot["sketch"]["count"] == 1

    def test_rejects_odd_or_tiny_caps(self):
        with pytest.raises(ValueError):
            SeriesRing("x", max_points=7)
        with pytest.raises(ValueError):
            SeriesRing("x", max_points=0)


class TestEventRing:
    def test_keeps_first_n_counts_all(self):
        ring = EventRing("drop", max_events=5)
        for i in range(12):
            ring.add(i * 0.5)
        assert ring.seen == 12
        assert ring.t == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_default_cap(self):
        assert EventRing("drop").max_events == DEFAULT_MAX_EVENTS


class TestProbesEnabled:
    @pytest.mark.parametrize("value", [None, "", "  ", "0", "false", "OFF", " no "])
    def test_disabled_spellings(self, value, monkeypatch):
        # Unset (or empty, which reads as unset) means off: series are
        # recorded only when asked for.
        if value is None:
            monkeypatch.delenv(PROBES_ENV, raising=False)
        else:
            monkeypatch.setenv(PROBES_ENV, value)
        assert not probes_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "on"])
    def test_enabled_spellings(self, value, monkeypatch):
        monkeypatch.setenv(PROBES_ENV, value)
        assert probes_enabled()


class TestRegistrationDiscipline:
    def test_rejects_lambda(self):
        probes = ProbeSet(Simulator())
        with pytest.raises(TypeError, match="RPR012"):
            probes.register_probe("x", lambda: 1.0)

    def test_rejects_local_closure(self):
        probes = ProbeSet(Simulator())

        def local_sample() -> float:
            return 1.0

        with pytest.raises(TypeError, match="RPR012"):
            probes.register_probe("x", local_sample)

    def test_rejects_non_callable(self):
        probes = ProbeSet(Simulator())
        with pytest.raises(TypeError, match="not callable"):
            probes.register_probe("x", 3.0)

    def test_accepts_module_level_function_and_bound_method(self):
        probes = ProbeSet(Simulator())
        probes.register_probe("constant", sample_constant)
        probes.register_probe("method", Sampler().sample)
        assert set(probes.series) == {"constant", "method"}


class TestProbeSetSampling:
    def _armed(self, interval_s=0.1):
        sim = Simulator()
        sim.probe = ProbeSet(sim, interval_s=interval_s)
        return sim

    def test_custom_probe_sampled_on_tick_grid(self):
        sim = self._armed()
        ring = sim.probe.register_probe("constant", sample_constant, unit="widgets")
        sim.run(until=1.0)
        # Grid ticks at 0.1 .. 0.9: the tick scheduled at exactly
        # ``until`` hits the timer's end bound and records nothing.
        assert ring.seen == 9
        # Raw tick times carry float noise; the snapshot rounds to ns.
        assert ring.snapshot()["t"] == [round(k / 10, 9) for k in range(1, 10)]
        assert set(ring.v) == {42.0}

    def test_unbounded_run_arms_no_timer(self):
        sim = self._armed()
        sim.probe.register_probe("constant", sample_constant)
        sim.run()  # would never drain if a periodic tick were armed
        assert sim.probe._timer is None
        assert sim.probe.series["constant"].seen == 0

    def test_max_events_run_arms_no_timer(self):
        sim = self._armed()
        sim.at_call(0.5, sample_constant)
        sim.run(until=1.0, max_events=10)
        assert sim.probe._timer is None

    def test_second_run_rearms_and_continues_grid(self):
        sim = self._armed()
        ring = sim.probe.register_probe("constant", sample_constant)
        sim.run(until=0.5)
        first = ring.seen
        sim.run(until=1.0)
        assert first == 4  # ticks at 0.1 .. 0.4
        assert ring.seen > first
        assert ring.t == sorted(ring.t)

    def test_component_caps_count_truncation(self):
        sim = Simulator()
        probes = ProbeSet(sim)

        class FakeFlow:
            flow_id = 0

        for i in range(40):
            flow = FakeFlow()
            flow.flow_id = i
            probes.on_flow(flow)
        assert len(probes._flows) == 32
        assert probes.truncated["flows"] == 8
        assert probes.snapshot()["truncated"]["flows"] == 8


class TestCollectorWiring:
    def test_collector_installs_probe_set(self, probes_on):
        with collect() as collector:
            sim = Simulator()
        assert isinstance(sim.probe, ProbeSet)
        assert collector is not None

    def test_disabled_env_installs_nothing(self, monkeypatch):
        monkeypatch.setenv(PROBES_ENV, "0")
        with collect():
            sim = Simulator()
        assert sim.probe is None

    def test_unset_env_installs_nothing(self, monkeypatch):
        monkeypatch.delenv(PROBES_ENV, raising=False)
        with collect():
            sim = Simulator()
        assert sim.probe is None

    def test_probes_off_schedules_zero_extra_events(self, monkeypatch):
        # The 0%-overhead half of the budget, structurally: with probes
        # off the simulator schedules exactly the caller's events.
        monkeypatch.setenv(PROBES_ENV, "0")
        with collect():
            sim = Simulator()
        sim.at_call(0.25, sample_constant)
        sim.at_call(0.75, sample_constant)
        sim.run(until=1.0)
        assert sim.stats.events_scheduled == 2
        assert sim.stats.events_processed == 2

    def test_explicit_probe_set_not_clobbered(self):
        collector = TelemetryCollector(probes=True)
        sim = Simulator()
        sim.probe = ProbeSet(sim, interval_s=0.2)
        collector.register_simulator(sim)
        assert sim.probe.interval_s == 0.2


class TestResultParity:
    def test_payload_and_key_identical_with_probes_off(self, monkeypatch):
        registry = load_builtin_scenarios()
        monkeypatch.setenv(PROBES_ENV, "1")
        on = execute_run(CHEAP, registry=registry)
        monkeypatch.delenv(PROBES_ENV)
        off = execute_run(CHEAP, registry=registry)
        assert "probes" in on.telemetry
        assert "probes" not in off.telemetry
        assert on.key == off.key
        assert on.canonical() == off.canonical()
        assert "probes" not in json.dumps(on.to_payload())

    def test_event_count_overhead_within_three_percent(self, monkeypatch):
        registry = load_builtin_scenarios()
        monkeypatch.setenv(PROBES_ENV, "1")
        on = execute_run(CHEAP, registry=registry)
        monkeypatch.setenv(PROBES_ENV, "0")
        off = execute_run(CHEAP, registry=registry)
        on_events = on.telemetry["events_processed"]
        off_events = off.telemetry["events_processed"]
        assert on_events > off_events
        assert on_events <= off_events * 1.03

    def test_probes_require_obs_layer(self, monkeypatch, probes_on):
        monkeypatch.setenv(OBS_ENV, "0")
        result = execute_run(CHEAP, registry=load_builtin_scenarios())
        assert result.telemetry == {}

    def test_probe_payload_shape(self, probes_on):
        result = execute_run(CHEAP, registry=load_builtin_scenarios())
        probes = result.telemetry["probes"]
        assert probes["format"] == 1
        [snapshot] = probes["simulators"]
        names = [s["name"] for s in snapshot["series"]]
        assert names == sorted(names)
        assert any("/qdisc/" in n and n.endswith("backlog_bytes") for n in names)
        assert any(n.startswith("flow/") and n.endswith("cwnd_bytes") for n in names)
        assert any(n.startswith("sendbox/") for n in names)
        assert any(e["name"].endswith("/drop") for e in snapshot["events"])
        assert snapshot["spans"], "flow spans missing"

    def test_cache_round_trips_probe_payload(self, tmp_path, probes_on):
        cache = ResultCache(tmp_path)
        result = execute_run(CHEAP, registry=load_builtin_scenarios())
        cache.put(result, elapsed_s=0.5)
        loaded = cache.get(result.key)
        assert loaded.telemetry["probes"] == result.telemetry["probes"]
        raw = json.loads((tmp_path / f"{result.key}.json").read_text())
        assert "probes" not in raw["result"]


class TestBackendParity:
    def _sweep(self, tmp_path, name, backend):
        specs = [
            RunSpec("fig13_competing_bundles", {"duration_s": 1}, seed=s)
            for s in (1, 2)
        ]
        return run_sweep(
            specs, cache=ResultCache(tmp_path / name), backend=backend, workers=2
        )

    def test_probe_payload_identical_serial_vs_process(self, tmp_path, probes_on):
        serial = self._sweep(tmp_path, "serial", "serial")
        process = self._sweep(tmp_path, "process", "process")
        for ours, theirs in zip(serial.results, process.results, strict=True):
            assert ours.canonical() == theirs.canonical()
            # The probe payload is a pure function of (scenario, params,
            # seed) — no wall-clock fields — so it matches byte-for-byte
            # across execution backends.
            assert json.dumps(ours.telemetry["probes"], sort_keys=True) == json.dumps(
                theirs.telemetry["probes"], sort_keys=True
            )

    @pytest.mark.distributed
    def test_probe_payload_ships_home_from_distributed_workers(self, tmp_path, probes_on):
        from repro.runner.backends import make_backend

        serial = self._sweep(tmp_path, "serial", "serial")
        distributed = self._sweep(
            tmp_path, "dist", make_backend("distributed", workers=2)
        )
        for ours, theirs in zip(
            serial.results, distributed.results, strict=True
        ):
            assert ours.canonical() == theirs.canonical()
            assert json.dumps(ours.telemetry["probes"], sort_keys=True) == json.dumps(
                theirs.telemetry["probes"], sort_keys=True
            )
