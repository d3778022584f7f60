"""Tests for the synthetic trace generators and spec coercion."""

import pytest

from repro.runner.cli import main
from repro.runner.params import ParamSpec, ParamValidationError
from repro.traffic.events import TraceEvent
from repro.traffic.format import events_digest
from repro.traffic.generators import (
    GENERATORS,
    TraceSpecError,
    coerce_generator_spec,
    coerce_sizes_spec,
    generate_trace,
    make_size_sampler,
    merge_event_streams,
)
from repro.util.rng import make_rng


class TestSizeDistributions:
    def test_internet_core_is_default(self):
        spec = coerce_sizes_spec({})
        assert spec == {"dist": "internet_core"}
        sampler = make_size_sampler(spec)
        assert 1_000 < sampler.mean() < 100_000

    def test_constant(self):
        sampler = make_size_sampler({"dist": "constant", "bytes": 777})
        assert sampler.sample(make_rng(1)) == 777
        assert sampler.mean() == 777.0

    def test_pareto_heavy_tail_and_bounds(self):
        sampler = make_size_sampler(
            {"dist": "pareto", "alpha": 1.2, "min_bytes": 100, "cap_bytes": 1_000_000}
        )
        rng = make_rng(3)
        samples = [sampler.sample(rng) for _ in range(5_000)]
        assert min(samples) >= 100
        assert max(samples) <= 1_000_000
        assert max(samples) > 50 * min(samples)  # heavy tailed

    def test_pareto_requires_finite_mean(self):
        with pytest.raises(TraceSpecError, match="alpha"):
            make_size_sampler({"dist": "pareto", "alpha": 0.9})

    def test_lognormal(self):
        sampler = make_size_sampler({"dist": "lognormal", "mu": 8.0, "sigma": 1.0})
        rng = make_rng(4)
        samples = [sampler.sample(rng) for _ in range(2_000)]
        assert all(s >= 1 for s in samples)
        assert sampler.mean() == pytest.approx(4915, rel=0.01)

    def test_empirical_requires_points(self):
        with pytest.raises(TraceSpecError, match="'points' is required"):
            coerce_sizes_spec({"dist": "empirical"})
        spec = coerce_sizes_spec({"dist": "empirical", "points": [[100, 0.5], [1000, 1.0]]})
        sampler = make_size_sampler(spec)
        assert 100 <= sampler.sample(make_rng(1)) <= 1000

    def test_unknown_dist_and_params_rejected(self):
        with pytest.raises(TraceSpecError, match="unknown size distribution"):
            coerce_sizes_spec({"dist": "zipf"})
        with pytest.raises(TraceSpecError, match=r"unknown parameter\(s\) \['byte'\]"):
            coerce_sizes_spec({"dist": "constant", "byte": 10})


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("name", sorted(set(GENERATORS) - {"mix"}))
    def test_same_seed_same_trace(self, name):
        spec = {"generator": name, "params": {"horizon_s": 2.0}}
        assert events_digest(generate_trace(spec, 11)).id == events_digest(
            generate_trace(spec, 11)
        ).id

    @pytest.mark.parametrize("name", sorted(set(GENERATORS) - {"mix"}))
    def test_different_seeds_differ(self, name):
        spec = {"generator": name, "params": {"horizon_s": 2.0}}
        assert events_digest(generate_trace(spec, 1)).id != events_digest(
            generate_trace(spec, 2)
        ).id

    def test_spelling_cannot_change_the_trace(self):
        a = {"generator": "poisson", "params": {"rate_per_s": 100, "horizon_s": 2}}
        b = {"generator": "poisson", "params": {"rate_per_s": 100.0, "horizon_s": 2.0,
                                                "sizes": {"dist": "internet_core"}}}
        assert events_digest(generate_trace(a, 5)).id == events_digest(
            generate_trace(b, 5)
        ).id

    def test_mix_deterministic_and_ordered(self):
        spec = {"generator": "mix", "params": {"components": [
            {"generator": "poisson", "params": {"rate_per_s": 60, "horizon_s": 2}},
            {"generator": "onoff", "params": {"horizon_s": 2.0}},
        ]}}
        events = list(generate_trace(spec, 9))
        assert events == list(generate_trace(spec, 9))
        assert all(a.time_s <= b.time_s for a, b in zip(events, events[1:], strict=False))
        kinds = {e.kind for e in events}
        assert kinds == {"flow", "stream"}


class TestGeneratorShapes:
    def test_poisson_rate_and_horizon(self):
        spec = {"generator": "poisson", "params": {"rate_per_s": 200, "horizon_s": 5}}
        events = list(generate_trace(spec, 2))
        assert all(e.time_s <= 5.0 for e in events)
        # ~1000 expected arrivals; allow generous slack.
        assert 800 <= len(events) <= 1200

    def test_poisson_max_flows(self):
        spec = {"generator": "poisson", "params": {"rate_per_s": 200, "horizon_s": 100,
                                                   "max_flows": 17}}
        assert len(list(generate_trace(spec, 2))) == 17

    def test_requests_targets_offered_load(self):
        spec = {"generator": "requests", "params": {
            "offered_load_bps": 4_000_000.0, "horizon_s": 10.0,
            "sizes": {"dist": "constant", "bytes": 10_000},
        }}
        events = list(generate_trace(spec, 3))
        offered = sum(e.size_bytes for e in events) * 8 / 10.0
        assert offered == pytest.approx(4_000_000.0, rel=0.15)

    def test_diurnal_rate_modulation(self):
        spec = {"generator": "diurnal", "params": {
            "base_rate_per_s": 200.0, "period_s": 4.0, "profile": [0.2, 1.8],
            "horizon_s": 8.0,
        }}
        events = list(generate_trace(spec, 4))
        # Phases: [0,2) and [4,6) are quiet (x0.2); [2,4) and [6,8) busy (x1.8).
        quiet = sum(1 for e in events if (e.time_s % 4.0) < 2.0)
        busy = len(events) - quiet
        assert busy > 3 * quiet

    def test_diurnal_zero_phase_is_silent(self):
        spec = {"generator": "diurnal", "params": {
            "base_rate_per_s": 100.0, "period_s": 2.0, "profile": [0.0, 1.0],
            "horizon_s": 4.0,
        }}
        events = list(generate_trace(spec, 4))
        assert events
        assert all((e.time_s % 2.0) >= 1.0 for e in events)

    def test_flash_crowd_peak(self):
        spec = {"generator": "flash_crowd", "params": {
            "base_rate_per_s": 50.0, "peak_multiplier": 5.0,
            "start_s": 4.0, "ramp_s": 1.0, "hold_s": 2.0, "decay_s": 1.0,
            "horizon_s": 12.0,
        }}
        events = list(generate_trace(spec, 5))
        before = sum(1 for e in events if e.time_s < 4.0)  # 4 s of baseline
        hold = sum(1 for e in events if 5.0 <= e.time_s < 7.0)  # 2 s at 5x
        assert hold > 1.5 * before

    def test_onoff_streams_fit_horizon(self):
        spec = {"generator": "onoff", "params": {"horizon_s": 6.0}}
        events = list(generate_trace(spec, 6))
        assert events
        assert all(e.kind == "stream" and e.group == "cross" for e in events)
        assert all(e.time_s + e.duration_s <= 6.0 + 1e-9 for e in events)
        # ON periods never overlap: each starts after the previous ended.
        for a, b in zip(events, events[1:], strict=False):
            assert b.time_s >= a.time_s + a.duration_s - 1e-9

    def test_merge_tie_break_is_stable(self):
        left = iter([TraceEvent(time_s=1.0, kind="flow", size_bytes=1)])
        right = iter([TraceEvent(time_s=1.0, kind="flow", size_bytes=2)])
        merged = list(merge_event_streams([left, right]))
        assert [e.size_bytes for e in merged] == [1, 2]


class TestSpecCoercion:
    def test_defaults_filled_and_canonical(self):
        spec = coerce_generator_spec({"generator": "poisson"})
        assert spec["params"]["rate_per_s"] == 100
        assert spec["params"]["sizes"] == {"dist": "internet_core"}

    def test_unknown_generator_and_params(self):
        with pytest.raises(TraceSpecError, match="unknown trace generator"):
            coerce_generator_spec({"generator": "tsunami"})
        with pytest.raises(TraceSpecError, match=r"unknown parameter\(s\) \['rate'\]"):
            coerce_generator_spec({"generator": "poisson", "params": {"rate": 5}})
        with pytest.raises(TraceSpecError, match="unknown key"):
            coerce_generator_spec({"generator": "poisson", "extra": 1})

    def test_mix_requires_components(self):
        with pytest.raises(TraceSpecError, match="components"):
            coerce_generator_spec({"generator": "mix"})
        with pytest.raises(TraceSpecError, match="components"):
            coerce_generator_spec({"generator": "mix", "params": {"components": []}})

    def test_bad_group_rejected(self):
        with pytest.raises(TraceSpecError, match="group"):
            coerce_generator_spec({"generator": "poisson", "params": {"group": "nowhere"}})

    def test_builders_validate_eagerly(self):
        with pytest.raises((TraceSpecError, ValueError)):
            list(generate_trace({"generator": "poisson", "params": {"rate_per_s": -1}}, 1))
        with pytest.raises(TraceSpecError):
            list(generate_trace(
                {"generator": "diurnal", "params": {"profile": []}}, 1
            ))


#: (generator, params, the parameter the error must name): every one of
#: these ended in a bare TypeError / IndexError, or was silently accepted,
#: while the generators interpreted their own specs.
BAD_SPECS = [
    ("poisson", {"rate_per_s": "fast"}, "rate_per_s"),
    ("poisson", {"horizon_s": -1}, "horizon_s"),
    ("poisson", {"num_src": 0}, "num_src"),
    ("poisson", {"num_src": 1.5}, "num_src"),
    ("flash_crowd", {"ramp_s": -1}, "ramp_s"),
    ("diurnal", {"profile": "x"}, "profile"),
    ("poisson", {"sizes": {"dist": "pareto", "alpha": "big"}}, "alpha"),
    ("poisson", {"traffic_class": "gold"}, "traffic_class"),
    ("requests", {"sizes": {"dist": "empirical"}}, "points"),
]


class TestTypedErrors:
    @pytest.mark.parametrize(("generator", "params", "culprit"), BAD_SPECS)
    def test_bad_spec_is_a_typed_error_naming_the_parameter(self, generator, params, culprit):
        spec = {"generator": generator, "params": params}
        with pytest.raises(TraceSpecError, match=f"parameter '{culprit}'"):
            coerce_generator_spec(spec)
        # The same spec through a trace-kind scenario knob.
        with pytest.raises(ParamValidationError, match=f"parameter '{culprit}'"):
            ParamSpec("trace", kind="trace", default={"generator": "poisson"}).coerce(spec)

    def test_cli_reports_a_bad_knob_in_one_line(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        code = main(["trace", "generate", "--generator", "poisson",
                     "-p", "rate_per_s=fast", "-o", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "rate_per_s" in err
        assert not out.exists()

    def test_every_spelling_of_a_number_is_one_spec(self):
        specs = [
            coerce_generator_spec({"generator": "poisson", "params": {"rate_per_s": value}})
            for value in ("100", 100, 100.0)
        ]
        assert specs[0] == specs[1] == specs[2]
        assert type(specs[0]["params"]["rate_per_s"]) is int
        digests = {
            events_digest(generate_trace(
                {"generator": "poisson", "params": {"rate_per_s": value, "horizon_s": 1}}, 3
            )).id
            for value in ("100", 100, 100.0)
        }
        assert len(digests) == 1
