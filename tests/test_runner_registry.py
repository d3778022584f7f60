"""Tests for the scenario registry and canonical hashing."""

import pytest

from repro.runner.params import ParamSpec, ParamSpace
from repro.runner.registry import (
    REGISTRY,
    ScenarioRegistry,
    load_builtin_scenarios,
)
from repro.runner.result import RunResult, run_key
from repro.runner.schema import MetricSchema, MetricSpec, MetricValidationError
from repro.util.canonical import canonical_json, canonicalize, stable_digest


class TestCanonical:
    def test_dict_ordering_is_irrelevant(self):
        a = {"mode": "status_quo", "rtt_ms": 50.0, "nested": {"x": 1, "y": 2}}
        b = {"nested": {"y": 2, "x": 1}, "rtt_ms": 50.0, "mode": "status_quo"}
        assert canonical_json(a) == canonical_json(b)
        assert stable_digest(a) == stable_digest(b)

    def test_integral_floats_collapse(self):
        assert stable_digest({"rate": 24.0}) == stable_digest({"rate": 24})
        assert stable_digest({"rate": 24.5}) != stable_digest({"rate": 24})

    def test_tuples_and_lists_interchangeable(self):
        assert stable_digest({"split": (0.5, 0.5)}) == stable_digest({"split": [0.5, 0.5]})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonicalize(float("nan"))
        with pytest.raises(ValueError):
            canonicalize(float("inf"))

    def test_rejects_non_json_types(self):
        with pytest.raises(TypeError):
            canonicalize(object())
        with pytest.raises(TypeError):
            canonicalize({1: "non-string key"})


class TestRegistry:
    def _fresh(self):
        registry = ScenarioRegistry()

        @registry.register(
            "toy",
            params=ParamSpace(
                ParamSpec("x", kind="int", default=1),
                ParamSpec("y", kind="str", default="a"),
            ),
            figure="Figure 0",
        )
        def _toy(*, seed, x, y):
            """A toy scenario."""
            return {"seed": seed, "x": x, "y": y}

        return registry

    def test_register_and_get(self):
        registry = self._fresh()
        scenario = registry.get("toy")
        assert scenario.name == "toy"
        assert scenario.figure == "Figure 0"
        assert scenario.description == "A toy scenario."
        assert "toy" in registry
        assert registry.names() == ["toy"]

    def test_duplicate_rejected(self):
        registry = self._fresh()
        with pytest.raises(ValueError):
            registry.register("toy", params=ParamSpace())(lambda *, seed: {})

    def test_unknown_scenario(self):
        registry = self._fresh()
        with pytest.raises(KeyError, match="toy"):
            registry.get("nope")

    def test_resolve_params_round_trip(self):
        registry = self._fresh()
        scenario = registry.get("toy")
        assert scenario.resolve_params() == {"x": 1, "y": "a"}
        assert scenario.resolve_params({"x": 5}) == {"x": 5, "y": "a"}
        with pytest.raises(KeyError, match="z"):
            scenario.resolve_params({"z": 3})

    def test_run_passes_seed_and_params(self):
        registry = self._fresh()
        out = registry.get("toy").run(seed=7, params={"y": "b"})
        assert out == {"seed": 7, "x": 1, "y": "b"}

    def test_builtin_scenarios_register(self):
        registry = load_builtin_scenarios()
        assert registry is REGISTRY
        for name in (
            "fig02_queue_shift",
            "fig05_fig06_estimates",
            "fig07_multipath",
            "fig09_slowdown",
            "fig10_phased_cross_traffic",
            "fig11_short_cross_traffic",
            "fig12_elastic_cross",
            "fig13_competing_bundles",
            "fig15_proxy",
            "fig16_internet_paths",
        ):
            assert name in registry, name


class TestRunKey:
    def test_stable_across_dict_ordering(self):
        key_a = run_key("s", {"a": 1, "b": 2.0}, 3, version=1)
        key_b = run_key("s", {"b": 2, "a": 1}, 3, version=1)
        assert key_a == key_b

    def test_sensitive_to_every_component(self):
        base = run_key("s", {"a": 1}, 3, version=1)
        assert run_key("other", {"a": 1}, 3, version=1) != base
        assert run_key("s", {"a": 2}, 3, version=1) != base
        assert run_key("s", {"a": 1}, 4, version=1) != base
        assert run_key("s", {"a": 1}, 3, version=2) != base


class TestRunResult:
    def _result(self):
        return RunResult(
            scenario="toy",
            params={"b": 2, "a": 1},
            seed=3,
            effective_seed=99,
            key="abc",
            metrics={"m": 1.5, "n": None},
        )

    def test_payload_round_trip(self):
        result = self._result()
        clone = RunResult.from_payload(result.to_payload())
        assert clone == result
        assert clone.canonical() == result.canonical()

    def test_canonical_is_order_independent(self):
        a = self._result()
        b = RunResult(
            scenario="toy",
            params={"a": 1, "b": 2},
            seed=3,
            effective_seed=99,
            key="abc",
            metrics={"n": None, "m": 1.5},
        )
        assert a.canonical() == b.canonical()

    def test_metric_accessor(self):
        result = self._result()
        assert result.metric("m") == 1.5
        with pytest.raises(KeyError, match="missing"):
            result.metric("missing")

    def test_bad_format_rejected(self):
        payload = self._result().to_payload()
        payload["format"] = 99
        with pytest.raises(ValueError):
            RunResult.from_payload(payload)


class TestRemovedLegacyRegistration:
    def test_defaults_shim_is_gone(self):
        # The pre-v2 untyped signature is not special-cased any more: it is
        # an unknown keyword like any other, rejected by Python itself.
        registry = ScenarioRegistry()
        with pytest.raises(TypeError, match="unexpected keyword argument 'defaults'"):
            registry.register("legacy", defaults={"x": 1, "rate": 24.0})

    def test_unknown_kwargs_still_rejected(self):
        registry = ScenarioRegistry()
        with pytest.raises(TypeError, match="unexpected keyword"):
            registry.register("bad", defautls={"x": 1})


class TestTypedRegistration:
    def _registry(self):
        registry = ScenarioRegistry()

        @registry.register(
            "typed",
            params=ParamSpace(
                ParamSpec("rate", kind="float", default=24.0, unit="Mbit/s", minimum=1.0),
                ParamSpec("mode", kind="str", default="a", choices=("a", "b")),
            ),
            metrics=MetricSchema(
                MetricSpec("value", unit="ms", direction="lower"),
                MetricSpec("label", kind="str"),
            ),
        )
        def _typed(*, seed, rate, mode):
            if mode == "b":
                return {"value": rate, "label": "b", "surprise": 1}
            return {"value": rate, "label": "ok"}

        return registry

    def test_string_spellings_cannot_mint_distinct_keys(self):
        scenario = self._registry().get("typed")
        a = scenario.resolve_params({"rate": "96"})
        b = scenario.resolve_params({"rate": 96})
        c = scenario.resolve_params({"rate": 96.0})
        assert a == b == c
        assert run_key("typed", a, 1, version=1) == run_key("typed", c, 1, version=1)

    def test_choice_violation_rejected(self):
        scenario = self._registry().get("typed")
        with pytest.raises(ValueError, match="not one of"):
            scenario.resolve_params({"mode": "zzz"})

    def test_bound_violation_rejected(self):
        scenario = self._registry().get("typed")
        with pytest.raises(ValueError, match="below the minimum"):
            scenario.resolve_params({"rate": 0.5})

    def test_run_validates_metrics_against_schema(self):
        scenario = self._registry().get("typed")
        assert scenario.run(seed=1)["value"] == 24
        with pytest.raises(MetricValidationError, match="undeclared metric 'surprise'"):
            scenario.run(seed=1, params={"mode": "b"})

    def test_builtin_scenarios_declare_schemas(self):
        registry = load_builtin_scenarios()
        for scenario in registry:
            assert scenario.metrics is not None, scenario.name
            assert len(scenario.params) > 0, scenario.name
