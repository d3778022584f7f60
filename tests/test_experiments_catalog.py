"""The catalogue of built-in scenarios and the model code it points at.

A built-in is declared once, as data, in :mod:`repro.experiments.catalog`;
its body is a ``"module:function"`` entry imported by the first executed
cell.  Nothing checks the two against each other at start-up (that is the
point), so this file does: every entry imports, is callable and accepts
exactly the parameters its row declares.
"""

import inspect
import re

import pytest

import repro.experiments
from repro.experiments import catalog
from repro.runner.params import ParamSpace
from repro.runner.registry import ScenarioRegistry, load_builtin_scenarios
from repro.runner.spec import RunSpec

REGISTRY = load_builtin_scenarios()
BUILTINS = REGISTRY.names()


class TestCatalogueMatchesItsBodies:
    def test_every_figure_is_declared(self):
        assert len(BUILTINS) == 19
        assert all(isinstance(REGISTRY.get(name).fn, catalog.LazyBody) for name in BUILTINS)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_entry_resolves_to_a_function_taking_the_declared_params(self, name):
        scenario = REGISTRY.get(name)
        body = scenario.fn.load()
        assert callable(body)
        assert body.__module__ == scenario.fn.entry.partition(":")[0]
        signature = inspect.signature(body)
        kinds = {p.kind for p in signature.parameters.values()}
        named = {
            p.name for p in signature.parameters.values()
            if p.kind in (p.KEYWORD_ONLY, p.POSITIONAL_OR_KEYWORD)
        }
        assert "seed" in named
        declared = set(scenario.params.names())
        if inspect.Parameter.VAR_KEYWORD in kinds:
            # ``**params``: whatever it names explicitly must be declared.
            assert named - {"seed"} <= declared
        else:
            assert named - {"seed"} == declared
        assert inspect.Parameter.VAR_POSITIONAL not in kinds

    @pytest.mark.parametrize("name", BUILTINS)
    def test_declared_defaults_are_already_coerced(self, name):
        # Trace defaults are written out in full because the catalogue may
        # not import repro.traffic to fill generator knobs in; this is the
        # check that they were.
        for spec in REGISTRY.get(name).params:
            if spec.default is not None:
                assert spec.coerce(spec.default) == spec.default, spec.name

    def test_loading_is_remembered(self):
        body = REGISTRY.get("ablation_pi_gains").fn
        assert body.load() is body.load()

    @pytest.mark.parametrize(
        "entry", ["repro.experiments.no_such_model:run", "repro.experiments.ablations:no_such_fn"]
    )
    def test_a_wrong_entry_names_the_scenario_and_the_entry(self, entry):
        registry = ScenarioRegistry()
        registry.register("fig99_typo", params=ParamSpace())(catalog.LazyBody("fig99_typo", entry))
        message = rf"scenario 'fig99_typo': cannot load its body '{re.escape(entry)}'"
        with pytest.raises(RuntimeError, match=message):
            registry.get("fig99_typo").fn.load()
        # ... and at first execution, through the engine, not as a bare ImportError.
        from repro.runner.engine import execute_run

        with pytest.raises(RuntimeError, match=message):
            execute_run(RunSpec(scenario="fig99_typo", params={}, seed=1), registry=registry)


class TestOneWayToDeclareABuiltin:
    def test_model_modules_register_nothing(self):
        import pathlib

        package = pathlib.Path(repro.experiments.__file__).parent
        offenders = [
            path.name for path in sorted(package.glob("*.py"))
            if path.name != "catalog.py" and "register_scenario" in path.read_text("utf-8")
        ]
        assert offenders == []


#: ``repro.experiments.__all__`` before the package went lazy.
PUBLIC_NAMES = [
    "ScenarioConfig", "ScenarioResult", "run_scenario", "scenario_metrics", "policy_metrics",
    "pi_settle_time", "QueueShiftResult", "run_queue_shift", "EstimateTrace",
    "run_estimate_trace", "PhasedConfig", "run_phased_cross_traffic", "run_short_cross_point",
    "run_elastic_cross_point", "run_competing_bundles", "run_multipath_point",
    "run_trace_replay", "DEFAULT_REGIONS", "run_region", "run_internet_paths_study",
    "median_latency_reduction",
]


class TestLazyPackageAttributes:
    def test_all_is_unchanged(self):
        assert repro.experiments.__all__ == PUBLIC_NAMES

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_every_public_name_resolves(self, name):
        value = getattr(repro.experiments, name)
        namespace = {}
        exec(f"from repro.experiments import {name}", namespace)
        assert namespace[name] is value

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'run_scenarioo'"):
            repro.experiments.run_scenarioo
        with pytest.raises(ImportError):
            exec("from repro.experiments import run_scenarioo")

    def test_metrics_package_names_resolve(self):
        import repro.metrics
        from repro.metrics.reporting import Table

        assert repro.metrics.Table is Table
        assert set(repro.metrics.__all__) == {
            "FctAnalysis", "ideal_fct", "slowdown", "DistributionSummary",
            "summarize", "improvement", "Table",
        }
        for name in repro.metrics.__all__:
            assert getattr(repro.metrics, name) is not None
        with pytest.raises(AttributeError):
            repro.metrics.no_such_name
