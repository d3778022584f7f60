"""The scenario registry.

A *scenario* is a named, parameterized experiment factory: a plain function
that takes a ``seed`` plus keyword parameters and returns a flat dict of
JSON-serializable metrics.  User and test code registers one with the
:func:`register_scenario` decorator; the built-in scenarios — every figure
of the paper's evaluation — are declared in
:mod:`repro.experiments.catalog`, which names each run function by its
import path and loads it at the first executed cell, so
:func:`load_builtin_scenarios` populates the registry without importing
the simulator.

Registration is *typed*: each scenario declares a
:class:`~repro.runner.params.ParamSpace` describing its knobs (type,
default, unit, choices, bounds) and a
:class:`~repro.runner.schema.MetricSchema` describing what it reports
(name, unit, direction).  ``resolve_params`` coerces and validates caller
overrides through the space, so differently-spelled values (``"96"`` vs
``96``) can never mint distinct cache keys, and ``repro-runner list -v``
renders a self-describing knob table.

The registry deliberately stores only picklable data (names, specs,
descriptions) next to the factory callables; the worker pool ships scenario
*names* across process boundaries and each worker re-imports the catalogue
to resolve them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.runner.params import ParamSpace
from repro.runner.schema import MetricSchema

#: A scenario factory: ``fn(seed=..., **params) -> {metric: value}``.
ScenarioFn = Callable[..., Dict[str, Any]]


@dataclass(frozen=True)
class Scenario:
    """One registered scenario."""

    name: str
    fn: ScenarioFn
    #: Typed knob declarations; ``resolve_params`` coerces through these.
    params: ParamSpace
    #: What the scenario reports; ``None`` disables metric validation.
    metrics: Optional[MetricSchema] = None
    description: str = ""
    figure: str = ""
    #: Bump when the scenario's semantics change, to invalidate cached results.
    version: int = 1
    #: False for fully deterministic scenarios (no workload RNG).  The engine
    #: then normalizes every requested seed to 0, so sweeping such a scenario
    #: across seeds caches (and simulates) exactly one cell.
    seed_sensitive: bool = True

    @property
    def defaults(self) -> Dict[str, Any]:
        """The ``{param: default}`` mapping (kept for pre-v2 callers)."""
        return self.params.defaults

    def resolve_params(self, params: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Merge ``params`` over the defaults; coerce, validate, canonicalize.

        Unknown keys are rejected; every value is coerced to its declared
        type, so the result is identical no matter how the caller spelled
        it — and therefore safe to hash.
        """
        return self.params.resolve(params, context=f"scenario {self.name!r}")

    def validate_metrics(self, metrics: Mapping[str, Any]) -> None:
        """Check a metrics dict against the declared schema (if any)."""
        if self.metrics is not None:
            self.metrics.validate(metrics, scenario=self.name)

    def run(self, *, seed: int, params: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Execute the scenario with resolved parameters."""
        metrics = self.fn(seed=seed, **self.resolve_params(params))
        if isinstance(metrics, dict):
            self.validate_metrics(metrics)
        return metrics


class ScenarioRegistry:
    """Name → :class:`Scenario` mapping with decorator-based registration."""

    def __init__(self) -> None:
        self._scenarios: Dict[str, Scenario] = {}

    def register(
        self,
        name: str,
        *,
        params: Optional[ParamSpace] = None,
        metrics: Optional[MetricSchema] = None,
        description: str = "",
        figure: str = "",
        version: int = 1,
        seed_sensitive: bool = True,
    ) -> Callable[[ScenarioFn], ScenarioFn]:
        """Decorator registering ``fn`` as scenario ``name``.

        Pass ``params=ParamSpace(...)`` (and ideally
        ``metrics=MetricSchema(...)``).
        """
        if params is None:
            params = ParamSpace()

        def decorator(fn: ScenarioFn) -> ScenarioFn:
            if name in self._scenarios:
                raise ValueError(f"scenario {name!r} is already registered")
            doc = (fn.__doc__ or "").strip()
            self._scenarios[name] = Scenario(
                name=name,
                fn=fn,
                params=params,
                metrics=metrics,
                description=description or (doc.splitlines()[0] if doc else ""),
                figure=figure,
                version=version,
                seed_sensitive=seed_sensitive,
            )
            return fn

        return decorator

    def get(self, name: str) -> Scenario:
        try:
            return self._scenarios[name]
        except KeyError:
            known = ", ".join(sorted(self._scenarios)) or "<none loaded>"
            raise KeyError(f"no scenario named {name!r}; known scenarios: {known}") from None

    def names(self) -> List[str]:
        return sorted(self._scenarios)

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def __iter__(self):
        return iter(self._scenarios.values())

    def __len__(self) -> int:
        return len(self._scenarios)


#: The process-wide registry that :mod:`repro.experiments.catalog` populates.
REGISTRY = ScenarioRegistry()

#: Module-level convenience decorator bound to :data:`REGISTRY`.
register_scenario = REGISTRY.register


def load_builtin_scenarios() -> ScenarioRegistry:
    """Import the catalogue of built-in scenarios (declarations only)."""
    import repro.experiments.catalog  # noqa: F401  (import-for-side-effect)

    return REGISTRY
