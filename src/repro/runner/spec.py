"""Declarative sweep specifications.

A :class:`SweepSpec` describes a whole figure's worth of runs without
writing loops: a scenario name, base parameter overrides, a ``grid`` whose
cartesian product is swept (rightmost key varies fastest, like nested
``for`` loops written in key order), a ``zip`` of parameter sequences that
advance in lock-step, and a list of seeds.  ``expand()`` turns the spec into
concrete :class:`RunSpec` cells for the engine.

The cells each paper figure is judged on are such specs too
(:data:`repro.experiments.claims.GRIDS`), so "which cells does this figure
contain" is defined in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Sequence

from repro.util.canonical import canonical_json, canonicalize


@dataclass(frozen=True)
class RunSpec:
    """One concrete cell of a sweep: a scenario, its parameters, and a seed.

    ``params`` holds only the *overrides* relative to the scenario's
    defaults; the engine resolves the full parameter set (and therefore the
    cache key) against the registry.
    """

    scenario: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 1

    def __post_init__(self) -> None:
        # Freeze a canonical copy so RunSpecs hash/compare by content.
        object.__setattr__(self, "params", canonicalize(dict(self.params)))

    def describe(self) -> str:
        parts = [f"{k}={v}" for k, v in self.params.items()]
        parts.append(f"seed={self.seed}")
        return f"{self.scenario}({', '.join(parts)})"

    def __hash__(self) -> int:
        return hash((self.scenario, canonical_json(self.params), self.seed))


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of a ``{param: [values...]}`` mapping.

    Key order is preserved and the rightmost key varies fastest, matching
    the nested-loop order the experiment modules historically used.
    """
    combos: List[Dict[str, Any]] = [{}]
    for key, values in grid.items():
        values = list(values)
        if not values:
            raise ValueError(f"grid axis {key!r} has no values")
        combos = [{**combo, key: value} for combo in combos for value in values]
    return combos


def expand_zip(zipped: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Lock-step expansion of a ``{param: [values...]}`` mapping.

    All axes must have the same length; cell *i* takes the *i*-th value of
    every axis.
    """
    if not zipped:
        return []
    lengths = {key: len(list(values)) for key, values in zipped.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"zip axes must have equal lengths, got {lengths}")
    count = next(iter(lengths.values()))
    keys = list(zipped)
    columns = {key: list(values) for key, values in zipped.items()}
    return [{key: columns[key][i] for key in keys} for i in range(count)]


@dataclass
class SweepSpec:
    """A declarative description of a scenario sweep."""

    scenario: str
    base: Dict[str, Any] = field(default_factory=dict)
    grid: Dict[str, Sequence[Any]] = field(default_factory=dict)
    zip: Dict[str, Sequence[Any]] = field(default_factory=dict)
    seeds: Sequence[int] = (1,)

    def cells(self) -> Iterator[Dict[str, Any]]:
        """Parameter dicts (without seeds): base ⊕ zip-cells ⊗ grid-cells."""
        zip_cells = expand_zip(self.zip) or [{}]
        grid_cells = expand_grid(self.grid)
        for zcell in zip_cells:
            for gcell in grid_cells:
                yield {**self.base, **zcell, **gcell}

    def expand(self) -> List[RunSpec]:
        """All concrete runs: every parameter cell at every seed."""
        runs: List[RunSpec] = []
        for params in self.cells():
            for seed in self.seeds:
                runs.append(RunSpec(scenario=self.scenario, params=params, seed=int(seed)))
        return runs

    def __len__(self) -> int:
        return len(self.expand())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Build a spec from a plain mapping (e.g. a parsed JSON file)."""
        known = {"scenario", "base", "grid", "zip", "seeds"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise KeyError(f"unknown sweep-spec key(s) {unknown}; accepted: {sorted(known)}")
        if "scenario" not in data:
            raise KeyError("sweep spec needs a 'scenario' name")
        return cls(
            scenario=str(data["scenario"]),
            base=dict(data.get("base", {})),
            grid=dict(data.get("grid", {})),
            zip=dict(data.get("zip", {})),
            seeds=tuple(int(s) for s in data.get("seeds", (1,))),
        )

    def to_dict(self) -> Dict[str, Any]:
        return canonicalize(
            {
                "scenario": self.scenario,
                "base": dict(self.base),
                "grid": {k: list(v) for k, v in self.grid.items()},
                "zip": {k: list(v) for k, v in self.zip.items()},
                "seeds": list(self.seeds),
            }
        )
