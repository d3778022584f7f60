"""Typed parameter spaces for scenario registration.

The paper's evaluation is a matrix of *typed* knobs — rates in Mbit/s, RTTs
in milliseconds, policies drawn from a fixed set — and the scenario API
should say so.  A :class:`ParamSpace` is an ordered collection of
:class:`ParamSpec` entries (type, default, unit, choices, bounds, custom
validator); :meth:`ParamSpace.resolve` merges caller overrides over the
defaults, *coerces* every value to its declared type, and validates it.

Coercion is what keeps the result cache honest: ``"96"``, ``96`` and
``96.0`` all resolve to the same canonical value, so no pair of spellings
can ever mint distinct cache keys for the same run (a property the CLI's
``key=value`` parsing and JSON spec files rely on — see
``tests/test_runner_cli.py::TestParamRoundTrip``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.util.canonical import canonicalize

#: Parameter kinds a :class:`ParamSpec` may declare.  ``trace`` is a trace
#: spec (generator / file — see :mod:`repro.traffic.spec`): it
#: coerces through the traffic subsystem and is *digest-addressed* in cache
#: keys (a file-backed trace is keyed by content, never by path).
PARAM_KINDS = (
    "int",
    "float",
    "bool",
    "str",
    "list[int]",
    "list[float]",
    "list[str]",
    "json",
    "trace",
)


class ParamValidationError(ValueError):
    """A parameter value failed coercion or validation."""


def _reject(name: str, value: Any, expected: str) -> "ParamValidationError":
    return ParamValidationError(
        f"parameter {name!r}: cannot coerce {value!r} ({type(value).__name__}) to {expected}"
    )


def _coerce_int(name: str, value: Any) -> int:
    if isinstance(value, bool):
        raise _reject(name, value, "int")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value == int(value):
        return int(value)
    if isinstance(value, str):
        # Exact integer parse first — round-tripping through float would
        # silently corrupt values beyond 2**53.
        try:
            return int(value)
        except ValueError:
            pass
        try:
            as_float = float(value)
        except ValueError:
            raise _reject(name, value, "int") from None
        if as_float == int(as_float):
            return int(as_float)
    raise _reject(name, value, "int")


def _coerce_float(name: str, value: Any) -> float:
    if isinstance(value, bool):
        raise _reject(name, value, "float")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise _reject(name, value, "float") from None
    raise _reject(name, value, "float")


def _coerce_bool(name: str, value: Any) -> bool:
    if isinstance(value, bool):
        return value
    # The CLI parses `-p flag=1` into the int 1 and JSON files carry real
    # numbers, so the numeric spellings must coerce alongside the strings.
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
    raise _reject(name, value, "bool")


def _coerce_str(name: str, value: Any) -> str:
    if isinstance(value, str):
        return value
    raise _reject(name, value, "str")


_ELEMENT_COERCERS: Dict[str, Callable[[str, Any], Any]] = {
    "int": _coerce_int,
    "float": _coerce_float,
    "str": _coerce_str,
}


@dataclass(frozen=True)
class ParamSpec:
    """One typed scenario parameter.

    ``kind`` names the parameter's type (see :data:`PARAM_KINDS`); ``unit``
    is a display hint ("Mbit/s", "ms", "s", "fraction", "count"...);
    ``choices`` restricts the value to a fixed set; ``minimum``/``maximum``
    are inclusive numeric bounds; ``validator`` is an arbitrary callable
    that raises :class:`ValueError` on a bad (already-coerced) value;
    ``nullable`` permits ``None`` (e.g. "no cap" sentinels); ``required``
    declares a parameter with no default, which every caller must supply.
    """

    name: str
    kind: str = "json"
    default: Any = None
    unit: str = ""
    description: str = ""
    choices: Optional[Tuple[Any, ...]] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    nullable: bool = False
    required: bool = False
    validator: Optional[Callable[[Any], None]] = None

    def __post_init__(self) -> None:
        if self.kind not in PARAM_KINDS:
            raise ValueError(
                f"parameter {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {PARAM_KINDS}"
            )
        if self.choices is not None:
            object.__setattr__(
                self, "choices", tuple(canonicalize(c) for c in self.choices)
            )
        if self.required and self.default is not None:
            raise ValueError(f"parameter {self.name!r}: required=True takes no default")
        # A None default on a non-nullable spec is almost always a mistake;
        # make the intent explicit at declaration time.
        if self.default is None and not (self.nullable or self.required):
            raise ValueError(
                f"parameter {self.name!r}: default is None but nullable=False"
            )
        # Coerce the default through the spec's own rules so a typo'd
        # declaration (out-of-choices default, wrong type) fails at
        # registration, not on every later resolve.  A trace default is
        # only canonicalized: coercing it imports the traffic subsystem,
        # which declaring a scenario must not, and ``resolve`` coerces it
        # like any override.
        if self.kind == "trace":
            object.__setattr__(self, "default", canonicalize(self.default))
        elif self.default is not None:
            object.__setattr__(self, "default", self.coerce(self.default))

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this spec's type and validate it."""
        if value is None:
            if self.nullable:
                return None
            raise ParamValidationError(f"parameter {self.name!r} may not be None")
        if self.kind == "int":
            coerced: Any = _coerce_int(self.name, value)
        elif self.kind == "float":
            coerced = _coerce_float(self.name, value)
        elif self.kind == "bool":
            coerced = _coerce_bool(self.name, value)
        elif self.kind == "str":
            coerced = _coerce_str(self.name, value)
        elif self.kind.startswith("list["):
            if not isinstance(value, (list, tuple)):
                raise _reject(self.name, value, self.kind)
            element = _ELEMENT_COERCERS[self.kind[5:-1]]
            coerced = [element(self.name, v) for v in value]
        elif self.kind == "trace":
            # Imported at call time: repro.traffic.generators declares its
            # own knobs with this module, so a top-level import would be a
            # cycle — and only trace-kind specs need it.
            from repro.traffic.spec import coerce_trace_spec
            from repro.traffic.generators import TraceSpecError

            try:
                coerced = coerce_trace_spec(value)
            except TraceSpecError as exc:
                raise ParamValidationError(f"parameter {self.name!r}: {exc}") from None
        else:  # "json"
            coerced = value  # the shared canonicalize below does the work
        try:
            coerced = canonicalize(coerced)
        except (TypeError, ValueError) as exc:
            # e.g. a non-finite float that survived type coercion — keep the
            # module's contract that every bad value surfaces as a
            # ParamValidationError naming the parameter.
            raise ParamValidationError(f"parameter {self.name!r}: {exc}") from None
        if self.choices is not None and coerced not in self.choices:
            raise ParamValidationError(
                f"parameter {self.name!r}: {coerced!r} is not one of {list(self.choices)}"
            )
        if self.minimum is not None and isinstance(coerced, (int, float)) and coerced < self.minimum:
            raise ParamValidationError(
                f"parameter {self.name!r}: {coerced!r} is below the minimum {self.minimum}"
            )
        if self.maximum is not None and isinstance(coerced, (int, float)) and coerced > self.maximum:
            raise ParamValidationError(
                f"parameter {self.name!r}: {coerced!r} exceeds the maximum {self.maximum}"
            )
        if self.validator is not None:
            try:
                self.validator(coerced)
            except ValueError as exc:
                raise ParamValidationError(f"parameter {self.name!r}: {exc}") from None
        return coerced

    def cache_view(self, value: Any) -> Any:
        """The cache-key projection of an already-coerced value.

        Identity for every kind except ``trace``, where file-backed specs
        collapse to their content digest — so a run's key depends on what
        the trace *is*, never on where its file happens to live.
        """
        if self.kind != "trace":
            return value
        from repro.traffic.spec import trace_cache_view

        return trace_cache_view(value)

    def describe(self) -> str:
        """Compact one-line rendering for CLI knob tables."""
        parts = [self.kind]
        if self.unit:
            parts.append(self.unit)
        if self.choices is not None:
            parts.append("{" + ",".join(str(c) for c in self.choices) + "}")
        if self.minimum is not None or self.maximum is not None:
            lo = self.minimum if self.minimum is not None else ""
            hi = self.maximum if self.maximum is not None else ""
            parts.append(f"[{lo}..{hi}]")
        if self.nullable:
            parts.append("nullable")
        if self.required:
            parts.append("required")
        return " ".join(parts)


class ParamSpace:
    """An ordered, typed collection of :class:`ParamSpec` entries."""

    def __init__(self, *specs: ParamSpec) -> None:
        self._specs: Dict[str, ParamSpec] = {}
        for spec in specs:
            if spec.name in self._specs:
                raise ValueError(f"duplicate parameter spec {spec.name!r}")
            self._specs[spec.name] = spec

    def __iter__(self) -> Iterator[ParamSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def get(self, name: str) -> ParamSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(
                f"no parameter named {name!r}; known: {sorted(self._specs)}"
            ) from None

    def names(self) -> List[str]:
        return list(self._specs)

    @property
    def defaults(self) -> Dict[str, Any]:
        """The ``{name: default}`` mapping (canonicalized)."""
        return canonicalize({spec.name: spec.default for spec in self})

    def with_defaults(self, **overrides: Any) -> "ParamSpace":
        """A copy of this space with some defaults replaced (and coerced).

        Scenario families (e.g. the §7.1 workload figures) share one knob
        set but differ in defaults; this keeps each registration to a
        one-line delta instead of a full re-declaration.
        """
        unknown = sorted(set(overrides) - set(self._specs))
        if unknown:
            raise KeyError(f"unknown parameter(s) {unknown}; accepted: {sorted(self._specs)}")
        specs = []
        for spec in self:
            if spec.name in overrides:
                # replace() re-runs __post_init__, which coerces the default.
                spec = replace(spec, default=overrides[spec.name])
            specs.append(spec)
        return ParamSpace(*specs)

    def resolve(
        self, overrides: Optional[Mapping[str, Any]] = None, *, context: str = ""
    ) -> Dict[str, Any]:
        """Merge ``overrides`` over the defaults; coerce and validate all.

        Unknown keys and omitted ``required`` parameters are rejected.  The
        result is canonicalized, so it is safe to hash and identical however
        the caller spelled the values (``"96"`` / ``96`` / ``96.0``).
        """
        overrides = dict(overrides or {})
        suffix = f" for {context}" if context else ""
        unknown = sorted(set(overrides) - set(self._specs))
        if unknown:
            raise KeyError(
                f"unknown parameter(s) {unknown}{suffix}; accepted: {sorted(self._specs)}"
            )
        resolved: Dict[str, Any] = {}
        for spec in self:
            if spec.required and spec.name not in overrides:
                raise ParamValidationError(f"parameter {spec.name!r} is required{suffix}")
            value = overrides.get(spec.name, spec.default)
            try:
                resolved[spec.name] = spec.coerce(value)
            except ParamValidationError as exc:
                raise ParamValidationError(f"{exc}{suffix}") from None
        return canonicalize(resolved)

    def cache_view(self, resolved: Mapping[str, Any]) -> Dict[str, Any]:
        """Project resolved params into their cache-key form.

        Applies each spec's :meth:`ParamSpec.cache_view`; values without a
        declared spec (none today — ``resolve`` rejects unknown keys) pass
        through unchanged.
        """
        return {
            name: (self._specs[name].cache_view(value) if name in self._specs else value)
            for name, value in resolved.items()
        }

    def describe_rows(self) -> List[Tuple[str, str, str, str]]:
        """``(name, type, default, description)`` rows for the CLI table."""
        rows = []
        for spec in self:
            default = "-" if spec.required else str(spec.default)
            rows.append((spec.name, spec.describe(), default, spec.description))
        return rows
