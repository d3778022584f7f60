"""Composable synthetic trace generators.

Every generator *emits a trace* — a lazy, time-ordered stream of
:class:`~repro.traffic.events.TraceEvent` records — instead of driving the
simulator directly.  That inversion is the point of the subsystem: the same
replay machinery (:class:`~repro.traffic.replay.TraceReplayWorkload`) then
runs synthetic and recorded traffic through one code path, and a generated
trace can be written to disk, inspected, diffed, and content-addressed like
any other input.

Generators are **deterministic**: ``(spec, seed)`` fully determines the
event stream (all randomness flows from
:func:`repro.util.rng.derive_seed`), so a generator spec can stand in for
the trace's digest in cache keys — see ``docs/workloads.md``.

The catalog (:data:`GENERATORS`):

``requests``
    The §7.1 workload as a trace: Poisson arrivals at a target offered
    load, sizes from a distribution (default: the Internet-core CDF).
``poisson``
    Poisson arrivals at an explicit rate.
``diurnal``
    Markov-modulated Poisson: a piecewise-constant rate profile cycling
    over a period (the classic diurnal load curve, compressed to seconds).
``flash_crowd``
    A non-homogeneous Poisson ramp: baseline, linear ramp to a peak,
    hold, linear decay (generated by thinning at the peak rate).
``onoff``
    Bursty on/off paced streams (the "non-buffer-filling" cross traffic
    of §7.3): exponential ON periods at a fixed rate, exponential gaps.
``mix``
    Deterministic time-merge of any sub-generators — e.g. diurnal
    requests plus adversarial on/off cross bursts.

Size distributions (the ``sizes`` sub-spec of the flow generators):
``internet_core`` (default), ``empirical`` (explicit CDF points),
``pareto``, ``lognormal``, and ``constant``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.runner.params import ParamSpace, ParamSpec, ParamValidationError
from repro.traffic.events import EVENT_GROUPS, TraceEvent
from repro.util.canonical import canonicalize
from repro.util.rng import derive_seed, make_rng
from repro.workload.flowsize import EmpiricalSizeDistribution, internet_core_cdf


class TraceSpecError(ValueError):
    """A malformed trace or generator spec."""


# ---------------------------------------------------------------------------
# Size distributions.


class ConstantSize:
    """Every flow has the same size."""

    def __init__(self, size_bytes: int) -> None:
        if size_bytes < 1:
            raise TraceSpecError(f"constant size must be >= 1 byte, got {size_bytes}")
        self.size_bytes = int(size_bytes)

    def sample(self, rng) -> int:
        return self.size_bytes

    def mean(self) -> float:
        return float(self.size_bytes)


class ParetoSize:
    """Pareto-distributed sizes: heavy tail with shape ``alpha``."""

    def __init__(self, alpha: float, min_bytes: int, cap_bytes: int) -> None:
        if alpha <= 1.0:
            raise TraceSpecError(f"pareto alpha must exceed 1 (finite mean), got {alpha}")
        if min_bytes < 1 or cap_bytes < min_bytes:
            raise TraceSpecError("pareto needs 1 <= min_bytes <= cap_bytes")
        self.alpha = float(alpha)
        self.min_bytes = int(min_bytes)
        self.cap_bytes = int(cap_bytes)

    def sample(self, rng) -> int:
        size = int(round(self.min_bytes * rng.paretovariate(self.alpha)))
        return max(min(size, self.cap_bytes), 1)

    def mean(self) -> float:
        # Analytic (uncapped) mean; the cap only trims the extreme tail.
        return self.min_bytes * self.alpha / (self.alpha - 1.0)


class LognormalSize:
    """Log-normally distributed sizes (``mu``/``sigma`` in log-bytes)."""

    def __init__(self, mu: float, sigma: float, cap_bytes: int) -> None:
        if sigma <= 0:
            raise TraceSpecError(f"lognormal sigma must be positive, got {sigma}")
        if cap_bytes < 1:
            raise TraceSpecError("lognormal cap_bytes must be >= 1")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.cap_bytes = int(cap_bytes)

    def sample(self, rng) -> int:
        size = int(round(rng.lognormvariate(self.mu, self.sigma)))
        return max(min(size, self.cap_bytes), 1)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma ** 2 / 2.0)


def _resolve(space: ParamSpace, values: Any, context: str) -> Dict[str, Any]:
    """``space.resolve`` with its errors re-raised as :class:`TraceSpecError`."""
    if not isinstance(values, Mapping):
        raise TraceSpecError(f"parameters of {context} must be an object, got {values!r}")
    try:
        return space.resolve(values, context=context)
    except KeyError as exc:
        raise TraceSpecError(exc.args[0]) from None
    except ParamValidationError as exc:
        raise TraceSpecError(str(exc)) from None


_CAP_BYTES = ParamSpec(
    "cap_bytes", kind="int", default=100_000_000, unit="bytes", minimum=1,
    description="largest size a draw may return",
)

#: ``dist`` name → (declared knobs, builder) for the ``sizes`` sub-spec.
SIZE_DISTRIBUTIONS: Dict[str, Tuple[ParamSpace, Callable[..., Any]]] = {
    "internet_core": (ParamSpace(), internet_core_cdf),
    "empirical": (
        ParamSpace(
            ParamSpec("points", kind="json", required=True,
                      description="the CDF: [[size_bytes, cumulative_p], ...]"),
        ),
        lambda points: EmpiricalSizeDistribution([tuple(p) for p in points]),
    ),
    "constant": (
        ParamSpace(
            ParamSpec("bytes", kind="int", default=10_000, unit="bytes", minimum=1,
                      description="size of every flow"),
        ),
        lambda bytes: ConstantSize(bytes),
    ),
    "pareto": (
        ParamSpace(
            ParamSpec("alpha", kind="float", default=1.3, unit="exponent", minimum=1.0,
                      description="tail shape; must exceed 1 (finite mean)"),
            ParamSpec("min_bytes", kind="int", default=300, unit="bytes", minimum=1,
                      description="scale: the smallest size"),
            _CAP_BYTES,
        ),
        ParetoSize,
    ),
    "lognormal": (
        ParamSpace(
            ParamSpec("mu", kind="float", default=8.0, unit="log-bytes",
                      description="mean of log(size)"),
            ParamSpec("sigma", kind="float", default=1.6, unit="log-bytes", minimum=0.0,
                      description="standard deviation of log(size); must be positive"),
            _CAP_BYTES,
        ),
        LognormalSize,
    ),
}


def coerce_sizes_spec(spec: Any) -> Dict[str, Any]:
    """Canonicalize a ``sizes`` sub-spec, filling the distribution defaults."""
    if isinstance(spec, str):
        spec = {"dist": spec}
    if not isinstance(spec, Mapping):
        raise TraceSpecError(f"sizes spec must be an object or name, got {spec!r}")
    spec = dict(spec)
    dist = spec.pop("dist", "internet_core")
    if not isinstance(dist, str) or dist not in SIZE_DISTRIBUTIONS:
        raise TraceSpecError(
            f"unknown size distribution {dist!r}; known: {sorted(SIZE_DISTRIBUTIONS)}"
        )
    space, _ = SIZE_DISTRIBUTIONS[dist]
    resolved = _resolve(space, spec, f"size distribution {dist!r}")
    return canonicalize({"dist": dist, **resolved})


def make_size_sampler(spec: Any):
    """Build a sampler (``sample(rng) -> int``, ``mean() -> float``) from a spec."""
    coerced = coerce_sizes_spec(spec)
    dist = coerced.pop("dist")
    _, builder = SIZE_DISTRIBUTIONS[dist]
    return builder(**coerced)


# ---------------------------------------------------------------------------
# Event-stream builders (plain generators; all take an explicit rng).


def arrival_rate_for_load(offered_load_bps: float, mean_flow_size_bytes: float) -> float:
    """Arrivals per second that offer ``offered_load_bps``: load / (mean size * 8).

    §7.1 offers 84 Mbit/s against a 96 Mbit/s bottleneck (87.5% load).
    """
    if offered_load_bps <= 0:
        raise ValueError("offered load must be positive")
    if mean_flow_size_bytes <= 0:
        raise ValueError("mean flow size must be positive")
    return offered_load_bps / (mean_flow_size_bytes * 8.0)


def poisson_flow_events(
    rng,
    *,
    rate_per_s: float,
    sizes,
    horizon_s: Optional[float] = None,
    max_flows: Optional[int] = None,
    start_s: float = 0.0,
    traffic_class: int = 0,
    group: str = "bundle",
    num_src: int = 1,
    num_dst: int = 1,
) -> Iterator[TraceEvent]:
    """Poisson flow arrivals with sizes drawn from ``sizes``.

    The RNG draw order per event is interarrival → size → src → dst; cached
    results depend on it (``tests/test_traffic_replay.py`` pins it).
    """
    if rate_per_s <= 0:
        raise TraceSpecError(f"rate must be positive, got {rate_per_s}")
    src_indices = tuple(range(num_src))
    dst_indices = tuple(range(num_dst))
    t = start_s
    issued = 0
    while True:
        if max_flows is not None and issued >= max_flows:
            return
        delta = rng.expovariate(rate_per_s)
        if horizon_s is not None and t + delta > start_s + horizon_s:
            return
        t = t + delta
        size = sizes.sample(rng)
        src = rng.choice(src_indices)
        dst = rng.choice(dst_indices)
        yield TraceEvent(
            time_s=t, kind="flow", size_bytes=size,
            traffic_class=traffic_class, src=src, dst=dst, group=group,
        )
        issued += 1


def modulated_flow_events(
    rng,
    *,
    base_rate_per_s: float,
    profile: List[float],
    period_s: float,
    horizon_s: float,
    sizes,
    traffic_class: int = 0,
    group: str = "bundle",
    num_src: int = 1,
    num_dst: int = 1,
) -> Iterator[TraceEvent]:
    """Markov-modulated (diurnal) Poisson arrivals.

    The rate is piecewise constant: ``profile`` holds one multiplier of
    ``base_rate_per_s`` per equal-length phase of a ``period_s`` cycle.
    Phase boundaries restart the exponential draw — valid by memorylessness,
    and deterministic under the seed.
    """
    if base_rate_per_s <= 0:
        raise TraceSpecError(f"base rate must be positive, got {base_rate_per_s}")
    if period_s <= 0:
        raise TraceSpecError(f"period must be positive, got {period_s}")
    if not profile or any(m < 0 for m in profile):
        raise TraceSpecError("profile must be a non-empty list of multipliers >= 0")
    phase_s = period_s / len(profile)
    src_indices = tuple(range(num_src))
    dst_indices = tuple(range(num_dst))
    t = 0.0
    while t < horizon_s:
        phase = int(t / phase_s) % len(profile)
        rate = base_rate_per_s * profile[phase]
        boundary = (math.floor(t / phase_s) + 1) * phase_s
        if rate <= 0:
            t = boundary
            continue
        delta = rng.expovariate(rate)
        if t + delta > boundary:
            t = boundary
            continue
        t += delta
        if t > horizon_s:
            return
        size = sizes.sample(rng)
        src = rng.choice(src_indices)
        dst = rng.choice(dst_indices)
        yield TraceEvent(
            time_s=t, kind="flow", size_bytes=size,
            traffic_class=traffic_class, src=src, dst=dst, group=group,
        )


def flash_crowd_flow_events(
    rng,
    *,
    base_rate_per_s: float,
    peak_multiplier: float,
    start_s: float,
    ramp_s: float,
    hold_s: float,
    decay_s: float,
    horizon_s: float,
    sizes,
    traffic_class: int = 0,
    group: str = "bundle",
    num_src: int = 1,
    num_dst: int = 1,
) -> Iterator[TraceEvent]:
    """A flash crowd: baseline → linear ramp → peak hold → linear decay.

    Generated as a non-homogeneous Poisson process by thinning candidates
    drawn at the peak rate, so the output is exact (not phase-quantized)
    and still deterministic under the seed.
    """
    if base_rate_per_s <= 0:
        raise TraceSpecError(f"base rate must be positive, got {base_rate_per_s}")
    if peak_multiplier < 1.0:
        raise TraceSpecError(f"peak multiplier must be >= 1, got {peak_multiplier}")
    peak_rate = base_rate_per_s * peak_multiplier

    def rate_at(t: float) -> float:
        if t < start_s:
            return base_rate_per_s
        if t < start_s + ramp_s:
            frac = (t - start_s) / ramp_s if ramp_s > 0 else 1.0
            return base_rate_per_s + (peak_rate - base_rate_per_s) * frac
        if t < start_s + ramp_s + hold_s:
            return peak_rate
        if t < start_s + ramp_s + hold_s + decay_s:
            frac = (t - start_s - ramp_s - hold_s) / decay_s if decay_s > 0 else 1.0
            return peak_rate - (peak_rate - base_rate_per_s) * frac
        return base_rate_per_s

    src_indices = tuple(range(num_src))
    dst_indices = tuple(range(num_dst))
    t = 0.0
    while True:
        t += rng.expovariate(peak_rate)
        if t > horizon_s:
            return
        if rng.random() * peak_rate > rate_at(t):
            continue  # thinned candidate
        size = sizes.sample(rng)
        src = rng.choice(src_indices)
        dst = rng.choice(dst_indices)
        yield TraceEvent(
            time_s=t, kind="flow", size_bytes=size,
            traffic_class=traffic_class, src=src, dst=dst, group=group,
        )


def onoff_stream_events(
    rng,
    *,
    rate_bps: float,
    mean_on_s: float,
    mean_off_s: float,
    horizon_s: float,
    traffic_class: int = 0,
    group: str = "cross",
    num_src: int = 1,
    num_dst: int = 1,
) -> Iterator[TraceEvent]:
    """Bursty on/off paced streams: exponential ON bursts, exponential gaps."""
    if rate_bps <= 0:
        raise TraceSpecError(f"stream rate must be positive, got {rate_bps}")
    if mean_on_s <= 0 or mean_off_s <= 0:
        raise TraceSpecError("mean on/off durations must be positive")
    src_indices = tuple(range(num_src))
    dst_indices = tuple(range(num_dst))
    t = 0.0
    while True:
        t += rng.expovariate(1.0 / mean_off_s)
        if t >= horizon_s:
            return
        on = min(rng.expovariate(1.0 / mean_on_s), horizon_s - t)
        if on <= 0:
            return
        src = rng.choice(src_indices)
        dst = rng.choice(dst_indices)
        yield TraceEvent(
            time_s=t, kind="stream", rate_bps=rate_bps, duration_s=on,
            traffic_class=traffic_class, src=src, dst=dst, group=group,
        )
        t += on


def merge_event_streams(streams: List[Iterator[TraceEvent]]) -> Iterator[TraceEvent]:
    """Deterministic time-merge of event streams.

    Ties break by stream position (earlier component first) — never by
    anything runtime-dependent — so a mix generates identically everywhere.
    """
    import heapq

    heap: List[Tuple[float, int, int, TraceEvent, Iterator[TraceEvent]]] = []
    serial = 0
    for index, stream in enumerate(streams):
        first = next(stream, None)
        if first is not None:
            heap.append((first.time_s, index, serial, first, stream))
            serial += 1
    heapq.heapify(heap)
    while heap:
        time_s, index, _, event, stream = heapq.heappop(heap)
        yield event
        following = next(stream, None)
        if following is not None:
            heapq.heappush(heap, (following.time_s, index, serial, following, stream))
            serial += 1


# ---------------------------------------------------------------------------
# The named-generator registry (specs as data).


@dataclass(frozen=True)
class GeneratorDef:
    """One named trace generator: declared parameters plus a builder."""

    name: str
    description: str
    params: ParamSpace
    #: ``build(seed, params) -> Iterator[TraceEvent]``; ``params`` arrive
    #: coerced (defaults filled, canonicalized).
    build: Callable[[int, Dict[str, Any]], Iterator[TraceEvent]]


def _from_stream(name: str, stream: Callable[..., Iterator[TraceEvent]]):
    """``build`` for a generator whose declared knobs are ``stream``'s keywords."""

    def build(seed: int, params: Dict[str, Any]) -> Iterator[TraceEvent]:
        if "sizes" in params:
            params["sizes"] = make_size_sampler(params["sizes"])
        return stream(make_rng(derive_seed(seed, f"traffic:{name}")), **params)

    return build


def _build_requests(seed: int, params: Dict[str, Any]) -> Iterator[TraceEvent]:
    sizes = make_size_sampler(params.pop("sizes"))
    rate = arrival_rate_for_load(params.pop("offered_load_bps"), sizes.mean())
    rng = make_rng(derive_seed(seed, "traffic:requests"))
    return poisson_flow_events(rng, rate_per_s=rate, sizes=sizes, **params)


def _build_mix(seed: int, params: Dict[str, Any]) -> Iterator[TraceEvent]:
    streams = [
        generate_trace(component, derive_seed(seed, f"mix:{index}"))
        for index, component in enumerate(params["components"])
    ]
    return merge_event_streams(streams)


def _nonempty_list(value: Any) -> None:
    if not isinstance(value, list) or not value:
        raise ValueError("must be a non-empty list")


# The knobs several generators share, declared once.
_HORIZON = ParamSpec(
    "horizon_s", kind="float", default=10.0, unit="s", minimum=0.0,
    description="length of the generated trace",
)
_MAX_FLOWS = ParamSpec(
    "max_flows", kind="int", default=None, unit="count", minimum=0, nullable=True,
    description="stop after this many flows (None: the horizon alone bounds the trace)",
)
_BASE_RATE = ParamSpec(
    "base_rate_per_s", kind="float", default=80.0, unit="flows/s", minimum=0.0,
    description="baseline arrival rate; must be positive",
)
_ENDPOINT_KNOBS = (
    ParamSpec("traffic_class", kind="int", default=0, unit="class", minimum=0,
              description="traffic class stamped on every event"),
    ParamSpec("group", kind="str", default="bundle", choices=EVENT_GROUPS,
              description="host pools the events use: through the sendbox, or cross traffic"),
    ParamSpec("num_src", kind="int", default=1, unit="count", minimum=1,
              description="source indices are drawn from range(num_src)"),
    ParamSpec("num_dst", kind="int", default=1, unit="count", minimum=1,
              description="destination indices are drawn from range(num_dst)"),
)
_FLOW_KNOBS = (
    ParamSpec("sizes", kind="json", default={"dist": "internet_core"},
              description="size-distribution sub-spec: a name or {\"dist\": name, ...}"),
    *_ENDPOINT_KNOBS,
)

GENERATORS: Dict[str, GeneratorDef] = {}


def _register(definition: GeneratorDef) -> None:
    if definition.name in GENERATORS:
        raise ValueError(f"generator {definition.name!r} already registered")
    GENERATORS[definition.name] = definition


_register(GeneratorDef(
    name="requests",
    description="Poisson request arrivals at a target offered load (the §7.1 workload)",
    params=ParamSpace(
        ParamSpec("offered_load_bps", kind="float", default=8_000_000.0, unit="bit/s",
                  minimum=0.0, description="target offered load; must be positive"),
        _HORIZON,
        _MAX_FLOWS,
        *_FLOW_KNOBS,
    ),
    build=_build_requests,
))

_register(GeneratorDef(
    name="poisson",
    description="Poisson flow arrivals at an explicit rate",
    params=ParamSpace(
        ParamSpec("rate_per_s", kind="float", default=100.0, unit="flows/s", minimum=0.0,
                  description="arrival rate; must be positive"),
        _HORIZON,
        _MAX_FLOWS,
        *_FLOW_KNOBS,
    ),
    build=_from_stream("poisson", poisson_flow_events),
))

_register(GeneratorDef(
    name="diurnal",
    description="Markov-modulated Poisson arrivals cycling a diurnal rate profile",
    params=ParamSpace(
        _BASE_RATE,
        ParamSpec("period_s", kind="float", default=4.0, unit="s", minimum=0.0,
                  description="length of one cycle of the profile; must be positive"),
        ParamSpec("profile", kind="list[float]", default=[0.4, 1.0, 1.7, 1.0], unit="ratio",
                  description="rate multiplier of each equal-length phase of a cycle"),
        _HORIZON,
        *_FLOW_KNOBS,
    ).with_defaults(horizon_s=8.0),
    build=_from_stream("diurnal", modulated_flow_events),
))

_register(GeneratorDef(
    name="flash_crowd",
    description="Non-homogeneous Poisson flash crowd: ramp to a peak, hold, decay",
    params=ParamSpace(
        _BASE_RATE,
        ParamSpec("peak_multiplier", kind="float", default=4.0, unit="ratio", minimum=1.0,
                  description="peak rate as a multiple of the baseline"),
        ParamSpec("start_s", kind="float", default=2.0, unit="s", minimum=0.0,
                  description="when the ramp begins"),
        ParamSpec("ramp_s", kind="float", default=1.0, unit="s", minimum=0.0,
                  description="linear rise from baseline to peak"),
        ParamSpec("hold_s", kind="float", default=2.0, unit="s", minimum=0.0,
                  description="time spent at the peak"),
        ParamSpec("decay_s", kind="float", default=1.0, unit="s", minimum=0.0,
                  description="linear fall back to baseline"),
        _HORIZON,
        *_FLOW_KNOBS,
    ).with_defaults(base_rate_per_s=50.0, horizon_s=8.0),
    build=_from_stream("flash_crowd", flash_crowd_flow_events),
))

_register(GeneratorDef(
    name="onoff",
    description="Bursty on/off paced streams (non-buffer-filling cross traffic)",
    params=ParamSpace(
        ParamSpec("rate_bps", kind="float", default=6_000_000.0, unit="bit/s", minimum=0.0,
                  description="pacing rate while ON; must be positive"),
        ParamSpec("mean_on_s", kind="float", default=0.5, unit="s", minimum=0.0,
                  description="mean ON burst (exponential); must be positive"),
        ParamSpec("mean_off_s", kind="float", default=0.5, unit="s", minimum=0.0,
                  description="mean gap between bursts (exponential); must be positive"),
        _HORIZON,
        *_ENDPOINT_KNOBS,
    ).with_defaults(horizon_s=8.0, group="cross"),
    build=_from_stream("onoff", onoff_stream_events),
))

_register(GeneratorDef(
    name="mix",
    description="Deterministic time-merge of component generator traces",
    params=ParamSpace(
        ParamSpec("components", kind="json", required=True, validator=_nonempty_list,
                  description="the generator specs to merge"),
    ),
    build=_build_mix,
))


def coerce_generator_spec(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Canonicalize a ``{"generator": name, "params": {...}}`` spec.

    Resolves the parameters through the generator's :class:`ParamSpace` —
    defaults filled, unknown parameters rejected, every value coerced to
    its declared type and canonicalized (so no spelling of a spec can mint
    a second cache key) — and recursively coerces ``sizes`` sub-specs and
    ``mix`` components.
    """
    if not isinstance(spec, Mapping):
        raise TraceSpecError(f"generator spec must be an object, got {spec!r}")
    unknown_top = sorted(set(spec) - {"generator", "params"})
    if unknown_top:
        raise TraceSpecError(
            f"generator spec has unknown key(s) {unknown_top}; accepted: ['generator', 'params']"
        )
    name = spec.get("generator")
    if not isinstance(name, str) or name not in GENERATORS:
        raise TraceSpecError(
            f"unknown trace generator {name!r}; known: {sorted(GENERATORS)}"
        )
    params = _resolve(GENERATORS[name].params, spec.get("params") or {}, f"generator {name!r}")
    if "sizes" in params:
        params["sizes"] = coerce_sizes_spec(params["sizes"])
    if name == "mix":
        params["components"] = [coerce_generator_spec(c) for c in params["components"]]
    return {"generator": name, "params": params}


def generate_trace(spec: Mapping[str, Any], seed: int) -> Iterator[TraceEvent]:
    """Build the event stream of a (coerced or raw) generator spec.

    Deterministic: the same ``(spec, seed)`` yields the same events in any
    process on any host.
    """
    coerced = coerce_generator_spec(spec)
    definition = GENERATORS[coerced["generator"]]
    return definition.build(seed, dict(coerced["params"]))
