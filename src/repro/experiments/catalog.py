"""The catalogue of built-in scenarios: every declaration, no simulator.

Each paper figure is registered here as *data* — name, figure, version,
description, typed :class:`~repro.runner.params.ParamSpace`,
:class:`~repro.runner.schema.MetricSchema` — and names the function that
runs it as a ``"module:function"`` entry.  The model modules
(:mod:`repro.experiments.scenarios` and its siblings) hold that code and
import their shared constants from here, never the reverse, so this module
imports only ``repro.runner.params`` / ``schema`` / ``registry``:
:func:`~repro.runner.registry.load_builtin_scenarios` imports the catalogue
alone, and ``list``, ``report``, ``gc``, ``fidelity``'s validation and a
fully cached ``sweep`` name scenarios without ever loading ``repro.net``,
``core``, ``qdisc``, ``transport``, ``cc`` or ``traffic``.  A scenario's
model is imported by its first executed cell.

User and test scenarios keep registering a function directly with
:func:`~repro.runner.registry.register_scenario`; the entry form is how a
*built-in* is declared, and this file is the only place one is.
"""

from __future__ import annotations

from dataclasses import replace
from importlib import import_module
from typing import Any, Dict, Optional

from repro.runner.params import ParamSpec, ParamSpace
from repro.runner.registry import ScenarioFn, register_scenario
from repro.runner.schema import MetricSchema, MetricSpec


class LazyBody:
    """A scenario's run function, named by entry and imported on first use.

    Calling it calls the function; the import happens once and the function
    is remembered.  An entry that does not import, or names nothing in its
    module, fails saying which scenario and which entry.
    """

    __slots__ = ("scenario", "entry", "_fn")

    def __init__(self, scenario: str, entry: str) -> None:
        self.scenario = scenario
        self.entry = entry
        self._fn: Optional[ScenarioFn] = None

    def load(self) -> ScenarioFn:
        """The function the entry names (importing its module if need be)."""
        if self._fn is None:
            module, _, function = self.entry.partition(":")
            try:
                self._fn = getattr(import_module(module), function)
            except (ImportError, AttributeError) as exc:
                raise RuntimeError(
                    f"scenario {self.scenario!r}: cannot load its body "
                    f"{self.entry!r} ({type(exc).__name__}: {exc})"
                ) from exc
        return self._fn

    def __call__(self, **kwargs: Any) -> Dict[str, Any]:
        return (self._fn or self.load())(**kwargs)

    def __repr__(self) -> str:
        return f"LazyBody({self.scenario!r}, {self.entry!r})"


def _builtin(name: str, entry: str, **declaration: Any) -> None:
    """Register built-in ``name``; ``entry`` names its body in a model module."""
    register_scenario(name, **declaration)(LazyBody(name, entry))


# ---------------------------------------------------------------------------
# Shared knobs and schemas.

#: Modes that install a Bundler pair, mapped to the sendbox scheduler they use.
BUNDLER_MODES: Dict[str, str] = {
    "bundler_sfq": "sfq",
    "bundler_fifo": "fifo",
    "bundler_fq_codel": "fq_codel",
    "bundler_prio": "prio",
    "bundler_drr": "drr",
    "proxy": "sfq",
}

ALL_MODES = ("status_quo", "in_network_sfq", *BUNDLER_MODES.keys())


def _check_load_fraction(value: float) -> None:
    if not 0.0 < value < 1.5:
        raise ValueError("load_fraction should be a sensible fraction of the bottleneck")


#: The site knobs every scenario module shares, declared once: a registration
#: references the constant, or ``dataclasses.replace(SPEC, default=...)`` where
#: its family's default differs, so e.g. a new sendbox CC is added in one place.
BOTTLENECK_MBPS = ParamSpec(
    "bottleneck_mbps", kind="float", default=24.0, unit="Mbit/s", minimum=1.0,
    description="bottleneck link rate")
RTT_MS = ParamSpec(
    "rtt_ms", kind="float", default=50.0, unit="ms", minimum=1.0,
    description="base round-trip time of the site-to-site path")
DURATION_S = ParamSpec(
    "duration_s", kind="float", default=15.0, unit="s", minimum=1.0,
    description="workload duration")
WARMUP_S = ParamSpec(
    "warmup_s", kind="float", default=2.0, unit="s", minimum=0.0,
    description="leading interval excluded from FCT analysis")
NUM_SERVERS = ParamSpec(
    "num_servers", kind="int", default=8, unit="count", minimum=1,
    description="request-serving endhosts behind the sendbox")
ENDHOST_CC = ParamSpec(
    "endhost_cc", kind="str", default="cubic",
    choices=("cubic", "reno", "bbr", "constant"),
    description="endhost window congestion controller")
SENDBOX_CC = ParamSpec(
    "sendbox_cc", kind="str", default="copa",
    choices=("copa", "basic_delay", "bbr", "constant"),
    description="bundle-level rate congestion controller")

#: Typed knob set of the §7.1 workload scenario family (Figures 9/14/15,
#: §7.2 policies, §7.4 table).  Individual registrations derive from this
#: via :meth:`ParamSpace.with_defaults`.
SCENARIO_PARAMS = ParamSpace(
    ParamSpec("mode", kind="str", default="bundler_sfq", choices=ALL_MODES,
              description="who controls queueing, and with which scheduler"),
    BOTTLENECK_MBPS,
    RTT_MS,
    ParamSpec("load_fraction", kind="float", default=0.875, unit="fraction",
              validator=_check_load_fraction,
              description="offered load as a fraction of the bottleneck rate"),
    DURATION_S,
    WARMUP_S,
    NUM_SERVERS,
    ParamSpec("num_clients", kind="int", default=1, unit="count", minimum=1,
              description="request-issuing endhosts behind the receivebox"),
    ParamSpec("max_requests", kind="int", default=None, unit="count", minimum=1, nullable=True,
              description="request cap (None = run to duration)"),
    ENDHOST_CC,
    SENDBOX_CC,
    ParamSpec("enable_nimbus", kind="bool", default=True,
              description="enable Nimbus cross-traffic elasticity detection"),
)

#: Schema of :func:`repro.experiments.scenarios.scenario_metrics` — what
#: every family member reports.
SCENARIO_METRICS = MetricSchema(
    MetricSpec("requests_issued", unit="count", direction="info",
               description="requests the workload issued"),
    MetricSpec("completed", unit="count", direction="higher",
               description="post-warm-up flows that completed"),
    MetricSpec("completion_fraction", unit="fraction", direction="higher",
               description="completed / issued"),
    MetricSpec("median_slowdown", unit="ratio", direction="lower", nullable=True,
               description="median FCT slowdown vs the ideal FCT"),
    MetricSpec("p99_slowdown", unit="ratio", direction="lower", nullable=True,
               description="99th-percentile FCT slowdown"),
    MetricSpec("small_median_slowdown", unit="ratio", direction="lower", nullable=True,
               description="median slowdown of <=10KB flows"),
    MetricSpec("mid_median_slowdown", unit="ratio", direction="lower", nullable=True,
               description="median slowdown of 10KB-1MB flows"),
    MetricSpec("large_median_slowdown", unit="ratio", direction="lower", nullable=True,
               description="median slowdown of >1MB flows"),
    MetricSpec("small_p99_slowdown", unit="ratio", direction="lower", nullable=True,
               description="99th-percentile slowdown of <=10KB flows"),
    MetricSpec("bottleneck_drops", unit="packets", direction="lower",
               description="packets dropped at the bottleneck"),
    MetricSpec("sendbox_drops", unit="packets", direction="info",
               description="packets dropped at the sendbox (where drops should move)"),
    MetricSpec("out_of_order_fraction", unit="fraction", direction="lower", nullable=True,
               description="epoch measurements arriving out of order (None without Bundler)"),
)

#: Schema of :func:`repro.experiments.scenarios.policy_metrics` — the §7.2
#: scheduling-policy claims.
POLICY_METRICS = MetricSchema(
    MetricSpec("completed", unit="count", direction="higher",
               description="post-warm-up flows that completed"),
    MetricSpec("median_slowdown", unit="ratio", direction="lower", nullable=True,
               description="median FCT slowdown"),
    MetricSpec("short_median_slowdown", unit="ratio", direction="lower", nullable=True,
               description="median slowdown of latency-sensitive short flows"),
    MetricSpec("high_class_median_slowdown", unit="ratio", direction="lower", nullable=True,
               description="median slowdown of the favored priority class"),
    MetricSpec("low_class_median_slowdown", unit="ratio", direction="info", nullable=True,
               description="median slowdown of the deprioritized class"),
)


# ---------------------------------------------------------------------------
# repro.experiments.scenarios — the §7.1 workload family.

_SCENARIO_BODY = "repro.experiments.scenarios:_run_registered_scenario"
_POLICY_BODY = "repro.experiments.scenarios:_run_policy_scenario"

_builtin(
    "fig09_slowdown",
    _SCENARIO_BODY,
    figure="Figure 9 / §7.2",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="FCT slowdown distribution of the §7.1 workload under a given mode",
    params=SCENARIO_PARAMS,
    metrics=SCENARIO_METRICS,
)

_builtin(
    "fig14_sendbox_cc",
    _SCENARIO_BODY,
    figure="Figure 14 / §7.2",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Sendbox congestion-control choice (Copa / BasicDelay / BBR) on the §7.1 workload",
    params=SCENARIO_PARAMS.with_defaults(duration_s=12.0),
    metrics=SCENARIO_METRICS,
)

_builtin(
    "fig15_proxy",
    _SCENARIO_BODY,
    figure="Figure 15 / §7.5",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Idealized TCP-terminating proxy emulation vs plain Bundler",
    params=SCENARIO_PARAMS.with_defaults(mode="proxy", load_fraction=0.8, duration_s=12.0),
    metrics=SCENARIO_METRICS,
)

_builtin(
    "sec74_endhost_cc",
    _SCENARIO_BODY,
    figure="§7.4 (table)",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Bundler's gains across endhost congestion controllers (Cubic / Reno / BBR)",
    params=SCENARIO_PARAMS.with_defaults(duration_s=10.0),
    metrics=SCENARIO_METRICS,
)

_builtin(
    "sec72_fq_codel",
    _POLICY_BODY,
    figure="§7.2 (text)",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="FQ-CoDel at the sendbox: short-flow latency versus the Status Quo FIFO",
    params=SCENARIO_PARAMS.with_defaults(mode="bundler_fq_codel", duration_s=12.0),
    metrics=POLICY_METRICS,
)

_builtin(
    "sec72_priority",
    _POLICY_BODY,
    figure="§7.2 (text)",
    description="Strict priority at the sendbox: the favored class beats the deprioritized one",
    params=SCENARIO_PARAMS.with_defaults(mode="bundler_prio", duration_s=12.0),
    metrics=POLICY_METRICS,
    # v2: flows now carry their priority class from the first packet; the
    # pre-trace implementation let each flow's initial window out as class
    # 0 before re-classifying it.
    # v3: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=3,
)


# ---------------------------------------------------------------------------
# repro.experiments.ablations — design-choice ablations.

_builtin(
    "ablation_epoch_sampling",
    "repro.experiments.ablations:_epoch_sampling_scenario",
    figure="Ablation / §4.5",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Epoch sampling period: quarter-RTT spacing vs sparser sampling",
    params=ParamSpace(
        ParamSpec("epoch_rtt_fraction", kind="float", default=0.25, unit="fraction",
                  minimum=0.01, maximum=4.0,
                  description="epoch sampling period as a fraction of the RTT"),
        BOTTLENECK_MBPS,
        RTT_MS,
        ParamSpec("load_fraction", kind="float", default=0.875, unit="fraction",
                  minimum=0.05, maximum=1.45,
                  description="offered load as a fraction of the bottleneck rate"),
        replace(DURATION_S, default=10.0),
        WARMUP_S,
        NUM_SERVERS,
        SCENARIO_PARAMS.get("max_requests"),
        SENDBOX_CC,
    ),
    metrics=SCENARIO_METRICS,
)


def _check_strictly_positive(value: float) -> None:
    # PiQueueController rejects alpha == 0; an inclusive minimum cannot
    # express "strictly positive", so the knob table must.
    if value <= 0.0:
        raise ValueError("must be strictly positive")


_builtin(
    "ablation_pi_gains",
    "repro.experiments.ablations:_pi_gains_scenario",
    figure="Ablation / §5",
    description="Pass-through PI controller gains: fluid-model settle time to the target queue",
    params=ParamSpace(
        ParamSpec("alpha", kind="float", default=10.0, unit="gain",
                  validator=_check_strictly_positive,
                  description="PI proportional gain (strictly positive)"),
        ParamSpec("beta", kind="float", default=10.0, unit="gain", minimum=0.0,
                  description="PI integral gain"),
        ParamSpec("target_queue_s", kind="float", default=0.010, unit="s", minimum=0.0001,
                  description="target standing-queue delay"),
        ParamSpec("tolerance_s", kind="float", default=0.002, unit="s", minimum=0.0001,
                  description="settle tolerance around the target"),
        ParamSpec("arrival_mbps", kind="float", default=24.0, unit="Mbit/s", minimum=1.0,
                  description="constant fluid arrival rate"),
        ParamSpec("horizon_s", kind="float", default=40.0, unit="s", minimum=1.0,
                  description="simulation horizon"),
    ),
    metrics=MetricSchema(
        MetricSpec("settle_time_s", unit="s", direction="lower", nullable=True,
                   description="first time the queue stays within tolerance (None = never)"),
        MetricSpec("settled", kind="bool", direction="higher",
                   description="whether the controller settled within the horizon"),
    ),
    seed_sensitive=False,
)


# ---------------------------------------------------------------------------
# repro.experiments.queue_shift — Figure 2.

_builtin(
    "fig02_queue_shift",
    "repro.experiments.queue_shift:_queue_shift_scenario",
    figure="Figure 2",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Bundler moves the standing queue from the bottleneck to the sendbox",
    params=ParamSpace(
        ParamSpec("with_bundler", kind="bool", default=True,
                  description="install the Bundler pair at the site edges"),
        BOTTLENECK_MBPS,
        RTT_MS,
        replace(DURATION_S, default=30.0, description="run duration"),
        ParamSpec("num_flows", kind="int", default=2, unit="count", minimum=1,
                  description="long-lived bulk flows"),
        ENDHOST_CC,
        SENDBOX_CC,
    ),
    metrics=MetricSchema(
        MetricSpec("mean_bottleneck_delay_ms", unit="ms", direction="lower",
                   description="mean queueing delay at the bottleneck"),
        MetricSpec("mean_sendbox_delay_ms", unit="ms", direction="info",
                   description="mean queueing delay at the sendbox (where the queue should move)"),
        MetricSpec("bottleneck_drops", unit="packets", direction="lower",
                   description="packets dropped at the bottleneck"),
    ),
    seed_sensitive=False,
)


# ---------------------------------------------------------------------------
# repro.experiments.estimate_accuracy — Figures 5 and 6.

_builtin(
    "fig05_fig06_estimates",
    "repro.experiments.estimate_accuracy:_estimates_scenario",
    figure="Figures 5-6 / §7.1",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Accuracy of Bundler's epoch-based RTT and receive-rate estimates",
    params=ParamSpace(
        BOTTLENECK_MBPS,
        RTT_MS,
        replace(DURATION_S, default=20.0, description="run duration"),
        ParamSpec("num_flows", kind="int", default=4, unit="count", minimum=1,
                  description="long-lived flows in the bundle"),
        ParamSpec("sample_interval_s", kind="float", default=0.1, unit="s", minimum=0.001,
                  description="ground-truth sampling interval"),
        SENDBOX_CC,
    ),
    metrics=MetricSchema(
        MetricSpec("rtt_error_p80_ms", unit="ms", direction="lower", nullable=True,
                   description="80th-percentile absolute RTT estimate error"),
        MetricSpec("rtt_error_median_ms", unit="ms", direction="lower", nullable=True,
                   description="median absolute RTT estimate error"),
        MetricSpec("rate_error_p80_mbps", unit="Mbit/s", direction="lower", nullable=True,
                   description="80th-percentile absolute receive-rate estimate error"),
        MetricSpec("rate_error_median_mbps", unit="Mbit/s", direction="lower", nullable=True,
                   description="median absolute receive-rate estimate error"),
        MetricSpec("rtt_samples", unit="count", direction="info",
                   description="RTT estimate samples compared"),
        MetricSpec("rate_samples", unit="count", direction="info",
                   description="rate estimate samples compared"),
    ),
    seed_sensitive=False,
)


# ---------------------------------------------------------------------------
# repro.experiments.multipath_sweep — Figure 7 and §7.6.

_builtin(
    "fig07_multipath",
    "repro.experiments.multipath_sweep:_multipath_scenario",
    figure="Figure 7 / §7.6",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Out-of-order epoch measurements under imbalanced multipath routing",
    params=ParamSpace(
        ParamSpec("num_paths", kind="int", default=1, unit="count", minimum=1,
                  description="parallel WAN paths between the sites"),
        replace(BOTTLENECK_MBPS, description="per-path bottleneck rate"),
        RTT_MS,
        DURATION_S,
        ParamSpec("load_fraction", kind="float", default=0.7, unit="fraction",
                  minimum=0.05, maximum=1.45,
                  description="offered load as a fraction of the bottleneck rate"),
        ParamSpec("path_split_mode", kind="str", default="packet", choices=("packet", "flow"),
                  description="ECMP split granularity across the paths"),
        ParamSpec("delay_spread", kind="float", default=2.0, unit="ratio", minimum=1.0,
                  description="delay multiplier between the fastest and slowest path"),
        ParamSpec("enable_multipath_detection", kind="bool", default=True,
                  description="enable the out-of-order multipath detector"),
    ),
    metrics=MetricSchema(
        MetricSpec("out_of_order_fraction", unit="fraction", direction="info",
                   description="epoch measurements arriving out of order"),
        MetricSpec("detector_triggered", kind="bool", direction="info",
                   description="whether the multipath detector fired"),
        MetricSpec("final_mode", kind="str", direction="info",
                   description="controller mode at the end of the run"),
    ),
)


# ---------------------------------------------------------------------------
# repro.experiments.cross_traffic — Figures 10, 11 and 12.

_BUNDLE_LOAD = ParamSpec(
    "bundle_load_fraction", kind="float", default=0.6, unit="fraction", minimum=0.05, maximum=1.45,
    description="bundle offered load as a fraction of the bottleneck rate")
_MODE = ParamSpec("mode", kind="str", default="bundler", choices=("status_quo", "bundler"),
                  description="whether the bundle runs under Bundler")

_builtin(
    "fig10_phased_cross_traffic",
    "repro.experiments.cross_traffic:_phased_scenario",
    figure="Figure 10 / §7.3",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Three cross-traffic phases; Bundler yields during buffer-filling phases",
    params=ParamSpace(
        BOTTLENECK_MBPS,
        RTT_MS,
        ParamSpec("phase_duration_s", kind="float", default=20.0, unit="s", minimum=1.0,
                  description="duration of each of the three cross-traffic phases"),
        _BUNDLE_LOAD,
        ParamSpec("cross_bulk_flows", kind="int", default=1, unit="count", minimum=0,
                  description="backlogged cross flows during the buffer-filling phase"),
        ParamSpec("cross_load_fraction", kind="float", default=0.3, unit="fraction",
                  minimum=0.0, maximum=1.45,
                  description="request cross-traffic load during the non-buffer-filling phase"),
        ParamSpec("with_bundler", kind="bool", default=True,
                  description="install the Bundler pair"),
        SENDBOX_CC,
        replace(NUM_SERVERS, default=6),
    ),
    metrics=MetricSchema(
        MetricSpec("pass_through_seconds", unit="s", direction="info",
                   description="time the controller spent yielding in pass-through mode"),
        MetricSpec("phase*_median_slowdown", unit="ratio", direction="lower", nullable=True,
                   description="per-phase median FCT slowdown (one column per phase)"),
        MetricSpec("phase*_queue_delay_ms", unit="ms", direction="lower",
                   description="per-phase mean bottleneck queueing delay"),
    ),
)

_builtin(
    "fig11_short_cross_traffic",
    "repro.experiments.cross_traffic:_short_cross_scenario",
    figure="Figure 11 / §7.3",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Bundle FCTs under increasing short-flow cross-traffic load",
    params=ParamSpace(
        _MODE,
        ParamSpec("cross_load_fraction", kind="float", default=0.25, unit="fraction",
                  minimum=0.0, maximum=1.45,
                  description="short-flow cross-traffic load as a fraction of the bottleneck"),
        BOTTLENECK_MBPS,
        RTT_MS,
        replace(_BUNDLE_LOAD, default=0.5),
        DURATION_S,
        SENDBOX_CC,
    ),
    metrics=MetricSchema(
        MetricSpec("cross_load_mbps", unit="Mbit/s", direction="info",
                   description="offered cross-traffic load"),
        MetricSpec("median_slowdown", unit="ratio", direction="lower", nullable=True,
                   description="bundle median FCT slowdown"),
        MetricSpec("p99_slowdown", unit="ratio", direction="lower", nullable=True,
                   description="bundle 99th-percentile FCT slowdown"),
        MetricSpec("completed", unit="count", direction="higher",
                   description="bundle flows that completed"),
    ),
)

_builtin(
    "fig12_elastic_cross",
    "repro.experiments.cross_traffic:_elastic_cross_scenario",
    figure="Figure 12 / §7.3",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Bundle throughput share against persistent buffer-filling cross flows",
    params=ParamSpace(
        _MODE,
        ParamSpec("competing_flows", kind="int", default=5, unit="count", minimum=0,
                  description="persistent buffer-filling cross flows"),
        BOTTLENECK_MBPS,
        RTT_MS,
        ParamSpec("bundle_flows", kind="int", default=5, unit="count", minimum=1,
                  description="backlogged flows inside the bundle"),
        replace(DURATION_S, default=30.0, description="run duration"),
        replace(WARMUP_S, default=5.0,
                description="leading interval excluded from throughput accounting"),
        SENDBOX_CC,
    ),
    metrics=MetricSchema(
        MetricSpec("bundle_throughput_mbps", unit="Mbit/s", direction="higher",
                   description="steady-state bundle throughput"),
        MetricSpec("cross_throughput_mbps", unit="Mbit/s", direction="info",
                   description="steady-state cross-traffic throughput"),
        MetricSpec("fair_share_mbps", unit="Mbit/s", direction="info",
                   description="the bundle's max-min fair share"),
        MetricSpec("throughput_vs_fair_share", unit="ratio", direction="higher",
                   description="bundle throughput over its fair share"),
    ),
    seed_sensitive=False,
)


# ---------------------------------------------------------------------------
# repro.experiments.competing_bundles — Figure 13.

def _check_load_split(split) -> None:
    if not split:
        raise ValueError("load_split needs at least one bundle share")
    if any(share <= 0.0 for share in split):
        raise ValueError("every load_split share must be positive")


_builtin(
    "fig13_competing_bundles",
    "repro.experiments.competing_bundles:_competing_bundles_scenario",
    figure="Figure 13 / §7.4",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Multiple bundles sharing one bottleneck at a given load split",
    params=ParamSpace(
        ParamSpec("load_split", kind="list[float]", default=[0.5, 0.5], unit="fraction",
                  validator=_check_load_split,
                  description="per-bundle share of the total offered load"),
        ParamSpec("total_load_fraction", kind="float", default=0.875, unit="fraction",
                  minimum=0.05, maximum=1.45,
                  description="total offered load as a fraction of the bottleneck rate"),
        replace(BOTTLENECK_MBPS, description="shared bottleneck rate"),
        RTT_MS,
        DURATION_S,
        ParamSpec("with_bundler", kind="bool", default=True,
                  description="install a Bundler pair per bundle"),
        SENDBOX_CC,
    ),
    metrics=MetricSchema(
        MetricSpec("bottleneck_mean_queue_delay_ms", unit="ms", direction="lower",
                   description="mean queueing delay at the shared bottleneck"),
        MetricSpec("bottleneck_drops", unit="packets", direction="lower",
                   description="packets dropped at the shared bottleneck"),
        MetricSpec("bundle*_median_slowdown", unit="ratio", direction="lower", nullable=True,
                   description="per-bundle median FCT slowdown (one column per bundle)"),
        MetricSpec("bundle*_completed", unit="count", direction="higher",
                   description="per-bundle completed flows (one column per bundle)"),
    ),
)


# ---------------------------------------------------------------------------
# repro.experiments.internet_paths — Figure 16 / §8.

_builtin(
    "fig16_internet_paths",
    "repro.experiments.internet_paths:_internet_paths_scenario",
    figure="Figure 16 / §8",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Emulated WAN region: probe RTTs under base / status-quo / Bundler",
    params=ParamSpace(
        ParamSpec("region", kind="str", default="belgium",
                  description="emulated WAN region (one of the paper's five, or any "
                              "name with base_rtt_ms set explicitly)"),
        ParamSpec("base_rtt_ms", kind="float", default=None, unit="ms", minimum=1.0,
                  nullable=True,
                  description="region base RTT (None = look the region up in DEFAULT_REGIONS)"),
        ParamSpec("configuration", kind="str", default="bundler",
                  choices=("base", "status_quo", "bundler"),
                  description="path configuration under test"),
        ParamSpec("egress_limit_mbps", kind="float", default=24.0, unit="Mbit/s", minimum=1.0,
                  description="site egress rate limit"),
        replace(DURATION_S, default=20.0, description="run duration"),
        ParamSpec("num_probes", kind="int", default=10, unit="count", minimum=1,
                  description="closed-loop request/response probes"),
        ParamSpec("num_bulk_flows", kind="int", default=5, unit="count", minimum=0,
                  description="backlogged bulk flows sharing the egress"),
        SENDBOX_CC,
    ),
    metrics=MetricSchema(
        MetricSpec("median_probe_rtt_ms", unit="ms", direction="lower",
                   description="median probe round-trip time"),
        MetricSpec("p99_probe_rtt_ms", unit="ms", direction="lower",
                   description="99th-percentile probe round-trip time"),
        MetricSpec("bulk_throughput_mbps", unit="Mbit/s", direction="higher",
                   description="aggregate bulk-flow throughput"),
        MetricSpec("probe_count", unit="count", direction="info",
                   description="probe round trips measured"),
    ),
    seed_sensitive=False,
)


# ---------------------------------------------------------------------------
# repro.experiments.trace_replay — trace-driven workloads.

#: Shared knob set of the trace-replay family.  Each registration swaps the
#: ``trace`` default (and topology knobs) via :meth:`ParamSpace.with_defaults`.
TRACE_REPLAY_PARAMS = ParamSpace(
    ParamSpec("trace", kind="trace",
              default={"generator": "diurnal"},
              description="trace spec: generator or file path "
                          "(files are digest-addressed in cache keys)"),
    SCENARIO_PARAMS.get("mode"),
    replace(BOTTLENECK_MBPS, default=12.0),
    replace(RTT_MS, default=40.0),
    replace(DURATION_S, default=8.0,
            description="replay horizon fed to the FCT analysis and drain"),
    replace(WARMUP_S, default=1.0),
    replace(NUM_SERVERS, default=4, description="bundled endhosts behind the sendbox"),
    ParamSpec("num_clients", kind="int", default=1, unit="count", minimum=1,
              description="receiving endhosts behind the receivebox"),
    ParamSpec("num_cross_pairs", kind="int", default=0, unit="count", minimum=0,
              description="cross-traffic host pairs beyond the sendbox "
                          "(required by traces with 'cross' events)"),
    ENDHOST_CC,
    SENDBOX_CC,
    SCENARIO_PARAMS.get("enable_nimbus"),
)

#: What every trace-replay scenario reports (bundle flows only — cross
#: traffic is load, not the measured workload).
TRACE_REPLAY_METRICS = MetricSchema(
    MetricSpec("flows_replayed", unit="count", direction="info",
               description="flow events issued from the trace"),
    MetricSpec("streams_replayed", unit="count", direction="info",
               description="paced-stream events issued from the trace"),
    MetricSpec("completed", unit="count", direction="higher",
               description="post-warm-up bundle flows that completed"),
    MetricSpec("completion_fraction", unit="fraction", direction="higher",
               description="completed bundle flows / issued bundle flows"),
    MetricSpec("median_slowdown", unit="ratio", direction="lower", nullable=True,
               description="median FCT slowdown of bundle flows"),
    # Same columns, same meaning as the §7.1 family's.
    *(SCENARIO_METRICS.spec_for(name) for name in (
        "p99_slowdown", "small_median_slowdown", "large_median_slowdown",
        "bottleneck_drops", "sendbox_drops",
    )),
)

_TRACE_BODY = "repro.experiments.trace_replay:run_trace_replay"

#: A ``trace`` default is written out in full — every knob its generator
#: declares, as ``coerce_trace_spec`` would fill them in — because the
#: catalogue may not import :mod:`repro.traffic` to do the filling
#: (``tests/test_experiments_catalog.py`` checks that each default already
#: equals its own coercion).  These are the knobs the flow generators share.
_BUNDLE_FLOWS = {
    "group": "bundle",
    "num_dst": 1,
    "sizes": {"dist": "internet_core"},
    "traffic_class": 0,
}

_builtin(
    "trace_diurnal_load",
    _TRACE_BODY,
    figure="beyond the paper (workload family)",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Diurnal (Markov-modulated) request load replayed through the site",
    params=TRACE_REPLAY_PARAMS.with_defaults(
        trace={"generator": "diurnal", "params": {
            # ~7.5 Mbit/s mean offered load against the 12 Mbit/s default
            # bottleneck; the 1.7x peak phase briefly exceeds capacity.
            "base_rate_per_s": 300.0,
            "period_s": 4.0,
            "profile": [0.4, 1.0, 1.7, 1.0],
            "horizon_s": 8.0,
            "num_src": 4,
            **_BUNDLE_FLOWS,
        }},
    ),
    metrics=TRACE_REPLAY_METRICS,
)

_builtin(
    "trace_flash_crowd",
    _TRACE_BODY,
    figure="beyond the paper (workload family)",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Flash-crowd arrival ramp: baseline to a multiple of the baseline and back",
    params=TRACE_REPLAY_PARAMS.with_defaults(
        trace={"generator": "flash_crowd", "params": {
            # ~3.7 Mbit/s baseline; the 4x crowd peaks at ~125% of the
            # 12 Mbit/s default bottleneck for the hold interval.
            "base_rate_per_s": 150.0,
            "peak_multiplier": 4.0,
            "start_s": 2.0,
            "ramp_s": 1.0,
            "hold_s": 2.0,
            "decay_s": 1.0,
            "horizon_s": 8.0,
            "num_src": 4,
            **_BUNDLE_FLOWS,
        }},
    ),
    metrics=TRACE_REPLAY_METRICS,
)

_builtin(
    "trace_bursty_cross",
    _TRACE_BODY,
    figure="beyond the paper (workload family)",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Request workload with adversarial on/off paced cross-traffic bursts",
    params=TRACE_REPLAY_PARAMS.with_defaults(
        trace={"generator": "mix", "params": {"components": [
            {"generator": "requests", "params": {
                "offered_load_bps": 7_000_000.0,
                "horizon_s": 8.0,
                "num_src": 4,
                "max_flows": None,
                **_BUNDLE_FLOWS,
            }},
            {"generator": "onoff", "params": {
                "rate_bps": 5_000_000.0,
                "mean_on_s": 0.4,
                "mean_off_s": 0.6,
                "horizon_s": 8.0,
                "group": "cross",
                "num_src": 1,
                "num_dst": 1,
                "traffic_class": 0,
            }},
        ]}},
        num_cross_pairs=1,
    ),
    metrics=TRACE_REPLAY_METRICS,
)
