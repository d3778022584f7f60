"""The paper's claims as one table, judged over seeds ``1..N``.

The evaluation makes *comparative* statements — Bundler with SFQ lowers the
median slowdown 28 % (Figure 9), both competing bundles improve (Figure 13).
Each is written down here once, as data: :data:`GRIDS` holds the cells every
figure is judged on (plain :class:`~repro.runner.spec.SweepSpec` dicts,
without seeds) and :data:`CLAIMS` one :class:`Claim` per statement — a
metric of one cell, optionally divided by a metric of another cell of the
same seed, must lie in an inclusive band.

:func:`evaluate` judges the results of :func:`sweep_specs`: **contradicts**
(the mean over seeds is outside the band), **weak** (the mean is inside,
its 95 % confidence interval is not) or **reproduces** (the interval is
inside; a single sample has no interval and is judged as a point).
``docs/fidelity.md`` is :func:`render_markdown` of those rows and
``benchmarks/test_claims.py`` pins every row of it, so a *contradicts* row
is a published result and a row that moves fails the change that moved it.

The paper's full text is not in the repository; every band below comes from
a number or sentence the repository already quoted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import inf
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.metrics.reporting import markdown_row, markdown_table
from repro.runner.aggregate import MetricAggregate, numeric
from repro.runner.engine import resolve_cell
from repro.runner.registry import load_builtin_scenarios
from repro.runner.result import RunResult
from repro.runner.spec import RunSpec, SweepSpec
from repro.util.canonical import canonical_json

#: Tier-1 judges every claim over seeds ``1..N``; the nightly CI job passes
#: ``fidelity --seeds 10``.
N = 3

#: A metric name — or a tuple of names, summed — and the parameter values
#: that select exactly one cell of the claim's figure.
Side = Tuple[Union[str, Tuple[str, ...]], Mapping[str, Any]]


@dataclass(frozen=True)
class Claim:
    """One statement of the paper: ``value`` (``/ over``) lies in ``expect``."""

    id: str
    #: Key into :data:`GRIDS`.
    figure: str
    #: The sentence or number being checked, with where the paper says it.
    source: str
    value: Side
    #: Inclusive ``(lo, hi)``; ``±inf`` for a one-sided band, ``(1, 1)`` /
    #: ``(0, 0)`` for a boolean metric that must hold / must not.
    expect: Tuple[float, float]
    #: Makes the statistic the per-seed ratio ``value / over``.
    over: Optional[Side] = None

    @property
    def statistic(self) -> str:
        text = _side_text(self.value)
        return text if self.over is None else f"{text} / {_side_text(self.over)}"

    @property
    def band(self) -> str:
        lo, hi = self.expect
        if lo == hi:
            return f"= {lo:g}"
        if lo == -inf:
            return f"≤ {hi:g}"
        if hi == inf:
            return f"≥ {lo:g}"
        return f"[{lo:g}, {hi:g}]"


def _metric_names(side: Side) -> Tuple[str, ...]:
    metric, _ = side
    return (metric,) if isinstance(metric, str) else tuple(metric)


def _show(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_show(v) for v in value) + "]"
    return str(value)


def _side_text(side: Side) -> str:
    where = ", ".join(f"{key}={_show(value)}" for key, value in side[1].items())
    return " + ".join(f"`{name}`" for name in _metric_names(side)) + (f" [{where}]" if where else "")


_SPLITS = {"1to1": [0.5, 0.5], "2to1": [2 / 3, 1 / 3]}

#: figure -> the sweep(s) holding its cells: each scenario's registered
#: defaults (24 Mbit/s, 50 ms — scaled down from the paper's 96 Mbit/s,
#: minute-long runs) except where stated, so the table is minutes of work.
GRIDS: Dict[str, Tuple[Dict[str, Any], ...]] = {
    "ablation_epoch": (
        {"scenario": "ablation_epoch_sampling", "grid": {"epoch_rtt_fraction": [0.25, 1.0]}},
    ),
    "ablation_pi": (
        {"scenario": "ablation_pi_gains", "zip": {"alpha": [10.0, 1.0], "beta": [10.0, 1.0]}},
    ),
    "fig02": (
        {"scenario": "fig02_queue_shift", "base": {"duration_s": 15.0},
         "grid": {"with_bundler": [False, True]}},
    ),
    "fig05_fig06": (
        {"scenario": "fig05_fig06_estimates", "base": {"duration_s": 12.0, "num_flows": 3},
         "grid": {"bottleneck_mbps": [12.0, 24.0], "rtt_ms": [20.0, 50.0]}},
    ),
    "fig07": (
        {"scenario": "fig07_multipath", "base": {"duration_s": 10.0},
         "grid": {"num_paths": [1, 2, 4]}},
    ),
    "fig09": (
        {"scenario": "fig09_slowdown",
         "grid": {"mode": ["status_quo", "bundler_sfq", "bundler_fifo", "in_network_sfq"]}},
    ),
    "fig10": (
        {"scenario": "fig10_phased_cross_traffic", "base": {"phase_duration_s": 12.0}},
    ),
    "fig11": (
        {"scenario": "fig11_short_cross_traffic", "base": {"duration_s": 12.0},
         "grid": {"mode": ["status_quo", "bundler"],
                  "cross_load_fraction": [0.125, 0.25, 0.375]}},
    ),
    "fig12": (
        # The first 10 s are excluded so Nimbus's elastic-cross-traffic
        # detection window does not drag down the steady-state mean.
        {"scenario": "fig12_elastic_cross", "base": {"duration_s": 40.0, "warmup_s": 10.0},
         "grid": {"mode": ["status_quo", "bundler"], "competing_flows": [2, 5]}},
    ),
    "fig13": (
        {"scenario": "fig13_competing_bundles", "base": {"duration_s": 12.0},
         "grid": {"load_split": list(_SPLITS.values()), "with_bundler": [True, False]}},
    ),
    "fig14": (
        {"scenario": "fig14_sendbox_cc", "base": {"mode": "status_quo"}},
        {"scenario": "fig14_sendbox_cc", "base": {"mode": "bundler_sfq"},
         "grid": {"sendbox_cc": ["copa", "basic_delay", "bbr"]}},
    ),
    "fig15": (
        {"scenario": "fig15_proxy", "grid": {"mode": ["bundler_sfq", "proxy"]}},
    ),
    "fig16": (
        # Two representative regions of the five-region study.
        {"scenario": "fig16_internet_paths", "base": {"duration_s": 15.0, "num_bulk_flows": 4},
         "grid": {"region": ["south_carolina", "frankfurt"],
                  "configuration": ["base", "status_quo", "bundler"]}},
    ),
    "sec72": (
        {"scenario": "sec72_fq_codel", "grid": {"mode": ["status_quo", "bundler_fq_codel"]}},
        {"scenario": "sec72_priority", "base": {"mode": "bundler_prio"}},
    ),
    "sec74": (
        {"scenario": "sec74_endhost_cc",
         "grid": {"endhost_cc": ["cubic", "reno", "bbr"], "mode": ["status_quo", "bundler_sfq"]}},
    ),
}


def _ratio(id: str, figure: str, source: str, metric, pick, over_pick, expect, *,
           over_metric=None) -> Claim:
    """``metric[pick] / (over_metric or metric)[over_pick]`` in ``expect``."""
    return Claim(id, figure, source, (metric, pick), expect,
                 over=(over_metric or metric, over_pick))


_MEDIAN = "median_slowdown"
_FIG05 = "80% of RTT estimates are within 1.2 ms of the actual value (Fig. 5, §7.1)"
_FIG06 = "80% of receive-rate estimates are within 4 Mbit/s (Fig. 6, §7.1)"
_FIG07 = ("out-of-order epoch measurements: <= 0.4% on single paths, >= 20% with 2-32 "
          "paths; a 5% threshold separates them (Fig. 7, §7.6)")
_FIG09 = "Bundler+SFQ: 28% lower median slowdown, 1.76 -> 1.26 (Fig. 9, §7.2)"
_FIG10 = "pass-through only while the buffer-filling flow is active (Fig. 10, §7.3)"
_FIG11 = ("Status Quo FCTs grow with cross load; Bundler keeps short-flow FCTs lower "
          "(Fig. 11, §7.3)")
_FIG12 = ("bundled flows lose 12-22% of throughput versus the Status Quo while holding a "
          "small probing queue; they must not collapse (Fig. 12, §7.3)")
_FIG13 = "both bundles improve median FCT versus the baseline in both splits (Fig. 13, §7.4)"
_FIG14 = ("Copa and BasicDelay provide similar benefits over Status Quo; BBR is slightly "
          "worse than Status Quo because it keeps a larger in-network queue (Fig. 14, §7.2)")
_FIG15 = ("terminating TCP adds nothing for short flows but speeds up medium/long flows by "
          "skipping window growth (Fig. 15, §7.5)")
_FIG16 = "57% lower median probe RTT than Status Quo on real Internet paths (Fig. 16, §8)"
_SEC74 = ("Bundler achieves 58% lower median FCT with BBR endhosts; benefits persist across "
          "endhost congestion control (§7.4)")

CLAIMS: Tuple[Claim, ...] = (
    # -- design-choice ablations (no numbered figure) ------------------------
    _ratio("ablation_epoch.quarter_rtt_not_worse", "ablation_epoch",
           "quarter-RTT epoch spacing keeps measurements fresh at low overhead (§4.5)",
           _MEDIAN, {"epoch_rtt_fraction": 0.25}, {"epoch_rtt_fraction": 1.0}, (-inf, 1.5)),
    *(Claim(f"ablation_pi.settles.gain{gain:g}", "ablation_pi",
            "the pass-through PI controller reaches its 10 ms target queue (§5)",
            ("settled", {"alpha": gain}), (1, 1))
      for gain in (10.0, 1.0)),
    _ratio("ablation_pi.paper_gains_settle_faster", "ablation_pi",
           "alpha = beta = 10 reach the target queue much faster without oscillating (§5)",
           "settle_time_s", {"alpha": 10.0}, {"alpha": 1.0}, (-inf, 1)),
    # -- Figure 2 ------------------------------------------------------------
    _ratio("fig02.status_quo_queue_in_network", "fig02",
           "the queue builds at the bottleneck without Bundler (Fig. 2)",
           "mean_sendbox_delay_ms", {"with_bundler": False}, {"with_bundler": False},
           (-inf, 1), over_metric="mean_bottleneck_delay_ms"),
    _ratio("fig02.bundler_queue_at_sendbox", "fig02",
           "the queue builds at the sendbox with Bundler (Fig. 2)",
           "mean_bottleneck_delay_ms", {"with_bundler": True}, {"with_bundler": True},
           (-inf, 1), over_metric="mean_sendbox_delay_ms"),
    _ratio("fig02.bottleneck_queue_halved", "fig02",
           "Bundler shifts the queue from the bottleneck to the sendbox (Fig. 2)",
           "mean_bottleneck_delay_ms", {"with_bundler": True}, {"with_bundler": False},
           (-inf, 0.5)),
    # -- Figures 5-6 ---------------------------------------------------------
    *(Claim(f"{fig}.{rate:g}mbps_{rtt:g}ms", "fig05_fig06", source,
            (metric, {"bottleneck_mbps": rate, "rtt_ms": rtt}), (-inf, bound))
      for fig, source, metric, bound in (
          ("fig05", _FIG05, "rtt_error_p80_ms", 1.2),
          ("fig06", _FIG06, "rate_error_p80_mbps", 4.0))
      for rate in (12.0, 24.0) for rtt in (20.0, 50.0)),
    # -- Figure 7 / §7.6 -----------------------------------------------------
    Claim("fig07.single_path_in_order", "fig07", _FIG07,
          ("out_of_order_fraction", {"num_paths": 1}), (-inf, 0.004)),
    Claim("fig07.single_path_not_flagged", "fig07", _FIG07,
          ("detector_triggered", {"num_paths": 1}), (0, 0)),
    *(claim for paths in (2, 4) for claim in (
        Claim(f"fig07.{paths}_paths_out_of_order", "fig07", _FIG07,
              ("out_of_order_fraction", {"num_paths": paths}), (0.2, inf)),
        Claim(f"fig07.{paths}_paths_flagged", "fig07", _FIG07,
              ("detector_triggered", {"num_paths": paths}), (1, 1)))),
    # -- Figure 9 ------------------------------------------------------------
    _ratio("fig09.sfq_median", "fig09", _FIG09,
           _MEDIAN, {"mode": "bundler_sfq"}, {"mode": "status_quo"}, (-inf, 1)),
    _ratio("fig09.sfq_p99", "fig09", "99th-percentile slowdown 79.4 -> 41.4 (Fig. 9, §7.2)",
           "p99_slowdown", {"mode": "bundler_sfq"}, {"mode": "status_quo"}, (-inf, 1)),
    _ratio("fig09.in_network_is_the_bound", "fig09",
           "In-Network fair queueing is the (undeployable) upper bound: a further 15% "
           "lower median (Fig. 9, §7.2)",
           _MEDIAN, {"mode": "in_network_sfq"}, {"mode": "bundler_sfq"}, (-inf, 1.05)),
    _ratio("fig09.fifo_gains_nothing_over_sfq", "fig09",
           "Bundler with FIFO gains nothing over Bundler with SFQ (Fig. 9, §7.2)",
           _MEDIAN, {"mode": "bundler_fifo"}, {"mode": "bundler_sfq"}, (1, inf)),
    _ratio("fig09.fifo_matches_status_quo", "fig09",
           "Bundler+FIFO is about the Status Quo: moving the queue alone changes nothing "
           "(Fig. 9, §7.2)",
           _MEDIAN, {"mode": "bundler_fifo"}, {"mode": "status_quo"}, (0.8, 1.25)),
    # -- Figure 10 -----------------------------------------------------------
    _ratio("fig10.queue_rises_with_buffer_filler", "fig10",
           "with buffer-filling cross traffic Bundler reverts to (slightly worse than) "
           "Status Quo: in-network queueing rises (Fig. 10, §7.3)",
           "phase0_queue_delay_ms", {}, {}, (-inf, 1), over_metric="phase1_queue_delay_ms"),
    _ratio("fig10.slowdown_rises_with_buffer_filler", "fig10",
           "with buffer-filling cross traffic Bundler reverts to (slightly worse than) "
           "Status Quo: slowdowns rise (Fig. 10, §7.3)",
           "phase0_median_slowdown", {}, {}, (-inf, 1), over_metric="phase1_median_slowdown"),
    # Lower edge: the detector must spend a fifth of the 12 s phase letting
    # traffic pass.  Upper edge: that phase plus 2 s of detection slack.
    Claim("fig10.pass_through_time", "fig10", _FIG10, ("pass_through_seconds", {}), (2.4, 14)),
    _ratio("fig10.recovers_after_buffer_filler", "fig10", _FIG10,
           "phase2_median_slowdown", {}, {}, (-inf, 0.5), over_metric="phase1_median_slowdown"),
    # -- Figure 11 -----------------------------------------------------------
    _ratio("fig11.status_quo_degrades_with_load", "fig11", _FIG11,
           _MEDIAN, {"mode": "status_quo", "cross_load_fraction": 0.375},
           {"mode": "status_quo", "cross_load_fraction": 0.125}, (0.9, inf)),
    *(_ratio(f"fig11.bundler_wins.cross{load:g}", "fig11", _FIG11,
             _MEDIAN, {"mode": "bundler", "cross_load_fraction": load},
             {"mode": "status_quo", "cross_load_fraction": load}, (-inf, 1))
      for load in (0.125, 0.25, 0.375)),
    # -- Figure 12 -----------------------------------------------------------
    *(claim for flows in (2, 5) for claim in (
        _ratio(f"fig12.loses_12_to_22_percent.{flows}_flows", "fig12", _FIG12,
               "bundle_throughput_mbps", {"mode": "bundler", "competing_flows": flows},
               {"mode": "status_quo", "competing_flows": flows}, (0.78, 0.88)),
        Claim(f"fig12.no_collapse.{flows}_flows", "fig12", _FIG12,
              ("throughput_vs_fair_share", {"mode": "bundler", "competing_flows": flows}),
              (0.4, inf)))),
    # 0.7 of the 24 Mbit/s bottleneck.
    *(Claim(f"fig12.link_stays_busy.{mode}.{flows}_flows", "fig12",
            "the link stays busy overall in both configurations (Fig. 12, §7.3)",
            (("bundle_throughput_mbps", "cross_throughput_mbps"),
             {"mode": mode, "competing_flows": flows}), (16.8, inf))
      for mode in ("status_quo", "bundler") for flows in (2, 5)),
    # -- Figure 13 -----------------------------------------------------------
    *(claim for label, split in _SPLITS.items() for claim in (
        *(_ratio(f"fig13.bundle{i}_improves.split_{label}", "fig13", _FIG13,
                 f"bundle{i}_median_slowdown", {"load_split": split, "with_bundler": True},
                 {"load_split": split, "with_bundler": False}, (-inf, 1))
          for i in (0, 1)),
        _ratio(f"fig13.shared_queue_smaller.split_{label}", "fig13",
               "with Bundler the shared in-network queue stays smaller (Fig. 13, §7.4)",
               "bottleneck_mean_queue_delay_ms", {"load_split": split, "with_bundler": True},
               {"load_split": split, "with_bundler": False}, (-inf, 1)))),
    # -- Figure 14 -----------------------------------------------------------
    *(_ratio(f"fig14.{cc}_beats_status_quo", "fig14", _FIG14,
             _MEDIAN, {"sendbox_cc": cc}, {"mode": "status_quo"}, (-inf, 1))
      for cc in ("copa", "basic_delay")),
    _ratio("fig14.basic_delay_similar_to_copa", "fig14", _FIG14,
           _MEDIAN, {"sendbox_cc": "basic_delay"}, {"sendbox_cc": "copa"}, (-inf, 2.5)),
    _ratio("fig14.bbr_not_the_best", "fig14", _FIG14,
           _MEDIAN, {"sendbox_cc": "bbr"}, {"sendbox_cc": "copa"}, (0.9, inf)),
    _ratio("fig14.bbr_worse_than_status_quo", "fig14", _FIG14,
           _MEDIAN, {"sendbox_cc": "bbr"}, {"mode": "status_quo"}, (1, inf)),
    # -- Figure 15 -----------------------------------------------------------
    _ratio("fig15.proxy_adds_nothing_for_short_flows", "fig15", _FIG15,
           "small_median_slowdown", {"mode": "proxy"}, {"mode": "bundler_sfq"}, (-inf, 1.5)),
    _ratio("fig15.proxy_helps_medium_flows", "fig15", _FIG15,
           "mid_median_slowdown", {"mode": "proxy"}, {"mode": "bundler_sfq"}, (-inf, 1.1)),
    # -- Figure 16 -----------------------------------------------------------
    *(claim for region in ("south_carolina", "frankfurt") for claim in (
        _ratio(f"fig16.bulk_inflates_status_quo.{region}", "fig16",
               "bulk traffic inflates Status Quo probe latencies well above the base RTT "
               "(Fig. 16, §8)",
               "median_probe_rtt_ms", {"region": region, "configuration": "status_quo"},
               {"region": region, "configuration": "base"}, (1.3, inf)),
        # Today's ">20% lower"; the paper's 57% would read 0.43.
        _ratio(f"fig16.bundler_lowers_probe_rtt.{region}", "fig16", _FIG16,
               "median_probe_rtt_ms", {"region": region, "configuration": "bundler"},
               {"region": region, "configuration": "status_quo"}, (-inf, 0.8)))),
    # -- §7.2 (text) ---------------------------------------------------------
    _ratio("sec72.fq_codel_short_flows", "sec72",
           "97% lower median end-to-end RTT with FQ-CoDel at the sendbox (§7.2)",
           "short_median_slowdown", {"mode": "bundler_fq_codel"}, {"mode": "status_quo"},
           (-inf, 1)),
    _ratio("sec72.priority_favors_high_class", "sec72",
           "65% lower median FCT for the favored class under strict priority (§7.2)",
           "high_class_median_slowdown", {"mode": "bundler_prio"}, {"mode": "bundler_prio"},
           (-inf, 1), over_metric="low_class_median_slowdown"),
    # -- §7.4 (table) --------------------------------------------------------
    *(_ratio(f"sec74.bundler_wins.{cc}", "sec74", _SEC74,
             _MEDIAN, {"endhost_cc": cc, "mode": "bundler_sfq"},
             {"endhost_cc": cc, "mode": "status_quo"}, (-inf, 1))
      for cc in ("cubic", "reno", "bbr")),
)


# ---------------------------------------------------------------------------
# Cells.

_ABSENT = object()


def pick_cell(figure: str, pick: Mapping[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """``(scenario, overrides)`` of the one cell of ``figure`` that ``pick`` selects."""
    matches = [
        (grid["scenario"], cell)
        for grid in GRIDS.get(figure, ())
        for cell in SweepSpec.from_dict(grid).cells()
        if all(cell.get(key, _ABSENT) == value for key, value in pick.items())
    ]
    if len(matches) != 1:
        raise ValueError(
            f"pick {dict(pick)} matches {len(matches)} cells of figure {figure!r}, "
            "expected exactly one"
        )
    return matches[0]


def _naming(claim: Claim, exc: Exception) -> ValueError:
    return ValueError(f"claim {claim.id!r}: {exc.args[0] if exc.args else exc}")


def sweep_specs(n_seeds: int = N) -> List[RunSpec]:
    """Every cell of every grid at seeds ``1..n_seeds``, each distinct run once.

    Seed-insensitive scenarios collapse to one run per cell, as in the engine.
    """
    if n_seeds < 1:
        raise ValueError("fidelity needs at least one seed")
    unique: Dict[str, RunSpec] = {}
    for grids in GRIDS.values():
        for grid in grids:
            sweep = SweepSpec.from_dict({**grid, "seeds": range(1, n_seeds + 1)})
            for spec in sweep.expand():
                spec, _, key = resolve_cell(spec)
                unique.setdefault(key, spec)
    return list(unique.values())


def validate(claims: Sequence[Claim] = CLAIMS) -> None:
    """Check the table against the scenario registry; ``ValueError`` names the row.

    Every figure's cells resolve through their scenario's ``ParamSpace``,
    every pick selects exactly one cell, every metric is governed by the
    scenario's ``MetricSchema``, every band has ``lo <= hi``, ids are unique
    and every registered paper scenario is judged by at least one row.
    """
    registry = load_builtin_scenarios()
    seen, judged = set(), set()
    for claim in claims:
        try:
            if claim.id in seen:
                raise ValueError("duplicate id")
            seen.add(claim.id)
            lo, hi = claim.expect
            if not lo <= hi:
                raise ValueError(f"empty band {claim.expect}")
            for grid in GRIDS.get(claim.figure, ()):
                scenario = registry.get(grid["scenario"])
                for cell in SweepSpec.from_dict(grid).cells():
                    scenario.resolve_params(cell)
            for side in filter(None, (claim.value, claim.over)):
                name, _ = pick_cell(claim.figure, side[1])
                judged.add(name)
                schema = registry.get(name).metrics
                for metric in _metric_names(side):
                    if schema is not None and schema.spec_for(metric) is None:
                        raise ValueError(f"scenario {name!r} declares no metric {metric!r}")
        except (KeyError, ValueError) as exc:
            raise _naming(claim, exc) from None
    unjudged = sorted(
        name for name in registry.names()
        if name.startswith(("fig", "sec", "ablation_")) and name not in judged
    )
    if unjudged:
        raise ValueError(f"no claim judges scenario(s) {unjudged}")


# ---------------------------------------------------------------------------
# Judging.

@dataclass(frozen=True)
class Row:
    """One judged claim."""

    claim: Claim
    #: Mean / 95 % interval of the statistic over the seeds that yield it.
    aggregate: MetricAggregate
    verdict: str

    @property
    def measured(self) -> str:
        return f"{self.aggregate.describe()} (n={self.aggregate.n})"


def _judge(aggregate: MetricAggregate, expect: Tuple[float, float]) -> str:
    lo, hi = expect
    if not lo <= aggregate.mean <= hi:
        return "contradicts"
    half = aggregate.ci95 or 0.0
    if lo <= aggregate.mean - half and aggregate.mean + half <= hi:
        return "reproduces"
    return "weak"


def evaluate(results: Iterable[RunResult], claims: Sequence[Claim] = CLAIMS) -> List[Row]:
    """Judge ``claims`` on ``results`` (the outcome of :func:`sweep_specs`).

    A ratio pairs numerator and denominator by seed; a seed whose numerator
    or denominator is missing, ``None`` (e.g. an empty size bucket) or a
    zero denominator is dropped from both.  A claim left with no sample is
    an error, never a pass.
    """
    registry = load_builtin_scenarios()
    runs: Dict[Tuple[str, str], Dict[int, RunResult]] = {}
    for result in results:
        runs.setdefault((result.scenario, canonical_json(result.params)), {})[result.seed] = result

    def by_seed(claim: Claim, side: Side) -> Dict[int, Optional[float]]:
        scenario, overrides = pick_cell(claim.figure, side[1])
        params = registry.get(scenario).resolve_params(overrides)
        samples: Dict[int, Optional[float]] = {}
        for seed, result in runs.get((scenario, canonical_json(params)), {}).items():
            values = [numeric(result.metrics.get(name)) for name in _metric_names(side)]
            samples[seed] = None if None in values else sum(values)
        return samples

    rows: List[Row] = []
    for claim in claims:
        try:
            value = by_seed(claim, claim.value)
            if claim.over is None:
                samples = [value[seed] for seed in sorted(value) if value[seed] is not None]
            else:
                over = by_seed(claim, claim.over)
                samples = [
                    value[seed] / over[seed]
                    for seed in sorted(value.keys() & over.keys())
                    if value[seed] is not None and over[seed]
                ]
            if not samples:
                raise ValueError(
                    f"no seed yields a sample of {claim.statistic} (cell not in the "
                    "results, metric None, or zero denominator)"
                )
        except (KeyError, ValueError) as exc:
            raise _naming(claim, exc) from None
        aggregate = MetricAggregate.from_samples(samples)
        rows.append(Row(claim, aggregate, _judge(aggregate, claim.expect)))
    return rows


# ---------------------------------------------------------------------------
# Rendering.

_COLUMNS = ("id", "source", "statistic", "band", "measured", "verdict")


def _cells(row: Row) -> Tuple[str, ...]:
    verdict = f"**{row.verdict}**" if row.verdict == "contradicts" else row.verdict
    claim = row.claim
    return (f"`{claim.id}`", claim.source, claim.statistic, claim.band, row.measured, verdict)


def render_row(row: Row) -> str:
    """The row's line of ``docs/fidelity.md`` — what ``benchmarks/test_claims.py`` pins."""
    return markdown_row(_cells(row))


def tally(rows: Sequence[Row]) -> str:
    counts = Counter(row.verdict for row in rows)
    return (f"{len(rows)} claims: {counts['reproduces']} reproduce, {counts['weak']} weak, "
            f"{counts['contradicts']} contradict")


def render_markdown(rows: Sequence[Row], n_seeds: int = N) -> str:
    """``docs/fidelity.md``: what ``repro-runner fidelity --format md`` prints."""
    registry = load_builtin_scenarios()
    seeds_flag = "" if n_seeds == N else f" --seeds {n_seeds}"
    lines = [
        "# Fidelity ledger: the paper's claims, judged over seeds",
        "",
        "<!-- Auto-generated; do not edit by hand.  Regenerate with:",
        f"     PYTHONPATH=src python -m repro.runner fidelity{seeds_flag} --format md"
        " > docs/fidelity.md -->",
        "",
        "One row per statement of the paper's evaluation that this repository checks",
        "(`repro.experiments.claims.CLAIMS`): a metric of one scenario cell — divided,",
        "for a comparison, by a metric of another cell *of the same seed* — must lie in",
        f"the band.  The statistic is sampled once per seed over seeds 1..{n_seeds} (once",
        "in all for scenarios without workload randomness) and judged on its mean and",
        "95% Student-t confidence interval:",
        "",
        "- **reproduces** — the whole interval lies inside the band (a single sample",
        "  has no interval and is judged as a point);",
        "- **weak** — the mean lies inside the band, the interval does not;",
        "- **contradicts** — the mean lies outside the band.  This fails nothing: it is",
        "  a published gap between the scaled-down model and the paper (ROADMAP item 2).",
        "",
        "`benchmarks/test_claims.py` pins every row of this page: a change that moves a",
        "measured value or a verdict fails until the page is regenerated.",
        "",
        f"**{tally(rows)}** (seeds 1..{n_seeds}).",
    ]
    for figure, grids in GRIDS.items():
        scenarios = dict.fromkeys(grid["scenario"] for grid in grids)
        lines.extend([
            "",
            f"## {figure} — {registry.get(next(iter(scenarios))).figure} — "
            + ", ".join(f"`{name}`" for name in scenarios),
            "",
            *markdown_table(_COLUMNS, [_cells(row) for row in rows if row.claim.figure == figure]),
        ])
    return "\n".join(lines) + "\n"
