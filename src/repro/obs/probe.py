"""In-simulation probes: deterministic time-series sampling inside a run.

PR 6's telemetry observes runs from the *outside* — whole-run counters,
wall time, events/sec.  The paper's evidence is time-series behavior
(queue shift at the bundler, rates converging over epochs, phased cross
traffic), so this module watches component state evolve *inside* a run:

* a :class:`ProbeSet` per simulator registers one sampler on the
  simulator's drift-free ``every()`` tick grid per :meth:`Simulator.run`
  call (bounded by the run's ``until``, so probes never keep a drained
  queue alive);
* each tick reads — never mutates — the state components already keep:
  per-link backlog/utilization/drop counters, per-qdisc backlog via the
  O(1) ``backlog_bytes`` contract, per-flow cwnd and delivery rate,
  sendbox rate and epoch size;
* exact-instant hooks (``Link.drop_probe``, ``Sendbox.boundary_probe``)
  record drops and epoch boundaries at the moment they happen, between
  ticks;
* samples land in bounded rings (:class:`SeriesRing`) with
  stride-doubling decimation, and every *pre-decimation* sample also feeds
  a mergeable :class:`~repro.obs.sketch.QuantileSketch` — so million-event
  runs stay flat in RSS while p50/p99 stay exact to the sketch's bound.

Determinism and parity: probe ticks are ordinary heap events with their
own ``seq`` numbers, and the monotone tie-break means inserting them never
reorders the simulation's own events; every callback is a pure read.
Result payloads and cache keys are therefore byte-identical with probes
on or off — ``tests/test_probes.py`` pins this the same way
``tests/test_obs_parity.py`` pins the PR 6 layer.  Probe data rides the
telemetry *envelope* only (``telemetry["probes"]``), and only when asked
for: ``REPRO_PROBES=1`` (on top of the ``REPRO_OBS`` kill-switch) records
them for every run, ``repro-runner trace-export`` for one cell.  The series
are a pure function of the ``(scenario, version, params, seed)`` a record
already holds, so a default record leaves them out and stays ~400x smaller.

Callbacks registered via :meth:`ProbeSet.register_probe` must be
module-level functions or bound methods — no lambdas or local closures
(lint rule RPR012, enforced at registration time too).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.sketch import QuantileSketch
from repro.util.env import env_flag

#: Environment switch for the probe layer (off unless set, like
#: REPRO_SANITIZE; probes additionally require REPRO_OBS to be enabled,
#: since their output rides the telemetry envelope).
PROBES_ENV = "REPRO_PROBES"

#: Layout version of ``telemetry["probes"]``.
PROBE_FORMAT = 1

#: Default sampling interval: 50 ms — five control intervals, fine enough
#: to render the paper's queue/rate dynamics while keeping probe events
#: well under 1% of a typical run's event count.
DEFAULT_INTERVAL_S = 0.05

#: Hard cap on retained points per series; reaching it halves the retained
#: points and doubles the sampling stride.
DEFAULT_MAX_POINTS = 512

#: Hard cap on recorded instants per event stream (first N kept; the total
#: seen is always recorded).
DEFAULT_MAX_EVENTS = 512

#: Caps on discovered components, so a million-flow run cannot mint a
#: million series.  Truncation is counted, never silent.
MAX_LINKS = 16
MAX_FLOWS = 32
MAX_BUNDLES = 8

#: Relative-accuracy target for the per-series sketches.
SERIES_SKETCH_ALPHA = 0.05


def probes_enabled() -> bool:
    """Whether in-simulation probe series are recorded (default: no)."""
    return env_flag(PROBES_ENV, False)


def _is_probe_callback(fn: Callable[..., Any]) -> bool:
    """Module-level function or bound method — the RPR012 contract."""
    name = getattr(fn, "__name__", "")
    qualname = getattr(fn, "__qualname__", name)
    if name == "<lambda>" or "<locals>" in qualname:
        return False
    return True


class SeriesRing:
    """A bounded time series with stride-doubling decimation.

    Keeps sample ``i`` iff ``i % stride == 0``.  When the retained buffer
    reaches ``max_points``, every other retained point is dropped and the
    stride doubles — the invariant ``kept = {i : i % stride == 0}`` is
    preserved exactly, so the retained grid is always uniform and the
    same input stream always decimates identically (deterministic, and
    RSS-bounded however long the run).

    Every sample — including ones decimation skips — feeds the series'
    :class:`~repro.obs.sketch.QuantileSketch`, so quantile summaries see
    the full-resolution stream.
    """

    __slots__ = ("name", "unit", "kind", "max_points", "stride", "seen",
                 "t", "v", "sketch")

    def __init__(
        self,
        name: str,
        *,
        unit: str = "",
        kind: str = "gauge",
        max_points: int = DEFAULT_MAX_POINTS,
    ) -> None:
        if max_points < 2 or max_points % 2:
            raise ValueError("max_points must be an even number >= 2")
        self.name = name
        self.unit = unit
        self.kind = kind
        self.max_points = max_points
        self.stride = 1
        self.seen = 0
        self.t: List[float] = []
        self.v: List[float] = []
        self.sketch = QuantileSketch(alpha=SERIES_SKETCH_ALPHA)

    def add(self, t: float, value: float) -> None:
        index = self.seen
        self.seen = index + 1
        self.sketch.add(value)
        if index % self.stride:
            return
        self.t.append(t)
        self.v.append(value)
        if len(self.t) >= self.max_points:
            self.t = self.t[::2]
            self.v = self.v[::2]
            self.stride *= 2

    def snapshot(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "unit": self.unit,
            "kind": self.kind,
            "stride": self.stride,
            "seen": self.seen,
            "t": [round(t, 9) for t in self.t],
            "v": list(self.v),
            "quantiles": self.sketch.quantiles(),
            "sketch": self.sketch.to_dict(),
        }


class EventRing:
    """A bounded stream of instants (drop times, epoch boundaries).

    Keeps the first ``max_events`` instants and counts the rest — early
    transients are where the paper's phase plots look, and "first N plus
    the total" is deterministic with zero bookkeeping.
    """

    __slots__ = ("name", "max_events", "seen", "t")

    def __init__(self, name: str, *, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.name = name
        self.max_events = max_events
        self.seen = 0
        self.t: List[float] = []

    def add(self, t: float) -> None:
        self.seen += 1
        if len(self.t) < self.max_events:
            self.t.append(t)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seen": self.seen,
            "t": [round(t, 9) for t in self.t],
        }


class ProbeSet:
    """All probes attached to one simulator.

    Constructed by the telemetry collector when a simulator registers (and
    probes are enabled); the simulator forwards ``observe_link`` /
    ``observe_flow`` / ``observe_bundle`` registrations here and calls
    :meth:`on_run` at the top of every bounded :meth:`Simulator.run`.
    """

    def __init__(
        self,
        sim,
        *,
        interval_s: float = DEFAULT_INTERVAL_S,
        max_points: int = DEFAULT_MAX_POINTS,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.sim = sim
        self.interval_s = interval_s
        self.max_points = max_points
        self.series: Dict[str, SeriesRing] = {}
        self.events: Dict[str, EventRing] = {}
        self._links: List[Any] = []
        self._flows: List[Any] = []
        self._bundles: List[Any] = []
        self._flow_last_una: Dict[int, Tuple[float, int]] = {}
        self._link_last_sent: Dict[int, Tuple[float, int]] = {}
        self._custom: List[Tuple[str, Callable[[], float]]] = []
        self._timer = None
        self.truncated = {"links": 0, "flows": 0, "bundles": 0}

    # -- registration ------------------------------------------------------

    def register_probe(
        self,
        name: str,
        callback: Callable[[], float],
        *,
        unit: str = "",
        kind: str = "gauge",
    ) -> SeriesRing:
        """Sample ``callback()`` into series ``name`` every tick.

        ``callback`` must be a module-level function or bound method —
        the runtime counterpart of lint rule RPR012 (lambdas and local
        closures allocate per registration site and capture loop variables
        by reference).
        """
        if not callable(callback):
            raise TypeError(f"probe callback for {name!r} is not callable")
        if not _is_probe_callback(callback):
            raise TypeError(
                f"probe callback for {name!r} must be a module-level function "
                "or bound method, not a lambda or local closure (RPR012)"
            )
        ring = self._series(name, unit=unit, kind=kind)
        self._custom.append((name, callback))
        return ring

    def on_link(self, link) -> None:
        if len(self._links) >= MAX_LINKS:
            self.truncated["links"] += 1
            return
        self._links.append(link)
        # Exact drop instants, not just the per-tick cumulative counter.
        link.drop_probe = self._event(f"link/{link.name}/drop").add

    def on_flow(self, flow) -> None:
        if len(self._flows) >= MAX_FLOWS:
            self.truncated["flows"] += 1
            return
        # Holding the sender is what keeps it sampled after it closes (a
        # closed TCP sender is otherwise freed; its scalars stay readable).
        self._flows.append(flow)

    def on_bundle(self, sendbox) -> None:
        if len(self._bundles) >= MAX_BUNDLES:
            self.truncated["bundles"] += 1
            return
        index = len(self._bundles)
        self._bundles.append(sendbox)
        sendbox.boundary_probe = self._event(f"sendbox/{index}/epoch_boundary").add

    # -- per-run engagement ------------------------------------------------

    def on_run(self, until: Optional[float]) -> None:
        """Arm the sampling timer for one :meth:`Simulator.run` call.

        Unbounded runs (``until=None``) get no timer: a periodic tick with
        no end bound would keep the event queue from ever draining.  The
        timer ends at ``until`` so a finished run leaves at most one dead
        tick behind.
        """
        if until is None or until <= self.sim._now:
            return
        if self._timer is not None:
            self._timer.cancel()
        # A per-run timer is the one legitimate every() outside component
        # setup: it exists exactly for the span of this run() call.
        self._timer = self.sim.every(  # repro: noqa[RPR011] -- armed once per Simulator.run call (not per event), bounded by the run's `until`
            self.interval_s, self._tick, end=until
        )

    # -- sampling ----------------------------------------------------------

    def _series(self, name: str, *, unit: str = "", kind: str = "gauge") -> SeriesRing:
        ring = self.series.get(name)
        if ring is None:
            ring = self.series[name] = SeriesRing(
                name, unit=unit, kind=kind, max_points=self.max_points
            )
        return ring

    def _event(self, name: str) -> EventRing:
        ring = self.events.get(name)
        if ring is None:
            ring = self.events[name] = EventRing(name)
        return ring

    def _tick(self) -> None:
        now = self.sim._now
        interval = self.interval_s
        for link in self._links:
            prefix = f"link/{link.name}"
            self._series(f"{prefix}/backlog_bytes", unit="bytes").add(
                now, link.backlog_bytes
            )
            self._series(f"{prefix}/drops", unit="packets", kind="counter").add(
                now, link.packets_dropped
            )
            last_t, last_sent = self._link_last_sent.get(id(link), (0.0, 0))
            dt = now - last_t
            if dt > 0:
                rate = (link.bytes_sent - last_sent) * 8.0 / dt
                self._series(f"{prefix}/utilization", unit="fraction").add(
                    now, round(rate / link.rate_bps, 9)
                )
            self._link_last_sent[id(link)] = (now, link.bytes_sent)
            # Nested disciplines (the sendbox's TBF wraps the scheduling
            # policy) are walked per tick because control planes install
            # them after link construction.
            for qdisc in link.qdisc.walk():
                self._series(
                    f"{prefix}/qdisc/{type(qdisc).__name__}/backlog_bytes",
                    unit="bytes",
                ).add(now, qdisc.backlog_bytes)
        for flow in self._flows:
            if getattr(flow, "cc", None) is None:
                continue  # paced UDP streams have no window to sample
            prefix = f"flow/{flow.flow_id}"
            self._series(f"{prefix}/cwnd_bytes", unit="bytes").add(
                now, flow.cwnd_bytes
            )
            last_t, last_una = self._flow_last_una.get(flow.flow_id, (0.0, 0))
            dt = now - last_t
            if dt > 0:
                self._series(f"{prefix}/rate_bps", unit="bit/s").add(
                    now, round((flow.snd_una - last_una) * 8.0 / dt, 6)
                )
            self._flow_last_una[flow.flow_id] = (now, flow.snd_una)
        for index, box in enumerate(self._bundles):
            prefix = f"sendbox/{index}"
            self._series(f"{prefix}/rate_bps", unit="bit/s").add(
                now, box.tbf.rate_bps
            )
            self._series(f"{prefix}/backlog_bytes", unit="bytes").add(
                now, box.tbf.backlog_bytes
            )
            for bundle_id in box.bundles:
                self._series(
                    f"{prefix}/bundle/{bundle_id}/epoch_size", unit="packets"
                ).add(now, box.bundles[bundle_id].epoch_controller.current_size)
        for name, callback in self._custom:
            self.series[name].add(now, callback())

    # -- snapshot ----------------------------------------------------------

    def flow_spans(self) -> List[Dict[str, Any]]:
        """One ``{name, t0, t1}`` span per completed-or-armed flow."""
        spans: List[Dict[str, Any]] = []
        for flow in self._flows:
            start = getattr(flow, "start_time", None)
            if start is None:
                continue
            end = getattr(flow, "complete_time", None)
            spans.append(
                {
                    "name": f"flow/{flow.flow_id}",
                    "t0": round(start, 9),
                    "t1": round(end if end is not None else self.sim._now, 9),
                    "complete": end is not None,
                }
            )
        return spans

    def snapshot(self, sim_index: int = 0) -> Dict[str, Any]:
        """This simulator's probe payload for ``telemetry["probes"]``."""
        return {
            "sim": sim_index,
            "interval_s": self.interval_s,
            "series": [self.series[k].snapshot() for k in sorted(self.series)],
            "events": [self.events[k].snapshot() for k in sorted(self.events)],
            "spans": self.flow_spans(),
            "truncated": dict(self.truncated),
        }
