"""Replaying a trace through the simulator.

:class:`TraceReplayWorkload` drives the existing transport stack from any
time-ordered :class:`~repro.traffic.events.TraceEvent` stream: ``flow``
events become TCP transfers, ``stream`` events become paced UDP streams.
The stream is consumed **lazily, one event ahead** — the next event is
pulled only inside the previous event's callback — so replaying a
million-flow trace holds O(1) events in memory and, just as importantly,
a live generator's RNG draws happen at fixed points of the event loop
(cached results depend on that interleaving).

Flows follow the same rule.  A flow that *closes* (its sender has the last
ACK, see :mod:`repro.transport.flow`) is swapped, in this workload's
lists, for its :class:`~repro.transport.flow.FlowRecord`, which frees its
sender, scoreboard and congestion controller on the spot.  What a finished
flow leaves behind is that record and its receiver (still registered, to
re-ACK duplicates) — a few hundred bytes — so a replay's memory is the
flows *in flight* plus one small record per flow issued, not a live
transport stack per flow ever issued.

This module is the one place that decides how an offered load becomes
flows: a trace goes to the constructor, the §7.1 request load (Poisson
arrivals drawn from the caller's live RNG) to
:meth:`TraceReplayWorkload.poisson_requests` — same class, no wrapper.

Host mapping: ``group="bundle"`` events run between the ``servers`` and
``clients`` pools (through the sendbox), ``group="cross"`` events between
``cross_senders`` and ``cross_receivers`` (beyond it); ``src``/``dst``
index the pools modulo their size, so a trace recorded against a wider
site still replays on a narrow one.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.cc import make_window_cc
from repro.net.node import Host
from repro.obs.collect import span, timed_iter
from repro.net.packet import PacketFactory
from repro.net.simulator import Simulator
from repro.traffic.events import TraceEvent, TraceFormatError
from repro.traffic.generators import arrival_rate_for_load, poisson_flow_events
from repro.transport.flow import FlowRecord, TcpFlow
from repro.transport.udp import PacedUdpStream
from repro.workload.flowsize import EmpiricalSizeDistribution, internet_core_cdf

#: A replay source: an event iterable (times are trace-relative, offset by
#: the start time), or a factory called with the start time that yields
#: events at *absolute* simulated times (a live generator accumulating from
#: the start time, never re-offset afterwards).
EventSource = Union[Iterable[TraceEvent], Callable[[float], Iterable[TraceEvent]]]


class TraceReplayWorkload:
    """Drive the simulator from a trace (see the module docstring)."""

    def __init__(
        self,
        sim: Simulator,
        factory: PacketFactory,
        servers: Sequence[Host],
        clients: Sequence[Host],
        *,
        events: EventSource,
        endhost_cc: str = "cubic",
        endhost_cc_factory: Optional[Callable[[], object]] = None,
        cross_senders: Sequence[Host] = (),
        cross_receivers: Sequence[Host] = (),
        classify: Optional[Callable[[int], int]] = None,
        mss: int = 1500,
        stream_packet_size: int = 1200,
    ) -> None:
        if not servers or not clients:
            raise ValueError("need at least one server and one client")
        self.sim = sim
        self.factory = factory
        self.servers = list(servers)
        self.clients = list(clients)
        self.cross_senders = list(cross_senders)
        self.cross_receivers = list(cross_receivers)
        self.endhost_cc = endhost_cc
        self.endhost_cc_factory = endhost_cc_factory
        self.classify = classify
        self.mss = mss
        self.stream_packet_size = stream_packet_size

        self._source = events
        self._events: Optional[Iterator[TraceEvent]] = None
        self._absolute_times = callable(events)
        self._running = False
        self._start_time = 0.0
        self._last_time: Optional[float] = None

        # One slot per flow in issue order and one per flow whose receiver
        # has every byte, in that order; a slot holds the live flow until it
        # closes and its final record from then on.  ``_open`` maps each
        # live flow to its two slot indices.
        self._issued: List[Union[TcpFlow, FlowRecord]] = []
        self._completed: List[Union[TcpFlow, FlowRecord]] = []
        self._open: Dict[TcpFlow, Tuple[int, Optional[int]]] = {}
        self._cross_flow_ids: Set[int] = set()
        self.streams: List[PacedUdpStream] = []

    @classmethod
    def poisson_requests(
        cls,
        sim: Simulator,
        factory: PacketFactory,
        servers: Sequence[Host],
        clients: Sequence[Host],
        *,
        offered_load_bps: float,
        rng: random.Random,
        size_distribution: Optional[EmpiricalSizeDistribution] = None,
        max_requests: Optional[int] = None,
        duration_s: Optional[float] = None,
        traffic_class: int = 0,
        **replay_options,
    ) -> "TraceReplayWorkload":
        """The §7.1 request load: Poisson arrivals offering ``offered_load_bps``.

        Sizes come from ``size_distribution`` (default: the Internet-core
        CDF); events are drawn from the caller's live ``rng`` as the replay
        pulls them, at absolute times anchored at ``start(at=...)``.
        ``replay_options`` are the constructor's own keywords
        (``endhost_cc_factory``, ``classify``, ...).
        """
        if max_requests is None and duration_s is None:
            raise ValueError("bound the workload with max_requests and/or duration_s")
        sizes = size_distribution if size_distribution is not None else internet_core_cdf()
        rate = arrival_rate_for_load(offered_load_bps, sizes.mean())

        def events(start_s: float) -> Iterator[TraceEvent]:
            return poisson_flow_events(
                rng,
                rate_per_s=rate,
                sizes=sizes,
                horizon_s=duration_s,
                max_flows=max_requests,
                start_s=start_s,
                traffic_class=traffic_class,
                num_src=len(servers),
                num_dst=len(clients),
            )

        return cls(sim, factory, servers, clients, events=events, **replay_options)

    # -- lifecycle --------------------------------------------------------

    def start(self, at: float = 0.0) -> "TraceReplayWorkload":
        """Begin replaying at simulated time ``at`` (events offset from it)."""
        if self._events is not None:
            raise RuntimeError("trace replay already started")
        self._running = True
        self._start_time = at
        source = self._source
        # Trace events are pulled lazily during the run; the wrapper meters
        # time spent generating them into the "workload-generate" span (a
        # plain pass-through when no telemetry collector is active).
        self._events = timed_iter(
            "workload-generate", iter(source(at) if callable(source) else source)
        )
        self._schedule_next()
        return self

    def stop(self) -> None:
        self._running = False
        for stream in self.streams:
            stream.stop()

    # -- internals --------------------------------------------------------

    def _schedule_next(self) -> None:
        if not self._running:
            return
        assert self._events is not None
        event = next(self._events, None)
        if event is None:
            return
        target = event.time_s if self._absolute_times else self._start_time + event.time_s
        if self._last_time is not None and target < self._last_time - 1e-12:
            raise TraceFormatError(
                f"trace event at {target:.9f}s precedes the previous event at "
                f"{self._last_time:.9f}s — traces must be time-ordered"
            )
        self._last_time = target
        self.sim.at_call(max(target, self.sim.now), self._issue, event)

    def _make_cc(self):
        if self.endhost_cc_factory is not None:
            return self.endhost_cc_factory()
        return make_window_cc(self.endhost_cc, mss=self.mss)

    def _pools(self, event: TraceEvent):
        if event.group == "cross":
            if not self.cross_senders or not self.cross_receivers:
                raise ValueError(
                    "trace contains 'cross' events but the replay was built "
                    "without cross_senders/cross_receivers pools"
                )
            return self.cross_senders, self.cross_receivers
        return self.servers, self.clients

    def _issue(self, event: TraceEvent) -> None:
        if not self._running:
            return
        # The next event is pulled in _schedule_next, *outside* the span,
        # so "trace-replay" (issuing) and "workload-generate" (pulling)
        # stay disjoint.
        with span("trace-replay"):
            self._issue_event(event)
        self._schedule_next()

    def _issue_event(self, event: TraceEvent) -> None:
        sources, sinks = self._pools(event)
        src = sources[event.src % len(sources)]
        dst = sinks[event.dst % len(sinks)]
        if event.kind == "flow":
            traffic_class = event.traffic_class
            if self.classify is not None:
                traffic_class = self.classify(event.size_bytes or 0)
            flow = TcpFlow(
                self.sim,
                self.factory,
                src,
                dst,
                size_bytes=event.size_bytes,
                cc=self._make_cc(),
                mss=self.mss,
                traffic_class=traffic_class,
                on_complete=self._flow_done,
                on_close=self._flow_closed,
            )
            self._open[flow] = (len(self._issued), None)
            self._issued.append(flow)
            if event.group == "cross":
                self._cross_flow_ids.add(flow.flow_id)
            flow.start()
        else:
            stream = PacedUdpStream(
                self.sim,
                self.factory,
                src,
                dst,
                rate_bps=event.rate_bps,
                packet_size=self.stream_packet_size,
                traffic_class=event.traffic_class,
            )
            self.streams.append(stream)
            stream.start(duration=event.duration_s)

    def _flow_done(self, flow: TcpFlow) -> None:
        self._open[flow] = (self._open[flow][0], len(self._completed))
        self._completed.append(flow)

    def _flow_closed(self, flow: TcpFlow) -> None:
        issued_at, completed_at = self._open.pop(flow)
        record = flow.record()
        self._issued[issued_at] = record
        if completed_at is not None:
            self._completed[completed_at] = record

    # -- results ----------------------------------------------------------

    @property
    def flows(self) -> List[TcpFlow]:
        """The flows still open (issued, not yet closed), in issue order."""
        return list(self._open)

    @property
    def flows_issued(self) -> int:
        return len(self._issued)

    @property
    def streams_started(self) -> int:
        return len(self.streams)

    def records(
        self, include_incomplete: bool = False, group: Optional[str] = None
    ) -> List[FlowRecord]:
        """One record per flow: the completed ones in completion order by
        default, every flow issued in issue order with ``include_incomplete``.

        ``group`` (``"bundle"`` or ``"cross"``) keeps that trace group's
        flows only.  A closed flow is served its one final record; a flow
        still open is snapshotted as it stands.
        """
        slots = self._issued if include_incomplete else self._completed
        records = [
            slot if type(slot) is FlowRecord else slot.record() for slot in slots
        ]
        if group is None:
            return records
        if group not in ("bundle", "cross"):
            raise ValueError(f"unknown trace group {group!r} (bundle or cross)")
        cross = self._cross_flow_ids
        keep_cross = group == "cross"
        return [r for r in records if (r.flow_id in cross) == keep_cross]
