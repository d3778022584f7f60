"""Links: rate + propagation delay + a queueing discipline.

A :class:`Link` is unidirectional.  Packets handed to :meth:`Link.send` are
enqueued into the link's qdisc; the link serializes packets at its configured
rate and delivers them to the downstream node after the propagation delay.

The qdisc is pluggable (anything implementing the interface in
:mod:`repro.qdisc.base`), which is how both the plain bottleneck (drop-tail
FIFO, or fair queueing for the "In-Network" baseline) and the Bundler sendbox
(token bucket + scheduling policy) are modelled.

Shaping qdiscs (the token bucket) may decline to release a packet even when
they have a backlog; in that case the link re-polls the qdisc at the time the
qdisc reports the next packet could become available.  Control-plane code
that changes a qdisc's rate must call :meth:`Link.kick` so a waiting link
notices the new schedule immediately.

The datapath is closure-free and batched (see ``docs/simcore.md``): finish
and delivery events are pushed as ``(fn, args)`` heap entries, and
:meth:`Link._finish_transmit` drains back-to-back departures inline whenever
the entry it just pushed is still the heap top — an identity check that makes
batching provably order-identical to popping one event per step.  Zero-delay
delivery hops are executed inline under the same gate.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional

from repro.net.packet import Packet
from repro.net.simulator import CancelToken, Simulator


class Link:
    """A unidirectional link between two nodes."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float,
        delay: float,
        qdisc,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay < 0:
            raise ValueError("propagation delay must be non-negative")
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self.delay = delay
        self.qdisc = qdisc
        self.dst_node = None
        self._busy = False
        self._retry_token: Optional[CancelToken] = None
        self._transmit_hooks: List[Callable[[Packet, float], None]] = []
        #: Optional recycle hook (e.g. ``factory.recycle``): called when
        #: this link drops an arrival at enqueue, the one point where the
        #: link owns a dead packet (see PacketFactory pooling).
        self.drop_recycler: Optional[Callable[[Packet], None]] = None
        #: Optional probe hook (:mod:`repro.obs.probe`): called with the
        #: drop instant when an arrival is rejected at enqueue — a pure
        #: observer, set by the probe layer at ``observe_link`` time.
        self.drop_probe: Optional[Callable[[float], None]] = None
        #: Optional results-side tap (:class:`repro.net.trace.RateMonitor`):
        #: called with ``(finish instant, size)`` when a packet completes
        #: serialization.  Set by the tap's constructor, never by users.
        self.finish_tap: Optional[Callable[[float, int], None]] = None
        self.bytes_sent = 0
        self.packets_sent = 0
        self.packets_dropped = 0
        sim.observe_link(self)

    def connect(self, dst_node) -> "Link":
        """Attach the downstream node; returns ``self`` for chaining."""
        self.dst_node = dst_node
        return self

    def add_transmit_hook(self, hook: Callable[[Packet, float], None]) -> None:
        """Register a callback invoked when a packet begins transmission.

        The Bundler sendbox uses this to record ``t_sent`` for epoch boundary
        packets at the moment they leave the shaping queue (§4.5 / Figure 4);
        :class:`~repro.net.trace.QueueMonitor` uses it to read each packet's
        queueing delay.
        """
        self._transmit_hooks.append(hook)

    # -- datapath ---------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Enqueue a packet for transmission.  Returns False if it was dropped."""
        now = self.sim._now
        packet.enqueued_at = now
        if not self.qdisc.enqueue(packet, now):
            self.packets_dropped += 1
            if self.drop_probe is not None:
                self.drop_probe(now)
            if self.drop_recycler is not None:
                self.drop_recycler(packet)
            return False
        if not self._busy:
            self._try_transmit()
        return True

    def kick(self) -> None:
        """Re-evaluate the transmit schedule (call after changing qdisc rates)."""
        if not self._busy:
            self._try_transmit()

    def _cancel_retry(self) -> None:
        if self._retry_token is not None:
            self._retry_token.cancel()
            self._retry_token = None

    def _try_transmit(self) -> None:
        """Start transmitting the next packet, if the qdisc releases one.

        Never batches: callers (``send``, ``kick``, the retry timer) continue
        executing at the current instant after this returns, so the clock
        must not move under them.  Batched drain lives in
        :meth:`_finish_transmit`, which only ever runs as the tail of a
        finish event.
        """
        if self._busy:
            return
        if self._retry_token is not None:
            self._retry_token.cancel()
            self._retry_token = None
        now = self.sim._now
        packet = self.qdisc.dequeue(now)
        if packet is None:
            if len(self.qdisc) > 0:
                ready = self.qdisc.next_ready_time(now)
                if ready is not None:
                    # Never re-poll at the exact current time: a qdisc whose
                    # accounting momentarily disagrees with its contents would
                    # otherwise livelock the event loop.
                    self._retry_token = self.sim.at(max(ready, now + 1e-6), self._try_transmit)
            return
        for hook in self._transmit_hooks:
            hook(packet, now)
        self._busy = True
        tx_time = packet.size * 8.0 / self.rate_bps
        self.sim.schedule_call(tx_time, self._finish_transmit, packet)

    def _finish_transmit(self, packet: Packet) -> None:
        """Complete ``packet``'s serialization; drain the backlog batched.

        Each loop iteration reproduces the historical event sequence for one
        departure *in the exact order the closure-based datapath pushed it*:
        delivery first, then the next packet's finish.  Inlining then only
        happens under heap-top identity gates:

        * the zero-delay delivery hop is executed in place iff its entry is
          the very next event (nothing else is queued at the current
          instant), and
        * the next finish event is popped and folded into this loop iff its
          entry is still the heap top after delivery ran (no event —
          including anything the delivery's receive path just scheduled —
          lands at or before it) and it does not overrun the active run
          bound.

        Both gates compare against events the old datapath would have popped
        next anyway, so batching is byte-for-byte order-identical; inlined
        entries are counted in ``events_processed`` to keep event counts
        comparable.  See docs/simcore.md.
        """
        sim = self.sim
        stats = sim.stats
        queue = sim._queue
        counter = sim._counter
        qdisc = self.qdisc
        rate_bps = self.rate_bps
        while True:
            now = sim._now
            self._busy = False
            size = packet.size
            self.bytes_sent += size
            self.packets_sent += 1
            if self.finish_tap is not None:
                self.finish_tap(now, size)
            dst = self.dst_node
            deliver_entry = None
            if dst is not None:
                stats.events_scheduled += 1
                deliver_entry = (now + self.delay, next(counter), None, dst.receive, (packet, self))
                heappush(queue, deliver_entry)
            # Start the next transmission (the old inline _try_transmit):
            # the finish entry is pushed *after* the delivery entry, exactly
            # as the closure datapath ordered them.
            finish_entry = None
            nxt = qdisc.dequeue(now)
            if nxt is None:
                if len(qdisc) > 0:
                    ready = qdisc.next_ready_time(now)
                    if ready is not None:
                        self._retry_token = sim.at(max(ready, now + 1e-6), self._try_transmit)
            else:
                for hook in self._transmit_hooks:
                    hook(nxt, now)
                self._busy = True
                stats.events_scheduled += 1
                finish_entry = (
                    now + nxt.size * 8.0 / rate_bps,
                    next(counter),
                    None,
                    self._finish_transmit,
                    (nxt,),
                )
                heappush(queue, finish_entry)
            if deliver_entry is not None and queue[0] is deliver_entry and self.delay == 0.0:
                # Zero-delay hop: the delivery is the very next event, so run
                # it in place instead of round-tripping through the heap.
                heappop(queue)
                stats.events_processed += 1
                dst.receive(packet, self)
            if finish_entry is None:
                return
            until = sim._until
            if queue[0] is finish_entry and (until is None or finish_entry[0] <= until):
                heappop(queue)
                stats.events_processed += 1
                sim.advance(finish_entry[0])
                packet = nxt
                continue
            return

    # -- introspection ----------------------------------------------------

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently queued at this link."""
        return self.qdisc.backlog_bytes

    @property
    def backlog_packets(self) -> int:
        """Packets currently queued at this link."""
        return len(self.qdisc)

    def utilization(self, duration: float) -> float:
        """Fraction of capacity used over ``duration`` seconds of simulation."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        return (self.bytes_sent * 8.0 / duration) / self.rate_bps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.name}, {self.rate_bps / 1e6:.1f}Mbit/s, {self.delay * 1e3:.1f}ms)"
