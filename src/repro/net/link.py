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
and delivery events are ``(fn, args)`` heap entries, :meth:`Link.send` starts
an idle link's transmission itself, and :meth:`Link._finish_transmit` drains
back-to-back departures inline whenever the finish entry it just pushed is
still the heap top — an identity check that makes batching provably
order-identical to popping one event per step.  A zero-delay delivery runs in
place whenever it would be the next event popped, without entering the heap.
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
        """Enqueue a packet for transmission.  Returns False if it was dropped.

        An idle link starts transmitting here — the hot, inlined copy of
        :meth:`kick` (three sends in four find the link idle and empty).
        """
        sim = self.sim
        now = sim._now
        packet.enqueued_at = now
        qdisc = self.qdisc
        if not qdisc.enqueue(packet, now):
            self.packets_dropped += 1
            if self.drop_probe is not None:
                self.drop_probe(now)
            if self.drop_recycler is not None:
                self.drop_recycler(packet)
            return False
        if self._busy:
            return True
        if self._retry_token is not None:
            self._retry_token.cancel()
            self._retry_token = None
        nxt = qdisc.dequeue(now)
        if nxt is None:
            if qdisc.backlog_packets > 0:
                self._poll_later(qdisc, now)
            return True
        if self._transmit_hooks:
            for hook in self._transmit_hooks:
                hook(nxt, now)
        self._busy = True
        sim.stats.events_scheduled += 1
        finish_at = now + nxt.size * 8.0 / self.rate_bps
        heappush(sim._queue, (finish_at, next(sim._counter), None, self._finish_transmit, (nxt,)))
        return True

    def kick(self) -> None:
        """Re-evaluate the transmit schedule (call after changing qdisc rates).

        Also the retry timer's callback.  Never batches (callers continue at
        the current instant, so the clock must not move under them), and
        ``dequeue`` runs on every attempt, backlog or not: a token bucket
        refills at ``now`` inside it.
        """
        if self._busy:
            return
        if self._retry_token is not None:
            self._retry_token.cancel()
            self._retry_token = None
        sim = self.sim
        now = sim._now
        qdisc = self.qdisc
        packet = qdisc.dequeue(now)
        if packet is None:
            if qdisc.backlog_packets > 0:
                self._poll_later(qdisc, now)
            return
        for hook in self._transmit_hooks:
            hook(packet, now)
        self._busy = True
        sim.schedule_call(packet.size * 8.0 / self.rate_bps, self._finish_transmit, packet)

    def _poll_later(self, qdisc, now: float) -> None:
        """``qdisc`` holds a backlog but released nothing: re-poll when it says to."""
        ready = qdisc.next_ready_time(now)
        if ready is not None:
            # Never re-poll at the exact current time: a qdisc whose
            # accounting momentarily disagrees with its contents would
            # otherwise livelock the event loop.
            self._retry_token = self.sim.at(max(ready, now + 1e-6), self.kick)

    def _finish_transmit(self, packet: Packet) -> None:
        """Complete ``packet``'s serialization; drain the backlog batched.

        Each iteration reproduces the unbatched sequence for one departure —
        delivery, then the next finish — in the same ``(time, seq)`` order,
        inlining a step only when the run loop would pop it next anyway:

        * the delivery's ``seq`` is reserved where its entry used to be
          pushed, so everything scheduled later sorts behind it.  With a
          propagation delay it is pushed there; a zero-delay delivery runs in
          place iff, once the next finish is queued, the heap top sorts after
          ``(now, reserved seq)`` — and only otherwise enters the heap;
        * the next finish is popped and folded into this loop iff its entry is
          still the heap top after delivery ran (nothing, including what the
          receive path just scheduled, lands at or before it) and it does not
          overrun the active run bound.

        Inlined steps count in ``events_scheduled``/``events_processed`` as if
        they had gone through the heap.  ``qdisc``, its methods and
        ``dst.receive`` are looked up per packet: the sendbox swaps the qdisc
        and the sanitizer wraps those methods.  See docs/simcore.md.
        """
        sim = self.sim
        stats = sim.stats
        queue = sim._queue
        counter = sim._counter
        while True:
            now = sim._now
            self._busy = False
            size = packet.size
            self.bytes_sent += size
            self.packets_sent += 1
            if self.finish_tap is not None:
                self.finish_tap(now, size)
            dst = self.dst_node
            deliver_seq = None
            if dst is not None:
                stats.events_scheduled += 1
                deliver_seq = next(counter)
                delay = self.delay
                if delay > 0.0:
                    heappush(queue, (now + delay, deliver_seq, None, dst.receive, (packet, self)))
                    deliver_seq = None
            finish_entry = None
            qdisc = self.qdisc
            nxt = qdisc.dequeue(now)
            if nxt is None:
                if qdisc.backlog_packets > 0:
                    self._poll_later(qdisc, now)
            else:
                if self._transmit_hooks:
                    for hook in self._transmit_hooks:
                        hook(nxt, now)
                self._busy = True
                stats.events_scheduled += 1
                finish_at = now + nxt.size * 8.0 / self.rate_bps
                finish_entry = (finish_at, next(counter), None, self._finish_transmit, (nxt,))
                heappush(queue, finish_entry)
            if deliver_seq is not None:
                if not queue or queue[0] > (now, deliver_seq):
                    stats.events_processed += 1
                    dst.receive(packet, self)
                else:
                    heappush(queue, (now, deliver_seq, None, dst.receive, (packet, self)))
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
