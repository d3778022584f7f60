"""Runtime event-loop sanitizer (``REPRO_SANITIZE=1``).

The static rules in this package catch contract violations that are
visible in the source; the sanitizer catches the ones that only manifest
at runtime.  With ``REPRO_SANITIZE=1`` in the environment,
:func:`repro.obs.collect.collect` attaches a :class:`Sanitizer` to every
:class:`~repro.net.simulator.Simulator` built inside the run, which
instruments the live object graph:

* **qdisc shadow accounting** — every qdisc attached to a link gets its
  ``enqueue``/``dequeue``/``peek`` wrapped; the sanitizer keeps an
  independent (packets, bytes) shadow ledger from the wrappers' inputs
  and outputs (including ``_account_drop(was_queued=True)`` evictions
  anywhere down an ``inner`` chain) and asserts the qdisc's *declared*
  ``backlog_packets``/``backlog_bytes`` equal the shadow after every
  operation.  ``peek`` is additionally checked for purity (no backlog
  change).
* **per-link packet conservation** — accepted == dequeued + queued-drops
  + backlog at all times, delivered ≤ dequeued at every delivery, and
  dequeued == delivered once the event queue drains.
* **clock discipline** — :meth:`Simulator.advance` (the batched-datapath
  hook) must keep time monotonic and non-negative, never move past the
  next heap event, and never exceed the active run bound.
* **cancel-token hygiene** — a :class:`CancelToken` whose ``cancelled``
  flag was reset after :meth:`~CancelToken.cancel` (token reuse), or an
  event firing twice, is reported.
* **flow end of life** — a TCP sender that closes
  (:meth:`Simulator.close_flow`) must have an empty scoreboard, no armed
  retransmission timer and every byte acknowledged; it leaves a tombstone
  ``(host, port) -> final snd_una``, and any packet later delivered to
  that port must be one the live sender would have ignored (an ACK of its
  own flow at or below ``snd_una``).  That is the argument that releasing
  the port moves no result byte, checked on every packet.

Everything is instance-level instrumentation: no class in ``net/`` or
``qdisc/`` changes behavior, event *order* is untouched (wrappers neither
draw randomness nor schedule events, and the ``at()`` replacement
replicates the original's counter/stat effects exactly), so sanitized
runs are byte-for-byte identical to unsanitized ones — just slower.
Violations raise :class:`SanitizerViolation` naming the offending
component's path.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional

from repro.util.env import env_flag

SANITIZE_ENV = "REPRO_SANITIZE"


def sanitize_enabled() -> bool:
    """Is the event-loop sanitizer requested via ``REPRO_SANITIZE``?"""
    return env_flag(SANITIZE_ENV, False)


class SanitizerViolation(RuntimeError):
    """A runtime invariant was broken; the message names the component."""


class _SanToken:
    """Drop-in :class:`CancelToken` with reuse/double-fire detection state.

    Duck-typed rather than subclassed so ``__slots__`` layouts never
    conflict; the event loop only reads ``.cancelled`` and callers only
    call ``.cancel()``.
    """

    __slots__ = ("cancelled", "ever_cancelled", "fired")

    def __init__(self) -> None:
        self.cancelled = False
        self.ever_cancelled = False
        self.fired = False

    def cancel(self) -> None:
        self.cancelled = True
        self.ever_cancelled = True


class _QdiscRecord:
    """Shadow ledger for one instrumented qdisc (as attached to a link)."""

    __slots__ = ("qdisc", "where", "shadow_packets", "shadow_bytes", "sanitizer")

    def __init__(self, sanitizer: "Sanitizer", qdisc: Any, where: str) -> None:
        self.sanitizer = sanitizer
        self.qdisc = qdisc
        self.where = where
        self.shadow_packets = int(qdisc.backlog_packets)
        self.shadow_bytes = int(qdisc.backlog_bytes)

    def verify(self, operation: str) -> None:
        declared = (int(self.qdisc.backlog_packets), int(self.qdisc.backlog_bytes))
        shadow = (self.shadow_packets, self.shadow_bytes)
        self.sanitizer.checks_performed += 1
        if declared != shadow:
            raise SanitizerViolation(
                f"{self.where}: declared backlog {declared[0]} pkts/"
                f"{declared[1]} B disagrees with actual queue contents "
                f"{shadow[0]} pkts/{shadow[1]} B after {operation} — "
                "backlog accounting is broken in "
                f"{type(self.qdisc).__name__}.{operation}"
            )


class _LinkRecord:
    """Conservation counters for one instrumented link."""

    __slots__ = ("link", "where", "accepted", "rejected", "dequeued", "delivered")

    def __init__(self, link: Any, where: str) -> None:
        self.link = link
        self.where = where
        self.accepted = 0
        self.rejected = 0
        self.dequeued = 0
        self.delivered = 0


def _sanitized_link_class(base: type) -> type:
    """A ``base`` subclass whose qdisc/dst_node are instrumenting properties.

    Control planes swap a link's qdisc after construction (the sendbox
    installs its token bucket over the egress FIFO) and topology builders
    attach ``dst_node`` via ``connect()`` — both plain attribute writes.
    Swapping the instance's ``__class__`` to this subclass turns those
    writes into instrumentation points without touching ``net/link.py``.
    """

    def qdisc_get(self):
        return self.__dict__["_san_qdisc"]

    def qdisc_set(self, value):
        self.__dict__["_san_qdisc"] = value
        self._san_sanitizer._instrument_qdisc(self, value)

    def dst_get(self):
        return self.__dict__["_san_dst"]

    def dst_set(self, value):
        self.__dict__["_san_dst"] = value
        if value is not None:
            self._san_sanitizer._instrument_node(value)

    cls = type(
        base.__name__,
        (base,),
        {
            "qdisc": property(qdisc_get, qdisc_set),
            "dst_node": property(dst_get, dst_set),
            "__module__": base.__module__,
        },
    )
    return cls


class Sanitizer:
    """Attaches runtime invariant checks to simulators as they are built."""

    def __init__(self) -> None:
        self.simulators: List[Any] = []
        self.checks_performed = 0
        self.violations = 0
        self._link_records: Dict[int, _LinkRecord] = {}
        self._qdisc_seen: Dict[int, set] = {}  # id(link) -> {id(qdisc), ...}
        self._nodes_seen: set = set()
        self._link_classes: Dict[type, type] = {}
        # (id(host), port) of each closed sender -> (flow id, final snd_una).
        self._closed_ports: Dict[tuple, tuple] = {}
        self.late_packets = 0

    # -- attachment --------------------------------------------------------

    def attach(self, sim: Any) -> None:
        """Instrument one simulator (called from the telemetry collector)."""
        self.simulators.append(sim)
        self._wrap_scheduler(sim)
        self._wrap_advance(sim)
        self._wrap_observe_link(sim)
        self._wrap_close_flow(sim)

    # -- scheduler: cancel-token hygiene -----------------------------------

    def _wrap_scheduler(self, sim: Any) -> None:
        def sanitized_at(time: float, callback: Callable[[], None]):
            # Replicates Simulator.at exactly (past check, stat increment,
            # heap entry shape) but issues a bookkeeping token and wraps
            # the callback with the reuse/double-fire check.  The wrapper
            # adds no scheduling, so event order is unchanged.
            now = sim._now
            if time < now:
                if time < now - 1e-12:
                    raise ValueError(
                        f"cannot schedule event in the past (now={now:.9f}, requested={time:.9f})"
                    )
                time = now
            token = _SanToken()
            sim.stats.events_scheduled += 1
            heapq.heappush(
                sim._queue,
                (time, next(sim._counter), token, self._fire, (token, callback)),
            )
            return token

        sim.at = sanitized_at

    def _fire(self, token: _SanToken, callback: Callable[[], None]) -> None:
        self.checks_performed += 1
        if token.ever_cancelled and not token.cancelled:
            self.violations += 1
            raise SanitizerViolation(
                "cancel token reused: its cancelled flag was reset after "
                "cancel() and the event fired anyway — allocate a fresh "
                "token per scheduled event"
            )
        if token.fired:
            self.violations += 1
            raise SanitizerViolation(
                "cancel token fired twice: one scheduled event executed "
                "more than once"
            )
        token.fired = True
        callback()

    # -- clock discipline ---------------------------------------------------

    def _wrap_advance(self, sim: Any) -> None:
        real_advance = sim.advance

        def sanitized_advance(time: float) -> None:
            self.checks_performed += 1
            now = sim._now
            if time < 0.0 or time < now:
                raise SanitizerViolation(
                    f"Simulator.advance({time:.9f}) would move the clock "
                    f"backwards (now={now:.9f}) — batched datapaths must "
                    "keep simulated time monotonic and non-negative"
                )
            queue = sim._queue
            if queue and time > queue[0][0]:
                raise SanitizerViolation(
                    f"Simulator.advance({time:.9f}) skips past the next "
                    f"scheduled event at {queue[0][0]:.9f} — the batching "
                    "gate must re-check the heap top before advancing"
                )
            bound = sim.run_bound
            if bound is not None and time > bound:
                raise SanitizerViolation(
                    f"Simulator.advance({time:.9f}) exceeds the active run "
                    f"bound {bound:.9f} — batched work must stop at "
                    "run(until=...)"
                )
            real_advance(time)

        sim.advance = sanitized_advance

    # -- links and qdiscs ----------------------------------------------------

    def _wrap_observe_link(self, sim: Any) -> None:
        real_observe = sim.observe_link

        def sanitized_observe_link(link: Any) -> None:
            real_observe(link)
            self._instrument_link(link)

        sim.observe_link = sanitized_observe_link

    # -- flow end of life ---------------------------------------------------

    def _wrap_close_flow(self, sim: Any) -> None:
        real_close = sim.close_flow

        def sanitized_close_flow(sender: Any) -> None:
            self.checks_performed += 1
            unfinished = []
            if sender._segments:
                unfinished.append(f"{len(sender._segments)} segment(s) on the scoreboard")
            if sender._rto_timer is not None:
                unfinished.append("its retransmission timer armed")
            if sender.size_bytes is None or sender.snd_una < sender.size_bytes:
                unfinished.append(
                    f"snd_una={sender.snd_una} short of size_bytes={sender.size_bytes}"
                )
            if unfinished:
                self.violations += 1
                raise SanitizerViolation(
                    f"flow {sender.flow_id} (port {sender.port} on "
                    f"{sender.host.name}): closed with " + ", ".join(unfinished)
                    + " — a sender may only close once every byte is acknowledged"
                )
            self._closed_ports[id(sender.host), sender.port] = (
                sender.flow_id, sender.snd_una
            )
            real_close(sender)

        sim.close_flow = sanitized_close_flow

    def _check_late_packet(self, node: Any, packet: Any, closed: tuple) -> None:
        """``packet`` reached the port of a closed sender: it must be inert."""
        flow_id, snd_una = closed
        self.late_packets += 1
        self.checks_performed += 1
        if not packet.is_ack:
            problem = "a data packet"
        elif packet.flow_id != flow_id:
            problem = f"an ACK of flow {packet.flow_id}"
        elif (packet.payload or {}).get("ack", 0) > snd_una:
            problem = f"an ACK of {packet.payload['ack']} beyond snd_una={snd_una}"
        else:
            return
        self.violations += 1
        raise SanitizerViolation(
            f"flow {flow_id} (port {packet.dst_port} on {node.name}): {problem} "
            "arrived after the sender closed — the live sender would have "
            "acted on it, so closing changed the run"
        )

    def _instrument_link(self, link: Any) -> None:
        if id(link) in self._link_records:
            return
        where = f"link {getattr(link, 'name', '?')!r}"
        self._link_records[id(link)] = _LinkRecord(link, where)
        self._qdisc_seen[id(link)] = set()
        # Move qdisc/dst_node out of the instance dict, then swap in the
        # property-instrumented subclass so later swaps/connects are seen.
        base = type(link)
        san_cls = self._link_classes.get(base)
        if san_cls is None:
            san_cls = _sanitized_link_class(base)
            self._link_classes[base] = san_cls
        qdisc = link.__dict__.pop("qdisc", None)
        dst = link.__dict__.pop("dst_node", None)
        link._san_sanitizer = self
        link.__class__ = san_cls
        link.qdisc = qdisc  # property setter instruments it
        link.dst_node = dst

    def _instrument_qdisc(self, link: Any, qdisc: Any) -> None:
        if qdisc is None:
            return
        seen = self._qdisc_seen[id(link)]
        if id(qdisc) in seen:
            return
        seen.add(id(qdisc))
        record = self._link_records[id(link)]
        where = f"{record.where} qdisc {type(qdisc).__name__}"
        shadow = _QdiscRecord(self, qdisc, where)

        real_enqueue = qdisc.enqueue
        real_dequeue = qdisc.dequeue
        real_peek = qdisc.peek

        def sanitized_enqueue(packet, now):
            ok = real_enqueue(packet, now)
            if ok:
                shadow.shadow_packets += 1
                shadow.shadow_bytes += packet.size
                record.accepted += 1
            else:
                record.rejected += 1
            shadow.verify("enqueue")
            return ok

        def sanitized_dequeue(now):
            packet = real_dequeue(now)
            if packet is not None:
                shadow.shadow_packets -= 1
                shadow.shadow_bytes -= packet.size
                record.dequeued += 1
            shadow.verify("dequeue")
            return packet

        def sanitized_peek():
            before = (int(qdisc.backlog_packets), int(qdisc.backlog_bytes))
            packet = real_peek()
            after = (int(qdisc.backlog_packets), int(qdisc.backlog_bytes))
            self.checks_performed += 1
            if before != after:
                raise SanitizerViolation(
                    f"{where}: peek() mutated the backlog "
                    f"({before} -> {after}) — peek must be pure"
                )
            return packet

        qdisc.enqueue = sanitized_enqueue
        qdisc.dequeue = sanitized_dequeue
        qdisc.peek = sanitized_peek

        # Queued-packet drops (AQM head drops, SFQ evictions — possibly
        # deep inside a wrapper's ``inner`` chain) shrink the real queue
        # without passing through enqueue/dequeue; hook every member's
        # _account_drop so the shadow ledger follows.
        member = qdisc
        visited = set()
        while member is not None and id(member) not in visited:
            visited.add(id(member))
            self._hook_drops(member, shadow)
            member = getattr(member, "inner", None)

    def _hook_drops(self, member: Any, shadow: _QdiscRecord) -> None:
        real_drop = member._account_drop

        def sanitized_drop(packet, *, was_queued: bool = False):
            if was_queued:
                shadow.shadow_packets -= 1
                shadow.shadow_bytes -= packet.size
            return real_drop(packet, was_queued=was_queued)

        member._account_drop = sanitized_drop

    def _instrument_node(self, node: Any) -> None:
        if id(node) in self._nodes_seen:
            return
        self._nodes_seen.add(id(node))
        real_receive = node.receive

        def sanitized_receive(packet, link):
            record = self._link_records.get(id(link)) if link is not None else None
            if record is not None:
                record.delivered += 1
                self.checks_performed += 1
                if record.delivered > record.dequeued:
                    raise SanitizerViolation(
                        f"{record.where}: delivered {record.delivered} packets "
                        f"but only {record.dequeued} were dequeued — a packet "
                        "was delivered twice or bypassed the qdisc"
                    )
            if self._closed_ports and packet.dst == node.address:
                closed = self._closed_ports.get((id(node), packet.dst_port))
                if closed is not None:
                    self._check_late_packet(node, packet, closed)
            return real_receive(packet, link)

        node.receive = sanitized_receive

    # -- end-of-run conservation -------------------------------------------

    def finalize(self) -> None:
        """Check end-state conservation.  Call after a clean run."""
        for record in self._link_records.values():
            link = record.link
            backlog = int(link.qdisc.backlog_packets) if link.qdisc is not None else 0
            in_flight = record.dequeued - record.delivered
            drained = all(not self._is_live(sim) for sim in self.simulators)
            self.checks_performed += 1
            if in_flight < 0:
                raise SanitizerViolation(
                    f"{record.where}: delivered more packets than were "
                    f"dequeued ({record.delivered} > {record.dequeued})"
                )
            if (
                drained
                and link.dst_node is not None
                and record.dequeued != record.delivered
            ):
                raise SanitizerViolation(
                    f"{record.where}: packet conservation broken — "
                    f"{record.accepted} accepted, {record.dequeued} dequeued, "
                    f"{record.delivered} delivered, {backlog} still queued "
                    "with an empty event queue: "
                    f"{in_flight} packet(s) vanished in flight"
                )

    @staticmethod
    def _is_live(sim: Any) -> bool:
        for entry in sim._queue:
            token = entry[2]
            if token is None or not token.cancelled:
                return True
        return False

    def summary(self) -> Dict[str, int]:
        """Counters for tests asserting the sanitizer actually engaged."""
        return {
            "simulators": len(self.simulators),
            "links": len(self._link_records),
            "checks_performed": self.checks_performed,
            "flows_closed": len(self._closed_ports),
            "late_packets": self.late_packets,
        }


def maybe_sanitizer() -> Optional[Sanitizer]:
    """A fresh :class:`Sanitizer` when ``REPRO_SANITIZE`` is on, else None."""
    return Sanitizer() if sanitize_enabled() else None
