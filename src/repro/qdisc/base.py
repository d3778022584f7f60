"""Qdisc interface.

Every queueing discipline exposes the same small interface to the link:

* :meth:`Qdisc.enqueue` — accept or drop a packet.
* :meth:`Qdisc.dequeue` — release the next packet, or ``None`` if nothing is
  eligible *right now* (a shaper may hold a backlog but have no tokens).
* :meth:`Qdisc.next_ready_time` — when a waiting packet could next become
  eligible (only meaningful for shapers; work-conserving qdiscs return the
  current time whenever they have a backlog).
* :meth:`Qdisc.peek` — the head-of-line candidate, without mutating any
  state (see the method docstring for what "candidate" means for AQMs and
  schedulers whose dequeue is stateful).
* ``len(qdisc)`` and :attr:`Qdisc.backlog_bytes` — queue occupancy.
  ``backlog_bytes``/``backlog_packets`` are plain integer attributes kept
  by the bookkeeping helpers below, so reading them is always O(1) — links
  read them per packet and probes on every tick.

Limits may be expressed in packets (``limit_packets``) or bytes
(``limit_bytes``); both default to "unlimited", and concrete disciplines
choose sensible defaults mirroring their Linux counterparts.
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import Packet


class Qdisc:
    """Base class for queueing disciplines."""

    def __init__(
        self,
        limit_packets: Optional[int] = None,
        limit_bytes: Optional[int] = None,
    ) -> None:
        if limit_packets is not None and limit_packets <= 0:
            raise ValueError("limit_packets must be positive")
        if limit_bytes is not None and limit_bytes <= 0:
            raise ValueError("limit_bytes must be positive")
        self.limit_packets = limit_packets
        self.limit_bytes = limit_bytes
        self.backlog_bytes = 0
        self.backlog_packets = 0
        self.dropped_packets = 0
        self.enqueued_packets = 0
        self.dequeued_packets = 0

    # -- interface --------------------------------------------------------

    def enqueue(self, packet: Packet, now: float) -> bool:
        """Accept ``packet`` or drop it.  Returns True if accepted."""
        raise NotImplementedError

    def dequeue(self, now: float) -> Optional[Packet]:
        """Release the next eligible packet, or ``None``."""
        raise NotImplementedError

    def next_ready_time(self, now: float) -> Optional[float]:
        """Earliest time a held packet may become eligible.

        Work-conserving qdiscs return ``now`` when they have a backlog and
        ``None`` when empty.  Shapers override this.
        """
        return now if self.backlog_packets > 0 else None

    def peek(self) -> Optional[Packet]:
        """Return the head-of-line candidate without dequeuing it.

        Must not mutate any state.  For plain queues this is exactly the
        packet the next :meth:`dequeue` returns.  For disciplines whose
        dequeue is stateful the contract is deliberately weaker — the
        *candidate* at the head of the currently scheduled queue:

        * AQMs (CoDel) may still drop the candidate at dequeue time;
        * DRR/FQ-CoDel may rotate to another class once deficits are
          charged;
        * a shaper (TBF) reports its staged/inner head even when no tokens
          are available yet (pair with :meth:`next_ready_time`).

        Returns ``None`` when empty.
        """
        raise NotImplementedError

    def walk(self):
        """Yield this discipline and every wrapped inner one, outermost first.

        Shapers nest (the sendbox's token bucket wraps the scheduling
        policy), and control planes install them after link construction —
        so telemetry and probes walk the chain at read time rather than
        caching it.  Reading each level's ``backlog_bytes`` stays O(1).
        """
        qdisc = self
        while qdisc is not None:
            yield qdisc
            qdisc = getattr(qdisc, "inner", None)

    def __len__(self) -> int:
        return self.backlog_packets

    # -- bookkeeping helpers for subclasses --------------------------------

    def _would_exceed_limit(self, packet: Packet) -> bool:
        if self.limit_packets is not None and self.backlog_packets + 1 > self.limit_packets:
            return True
        if self.limit_bytes is not None and self.backlog_bytes + packet.size > self.limit_bytes:
            return True
        return False

    def _account_enqueue(self, packet: Packet) -> None:
        self.backlog_packets += 1
        self.backlog_bytes += packet.size
        self.enqueued_packets += 1

    def _account_dequeue(self, packet: Packet) -> None:
        self.backlog_packets -= 1
        self.backlog_bytes -= packet.size
        self.dequeued_packets += 1

    def _account_drop(self, packet: Packet, *, was_queued: bool = False) -> None:
        self.dropped_packets += 1
        if was_queued:
            self.backlog_packets -= 1
            self.backlog_bytes -= packet.size
