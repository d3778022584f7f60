"""Deficit Round Robin (DRR) scheduling [Shreedhar & Varghese 1995].

DRR serves per-flow queues in round-robin order, letting each queue send up
to its accumulated byte deficit per round.  Unlike SFQ's one-packet-per-turn
round robin, DRR is byte-fair even with heterogeneous packet sizes, and it
supports per-class weights, which makes it a useful sendbox policy when an
operator wants weighted bandwidth shares between traffic classes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from repro.net.packet import Packet
from repro.qdisc.base import Qdisc


class _DrrClass:
    """Per-class state: one ring buffer plus its byte deficit."""

    __slots__ = ("queue", "deficit")

    def __init__(self) -> None:
        self.queue: Deque[Packet] = deque()
        self.deficit = 0.0


class DrrQdisc(Qdisc):
    """Weighted deficit-round-robin over per-flow (or per-class) queues."""

    DEFAULT_LIMIT_PACKETS = 4000

    def __init__(
        self,
        quantum: int = 1514,
        limit_packets: Optional[int] = None,
        limit_bytes: Optional[int] = None,
        classifier: Optional[Callable[[Packet], int]] = None,
        weights: Optional[Dict[int, float]] = None,
    ) -> None:
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        if limit_packets is None and limit_bytes is None:
            limit_packets = self.DEFAULT_LIMIT_PACKETS
        super().__init__(limit_packets=limit_packets, limit_bytes=limit_bytes)
        self.quantum = quantum
        self.classifier = classifier or (lambda pkt: pkt.flow_hash() % 1024)
        self.weights = weights or {}
        self._classes: Dict[int, _DrrClass] = {}
        self._active: Deque[int] = deque()

    def _class_quantum(self, key: int) -> float:
        return self.quantum * self.weights.get(key, 1.0)

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self._would_exceed_limit(packet):
            self._account_drop(packet)
            return False
        key = self.classifier(packet)
        cls = self._classes.get(key)
        if cls is None:
            cls = self._classes[key] = _DrrClass()
        if not cls.queue and key not in self._active:
            self._active.append(key)
            cls.deficit = 0.0
        cls.queue.append(packet)
        self._account_enqueue(packet)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        rounds = 0
        while self._active and rounds <= 2 * len(self._active) + 2:
            key = self._active[0]
            cls = self._classes[key]
            queue = cls.queue
            if not queue:
                self._active.popleft()
                continue
            head = queue[0]
            if cls.deficit < head.size:
                # Not enough deficit: grant a quantum and rotate to the back.
                cls.deficit += self._class_quantum(key)
                self._active.rotate(-1)
                rounds += 1
                continue
            queue.popleft()
            cls.deficit -= head.size
            self._account_dequeue(head)
            if not queue:
                self._active.popleft()
            return head
        # Degenerate case: a packet larger than any accumulated deficit with a
        # tiny quantum.  Serve the head of the first active queue, uncharged,
        # to preserve work conservation (tests/test_qdisc_reference.py states
        # the contract and holds this class to it).
        while self._active:
            key = self._active[0]
            queue = self._classes[key].queue
            if not queue:
                self._active.popleft()
                continue
            head = queue.popleft()
            self._account_dequeue(head)
            if not queue:
                self._active.popleft()
            return head
        return None

    def peek(self) -> Optional[Packet]:
        """Head of the first active class; deficit rotation at dequeue time
        may serve a different class first."""
        for key in self._active:
            queue = self._classes[key].queue
            if queue:
                return queue[0]
        return None

    def active_classes(self) -> int:
        """Number of classes with queued packets."""
        return sum(1 for cls in self._classes.values() if cls.queue)
