"""DRR oracle: ``DrrQdisc`` against a naive reference, operation by operation.

``_ReferenceDrr`` is deficit round robin written to be read, not run fast:
one plain list per class, a dict of deficits, a list of active classes in
service order, everything recounted from the lists on demand.  Both are
driven by the same seeded schedule of interleaved enqueues and dequeues —
mixed packet sizes, per-class weights, a packet limit that is hit, classes
that drain and come back — and after *every* operation the return value
(accept/drop, the very packet dequeued), ``peek()``, ``backlog_packets``,
``backlog_bytes``, ``dropped_packets`` and ``active_classes()`` must agree.

The contract the reference writes down (it is ``DrrQdisc``'s behaviour, now
stated; the implementation is unchanged because ``bundler_drr`` is a
registered sendbox mode, and a different service order under the same
scenario ``version=`` would move result bytes under an unchanged cache key):

* a class that becomes active joins the *tail* of the round with deficit 0;
* one ``dequeue`` looks at the class at the head of the round: if its
  deficit covers its head packet, that packet leaves, the deficit is charged
  and the class keeps the head (its turn lasts while the deficit does);
  otherwise the class is granted ``quantum * weight`` and moves to the tail
  — so a newly active class first sends on its second visit;
* a class that drains leaves the round (and forgets its deficit);
* **tiny quantum**: one ``dequeue`` makes at most ``2 * active + 3`` grants.
  If no class could pay by then — a head packet larger than what that many
  rounds add up to — the class then at the head sends its head packet
  *uncharged* and keeps the deficit it has gathered.  Work conservation wins
  over byte fairness: a ``dequeue`` on a backlogged DRR always yields a
  packet.  (Textbook DRR would keep granting; this implementation bounds the
  loop instead, which also keeps a zero weight from spinning forever.)

Run under ``REPRO_SANITIZE=1`` the qdisc under test sits on an instrumented
link, so the sanitizer's backlog shadow checks every operation too (CI does).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.analysis.sanitizer import maybe_sanitizer
from repro.net.link import Link
from repro.net.packet import PacketFactory
from repro.net.simulator import Simulator
from repro.qdisc.drr import DrrQdisc
from repro.testing import make_packet
from repro.util.rng import derive_seed

CHUNKS = 8
TOTAL_SCHEDULES = max(CHUNKS, int(os.environ.get("REPRO_FUZZ_ITERS", "240")))
FUZZ_SALT = 0xD44


class _ReferenceDrr:
    """The contract in the module docstring, as literally as it can be put."""

    def __init__(self, quantum, limit_packets, weights):
        self.quantum = quantum
        self.limit_packets = limit_packets
        self.weights = weights
        self.queues = {}  # class -> its packets, head first
        self.deficits = {}  # class -> bytes it may still send this turn
        self.round = []  # active classes, head of the round first
        self.dropped_packets = 0
        self.uncharged = 0  # packets sent by the tiny-quantum rule
        self.reactivations = 0

    def _queued(self):
        return [packet for key in self.round for packet in self.queues[key]]

    @property
    def backlog_packets(self):
        return len(self._queued())

    @property
    def backlog_bytes(self):
        return sum(packet.size for packet in self._queued())

    def active_classes(self):
        return len(self.round)

    def peek(self):
        return self.queues[self.round[0]][0] if self.round else None

    def enqueue(self, packet):
        if self.backlog_packets == self.limit_packets:
            self.dropped_packets += 1
            return False
        key = packet.flow_id
        if key not in self.round:
            self.reactivations += key in self.queues
            self.queues[key] = []
            self.deficits[key] = 0.0
            self.round.append(key)
        self.queues[key].append(packet)
        return True

    def dequeue(self):
        if not self.round:
            return None
        for _ in range(2 * len(self.round) + 3):
            key = self.round[0]
            size = self.queues[key][0].size
            if self.deficits[key] >= size:
                self.deficits[key] -= size
                break
            self.deficits[key] += self.quantum * self.weights.get(key, 1.0)
            self.round.append(self.round.pop(0))
        else:
            key = self.round[0]
            self.uncharged += 1
        packet = self.queues[key].pop(0)
        if not self.queues[key]:
            self.round.remove(key)
        return packet


def _run_schedule(seed):
    """Drive both with one seeded schedule; returns the reference for its tallies."""
    rng = random.Random(seed)
    quantum = rng.choice((1, 40, 300, 1514, 1514, 3000))
    limit = rng.choice((6, 12, 40))
    classes = rng.randrange(1, 7)
    weights = {key: rng.choice((0.5, 1.0, 2.0, 3.0)) for key in range(classes) if rng.random() < 0.5}
    sanitizer = maybe_sanitizer()
    sim = Simulator()
    if sanitizer is not None:
        sanitizer.attach(sim)
    qdisc = DrrQdisc(
        quantum=quantum, limit_packets=limit, weights=weights,
        classifier=lambda packet: packet.flow_id,
    )
    Link(sim, "drr", 1e6, 0.0, qdisc)  # unconnected: only there to be instrumented
    reference = _ReferenceDrr(quantum, limit, weights)
    factory = PacketFactory()
    # Phases lean towards filling (the limit is hit) or towards draining
    # (classes empty and re-activate).
    for _phase in range(rng.randrange(3, 7)):
        p_enqueue = rng.choice((0.2, 0.5, 0.8))
        for _step in range(rng.randrange(10, 40)):
            if rng.random() < p_enqueue:
                packet = make_packet(
                    factory, flow_id=rng.randrange(classes),
                    size=rng.choice((40, 64, 576, 1500, rng.randrange(40, 1501))),
                )
                assert qdisc.enqueue(packet, 0.0) == reference.enqueue(packet)
            else:
                assert qdisc.dequeue(0.0) is reference.dequeue()
            assert qdisc.peek() is reference.peek()
            assert (qdisc.backlog_packets, qdisc.backlog_bytes) == (
                reference.backlog_packets, reference.backlog_bytes
            )
            assert len(qdisc) == reference.backlog_packets
            assert qdisc.dropped_packets == reference.dropped_packets
            assert qdisc.active_classes() == reference.active_classes()
    while reference.round:  # drain: the tail of the service order counts too
        assert qdisc.dequeue(0.0) is reference.dequeue()
    assert qdisc.dequeue(0.0) is None and qdisc.backlog_bytes == 0
    if sanitizer is not None:
        sanitizer.finalize()
        assert sanitizer.summary()["checks_performed"] > 0
    return reference


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_drr_matches_the_reference(chunk):
    tallies = {"dropped": 0, "uncharged": 0, "reactivations": 0}
    for index in range(chunk, TOTAL_SCHEDULES, CHUNKS):
        reference = _run_schedule(derive_seed(FUZZ_SALT, f"drr-reference-{index}"))
        tallies["dropped"] += reference.dropped_packets
        tallies["uncharged"] += reference.uncharged
        tallies["reactivations"] += reference.reactivations
    # Every chunk met every regime the contract names.
    assert all(tallies.values()), tallies
