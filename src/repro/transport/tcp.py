"""TCP-like reliable transport.

This is a deliberately compact but behaviourally faithful TCP model:

* the sender keeps ``pipe <= cwnd`` where the congestion window comes from a
  pluggable :class:`~repro.cc.base.WindowCongestionControl` (Cubic by
  default, matching §7.1) and ``pipe`` is the SACK-adjusted amount of data
  in flight;
* the receiver acknowledges every data segment cumulatively and reports
  selective-acknowledgement (SACK) blocks for out-of-order data;
* a segment is marked lost once three segments' worth of data above it has
  been selectively acknowledged (SACK-based fast retransmit), triggering a
  single window reduction per round trip;
* a retransmission timeout (RFC 6298-style SRTT/RTTVAR estimator with
  exponential backoff) acts as the last-resort recovery mechanism;
* retransmitted segments are excluded from RTT sampling (Karn's rule).

A flow has an end of life.  When the sender has every byte acknowledged it
*closes*: it releases its port, leaves the simulator's flow registry (its
counters folded into the registry's totals) and drops its completion
callback, so nothing but a caller's own reference keeps it — or its
scoreboard and congestion controller — alive.  Every packet that can still
reach that port is one the completed sender ignored anyway (``ack <=
snd_una`` on an empty scoreboard).  The *receiver* stays registered for the
rest of the simulation: it re-ACKs duplicate data, and those ACKs are link
packets.  Since receivers therefore accumulate, one per flow ever issued,
every class here declares ``__slots__`` and allocates its rarely used
containers on first use.  See "Flow lifetime and memory" in
``docs/simcore.md``.

Segments are modelled as whole packets of up to ``mss`` payload bytes;
header overhead is not modelled separately (the evaluation's quantities are
all relative, so a constant per-packet overhead would cancel out).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.cc.base import WindowCongestionControl
from repro.cc.cubic import CubicCC
from repro.net.node import Host
from repro.net.packet import Packet, PacketFactory
from repro.net.simulator import CancelToken, Simulator

#: ACK packet size in bytes (pure ACK, no payload).
ACK_SIZE = 40

#: Minimum and initial retransmission timeouts, seconds.
MIN_RTO = 0.2
INITIAL_RTO = 1.0
MAX_RTO = 60.0

#: A segment is declared lost once this many bytes above it have been SACKed.
REORDER_BYTES = 3 * 1500

#: Maximum number of SACK blocks carried in one ACK.  Real TCP is limited to
#: 3-4 blocks per ACK and relies on the scoreboard accumulating across many
#: ACKs; carrying the (merged) block list directly keeps the simulated sender's
#: scoreboard exact without modelling that accumulation packet-by-packet.
#: When the receiver holds more ranges than this, the ACK carries the
#: *lowest* ones (those nearest the cumulative ACK point).
MAX_SACK_BLOCKS = 256

_RANGE_END = itemgetter(1)

#: The block memo of a sender that has applied no SACK block list (yet, or
#: since its last timeout) — one shared constant, not an object per sender.
_NO_BLOCKS: FrozenSet[Tuple[int, int]] = frozenset()


def _touching(ranges: Sequence[Sequence[int]], start: int, end: int) -> Tuple[int, int]:
    """``(i, j)`` such that ``ranges[i:j]`` overlap or touch ``[start, end)``.

    ``ranges`` is sorted, disjoint and non-adjacent, so its ends ascend too
    and the first candidate is found by bisect on them; inserting the union
    of ``[start, end)`` and ``ranges[i:j]`` at ``[i:j]`` keeps it that way.
    """
    i = j = bisect_left(ranges, start, key=_RANGE_END)
    while j < len(ranges) and ranges[j][0] <= end:
        j += 1
    return i, j


@dataclass(slots=True)
class _SegmentState:
    """Sender-side bookkeeping for one transmitted, not-yet-acked segment."""

    seq: int
    size: int
    sent_time: float
    retransmitted: bool = False
    sacked: bool = False
    lost: bool = False


class TcpSender:
    """Sending side of a TCP-like connection with SACK loss recovery."""

    __slots__ = (
        "sim", "host", "factory", "flow_id", "port", "dst_address", "dst_port",
        "size_bytes", "cc", "mss", "traffic_class", "on_complete",
        "snd_nxt", "snd_una", "completed", "started", "start_time",
        "complete_time", "retransmissions", "timeouts", "packets_sent",
        "_segments", "_pipe", "_hs", "_retx_seqs", "_retx_order", "_sack_floor",
        "_sacked_ranges", "_sack_applied", "_lost_heap", "_has_lost",
        "_has_sacked", "_srtt", "_rttvar", "_rto", "_rto_timer",
        "_recovery_until", "__weakref__",
    )

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        factory: PacketFactory,
        *,
        flow_id: int,
        port: int,
        dst_address: int,
        dst_port: int,
        size_bytes: Optional[int],
        cc: Optional[WindowCongestionControl] = None,
        mss: int = 1500,
        traffic_class: int = 0,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.factory = factory
        self.flow_id = flow_id
        self.port = port
        self.dst_address = dst_address
        self.dst_port = dst_port
        self.size_bytes = size_bytes
        self.cc = cc if cc is not None else CubicCC(mss=mss)
        self.mss = mss
        self.traffic_class = traffic_class
        self.on_complete = on_complete

        self.snd_nxt = 0
        self.snd_una = 0
        self.completed = False
        self.started = False
        self.start_time: Optional[float] = None
        self.complete_time: Optional[float] = None
        self.retransmissions = 0
        self.timeouts = 0
        self.packets_sent = 0

        # The scoreboard.  Segments are inserted at ever-increasing ``snd_nxt``
        # and only ever deleted from the front (cumulative ACKs), so the dict's
        # insertion order *is* ascending sequence order — iteration replaces
        # every ``sorted()`` the hot path used to need.  Derived quantities the
        # ACK path would otherwise recompute by scanning the scoreboard are
        # maintained incrementally at each state transition:
        #   _pipe       sum of sizes of segments neither SACKed nor lost
        #   _hs         highest SACKed byte (``None`` when nothing is SACKed)
        #   _retx_seqs  seqs of segments currently carrying ``retransmitted=True``
        #   _lost_heap  min-heap of possibly-lost seqs, validated lazily
        #   _sack_floor below this seq every segment is SACKed, lost or
        #               retransmitted — states the SACK loss rule skips — and
        #               provably stays that way, so loss detection never
        #               rescans below it
        #   _sacked_ranges sorted disjoint [lo, hi) byte ranges exactly
        #               covering the SACKed segments, so applying an ACK's
        #               blocks only walks the *newly* covered bytes
        #   _sack_applied  the blocks of the last applied block list, so an
        #               ACK only applies the blocks it adds
        #   _retx_order outstanding retransmissions' seqs in send order, so
        #               the time rule stops at the first one still young
        # ``_retx_seqs`` and ``_retx_order`` are allocated on first use: most
        # flows never retransmit.
        self._segments: Dict[int, _SegmentState] = {}
        self._pipe = 0
        self._hs: Optional[int] = None
        self._retx_seqs: Optional[set] = None
        self._retx_order: Optional[Deque[int]] = None
        self._sack_floor = 0
        self._sacked_ranges: List[List[int]] = []
        self._sack_applied = _NO_BLOCKS
        self._lost_heap: List[int] = []
        self._has_lost = False
        self._has_sacked = False
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._rto = INITIAL_RTO
        self._rto_timer: Optional[CancelToken] = None
        self._recovery_until = -1  # end (snd_nxt) of the current loss-recovery window

        host.register_agent(port, self)
        sim.observe_flow(self)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin transmitting."""
        if self.started:
            return
        self.started = True
        self.start_time = self.sim.now
        self._try_send()

    def stop(self) -> None:
        """Stop a backlogged (unbounded) flow and release its port.

        With nothing outstanding the sender completes, and closes, here;
        otherwise it stays in the flow registry, deaf, with its counters.
        """
        self.size_bytes = self.snd_nxt
        self._finish_if_done()
        self._cancel_rto()
        self.host.deregister_agent(self.port)

    @property
    def cwnd_bytes(self) -> int:
        """The congestion controller's current window (read-only).

        Exposed on the sender so observers (the probe layer samples this
        per tick) never reach into ``cc`` internals.
        """
        return self.cc.cwnd_bytes

    @property
    def bytes_acked(self) -> int:
        return self.snd_una

    @property
    def inflight_bytes(self) -> int:
        """Bytes sent and not yet cumulatively acknowledged."""
        return self.snd_nxt - self.snd_una

    @property
    def pipe_bytes(self) -> int:
        """SACK-adjusted estimate of bytes currently in the network."""
        return self._pipe

    @property
    def srtt(self) -> Optional[float]:
        """Smoothed RTT estimate of this connection."""
        return self._srtt

    def _remaining_bytes(self) -> Optional[int]:
        if self.size_bytes is None:
            return None
        return max(self.size_bytes - self.snd_nxt, 0)

    # -- sending ----------------------------------------------------------------

    def _next_new_segment_size(self) -> int:
        remaining = self._remaining_bytes()
        if remaining is None:
            return self.mss
        return min(self.mss, remaining)

    def _try_send(self) -> None:
        if self.completed:
            return
        # Track the SACK-adjusted pipe locally while sending; the instance
        # counter is updated by _transmit_new/_retransmit_segment as we go.
        pipe = self._pipe
        budget_guard = 0
        while budget_guard < 100_000:
            budget_guard += 1
            # First priority: retransmit segments marked lost.
            lost = self._next_lost_segment()
            if lost is not None:
                if pipe + lost.size > self.cc.cwnd_bytes and pipe > 0:
                    break
                self._retransmit_segment(lost)
                pipe += lost.size
                continue
            # Then send new data.
            seg = self._next_new_segment_size()
            if seg <= 0:
                break
            if pipe + seg > self.cc.cwnd_bytes:
                break
            self._transmit_new(self.snd_nxt, seg)
            self.snd_nxt += seg
            pipe += seg
        self._arm_rto()

    def _next_lost_segment(self) -> Optional[_SegmentState]:
        if not self._has_lost:
            return None
        # Heap entries are only hints: a seq may since have been cumulatively
        # acked (gone), retransmitted (lost cleared) or SACKed.  Stale tops are
        # discarded here; every segment whose ``lost`` flag is (re)set has its
        # seq (re)pushed, so the heap top is the lowest genuinely lost seq.
        heap = self._lost_heap
        segments = self._segments
        while heap:
            state = segments.get(heap[0])
            if state is not None and state.lost and not state.sacked:
                return state
            heapq.heappop(heap)
        self._has_lost = False
        return None

    def _make_packet(self, seq: int, size: int) -> Packet:
        return self.factory.make(
            flow_id=self.flow_id,
            src=self.host.address,
            dst=self.dst_address,
            src_port=self.port,
            dst_port=self.dst_port,
            seq=seq,
            size=size,
            traffic_class=self.traffic_class,
            created_at=self.sim.now,
        )

    def _transmit_new(self, seq: int, size: int) -> None:
        now = self.sim.now
        self._segments[seq] = _SegmentState(seq=seq, size=size, sent_time=now)
        self._pipe += size
        self.packets_sent += 1
        self.host.send(self._make_packet(seq, size))

    def _retransmit_segment(self, state: _SegmentState) -> None:
        state.lost = False  # back in flight; may be marked lost again later
        self._pipe += state.size
        order = self._retx_order
        if order is None:
            order = self._retx_order = deque()
            self._retx_seqs = set()
        if not state.retransmitted:
            state.retransmitted = True
            self._retx_seqs.add(state.seq)
        state.sent_time = self.sim.now
        order.append(state.seq)
        self.retransmissions += 1
        self.packets_sent += 1
        self.host.send(self._make_packet(state.seq, state.size))

    # -- receiving ACKs ------------------------------------------------------------

    def on_packet(self, packet: Packet, now: float) -> None:
        if not packet.is_ack or packet.flow_id != self.flow_id:
            return
        payload = packet.payload or {}
        ack = payload.get("ack", 0)

        newly_acked = 0
        if ack > self.snd_una:
            newly_acked = ack - self.snd_una
            self._sample_rtt(ack, now)
            # Cumulatively acked segments are exactly a prefix of the
            # scoreboard (insertion order is seq order), so stop at the first
            # survivor instead of scanning the whole dict.
            segments = self._segments
            dead: List[int] = []
            for seq, state in segments.items():
                if seq >= ack:
                    break
                dead.append(seq)
                if not state.sacked and not state.lost:
                    self._pipe -= state.size
                if state.retransmitted:
                    self._retx_seqs.discard(seq)
            for seq in dead:
                del segments[seq]
            if self._hs is not None and ack >= self._hs:
                # ACK boundaries are segment boundaries, so an ack at or above
                # the highest SACKed byte has deleted every SACKed segment.
                self._hs = None
            ranges = self._sacked_ranges
            if ranges:
                while ranges and ranges[0][1] <= ack:
                    ranges.pop(0)
                if ranges and ranges[0][0] < ack:
                    ranges[0][0] = ack
            self.snd_una = ack
            self._arm_rto(reset=True)

        self._apply_sack(payload.get("sack", ()))
        lost_found = self._detect_losses()
        if lost_found and self.snd_una >= self._recovery_until:
            # At most one congestion-window reduction per window of data.
            self.cc.on_loss(now)
            self._recovery_until = self.snd_nxt

        if newly_acked > 0:
            self.cc.on_ack(now, newly_acked, self._srtt or 0.0)
            self._finish_if_done()
        if not self.completed:
            self._try_send()

    def _apply_sack(self, blocks: List[Tuple[int, int]]) -> None:
        if not blocks or not self._segments:
            return
        self._has_sacked = True
        # Applying a block marks every segment of [max(start, snd_una), end)
        # SACKed, and nothing un-SACKs a segment before the next RTO — so a
        # block applied once stays a no-op until ``_on_rto`` resets this
        # memo.  Only the blocks the previous ACK did not carry are applied.
        carried = frozenset(blocks)
        fresh = carried.difference(self._sack_applied)
        self._sack_applied = carried
        snd_una = self.snd_una
        ranges = self._sacked_ranges
        for start, end in fresh:
            if start < snd_una:
                start = snd_una
            if start >= end:
                continue
            # Mark the gaps between the known ranges the block overlaps or
            # touches, then splice the union in their place.  Every byte is
            # marked at most once per connection epoch.
            i, j = _touching(ranges, start, end)
            pos = start
            for lo, hi in ranges[i:j]:
                if pos < lo:
                    self._mark_sacked(pos, lo)
                if pos < hi:
                    pos = hi
            if pos < end:
                self._mark_sacked(pos, end)
                pos = end
            if j > i and ranges[i][0] < start:
                start = ranges[i][0]
            ranges[i:j] = [[start, pos]]

    def _mark_sacked(self, lo: int, hi: int) -> None:
        """Mark the not-yet-SACKed segments that make up ``[lo, hi)``.

        Walks the scoreboard by key: block boundaries are segment boundaries
        and the scoreboard partitions ``[snd_una, snd_nxt)``.
        """
        segments = self._segments
        seq = lo
        while seq < hi:
            state = segments[seq]
            state.sacked = True
            if not state.lost:
                self._pipe -= state.size
            seq += state.size
        if self._hs is None or hi > self._hs:
            self._hs = hi

    def _detect_losses(self) -> bool:
        """SACK- and time-based loss detection.

        A never-retransmitted segment is lost once three segments' worth of
        data above it has been SACKed (classic SACK fast retransmit).  A
        retransmitted segment is only re-declared lost on a time basis (its
        retransmission has had ample time to be acknowledged), which recovers
        lost retransmissions without waiting for the RTO and without the
        retransmission storms that re-applying the SACK rule would cause.
        """
        if not self._segments:
            return False
        if not self._has_sacked and not self._has_lost and self.retransmissions == 0:
            # Fast path: nothing has ever been SACKed or retransmitted, so no
            # loss evidence can exist yet.
            return False
        segments = self._segments
        found = False
        # Time rule: only outstanding retransmitted segments are eligible.
        # They sit in ``_retx_order`` by (non-decreasing) retransmission
        # time, so their age is monotone along it: drop heads that are gone
        # (cumulatively acked), SACKed or lost, mark the over-age ones lost,
        # and stop at the first that is still young.  A marked segment leaves
        # the queue, so each outstanding retransmission has exactly one entry
        # and ``sent_time`` is the time it was appended.
        if self._retx_seqs:
            now = self.sim.now
            reorder_window = 1.5 * (self._srtt if self._srtt is not None else INITIAL_RTO)
            order = self._retx_order
            while order:
                rseq = order[0]
                state = segments.get(rseq)
                if state is not None and not (state.sacked or state.lost):
                    if now - state.sent_time <= reorder_window:
                        break
                    state.lost = True
                    self._pipe -= state.size
                    heapq.heappush(self._lost_heap, rseq)
                    found = True
                order.popleft()
        # SACK rule: eligible segments sit below the reorder bound, and the
        # scoreboard is a contiguous byte partition, so walk it by key from
        # the exemption floor.  Everything the walk covers ends up SACKed,
        # lost or retransmitted, so the floor advances to the walk's end and
        # no ACK ever rescans the same region.
        highest_sacked = self._hs
        if highest_sacked is not None:
            bound = highest_sacked - REORDER_BYTES
            seq = self._sack_floor
            if seq < self.snd_una:
                seq = self.snd_una
            while seq <= bound:
                state = segments.get(seq)
                if state is None:
                    break
                if not (state.sacked or state.lost or state.retransmitted):
                    state.lost = True
                    self._pipe -= state.size
                    heapq.heappush(self._lost_heap, seq)
                    found = True
                seq += state.size
            self._sack_floor = seq
        if found:
            self._has_lost = True
        return found

    def _sample_rtt(self, ack: int, now: float) -> None:
        # Use the send time of the highest segment covered by this ACK that
        # was not retransmitted (Karn's algorithm).  Candidates are confined
        # to the acked prefix of the (seq-ordered) scoreboard, so the scan
        # stops at the first surviving segment.
        newest: Optional[_SegmentState] = None
        for state in self._segments.values():
            if state.seq >= ack:
                break
            if not state.retransmitted:
                newest = state
        if newest is None:
            return
        rtt = now - newest.sent_time
        if rtt <= 0:
            return
        if self._srtt is None:
            self._srtt = rtt
            self._rttvar = rtt / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - rtt)
            self._srtt = 0.875 * self._srtt + 0.125 * rtt
        self._rto = min(max(self._srtt + 4.0 * self._rttvar, MIN_RTO), MAX_RTO)

    # -- timers --------------------------------------------------------------------

    def _cancel_rto(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None

    def _arm_rto(self, reset: bool = False) -> None:
        if self.completed or self.inflight_bytes <= 0:
            self._cancel_rto()
            return
        if reset or self._rto_timer is None:
            self._cancel_rto()
            self._rto_timer = self.sim.schedule(self._rto, self._on_rto)

    def _on_rto(self) -> None:
        self._rto_timer = None
        if self.completed or self.inflight_bytes <= 0:
            return
        now = self.sim.now
        self.timeouts += 1
        self.cc.on_timeout(now, flight_bytes=self.inflight_bytes)
        self._rto = min(self._rto * 2.0, MAX_RTO)
        # Everything in flight is suspect after a timeout: clear SACK state and
        # mark all outstanding segments lost so they are retransmitted under
        # the (now tiny) congestion window.
        for state in self._segments.values():
            state.sacked = False
            state.lost = True
            state.retransmitted = False
        # Everything is now lost: nothing is in the pipe, nothing is SACKed,
        # nothing is retransmitted — which also makes the whole scoreboard
        # exempt from the SACK loss rule.  An ascending list is already a
        # valid min-heap, so the scoreboard's key order seeds the lost heap.
        self._pipe = 0
        self._hs = None
        if self._retx_order is not None:
            self._retx_seqs.clear()
            self._retx_order.clear()
        self._sack_floor = self.snd_nxt
        self._sacked_ranges = []
        self._sack_applied = _NO_BLOCKS
        self._lost_heap = list(self._segments)
        self._has_lost = bool(self._segments)
        self._has_sacked = False
        self._recovery_until = self.snd_nxt
        # _try_send re-arms the (backed-off) RTO once it has queued the
        # retransmissions; scheduling it again here would leak a second timer.
        self._try_send()

    # -- completion -------------------------------------------------------------------

    def _finish_if_done(self) -> None:
        if self.completed or self.size_bytes is None:
            return
        if self.snd_una >= self.size_bytes:
            self.completed = True
            self.complete_time = self.sim.now
            self._cancel_rto()
            # Close (see the module docstring).  The scalar state — window,
            # ``snd_una``, times, counters — stays readable for whoever
            # still holds the sender (the probe layer holds its first few).
            self.host.deregister_agent(self.port)
            self.sim.close_flow(self)
            on_complete, self.on_complete = self.on_complete, None
            if on_complete is not None:
                on_complete(self.sim.now)


class TcpReceiver:
    """Receiving side: cumulative ACKs with SACK blocks for out-of-order data.

    Registered on its port for the rest of the simulation (a duplicate
    segment arriving after completion is still ACKed), so this is the
    object a finished flow leaves behind: slotted, and with no container
    until data arrives out of order.
    """

    __slots__ = (
        "sim", "host", "factory", "flow_id", "port", "expected_bytes",
        "on_complete", "rcv_nxt", "bytes_received", "packets_received",
        "complete_time", "completed", "_ranges",
    )

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        factory: PacketFactory,
        *,
        flow_id: int,
        port: int,
        expected_bytes: Optional[int] = None,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.factory = factory
        self.flow_id = flow_id
        self.port = port
        self.expected_bytes = expected_bytes
        self.on_complete = on_complete

        self.rcv_nxt = 0
        self.bytes_received = 0
        self.packets_received = 0
        self.complete_time: Optional[float] = None
        self.completed = False
        # Out-of-order data: sorted, disjoint, non-adjacent [start, end)
        # ranges, stored as the very tuples the SACK blocks are.  ``None``
        # until the first out-of-order arrival.
        self._ranges: Optional[List[Tuple[int, int]]] = None

        host.register_agent(port, self)

    # -- out-of-order range bookkeeping ------------------------------------------

    def _insert_range(self, start: int, end: int) -> None:
        # Fast paths for the dominant arrival pattern: data beyond a hole
        # lands in order, either extending the newest range or opening a new
        # one past it.  Stored ranges are disjoint, non-adjacent and sorted,
        # so comparing against the last range alone is sufficient.
        ranges = self._ranges
        if not ranges:
            if ranges is None:
                self._ranges = [(start, end)]
            else:
                ranges.append((start, end))
            return
        last_lo, last_hi = ranges[-1]
        if start > last_hi:
            ranges.append((start, end))
            return
        if start == last_hi:
            if end > last_hi:
                ranges[-1] = (last_lo, end)
            return
        # A hole is being filled: the union of the new data and the ranges
        # it overlaps or touches replaces them.
        i, j = _touching(ranges, start, end)
        if j > i:
            start = min(start, ranges[i][0])
            end = max(end, ranges[j - 1][1])
        ranges[i:j] = [(start, end)]

    def _advance_cumulative(self) -> None:
        while self._ranges and self._ranges[0][0] <= self.rcv_nxt:
            lo, hi = self._ranges.pop(0)
            self.rcv_nxt = max(self.rcv_nxt, hi)

    def sack_blocks(self) -> List[Tuple[int, int]]:
        """Current out-of-order ranges, lowest first, capped to the block limit.

        Past ``MAX_SACK_BLOCKS`` ranges the *lowest* ones are reported (the
        ones next to the cumulative ACK point), not the newest.
        """
        ranges = self._ranges
        return ranges[:MAX_SACK_BLOCKS] if ranges else []

    # -- datapath -------------------------------------------------------------------

    def on_packet(self, packet: Packet, now: float) -> None:
        if packet.is_ack or packet.flow_id != self.flow_id:
            return
        self.packets_received += 1
        self.bytes_received += packet.size
        seq, size = packet.seq, packet.size
        if seq == self.rcv_nxt:
            self.rcv_nxt += size
            self._advance_cumulative()
        elif seq > self.rcv_nxt:
            self._insert_range(seq, seq + size)
        else:
            # Duplicate of already-delivered data; ACK it again.
            pass
        self._send_ack(packet)
        self._finish_if_done()

    def _send_ack(self, data_packet: Packet) -> None:
        ack = self.factory.make(
            flow_id=self.flow_id,
            src=self.host.address,
            dst=data_packet.src,
            src_port=self.port,
            dst_port=data_packet.src_port,
            seq=self.rcv_nxt,
            size=ACK_SIZE,
            is_ack=True,
            created_at=self.sim.now,
            payload={"ack": self.rcv_nxt, "sack": self.sack_blocks()},
        )
        self.host.send(ack)

    def _finish_if_done(self) -> None:
        if self.completed or self.expected_bytes is None:
            return
        if self.rcv_nxt >= self.expected_bytes:
            self.completed = True
            self.complete_time = self.sim.now
            # One-shot: the receiver outlives the flow and must not pin it.
            on_complete, self.on_complete = self.on_complete, None
            if on_complete is not None:
                on_complete(self.sim.now)
