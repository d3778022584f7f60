"""Flow-level convenience wrapper around the TCP sender/receiver pair.

Experiments deal in *flows* ("a 37 KB response from server 3 to the
client"), not in raw senders and receivers.  :class:`TcpFlow` allocates the
flow id and port, wires a :class:`~repro.transport.tcp.TcpSender` on the
source host to a :class:`~repro.transport.tcp.TcpReceiver` on the
destination host, and produces a :class:`FlowRecord` suitable for
flow-completion-time analysis.

A flow *closes* when its sender has every byte acknowledged (the receiver
completed a one-way delay earlier): the flow takes its one final
:class:`FlowRecord` — what :meth:`TcpFlow.record` returns from then on —
and tells ``on_close``.  By then the sender and receiver have dropped their
callbacks into the flow, so a holder that swaps the flow for its record
(:class:`~repro.traffic.replay.TraceReplayWorkload` does) frees flow,
sender, scoreboard and controller by reference counting alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cc.base import WindowCongestionControl
from repro.net.node import Host
from repro.net.packet import PacketFactory
from repro.net.simulator import Simulator
from repro.transport.tcp import TcpReceiver, TcpSender

def next_flow_id(sim: Simulator) -> int:
    """Allocate a flow identifier scoped to ``sim``.

    Flow ids feed the SFQ flow hash, so allocation is strictly
    per-simulation: a process-global counter would make nominally identical
    runs diverge based on how many simulations ran before them.
    """
    return sim.next_flow_id()


def next_port(sim: Simulator) -> int:
    """Allocate a port number (used on both endpoints), scoped like
    :func:`next_flow_id`."""
    return sim.next_port()


@dataclass(slots=True)
class FlowRecord:
    """Outcome of one flow, as used by the FCT/slowdown analysis."""

    flow_id: int
    size_bytes: int
    start_time: float
    completion_time: Optional[float]
    traffic_class: int = 0
    retransmissions: int = 0

    @property
    def completed(self) -> bool:
        return self.completion_time is not None

    @property
    def fct(self) -> Optional[float]:
        """Flow completion time in seconds (``None`` if the flow never finished)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.start_time


class TcpFlow:
    """A single TCP transfer from ``src_host`` to ``dst_host``.

    ``on_complete(flow)`` fires when the receiver has all the bytes,
    ``on_close(flow)`` when the sender knows it (the last ACK is in) and
    the flow's final record exists.
    """

    __slots__ = (
        "sim", "size_bytes", "traffic_class", "flow_id", "port", "on_complete",
        "on_close", "start_time", "receiver", "sender", "_record", "__weakref__",
    )

    def __init__(
        self,
        sim: Simulator,
        factory: PacketFactory,
        src_host: Host,
        dst_host: Host,
        *,
        size_bytes: Optional[int],
        cc: Optional[WindowCongestionControl] = None,
        mss: int = 1500,
        traffic_class: int = 0,
        on_complete: Optional[Callable[["TcpFlow"], None]] = None,
        on_close: Optional[Callable[["TcpFlow"], None]] = None,
    ) -> None:
        self.sim = sim
        self.size_bytes = size_bytes
        self.traffic_class = traffic_class
        self.flow_id = next_flow_id(sim)
        self.port = next_port(sim)
        self.on_complete = on_complete
        self.on_close = on_close
        self.start_time: Optional[float] = None
        self._record: Optional[FlowRecord] = None

        self.receiver = TcpReceiver(
            sim,
            dst_host,
            factory,
            flow_id=self.flow_id,
            port=self.port,
            expected_bytes=size_bytes,
            on_complete=self._receiver_done,
        )
        self.sender = TcpSender(
            sim,
            src_host,
            factory,
            flow_id=self.flow_id,
            port=self.port,
            dst_address=dst_host.address,
            dst_port=self.port,
            size_bytes=size_bytes,
            cc=cc,
            mss=mss,
            traffic_class=traffic_class,
            on_complete=self._sender_done,
        )

    def start(self, delay: float = 0.0) -> "TcpFlow":
        """Start the transfer ``delay`` seconds from now."""
        def begin() -> None:
            self.start_time = self.sim.now
            self.sender.start()

        if delay <= 0:
            begin()
        else:
            self.sim.schedule(delay, begin)
        return self

    def stop(self) -> None:
        """Stop a backlogged flow."""
        self.sender.stop()

    def _receiver_done(self, now: float) -> None:
        on_complete, self.on_complete = self.on_complete, None
        if on_complete is not None:
            on_complete(self)

    def _sender_done(self, now: float) -> None:
        self._record = self._snapshot()
        on_close, self.on_close = self.on_close, None
        if on_close is not None:
            on_close(self)

    @property
    def closed(self) -> bool:
        """Has the sender completed (so :meth:`record` is final)?"""
        return self._record is not None

    @property
    def completed(self) -> bool:
        return self.receiver.completed

    @property
    def completion_time(self) -> Optional[float]:
        return self.receiver.complete_time

    @property
    def fct(self) -> Optional[float]:
        if self.start_time is None or self.receiver.complete_time is None:
            return None
        return self.receiver.complete_time - self.start_time

    @property
    def throughput_bps(self) -> Optional[float]:
        """Average goodput of the flow (completed flows only)."""
        fct = self.fct
        if fct is None or fct <= 0 or self.size_bytes is None:
            return None
        return self.size_bytes * 8.0 / fct

    def record(self) -> FlowRecord:
        """This flow as a :class:`FlowRecord`: the final one once the flow
        has closed, a snapshot of the flow so far before that."""
        return self._record if self._record is not None else self._snapshot()

    def _snapshot(self) -> FlowRecord:
        return FlowRecord(
            flow_id=self.flow_id,
            size_bytes=self.size_bytes if self.size_bytes is not None else self.sender.snd_una,
            start_time=self.start_time if self.start_time is not None else 0.0,
            completion_time=self.receiver.complete_time,
            traffic_class=self.traffic_class,
            retransmissions=self.sender.retransmissions,
        )
