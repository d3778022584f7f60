"""The two traffic sources a trace cannot express.

Open-loop load — anything whose arrivals do not depend on the network — is
a trace replayed by :class:`repro.traffic.replay.TraceReplayWorkload`.  The
sources here are closed-loop, so no list of timed events describes them:

* :class:`BackloggedFlows` — bulk TCP flows with *no size*: they send for as
  long as the run lasts (the buffer-filling cross traffic of §7.3 and the
  bundled iperf flows of §8).  A ``flow`` trace event carries a byte count.
* :class:`ClosedLoopProbes` — 40-byte request/response loops where each send
  *waits for the previous reply* (the §8 latency probes), so send times are
  an output of the run, not an input to it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.cc import make_window_cc
from repro.net.node import Host
from repro.net.packet import PacketFactory
from repro.net.simulator import Simulator
from repro.transport.flow import TcpFlow
from repro.transport.udp import ClosedLoopPinger


class BackloggedFlows:
    """Long-running bulk TCP flows (buffer-filling when loss-based)."""

    def __init__(
        self,
        sim: Simulator,
        factory: PacketFactory,
        pairs: Sequence[tuple],
        *,
        endhost_cc: str = "cubic",
        endhost_cc_factory: Optional[Callable[[], object]] = None,
        traffic_class: int = 0,
        mss: int = 1500,
    ) -> None:
        """``pairs`` is a sequence of (src_host, dst_host) tuples, one per flow."""
        if not pairs:
            raise ValueError("need at least one (src, dst) pair")
        self.sim = sim
        self.factory = factory
        self.pairs = list(pairs)
        self.endhost_cc = endhost_cc
        self.endhost_cc_factory = endhost_cc_factory
        self.traffic_class = traffic_class
        self.mss = mss
        self.flows: List[TcpFlow] = []

    def _make_cc(self):
        if self.endhost_cc_factory is not None:
            return self.endhost_cc_factory()
        return make_window_cc(self.endhost_cc, mss=self.mss)

    def start(self, at: float = 0.0, stagger_s: float = 0.05) -> "BackloggedFlows":
        """Start all flows, staggered slightly so they do not synchronize."""
        for i, (src, dst) in enumerate(self.pairs):
            flow = TcpFlow(
                self.sim,
                self.factory,
                src,
                dst,
                size_bytes=None,
                cc=self._make_cc(),
                mss=self.mss,
                traffic_class=self.traffic_class,
            )
            self.flows.append(flow)
            flow.start(delay=max(at - self.sim.now, 0.0) + i * stagger_s)
        return self

    def stop(self) -> None:
        for flow in self.flows:
            flow.stop()

    def total_bytes_delivered(self) -> int:
        return sum(flow.receiver.rcv_nxt for flow in self.flows)

    def mean_throughput_bps(self, duration_s: float) -> float:
        """Aggregate goodput of the backlogged flows over ``duration_s``."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        return self.total_bytes_delivered() * 8.0 / duration_s


class ClosedLoopProbes:
    """Parallel closed-loop request/response probes (the §8 latency workload)."""

    def __init__(
        self,
        sim: Simulator,
        factory: PacketFactory,
        src_host: Host,
        dst_host: Host,
        *,
        count: int = 10,
        probe_size: int = 40,
        traffic_class: int = 0,
    ) -> None:
        if count < 1:
            raise ValueError("need at least one probe loop")
        self.pingers = [
            ClosedLoopPinger(
                sim,
                factory,
                src_host,
                dst_host,
                probe_size=probe_size,
                traffic_class=traffic_class,
            )
            for _ in range(count)
        ]

    def start(self) -> "ClosedLoopProbes":
        for pinger in self.pingers:
            pinger.start()
        return self

    def stop(self) -> None:
        for pinger in self.pingers:
            pinger.stop()

    def all_rtts(self) -> List[float]:
        """All request/response RTT samples across the probe loops."""
        rtts: List[float] = []
        for pinger in self.pingers:
            rtts.extend(pinger.rtts)
        return rtts

    def per_probe_rtts(self) -> List[List[float]]:
        """RTT samples per probe loop (one list per 5-tuple, as in Figure 16)."""
        return [list(pinger.rtts) for pinger in self.pingers]
