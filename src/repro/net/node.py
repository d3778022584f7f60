"""Nodes: hosts, routers and middlebox attachment points.

* :class:`Host` terminates traffic: transports register themselves on a
  port, and the host delivers arriving packets to the matching agent.
* :class:`Router` forwards packets according to a static routing table with
  optional equal-cost multipath (ECMP) groups — per-flow or per-packet load
  balancing, which is what creates the imbalanced-multipath scenarios of
  §5.2 / §7.6.
* Both support *taps*: callbacks invoked for every packet that arrives at
  the node.  The Bundler receivebox is a tap (it passively observes packets,
  like the libpcap receivebox of the prototype), and tests use taps to
  capture traffic without disturbing it.

Addresses are small integers assigned by the topology builder; they play the
role of IP addresses in the epoch-boundary hash.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.simulator import Simulator

class Node:
    """Base class for anything that can receive packets."""

    def __init__(self, sim: Simulator, name: str, address: Optional[int] = None) -> None:
        self.sim = sim
        self.name = name
        self.address = address if address is not None else sim.next_address()
        self._taps: List[Callable[[Packet, float], None]] = []
        self._agents: Dict[int, object] = {}
        self.packets_received = 0

    def add_tap(self, tap: Callable[[Packet, float], None]) -> None:
        """Register a passive observer called for every arriving packet."""
        self._taps.append(tap)

    def register_agent(self, port: int, agent) -> None:
        """Attach an agent (transport endpoint) listening on ``port``."""
        if port in self._agents:
            raise ValueError(f"port {port} already has an agent on {self.name}")
        self._agents[port] = agent

    def deregister_agent(self, port: int) -> None:
        self._agents.pop(port, None)

    def receive(self, packet: Packet, link: Optional[Link]) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}, addr={self.address})"


class Host(Node):
    """An endpoint: terminates flows and originates traffic on a default link."""

    def __init__(self, sim: Simulator, name: str, address: Optional[int] = None) -> None:
        super().__init__(sim, name, address)
        self.egress: Optional[Link] = None
        #: Optional recycle hook (e.g. ``factory.recycle``): called after a
        #: packet is delivered locally, when this host is the packet's final
        #: owner.  Only set it when no agent on this host retains packets
        #: (see PacketFactory pooling).
        self.recycler: Optional[Callable[[Packet], None]] = None

    def attach_egress(self, link: Link) -> None:
        """Set the link this host uses to send traffic."""
        self.egress = link

    def send(self, packet: Packet) -> bool:
        """Transmit a packet on the host's egress link."""
        if self.egress is None:
            raise RuntimeError(f"host {self.name} has no egress link")
        return self.egress.send(packet)

    def receive(self, packet: Packet, link: Optional[Link]) -> None:
        # Hot path: taps and local delivery are inlined (no helper calls).
        now = self.sim._now
        self.packets_received += 1
        if self._taps:
            for tap in self._taps:
                tap(packet, now)
        agent = self._agents.get(packet.dst_port)
        if agent is not None:
            agent.on_packet(packet, now)
        if self.recycler is not None:
            self.recycler(packet)


class EcmpGroup:
    """A set of parallel next-hop links with a load-balancing policy.

    ``mode`` is either ``"flow"`` (hash the flow identity, so all packets of
    a connection follow one path — the common case the paper's Scamper study
    observed) or ``"packet"`` (spread packets round-robin, which maximizes
    reordering and is used to stress the multipath detector).
    ``weights`` optionally skews the flow-hash split.
    """

    def __init__(
        self,
        links: Sequence[Link],
        mode: str = "flow",
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        if not links:
            raise ValueError("ECMP group needs at least one link")
        if mode not in ("flow", "packet"):
            raise ValueError(f"unknown ECMP mode: {mode}")
        self.links = list(links)
        self.mode = mode
        self._rr = 0
        if weights is None:
            self.weights = [1.0] * len(self.links)
        else:
            if len(weights) != len(self.links):
                raise ValueError("weights must match number of links")
            self.weights = list(weights)
        total = sum(self.weights)
        if total <= 0 or min(self.weights) < 0:
            raise ValueError(f"ECMP weights must be >= 0 with a positive sum: {self.weights}")
        self._cumulative: List[float] = []
        acc = 0.0
        for w in self.weights:
            acc += w / total
            self._cumulative.append(acc)

    def pick(self, packet: Packet) -> Link:
        # Single-member groups (every plain `add_route`) need no balancing
        # decision at all — skip the flow hash and the weight walk.
        if len(self.links) == 1:
            return self.links[0]
        if self.mode == "packet":
            link = self.links[self._rr % len(self.links)]
            self._rr += 1
            return link
        # Flow mode: map the flow hash into [0, 1) and pick by cumulative weight.
        point = (packet.flow_hash() % 65536) / 65536.0
        for link, boundary in zip(self.links, self._cumulative, strict=True):
            if point < boundary:
                return link
        return self.links[-1]


class Router(Node):
    """Static-routing packet forwarder with optional ECMP groups."""

    def __init__(self, sim: Simulator, name: str, address: Optional[int] = None) -> None:
        super().__init__(sim, name, address)
        self._routes: Dict[int, EcmpGroup] = {}
        #: dst -> link for every plain (single-link) route: what ``receive``
        #: consults first; ``route_for`` stays the full, public answer.
        self._next_hop: Dict[int, Link] = {}
        self._default: Optional[EcmpGroup] = None
        self.packets_forwarded = 0

    def add_route(self, dst_address: int, link: Link) -> None:
        """Route packets destined to ``dst_address`` over ``link``."""
        self._routes[dst_address] = EcmpGroup([link])
        self._next_hop[dst_address] = link

    def add_ecmp_route(
        self,
        dst_address: int,
        links: Sequence[Link],
        mode: str = "flow",
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        """Route packets for ``dst_address`` across several parallel links."""
        self._routes[dst_address] = EcmpGroup(links, mode=mode, weights=weights)
        self._next_hop.pop(dst_address, None)

    def set_default_route(self, link: Link) -> None:
        self._default = EcmpGroup([link])

    def route_for(self, packet: Packet) -> Optional[Link]:
        group = self._routes.get(packet.dst, self._default)
        if group is None:
            return None
        return group.pick(packet)

    def receive(self, packet: Packet, link: Optional[Link]) -> None:
        now = self.sim._now
        self.packets_received += 1
        if self._taps:
            for tap in self._taps:
                tap(packet, now)
        dst = packet.dst
        if dst == self.address:
            agent = self._agents.get(packet.dst_port)
            if agent is not None:
                agent.on_packet(packet, now)
            return
        out = self._next_hop.get(dst)
        if out is None:
            out = self.route_for(packet)  # ECMP group, default route or none
            if out is None:
                # No route: drop.  Topology builders are expected to provide full
                # reachability, so this usually indicates a test configuration bug.
                return
        self.packets_forwarded += 1
        out.send(packet)

    def inject(self, packet: Packet) -> None:
        """Originate a packet from this node (used by middlebox control planes)."""
        self.receive(packet, None)
