"""Topology builders for the evaluation scenarios.

Every experiment in the paper runs on a variant of the same site-to-site
shape (Figure 1): traffic from many servers in site A crosses the site's
edge (where the sendbox sits), then an in-network bottleneck that neither
site controls, then enters site B's edge (where the receivebox observes it)
and reaches the clients.  The reverse path is uncongested.

:func:`build_site_to_site` constructs that shape with hooks for every
variation the evaluation needs: the number of parallel load-balanced WAN
paths (§5.2/§7.6), attachment points for un-bundled cross traffic (§7.3),
and pluggable qdiscs at the sendbox egress and at the bottleneck (so the
same topology expresses Status Quo, In-Network FQ, and Bundler runs).

:func:`build_competing_bundles` builds the two-site-A variant of Figure 13.
No link is measured until the code that reads a series attaches a tap
(:mod:`repro.net.trace`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.net.link import Link
from repro.net.node import Host, Router
from repro.net.packet import PacketFactory
from repro.net.simulator import Simulator
from repro.qdisc.base import Qdisc
from repro.qdisc.fifo import FifoQdisc
from repro.util.units import mbps_to_bps, ms_to_s

#: Rate used for access/edge links that should never be the bottleneck.
FAST_LINK_MBPS = 10_000.0


def _fast_link(sim: Simulator, name: str, delay: float = 0.0) -> Link:
    return Link(
        sim,
        name,
        rate_bps=mbps_to_bps(FAST_LINK_MBPS),
        delay=delay,
        qdisc=FifoQdisc(limit_packets=100_000),
    )


@dataclass
class SiteToSite:
    """Handles to every interesting element of the site-to-site topology."""

    sim: Simulator
    packet_factory: PacketFactory
    servers: List[Host]
    clients: List[Host]
    site_a_edge: Router
    wan_router: Router
    site_b_edge: Router
    sendbox_link: Link
    bottleneck_links: List[Link]
    reverse_links: List[Link]
    cross_senders: List[Host] = field(default_factory=list)
    cross_receivers: List[Host] = field(default_factory=list)

    @property
    def bottleneck_link(self) -> Link:
        """The (single) bottleneck link; raises if the topology is multipath."""
        if len(self.bottleneck_links) != 1:
            raise ValueError("topology has multiple bottleneck paths; use bottleneck_links")
        return self.bottleneck_links[0]

    def all_hosts(self) -> List[Host]:
        return [*self.servers, *self.clients, *self.cross_senders, *self.cross_receivers]


def build_site_to_site(
    sim: Simulator,
    *,
    bottleneck_mbps: float = 96.0,
    rtt_ms: float = 50.0,
    num_servers: int = 8,
    num_clients: int = 1,
    num_cross_pairs: int = 0,
    sendbox_egress_mbps: Optional[float] = None,
    sendbox_qdisc: Optional[Qdisc] = None,
    bottleneck_qdisc_factory=None,
    num_paths: int = 1,
    path_delay_ms: Optional[Sequence[float]] = None,
    path_split_mode: str = "flow",
    bottleneck_buffer_packets: Optional[int] = None,
) -> SiteToSite:
    """Build the canonical site-to-site dumbbell.

    Parameters
    ----------
    bottleneck_mbps, rtt_ms:
        Rate of the in-network bottleneck and base round-trip time (the
        evaluation default is 96 Mbit/s × 50 ms).
    num_servers, num_clients:
        Hosts at site A (senders) and site B (receivers).
    num_cross_pairs:
        Sender/receiver pairs attached *beyond* the sendbox (at the WAN
        router), whose traffic shares the bottleneck but is not bundled.
    sendbox_egress_mbps:
        Raw capacity of the site-A edge's egress link.  Defaults to 10× the
        bottleneck so that the edge is only a bottleneck when the Bundler
        token bucket makes it one.
    sendbox_qdisc:
        Qdisc installed on the site-A egress link (Bundler installs a
        :class:`~repro.qdisc.tbf.TokenBucketQdisc` here; Status Quo leaves a
        plain FIFO).
    bottleneck_qdisc_factory:
        Callable returning a qdisc for each bottleneck path (defaults to
        drop-tail FIFO; the In-Network baseline passes an SFQ factory).
    num_paths, path_delay_ms, path_split_mode:
        Number of parallel load-balanced WAN paths, their one-way delays in
        milliseconds (default: all equal to ``rtt_ms / 2``), and whether the
        WAN router splits traffic per-flow or per-packet.
    bottleneck_buffer_packets:
        Buffer size of each bottleneck queue.  Defaults to roughly one
        bandwidth-delay product plus headroom.
    """
    if num_paths < 1:
        raise ValueError("num_paths must be at least 1")
    if path_delay_ms is not None and len(path_delay_ms) != num_paths:
        raise ValueError("path_delay_ms must have one entry per path")

    factory = PacketFactory()
    one_way = ms_to_s(rtt_ms) / 2.0
    bottleneck_bps = mbps_to_bps(bottleneck_mbps)
    egress_mbps = sendbox_egress_mbps if sendbox_egress_mbps is not None else bottleneck_mbps * 10.0

    if bottleneck_buffer_packets is None:
        bdp_pkts = bottleneck_bps * ms_to_s(rtt_ms) / 8.0 / 1500.0
        bottleneck_buffer_packets = max(int(2.0 * bdp_pkts), 64)

    site_a_edge = Router(sim, "site_a_edge")
    wan_router = Router(sim, "wan_router")
    site_b_edge = Router(sim, "site_b_edge")

    servers = [Host(sim, f"server{i}") for i in range(num_servers)]
    clients = [Host(sim, f"client{i}") for i in range(num_clients)]

    # -- Site A access links (servers <-> edge) ---------------------------
    server_downlinks: Dict[int, Link] = {}
    for server in servers:
        up = _fast_link(sim, f"{server.name}->site_a_edge").connect(site_a_edge)
        down = _fast_link(sim, f"site_a_edge->{server.name}").connect(server)
        server.attach_egress(up)
        server_downlinks[server.address] = down
        site_a_edge.add_route(server.address, down)

    # -- Site A egress (where the sendbox datapath lives) ------------------
    sendbox_link = Link(
        sim,
        "site_a_edge->wan",
        rate_bps=mbps_to_bps(egress_mbps),
        delay=0.0,
        qdisc=sendbox_qdisc if sendbox_qdisc is not None else FifoQdisc(limit_packets=100_000),
    ).connect(wan_router)

    # -- WAN bottleneck path(s) --------------------------------------------
    if bottleneck_qdisc_factory is None:
        bottleneck_qdisc_factory = lambda: FifoQdisc(limit_packets=bottleneck_buffer_packets)
    delays_ms = list(path_delay_ms) if path_delay_ms is not None else [rtt_ms / 2.0] * num_paths
    bottleneck_links: List[Link] = []
    per_path_rate = bottleneck_bps / num_paths
    for i in range(num_paths):
        link = Link(
            sim,
            f"wan->site_b_edge[path{i}]",
            rate_bps=per_path_rate,
            delay=ms_to_s(delays_ms[i]),
            qdisc=bottleneck_qdisc_factory(),
        ).connect(site_b_edge)
        bottleneck_links.append(link)

    # -- Site B access links (edge <-> clients) -----------------------------
    for client in clients:
        down = _fast_link(sim, f"site_b_edge->{client.name}").connect(client)
        up = _fast_link(sim, f"{client.name}->site_b_edge").connect(site_b_edge)
        client.attach_egress(up)
        site_b_edge.add_route(client.address, down)

    # -- Reverse (uncongested) path: site B edge -> WAN -> site A edge ------
    reverse_b_to_wan = _fast_link(sim, "site_b_edge->wan[rev]", delay=one_way).connect(wan_router)
    reverse_wan_to_a = _fast_link(sim, "wan->site_a_edge[rev]", delay=0.0).connect(site_a_edge)
    reverse_links = [reverse_b_to_wan, reverse_wan_to_a]

    # -- Cross-traffic attachment (beyond the sendbox) -----------------------
    cross_senders: List[Host] = []
    cross_receivers: List[Host] = []
    for i in range(num_cross_pairs):
        sender = Host(sim, f"cross_sender{i}")
        receiver = Host(sim, f"cross_receiver{i}")
        sender_up = _fast_link(sim, f"{sender.name}->wan").connect(wan_router)
        sender_down = _fast_link(sim, f"wan->{sender.name}").connect(sender)
        sender.attach_egress(sender_up)
        receiver_down = _fast_link(sim, f"site_b_edge->{receiver.name}").connect(receiver)
        receiver_up = _fast_link(sim, f"{receiver.name}->site_b_edge").connect(site_b_edge)
        receiver.attach_egress(receiver_up)
        wan_router.add_route(sender.address, sender_down)
        site_b_edge.add_route(receiver.address, receiver_down)
        cross_senders.append(sender)
        cross_receivers.append(receiver)

    # -- Routing -------------------------------------------------------------
    forward_dsts = [c.address for c in clients] + [r.address for r in cross_receivers]
    forward_dsts.append(site_b_edge.address)
    for dst in [c.address for c in clients] + [site_b_edge.address]:
        site_a_edge.add_route(dst, sendbox_link)
    for dst in forward_dsts:
        if num_paths == 1:
            wan_router.add_route(dst, bottleneck_links[0])
        else:
            wan_router.add_ecmp_route(dst, bottleneck_links, mode=path_split_mode)

    reverse_dsts = (
        [s.address for s in servers]
        + [s.address for s in cross_senders]
        + [site_a_edge.address]
    )
    for dst in reverse_dsts:
        site_b_edge.add_route(dst, reverse_b_to_wan)
    for dst in [s.address for s in servers] + [site_a_edge.address]:
        wan_router.add_route(dst, reverse_wan_to_a)

    return SiteToSite(
        sim=sim,
        packet_factory=factory,
        servers=servers,
        clients=clients,
        site_a_edge=site_a_edge,
        wan_router=wan_router,
        site_b_edge=site_b_edge,
        sendbox_link=sendbox_link,
        bottleneck_links=bottleneck_links,
        reverse_links=reverse_links,
        cross_senders=cross_senders,
        cross_receivers=cross_receivers,
    )


@dataclass
class CompetingBundlesTopology:
    """Two site-A networks whose bundles share one in-network bottleneck."""

    sim: Simulator
    packet_factory: PacketFactory
    bundles: List[SiteToSite]
    shared_bottleneck: Link
    wan_router: Router


def build_competing_bundles(
    sim: Simulator,
    *,
    bottleneck_mbps: float = 96.0,
    rtt_ms: float = 50.0,
    servers_per_bundle: Sequence[int] = (8, 8),
    sendbox_qdiscs: Optional[Sequence[Optional[Qdisc]]] = None,
    bottleneck_buffer_packets: Optional[int] = None,
) -> CompetingBundlesTopology:
    """Build the Figure 13 scenario: multiple bundles sharing a bottleneck.

    Each bundle has its own site-A edge (sendbox attachment point) and its
    own site-B edge/clients, but every bundle's traffic crosses the same
    bottleneck link between the shared WAN routers.
    """
    num_bundles = len(servers_per_bundle)
    if num_bundles < 1:
        raise ValueError("need at least one bundle")
    if sendbox_qdiscs is None:
        sendbox_qdiscs = [None] * num_bundles
    if len(sendbox_qdiscs) != num_bundles:
        raise ValueError("sendbox_qdiscs must have one entry per bundle")

    factory = PacketFactory()
    one_way = ms_to_s(rtt_ms) / 2.0
    bottleneck_bps = mbps_to_bps(bottleneck_mbps)
    if bottleneck_buffer_packets is None:
        bdp_pkts = bottleneck_bps * ms_to_s(rtt_ms) / 8.0 / 1500.0
        bottleneck_buffer_packets = max(int(2.0 * bdp_pkts), 64)

    wan_in = Router(sim, "wan_in")
    wan_out = Router(sim, "wan_out")
    shared_bottleneck = Link(
        sim,
        "wan_in->wan_out[bottleneck]",
        rate_bps=bottleneck_bps,
        delay=one_way,
        qdisc=FifoQdisc(limit_packets=bottleneck_buffer_packets),
    ).connect(wan_out)

    bundles: List[SiteToSite] = []
    reverse_out_to_in = _fast_link(sim, "wan_out->wan_in[rev]", delay=one_way).connect(wan_in)

    for b in range(num_bundles):
        site_a_edge = Router(sim, f"bundle{b}_site_a_edge")
        site_b_edge = Router(sim, f"bundle{b}_site_b_edge")
        servers = [Host(sim, f"bundle{b}_server{i}") for i in range(servers_per_bundle[b])]
        clients = [Host(sim, f"bundle{b}_client0")]

        for server in servers:
            up = _fast_link(sim, f"{server.name}->edge").connect(site_a_edge)
            down = _fast_link(sim, f"edge->{server.name}").connect(server)
            server.attach_egress(up)
            site_a_edge.add_route(server.address, down)

        sendbox_qdisc = sendbox_qdiscs[b]
        sendbox_link = Link(
            sim,
            f"bundle{b}_edge->wan",
            rate_bps=mbps_to_bps(bottleneck_mbps * 10.0),
            delay=0.0,
            qdisc=sendbox_qdisc if sendbox_qdisc is not None else FifoQdisc(limit_packets=100_000),
        ).connect(wan_in)

        client = clients[0]
        down = _fast_link(sim, f"edge->{client.name}").connect(client)
        up = _fast_link(sim, f"{client.name}->edge").connect(site_b_edge)
        client.attach_egress(up)
        site_b_edge.add_route(client.address, down)

        out_to_b = _fast_link(sim, f"wan_out->bundle{b}_site_b_edge").connect(site_b_edge)
        b_to_out = _fast_link(sim, f"bundle{b}_site_b_edge->wan_out[rev]").connect(wan_out)
        rev_in_to_a = _fast_link(sim, f"wan_in->bundle{b}_site_a_edge[rev]").connect(site_a_edge)

        # Forward routes.
        for dst in [client.address, site_b_edge.address]:
            site_a_edge.add_route(dst, sendbox_link)
            wan_in.add_route(dst, shared_bottleneck)
            wan_out.add_route(dst, out_to_b)
        # Reverse routes.
        for dst in [s.address for s in servers] + [site_a_edge.address]:
            site_b_edge.add_route(dst, b_to_out)
            wan_out.add_route(dst, reverse_out_to_in)
            wan_in.add_route(dst, rev_in_to_a)

        bundles.append(
            SiteToSite(
                sim=sim,
                packet_factory=factory,
                servers=servers,
                clients=clients,
                site_a_edge=site_a_edge,
                wan_router=wan_in,
                site_b_edge=site_b_edge,
                sendbox_link=sendbox_link,
                bottleneck_links=[shared_bottleneck],
                reverse_links=[b_to_out, reverse_out_to_in, rev_in_to_a],
            )
        )

    return CompetingBundlesTopology(
        sim=sim,
        packet_factory=factory,
        bundles=bundles,
        shared_bottleneck=shared_bottleneck,
        wan_router=wan_in,
    )
