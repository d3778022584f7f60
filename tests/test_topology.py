"""Tests for topology builders."""

import pytest

from repro.net.simulator import Simulator
from repro.net.topology import (
    build_competing_bundles,
    build_site_to_site,
)
from repro.transport.flow import TcpFlow


def test_site_to_site_shape():
    sim = Simulator()
    topo = build_site_to_site(sim, bottleneck_mbps=24, rtt_ms=50, num_servers=3, num_clients=2)
    assert len(topo.servers) == 3
    assert len(topo.clients) == 2
    assert topo.bottleneck_link.rate_bps == pytest.approx(24e6)
    assert topo.bottleneck_link.delay == pytest.approx(0.025)


def test_site_to_site_end_to_end_transfer():
    sim = Simulator()
    topo = build_site_to_site(sim, bottleneck_mbps=24, rtt_ms=20, num_servers=1, num_clients=1)
    flow = TcpFlow(sim, topo.packet_factory, topo.servers[0], topo.clients[0], size_bytes=30_000)
    flow.start()
    sim.run(until=5.0)
    assert flow.completed
    assert flow.fct is not None and flow.fct > 0.01  # at least one RTT


def test_multipath_topology_splits_capacity():
    sim = Simulator()
    topo = build_site_to_site(sim, bottleneck_mbps=24, rtt_ms=50, num_paths=4,
                              path_delay_ms=[10, 20, 30, 40])
    assert len(topo.bottleneck_links) == 4
    for link in topo.bottleneck_links:
        assert link.rate_bps == pytest.approx(6e6)
    with pytest.raises(ValueError):
        _ = topo.bottleneck_link  # ambiguous with multiple paths


def test_multipath_requires_matching_delays():
    sim = Simulator()
    with pytest.raises(ValueError):
        build_site_to_site(sim, num_paths=2, path_delay_ms=[10.0])


def test_cross_traffic_pairs_attached_beyond_sendbox():
    sim = Simulator()
    topo = build_site_to_site(sim, num_cross_pairs=2, num_servers=1)
    assert len(topo.cross_senders) == 2
    assert len(topo.cross_receivers) == 2
    # Cross traffic reaches its receiver without traversing the sendbox link.
    flow = TcpFlow(sim, topo.packet_factory, topo.cross_senders[0], topo.cross_receivers[0],
                   size_bytes=15_000)
    flow.start()
    sent_before = topo.sendbox_link.packets_sent
    sim.run(until=3.0)
    assert flow.completed
    assert topo.sendbox_link.packets_sent == sent_before


def test_competing_bundles_topology():
    sim = Simulator()
    topo = build_competing_bundles(sim, servers_per_bundle=(2, 3))
    assert len(topo.bundles) == 2
    assert len(topo.bundles[0].servers) == 2
    assert len(topo.bundles[1].servers) == 3
    # Both bundles' traffic shares one bottleneck link object.
    assert topo.bundles[0].bottleneck_links[0] is topo.bundles[1].bottleneck_links[0]
    flow = TcpFlow(sim, topo.packet_factory, topo.bundles[1].servers[0],
                   topo.bundles[1].clients[0], size_bytes=15_000)
    flow.start()
    sim.run(until=3.0)
    assert flow.completed
