"""The sendbox: datapath (token bucket + scheduling policy) and control plane (§6).

The sendbox is installed on the source site's egress link.  Its datapath is
a :class:`~repro.qdisc.tbf.TokenBucketQdisc` whose inner qdisc is the
operator's scheduling policy (SFQ by default); the token-bucket rate is the
bundle's sending rate computed by the control plane.  Its control plane:

1. records every epoch boundary packet as it is released onto the wire
   (hash, transmit time, cumulative bytes sent — Figure 4);
2. receives out-of-band congestion ACKs from the receivebox and feeds them
   to the measurement engine;
3. every control interval (10 ms), asks the per-bundle
   :class:`~repro.core.controller.BundleController` for a new rate and
   programs the token bucket;
4. recomputes the epoch size from the minimum RTT and the current rate and,
   when it changes, tells the receivebox out-of-band.

:func:`install_bundler` is the one-call installer used by experiments: it
builds the qdiscs, replaces the egress link's qdisc, and wires the sendbox
and receivebox onto a :class:`~repro.net.topology.SiteToSite` topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.bundle import BundleClassifier, source_address_classifier
from repro.core.config import BundlerConfig
from repro.core.controller import BundleController, BundlerMode
from repro.core.epoch import EpochSizeController, is_epoch_boundary
from repro.core.feedback import (
    CongestionAck,
    EpochSizeUpdate,
    extract_message,
    make_control_packet,
)
from repro.core.measurement import BundleMeasurementEngine
from repro.core.receivebox import Receivebox
from repro.net.link import Link
from repro.net.node import Router
from repro.net.packet import Packet, PacketFactory
from repro.net.simulator import Simulator
from repro.net.topology import SiteToSite
from repro.qdisc import make_qdisc
from repro.qdisc.tbf import TokenBucketQdisc


@dataclass
class SendBundleState:
    """Per-bundle sendbox state."""

    bundle_id: int
    measurement: BundleMeasurementEngine
    controller: BundleController
    epoch_controller: EpochSizeController
    bytes_sent: int = 0
    packets_sent: int = 0
    boundaries_sent: int = 0
    acks_received: int = 0
    epoch_updates_sent: int = 0


class Sendbox:
    """Send-side half of a Bundler pair."""

    def __init__(
        self,
        sim: Simulator,
        edge_router: Router,
        egress_link: Link,
        factory: PacketFactory,
        *,
        config: BundlerConfig,
        classifier: BundleClassifier,
        receivebox_address: int,
        receivebox_control_port: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.edge_router = edge_router
        self.egress_link = egress_link
        self.factory = factory
        self.config = config
        self.classifier = classifier
        self.receivebox_address = receivebox_address
        self.receivebox_control_port = (
            receivebox_control_port
            if receivebox_control_port is not None
            else config.receivebox_control_port
        )

        inner = make_qdisc(
            config.scheduler,
            limit_packets=config.sendbox_queue_packets,
            **config.scheduler_kwargs,
        )
        self.tbf = TokenBucketQdisc(rate_bps=config.initial_rate_bps, inner=inner)
        egress_link.qdisc = self.tbf
        egress_link.add_transmit_hook(self._on_transmit)
        #: Optional probe hook (:mod:`repro.obs.probe`): called with the
        #: transmit instant of every epoch boundary packet.  Must be set
        #: before ``observe_bundle`` fires — the probe layer installs it
        #: from inside that registration.
        self.boundary_probe = None
        sim.observe_bundle(self)
        edge_router.register_agent(config.sendbox_control_port, self)

        self.bundles: Dict[int, SendBundleState] = {}
        self._control_timer = sim.every(config.control_interval_s, self._control_tick)

    # -- per-bundle state ---------------------------------------------------------

    def _bundle_state(self, bundle_id: int) -> SendBundleState:
        state = self.bundles.get(bundle_id)
        if state is None:
            state = SendBundleState(
                bundle_id=bundle_id,
                measurement=BundleMeasurementEngine(
                    window_rtts=self.config.measurement_window_rtts,
                    feedback_timeout_s=self.config.feedback_timeout_s,
                ),
                controller=BundleController(
                    self.config, max_rate_bps=self.egress_link.rate_bps
                ),
                epoch_controller=EpochSizeController(
                    rtt_fraction=self.config.epoch_rtt_fraction,
                    min_size=self.config.min_epoch_size,
                    max_size=self.config.max_epoch_size,
                    initial_size=self.config.initial_epoch_size,
                ),
            )
            self.bundles[bundle_id] = state
        return state

    # -- datapath hook: packets leaving the sendbox -----------------------------------

    def _on_transmit(self, packet: Packet, now: float) -> None:
        bundle_id = self.classifier(packet)
        if bundle_id is None:
            return
        state = self._bundle_state(bundle_id)
        state.bytes_sent += packet.size
        state.packets_sent += 1
        boundary_hash = packet.header_hash()
        if not is_epoch_boundary(boundary_hash, state.epoch_controller.current_size):
            return
        state.boundaries_sent += 1
        if self.boundary_probe is not None:
            self.boundary_probe(now)
        state.measurement.on_boundary_sent(now, boundary_hash, state.bytes_sent)

    # -- control agent: congestion ACKs from the receivebox ------------------------------

    def on_packet(self, packet: Packet, now: float) -> None:
        message = extract_message(packet)
        if not isinstance(message, CongestionAck):
            return
        state = self._bundle_state(message.bundle_id)
        state.acks_received += 1
        engine = state.measurement
        before_in, before_out = engine.in_order_acks, engine.out_of_order_acks
        rtt = engine.on_congestion_ack(now, message.boundary_hash, message.bytes_received)
        if rtt is None:
            return
        # The engine classified the ACK as in-order or out-of-order; relay the
        # observation to the multipath detector.
        if engine.out_of_order_acks > before_out:
            state.controller.record_ack_ordering(now, out_of_order=True)
        elif engine.in_order_acks > before_in:
            state.controller.record_ack_ordering(now, out_of_order=False)

    # -- control loop -------------------------------------------------------------------------

    def _control_tick(self) -> None:
        now = self.sim.now
        queue_delay = self.tbf.queue_delay_estimate(now)
        for state in self.bundles.values():
            measurement = state.measurement.current_measurement(now)
            rate = state.controller.tick(now, measurement, queue_delay)
            self.tbf.set_rate(rate, now)
            self.egress_link.kick()
            self._maybe_update_epoch_size(state, measurement, rate, now)

    def _maybe_update_epoch_size(self, state, measurement, rate_bps: float, now: float) -> None:
        min_rtt = state.measurement.min_rtt
        if min_rtt is None:
            return
        # Base the epoch spacing on whichever is smaller of the enforced rate
        # and the measured send rate: using only the measured rate lets a
        # starved bundle get stuck with an epoch far too large to ever refresh
        # its measurements, while using only the enforced rate would space
        # epochs too far apart in pass-through mode (enforced >> actual).
        send_rate = rate_bps
        if measurement is not None and measurement.send_rate > 0:
            send_rate = min(rate_bps, measurement.send_rate)
        if state.epoch_controller.update(min_rtt, send_rate):
            state.epoch_updates_sent += 1
            update = EpochSizeUpdate(
                bundle_id=state.bundle_id, epoch_size=state.epoch_controller.current_size
            )
            control = make_control_packet(
                self.factory,
                src=self.edge_router.address,
                dst=self.receivebox_address,
                src_port=self.config.sendbox_control_port,
                dst_port=self.receivebox_control_port,
                message=update,
                size=self.config.control_packet_size,
                created_at=now,
            )
            self.edge_router.inject(control)

    # -- teardown / introspection --------------------------------------------------------------------

    def stop(self) -> None:
        """Stop the control loop (used by tests that tear topologies down)."""
        self._control_timer.cancel()

    def bundle_mode(self, bundle_id: int = 0) -> BundlerMode:
        """Current operating mode of a bundle."""
        return self._bundle_state(bundle_id).controller.mode

    def current_rate_bps(self) -> float:
        """Rate currently programmed into the token bucket."""
        return self.tbf.rate_bps


@dataclass
class BundlerPair:
    """A deployed sendbox/receivebox pair plus its configuration."""

    sendbox: Sendbox
    receivebox: Receivebox
    config: BundlerConfig


def install_bundler(
    topology: SiteToSite,
    config: Optional[BundlerConfig] = None,
    *,
    classifier: Optional[BundleClassifier] = None,
) -> BundlerPair:
    """Install a Bundler pair on a site-to-site topology.

    The sendbox datapath replaces the qdisc on the topology's site-A egress
    link; the receivebox taps the site-B edge router.  By default the bundle
    is "everything originated by site A's servers", which matches the
    evaluation's single-bundle scenarios.
    """
    config = config if config is not None else BundlerConfig()
    if classifier is None:
        classifier = source_address_classifier(s.address for s in topology.servers)
    sendbox = Sendbox(
        topology.sim,
        topology.site_a_edge,
        topology.sendbox_link,
        topology.packet_factory,
        config=config,
        classifier=classifier,
        receivebox_address=topology.site_b_edge.address,
    )
    receivebox = Receivebox(
        topology.sim,
        topology.site_b_edge,
        topology.packet_factory,
        config=config,
        classifier=classifier,
        sendbox_address=topology.site_a_edge.address,
    )
    return BundlerPair(sendbox=sendbox, receivebox=receivebox, config=config)
