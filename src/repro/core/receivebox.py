"""The receivebox (§4, §6).

The receivebox sits at the destination site's edge and does three things,
all without modifying packets or keeping per-flow state:

1. passively counts the bytes received for each bundle (the prototype does
   this with libpcap; here it is a tap on the site-B edge router);
2. identifies epoch boundary packets with the same header hash the sendbox
   uses, and on each boundary sends a small out-of-band congestion ACK back
   to the sendbox carrying the boundary's hash and the running received
   byte count;
3. accepts epoch-size updates from the sendbox so both boxes sample at
   (nearly) the same granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.bundle import BundleClassifier
from repro.core.config import BundlerConfig
from repro.core.epoch import is_epoch_boundary
from repro.core.feedback import CongestionAck, EpochSizeUpdate, extract_message, make_control_packet
from repro.net.node import Router
from repro.net.packet import Packet, PacketFactory
from repro.net.simulator import Simulator


@dataclass
class ReceiveBundleState:
    """Per-bundle receive-side counters."""

    bundle_id: int
    epoch_size: int
    bytes_received: int = 0
    packets_received: int = 0
    acks_sent: int = 0
    ack_seq: int = 0
    epoch_updates_received: int = 0


class Receivebox:
    """Receive-side half of a Bundler pair."""

    def __init__(
        self,
        sim: Simulator,
        edge_router: Router,
        factory: PacketFactory,
        *,
        config: BundlerConfig,
        classifier: BundleClassifier,
        sendbox_address: int,
        sendbox_control_port: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.edge_router = edge_router
        self.factory = factory
        self.config = config
        self.classifier = classifier
        self.sendbox_address = sendbox_address
        self.sendbox_control_port = (
            sendbox_control_port if sendbox_control_port is not None else config.sendbox_control_port
        )
        self.bundles: Dict[int, ReceiveBundleState] = {}
        edge_router.add_tap(self._observe)
        edge_router.register_agent(config.receivebox_control_port, self)

    # -- datapath tap -----------------------------------------------------------

    def _bundle_state(self, bundle_id: int) -> ReceiveBundleState:
        state = self.bundles.get(bundle_id)
        if state is None:
            state = ReceiveBundleState(bundle_id=bundle_id, epoch_size=self.config.initial_epoch_size)
            self.bundles[bundle_id] = state
        return state

    def _observe(self, packet: Packet, now: float) -> None:
        bundle_id = self.classifier(packet)
        if bundle_id is None:
            return
        state = self._bundle_state(bundle_id)
        state.bytes_received += packet.size
        state.packets_received += 1
        boundary_hash = packet.header_hash()
        if not is_epoch_boundary(boundary_hash, state.epoch_size):
            return
        state.acks_sent += 1
        state.ack_seq += 1
        ack = CongestionAck(
            bundle_id=bundle_id,
            boundary_hash=boundary_hash,
            bytes_received=state.bytes_received,
            ack_seq=state.ack_seq,
        )
        control = make_control_packet(
            self.factory,
            src=self.edge_router.address,
            dst=self.sendbox_address,
            src_port=self.config.receivebox_control_port,
            dst_port=self.sendbox_control_port,
            message=ack,
            size=self.config.control_packet_size,
            created_at=now,
        )
        self.edge_router.inject(control)

    # -- control agent (epoch-size updates) ----------------------------------------

    def on_packet(self, packet: Packet, now: float) -> None:
        message = extract_message(packet)
        if not isinstance(message, EpochSizeUpdate):
            return
        state = self._bundle_state(message.bundle_id)
        state.epoch_size = max(1, int(message.epoch_size))
        state.epoch_updates_received += 1
