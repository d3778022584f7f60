"""Out-of-band feedback messages between the receivebox and sendbox (§4.4).

Bundler deliberately decouples congestion feedback from the transports'
own acknowledgements: the receivebox sends small out-of-band UDP messages
("congestion ACKs") carrying the hash of the observed epoch boundary packet
and the running count of bytes received for the bundle.  The sendbox sends
epoch-size updates in the opposite direction.  Neither message carries any
per-flow state.

In the simulator these messages travel as ordinary small packets whose
payload holds one of the dataclasses below, so they experience real path
delays and can be lost or reordered like any other packet.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.packet import Packet, PacketFactory

CONGESTION_ACK = "bundler_congestion_ack"
EPOCH_SIZE_UPDATE = "bundler_epoch_size_update"


@dataclass(frozen=True)
class CongestionAck:
    """Receivebox → sendbox: feedback for one observed epoch boundary packet."""

    bundle_id: int
    boundary_hash: int
    bytes_received: int
    ack_seq: int


@dataclass(frozen=True)
class EpochSizeUpdate:
    """Sendbox → receivebox: the new epoch size for a bundle."""

    bundle_id: int
    epoch_size: int


def make_control_packet(
    factory: PacketFactory,
    *,
    src: int,
    dst: int,
    src_port: int,
    dst_port: int,
    message,
    size: int = 40,
    created_at: float = 0.0,
) -> Packet:
    """Wrap a feedback message in a small out-of-band control packet."""
    kind = CONGESTION_ACK if isinstance(message, CongestionAck) else EPOCH_SIZE_UPDATE
    return factory.make(
        flow_id=0,
        src=src,
        dst=dst,
        src_port=src_port,
        dst_port=dst_port,
        size=size,
        is_control=True,
        created_at=created_at,
        payload={"type": kind, "message": message},
    )


def extract_message(packet: Packet):
    """Return the feedback message carried by a control packet, or ``None``."""
    if not packet.is_control or not packet.payload:
        return None
    return packet.payload.get("message")


def is_congestion_ack(packet: Packet) -> bool:
    return bool(packet.is_control and packet.payload and packet.payload.get("type") == CONGESTION_ACK)


def is_epoch_size_update(packet: Packet) -> bool:
    return bool(
        packet.is_control and packet.payload and packet.payload.get("type") == EPOCH_SIZE_UPDATE
    )
