"""Packet model.

A packet carries the header fields that matter for Bundler's measurement
machinery and for the transports:

* ``src`` / ``dst`` — integer host addresses (stand-ins for IP addresses).
* ``src_port`` / ``dst_port`` — transport ports, used for flow hashing
  (SFQ, ECMP) and for delivery to the right agent on a host.
* ``ip_id`` — the IPv4 identification field.  The prototype hashes
  ``(IP ID, dst IP, dst port)`` to find epoch boundaries (§4.5); the IP ID is
  what differentiates individual packets of the same flow and distinguishes
  retransmissions from originals.
* ``flow_id`` / ``seq`` / ``is_ack`` — transport bookkeeping.
* ``size`` — wire size in bytes.

Packets are mutable but the convention is that only the creating transport
writes transport fields; middleboxes (the sendbox/receivebox) never modify
packets, mirroring Bundler's transparent design (§4.6).

Hot-path notes: the epoch-boundary and flow hashes are cached per packet
(the header fields they cover never change once a packet is in flight — the
sendbox and receivebox would otherwise re-hash every packet), ``meta`` is
lazily allocated (the common packet never needs it; CoDel keeps its sojourn
timestamp in the dedicated ``codel_ts`` slot instead), and
:class:`PacketFactory` optionally recycles delivered/dropped packets through
a bounded free list.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

from repro.util.fnv import hash_fields


class Packet:
    """A single packet in flight."""

    __slots__ = (
        "pkt_id",
        "flow_id",
        "src",
        "dst",
        "src_port",
        "dst_port",
        "ip_id",
        "seq",
        "size",
        "is_ack",
        "is_control",
        "traffic_class",
        "created_at",
        "enqueued_at",
        "payload",
        "codel_ts",
        "_meta",
        "_header_hash",
        "_flow_hash",
    )

    def __init__(
        self,
        *,
        pkt_id: int,
        flow_id: int,
        src: int,
        dst: int,
        src_port: int,
        dst_port: int,
        ip_id: int,
        seq: int = 0,
        size: int = 1500,
        is_ack: bool = False,
        is_control: bool = False,
        traffic_class: int = 0,
        created_at: float = 0.0,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.pkt_id = pkt_id
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.src_port = src_port
        self.dst_port = dst_port
        self.ip_id = ip_id
        self.seq = seq
        self.size = size
        self.is_ack = is_ack
        self.is_control = is_control
        self.traffic_class = traffic_class
        self.created_at = created_at
        self.enqueued_at = 0.0
        self.payload = payload
        self._meta: Optional[Dict[str, Any]] = None
        self._header_hash: Optional[int] = None
        self._flow_hash: Optional[int] = None

    @property
    def meta(self) -> Dict[str, Any]:
        """Free-form per-packet annotations, allocated on first use."""
        meta = self._meta
        if meta is None:
            meta = self._meta = {}
        return meta

    def header_hash(self) -> int:
        """FNV-1a hash of the header subset used for epoch boundary identification.

        The subset is ``(ip_id, dst, dst_port)`` as in the paper's prototype
        (§4.5): identical at both boxes, unchanged in transit, per-packet
        (thanks to the IP ID), and different for retransmissions.  Those
        fields are immutable once the packet is in flight, so the hash is
        computed once and cached — the sendbox and receivebox both hash
        every packet they see.
        """
        cached = self._header_hash
        if cached is None:
            cached = self._header_hash = hash_fields((self.ip_id, self.dst, self.dst_port))
        return cached

    def flow_hash(self) -> int:
        """Hash of the flow identity (not per-packet), used by SFQ and ECMP."""
        cached = self._flow_hash
        if cached is None:
            cached = self._flow_hash = hash_fields(
                (self.src, self.dst, self.src_port, self.dst_port)
            )
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ACK" if self.is_ack else ("CTL" if self.is_control else "DATA")
        return (
            f"Packet({kind} flow={self.flow_id} seq={self.seq} "
            f"{self.src}:{self.src_port}->{self.dst}:{self.dst_port} "
            f"size={self.size} ip_id={self.ip_id})"
        )


class PacketFactory:
    """Creates packets with unique packet ids and per-source IP IDs.

    Real IPv4 senders increment the IP ID per packet; the factory reproduces
    that behaviour per source address (wrapping at 16 bits), which gives the
    epoch hash the per-packet entropy it needs.

    With ``pool_size > 0`` the factory keeps a bounded free list: sinks that
    *own* a dead packet (delivery to a consuming agent, a drop) may hand it
    back via :meth:`recycle`, and :meth:`make` then re-initializes a pooled
    instance instead of allocating.  Identifier allocation (packet id, IP
    ID) is identical on both paths, so pooling never changes simulation
    results — only allocation counts.  It is off by default because
    recycling is only safe when no component retains a reference to the
    packet (a TCP sender's retransmit buffer does, for example); scenarios
    opt in at the sinks they control (``Host.recycler``,
    ``Link.drop_recycler``).
    """

    def __init__(self, pool_size: int = 0) -> None:
        if pool_size < 0:
            raise ValueError("pool_size must be non-negative")
        self._pkt_ids = itertools.count(1)
        self._ip_ids: Dict[int, int] = {}
        self.pool_size = pool_size
        self._pool: list = []
        self.pool_hits = 0
        self.pool_returns = 0

    def next_ip_id(self, src: int) -> int:
        current = self._ip_ids.get(src, 0)
        self._ip_ids[src] = (current + 1) & 0xFFFF
        return current

    def recycle(self, packet: Packet) -> None:
        """Return a dead packet to the free list (bounded; excess is dropped).

        The caller asserts ownership: nothing else may hold a reference to
        ``packet`` after this call.
        """
        if len(self._pool) < self.pool_size:
            self._pool.append(packet)
            self.pool_returns += 1

    def make(
        self,
        *,
        flow_id: int,
        src: int,
        dst: int,
        src_port: int,
        dst_port: int,
        seq: int = 0,
        size: int = 1500,
        is_ack: bool = False,
        is_control: bool = False,
        traffic_class: int = 0,
        created_at: float = 0.0,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Packet:
        """Create a packet, assigning a fresh packet id and IP ID."""
        pool = self._pool
        if pool:
            packet = pool.pop()
            self.pool_hits += 1
            packet.pkt_id = next(self._pkt_ids)
            packet.flow_id = flow_id
            packet.src = src
            packet.dst = dst
            packet.src_port = src_port
            packet.dst_port = dst_port
            packet.ip_id = self.next_ip_id(src)
            packet.seq = seq
            packet.size = size
            packet.is_ack = is_ack
            packet.is_control = is_control
            packet.traffic_class = traffic_class
            packet.created_at = created_at
            packet.enqueued_at = 0.0
            packet.payload = payload
            packet._meta = None
            packet._header_hash = None
            packet._flow_hash = None
            return packet
        return Packet(
            pkt_id=next(self._pkt_ids),
            flow_id=flow_id,
            src=src,
            dst=dst,
            src_port=src_port,
            dst_port=dst_port,
            ip_id=self.next_ip_id(src),
            seq=seq,
            size=size,
            is_ack=is_ack,
            is_control=is_control,
            traffic_class=traffic_class,
            created_at=created_at,
            payload=payload,
        )
