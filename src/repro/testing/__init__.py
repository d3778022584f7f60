"""Shared helpers for the test suites.

Historically these lived in ``tests/conftest.py`` and ``benchmarks/conftest.py``
and were imported with ``from conftest import ...`` — which resolves to
*whichever* conftest pytest put on ``sys.path`` first, so collecting both
suites at once broke with an ImportError.  Importable helpers belong in an
importable package; conftest files should hold fixtures only.
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import Packet, PacketFactory


def make_packet(
    factory: Optional[PacketFactory] = None,
    *,
    flow_id: int = 1,
    src: int = 1,
    dst: int = 2,
    src_port: int = 10,
    dst_port: int = 20,
    size: int = 1500,
    seq: int = 0,
    is_ack: bool = False,
    is_control: bool = False,
    traffic_class: int = 0,
) -> Packet:
    """Convenience packet constructor for qdisc/unit tests."""
    factory = factory if factory is not None else PacketFactory()
    return factory.make(
        flow_id=flow_id,
        src=src,
        dst=dst,
        src_port=src_port,
        dst_port=dst_port,
        seq=seq,
        size=size,
        is_ack=is_ack,
        is_control=is_control,
        traffic_class=traffic_class,
    )

