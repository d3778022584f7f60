"""Bundle identity and traffic classification.

A *bundle* is all the traffic from one site to another, treated as a single
unit by the sendbox's rate controller.  The boxes never inspect transport
payloads or keep per-flow state; they only need a packet-level predicate
answering "does this packet belong to bundle X?".  In a real deployment that
predicate is an address-prefix match (site A's prefixes to site B's
prefixes); in the simulator the equivalent is a membership test on source
(and optionally destination) addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Set

from repro.net.packet import Packet

#: A classifier maps a packet to a bundle id, or ``None`` if the packet is
#: not part of any bundle handled by this box.
BundleClassifier = Callable[[Packet], Optional[int]]


@dataclass
class Bundle:
    """Static description of one bundle."""

    bundle_id: int
    source_addresses: Set[int] = field(default_factory=set)
    destination_addresses: Set[int] = field(default_factory=set)
    description: str = ""

    def matches(self, packet: Packet) -> bool:
        """True if the packet belongs to this bundle."""
        if packet.is_control:
            return False
        if self.source_addresses and packet.src not in self.source_addresses:
            return False
        if self.destination_addresses and packet.dst not in self.destination_addresses:
            return False
        return True


def source_address_classifier(
    source_addresses: Iterable[int], bundle_id: int = 0
) -> BundleClassifier:
    """Classifier assigning packets from the given source addresses to one bundle.

    This matches the common deployment where everything leaving site A for
    site B forms a single bundle: the sendbox sees only site-A-originated
    traffic on its egress, and the receivebox distinguishes bundle traffic
    from reverse-direction ACKs by source address.
    """
    sources = set(source_addresses)

    def classify(packet: Packet) -> Optional[int]:
        if packet.is_control:
            return None
        if packet.src in sources:
            return bundle_id
        return None

    return classify
