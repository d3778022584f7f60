"""Packet-level discrete-event network simulator.

This subpackage is the substrate that replaces the paper's mahimahi
emulation and Linux networking stack.  It provides:

* :mod:`repro.net.simulator` — the event loop.
* :mod:`repro.net.packet` — the packet model (header fields used by the
  epoch-boundary hash, sizes, flow identifiers).
* :mod:`repro.net.link` — rate/propagation-delay links with pluggable
  queueing disciplines.
* :mod:`repro.net.node` — hosts, routers (with static and ECMP routing) and
  generic middlebox hooks.
* :mod:`repro.net.topology` — canonical topologies used by the evaluation
  (site-to-site dumbbell, multipath, multi-site).
* :mod:`repro.net.trace` — queue-delay and throughput taps a reader
  attaches to the links it measures.
"""

from repro.net.simulator import Simulator
from repro.net.packet import Packet, PacketFactory
from repro.net.link import Link
from repro.net.node import Host, Node, Router
from repro.net.trace import QueueMonitor, RateMonitor, TimeSeries

__all__ = [
    "Simulator",
    "Packet",
    "PacketFactory",
    "Link",
    "Node",
    "Host",
    "Router",
    "QueueMonitor",
    "RateMonitor",
    "TimeSeries",
]
