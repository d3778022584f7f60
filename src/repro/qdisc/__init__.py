"""Queueing disciplines.

These are packet-level re-implementations of the Linux qdiscs the paper's
prototype relies on, driven by simulated time instead of the kernel clock:

* :class:`~repro.qdisc.fifo.FifoQdisc` — drop-tail FIFO (the Status Quo
  bottleneck queue).
* :class:`~repro.qdisc.sfq.SfqQdisc` — Stochastic Fairness Queueing, the
  default scheduling policy at the sendbox (§7.1).
* :class:`~repro.qdisc.codel.CoDelQdisc` and
  :class:`~repro.qdisc.fq_codel.FqCoDelQdisc` — CoDel AQM and FQ-CoDel.
* :class:`~repro.qdisc.drr.DrrQdisc` — deficit round robin.
* :class:`~repro.qdisc.prio.PrioQdisc` — strict priority classes.
* :class:`~repro.qdisc.tbf.TokenBucketQdisc` — token-bucket shaper with a
  pluggable inner qdisc; the patched-TBF sendbox datapath of §6.1.
"""

from repro.qdisc.base import Qdisc
from repro.qdisc.fifo import FifoQdisc
from repro.qdisc.sfq import SfqQdisc
from repro.qdisc.codel import CoDelQdisc
from repro.qdisc.fq_codel import FqCoDelQdisc
from repro.qdisc.drr import DrrQdisc
from repro.qdisc.prio import PrioQdisc
from repro.qdisc.tbf import TokenBucketQdisc

__all__ = [
    "Qdisc",
    "FifoQdisc",
    "SfqQdisc",
    "CoDelQdisc",
    "FqCoDelQdisc",
    "DrrQdisc",
    "PrioQdisc",
    "TokenBucketQdisc",
]


QDISC_REGISTRY = {
    "fifo": FifoQdisc,
    "sfq": SfqQdisc,
    "codel": CoDelQdisc,
    "fq_codel": FqCoDelQdisc,
    "drr": DrrQdisc,
    "prio": PrioQdisc,
}


def make_qdisc(name: str, **kwargs) -> Qdisc:
    """Construct a qdisc by name (e.g. from experiment configuration)."""
    try:
        cls = QDISC_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown qdisc {name!r}; available: {sorted(QDISC_REGISTRY)}"
        ) from None
    return cls(**kwargs)
