"""Token-bucket filter with a pluggable inner qdisc.

This mirrors the patched Linux ``tbf`` qdisc the Bundler prototype uses as
its sendbox datapath (§6.1):

* the *rate* of the bucket is the bundle's sending rate computed by the
  control plane (it can be updated at runtime via :meth:`set_rate`);
* the *inner qdisc* decides which queued packet goes out next, which is
  where the operator's scheduling policy (SFQ, FQ-CoDel, strict priority, …)
  plugs in;
* as in the prototype's patch, updating the rate does **not** instantly
  refill the bucket, so frequent rate updates do not cause bursts;
* an optional callback reports each packet as it is released, which the
  sendbox uses to record epoch-boundary transmit timestamps.

The shaper exposes :meth:`next_ready_time` so the owning link can re-poll
when enough tokens will have accumulated for the head packet.
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import Packet
from repro.qdisc.base import Qdisc
from repro.qdisc.fifo import FifoQdisc


class TokenBucketQdisc(Qdisc):
    """Rate limiter (token bucket) feeding from an inner scheduling qdisc."""

    def __init__(
        self,
        rate_bps: float,
        inner: Optional[Qdisc] = None,
        *,
        burst_bytes: Optional[int] = None,
        peak_rate_bps: Optional[float] = None,
    ) -> None:
        # NOTE: the base-class __init__ is deliberately not called.  The token
        # bucket does not keep its own backlog counters — the backlog lives in
        # the inner qdisc (which may drop already-queued packets when it
        # overflows, e.g. SFQ's drop-from-longest-queue), so the TBF exposes
        # the inner backlog via properties instead of shadow counters that
        # could drift out of sync.
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.limit_packets = None
        self.limit_bytes = None
        self.dropped_packets = 0
        self.enqueued_packets = 0
        self.dequeued_packets = 0
        self.inner = inner if inner is not None else FifoQdisc()
        self.rate_bps = rate_bps
        # Default burst of two MTU-sized packets: enough to avoid quantization
        # stalls without allowing multi-packet bursts that would defeat pacing.
        self.burst_bytes = burst_bytes if burst_bytes is not None else 3028
        if self.burst_bytes < 1514:
            raise ValueError("burst must be at least one MTU (1514 bytes)")
        self.peak_rate_bps = peak_rate_bps
        self._tokens = float(self.burst_bytes)
        self._last_update = 0.0
        self._staged: Optional[Packet] = None
        self.rate_updates = 0

    # -- backlog (delegated to the inner qdisc plus the staged packet) -------

    @property
    def backlog_packets(self) -> int:
        return self.inner.backlog_packets + (1 if self._staged is not None else 0)

    @property
    def backlog_bytes(self) -> int:
        return self.inner.backlog_bytes + (self._staged.size if self._staged is not None else 0)

    # -- rate control ------------------------------------------------------

    def set_rate(self, rate_bps: float, now: Optional[float] = None) -> None:
        """Update the shaping rate.

        The token count is brought up to date at the *old* rate first and is
        not refilled, reproducing the prototype's "disable instantaneous
        bucket refill" patch so frequent control-plane updates cannot create
        rate spikes.
        """
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if now is not None:
            self._refill(now)
        self.rate_bps = rate_bps
        self.rate_updates += 1

    def _refill(self, now: float) -> None:
        elapsed = now - self._last_update
        if elapsed < 0:
            elapsed = 0.0
        self._tokens = min(
            float(self.burst_bytes), self._tokens + elapsed * self.rate_bps / 8.0
        )
        self._last_update = now

    # -- qdisc interface ----------------------------------------------------

    def enqueue(self, packet: Packet, now: float) -> bool:
        accepted = self.inner.enqueue(packet, now)
        if accepted:
            self.enqueued_packets += 1
        else:
            self.dropped_packets += 1
        return accepted

    def dequeue(self, now: float) -> Optional[Packet]:
        self._refill(now)
        if self._staged is None:
            self._staged = self.inner.dequeue(now)
        if self._staged is None:
            return None
        if self._tokens + 1e-9 < self._staged.size:
            return None
        packet = self._staged
        self._staged = None
        self._tokens -= packet.size
        self.dequeued_packets += 1
        return packet

    def next_ready_time(self, now: float) -> Optional[float]:
        if self.backlog_packets <= 0:
            return None
        self._refill(now)
        pending_size = self._staged.size if self._staged is not None else 1514
        deficit = pending_size - self._tokens
        if deficit <= 0:
            return now
        return now + deficit * 8.0 / self.rate_bps

    def __len__(self) -> int:
        return self.backlog_packets

    def peek(self) -> Optional[Packet]:
        """The staged packet, or the inner head.  Eligibility (token state)
        is *not* checked — pair with :meth:`next_ready_time`."""
        if self._staged is not None:
            return self._staged
        return self.inner.peek()

    # -- introspection -------------------------------------------------------

    @property
    def tokens(self) -> float:
        """Current token count in bytes (for tests and diagnostics)."""
        return self._tokens

    def queue_delay_estimate(self, now: float) -> float:
        """Approximate delay a packet arriving now would experience, in seconds.

        This is the backlog divided by the shaping rate — the quantity the
        pass-through PI controller (§5.1) regulates toward its 10 ms target.
        """
        return self.backlog_bytes * 8.0 / self.rate_bps
