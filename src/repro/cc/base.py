"""Congestion control interfaces.

Endhost transports use :class:`WindowCongestionControl`: the classic
ACK-clocked interface (congestion window in bytes, loss and timeout events).

The Bundler sendbox uses :class:`RateCongestionControl`: once per control
interval it receives a :class:`BundleMeasurement` — the congestion signals
the measurement module computed from epoch feedback (§4.5) — and returns the
bundle's sending rate in bits per second.  This mirrors how the prototype's
CCP-based control plane feeds Copa/Nimbus/BBR with (RTT, send rate, receive
rate) once per 10 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class BundleMeasurement:
    """Congestion signals for one bundle over the last measurement window.

    Attributes
    ----------
    now:
        Simulated time the measurement was taken.
    rtt:
        Smoothed RTT between sendbox and receivebox (seconds), computed from
        epoch feedback over a sliding window of roughly one RTT.
    min_rtt:
        Minimum RTT observed for the bundle so far (seconds).
    send_rate:
        Rate at which the sendbox released the bundle's bytes (bits/second).
    recv_rate:
        Rate at which the receivebox observed the bundle's bytes
        (bits/second).
    acked_bytes:
        Bytes newly acknowledged by congestion ACKs since the previous
        measurement.
    loss_detected:
        True if epoch feedback indicated missing epochs (boundary packets
        that were never acknowledged within a timeout).
    """

    now: float
    rtt: float
    min_rtt: float
    send_rate: float
    recv_rate: float
    acked_bytes: float = 0.0
    loss_detected: bool = False

    @property
    def queue_delay(self) -> float:
        """Estimated self-inflicted queueing delay in the network (seconds)."""
        return max(0.0, self.rtt - self.min_rtt)


class WindowCongestionControl:
    """Interface for endhost (per-connection) congestion control."""

    # One controller exists per flow in flight; a subclass that declares
    # its own ``__slots__`` (Cubic, the default) gets instances without a
    # ``__dict__``, one that does not is unaffected.
    __slots__ = ()

    #: Maximum segment size used for window arithmetic, in bytes.
    mss: int = 1500

    @property
    def cwnd_bytes(self) -> float:
        """Current congestion window in bytes."""
        raise NotImplementedError

    def on_ack(self, now: float, acked_bytes: int, rtt: float) -> None:
        """New data was cumulatively acknowledged."""
        raise NotImplementedError

    def on_loss(self, now: float) -> None:
        """Loss inferred from SACK/duplicate-ACK evidence (fast retransmit)."""
        raise NotImplementedError

    def on_timeout(self, now: float, flight_bytes: float = 0.0) -> None:
        """Retransmission timeout fired.

        ``flight_bytes`` is the amount of unacknowledged data at the time of
        the timeout; implementations should base their ssthresh on it (RFC
        5681 uses the flight size, not the possibly-already-collapsed cwnd).
        """
        raise NotImplementedError

    def pacing_rate_bps(self) -> Optional[float]:
        """Optional pacing rate; ``None`` means pure window (ACK-clocked) sending."""
        return None


class RateCongestionControl:
    """Interface for the bundle-level (sendbox) congestion control."""

    def initial_rate_bps(self) -> float:
        """Rate to use before the first measurement arrives."""
        raise NotImplementedError

    def on_measurement(self, measurement: BundleMeasurement) -> float:
        """Consume one measurement and return the new sending rate (bits/second)."""
        raise NotImplementedError

    def on_no_feedback(self, now: float) -> Optional[float]:
        """Called when a control interval elapses with no new feedback.

        Returning a rate overrides the previous one (e.g. to back off after
        persistent silence); returning ``None`` keeps the current rate.
        """
        return None
