"""TCP Cubic congestion control (endhost) [Ha, Rhee, Xu 2008].

Cubic is the default endhost congestion controller in the evaluation
(§7.1).  Its defining property for Bundler is that it is *loss-based*: it
keeps probing for bandwidth until packets are dropped, so the packets it
pushes beyond the bottleneck capacity must queue somewhere — at the
bottleneck without Bundler, at the sendbox with it (§7.2).

The implementation follows the standard formulation: after a loss the
window is reduced by ``beta`` and subsequently grows as
``W(t) = C (t - K)^3 + W_max`` with ``K = cbrt(W_max * (1 - beta) / C)``,
with the TCP-friendly (Reno-tracking) lower bound.
"""

from __future__ import annotations

from repro.cc.base import WindowCongestionControl


class CubicCC(WindowCongestionControl):
    """CUBIC window growth with fast convergence."""

    __slots__ = (
        "mss", "c", "beta", "fast_convergence", "_cwnd", "_ssthresh", "_w_max",
        "_k", "_epoch_start", "_tcp_cwnd", "in_recovery_until", "__weakref__",
    )

    def __init__(
        self,
        mss: int = 1500,
        c: float = 0.4,
        beta: float = 0.7,
        initial_cwnd_segments: int = 10,
        fast_convergence: bool = True,
    ) -> None:
        if mss <= 0:
            raise ValueError("mss must be positive")
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        self.mss = mss
        self.c = c
        self.beta = beta
        self.fast_convergence = fast_convergence
        self._cwnd = float(initial_cwnd_segments * mss)
        self._ssthresh = float("inf")
        self._w_max = 0.0
        self._k = 0.0
        self._epoch_start: float = -1.0
        self._tcp_cwnd = 0.0
        self.in_recovery_until = 0.0

    @property
    def cwnd_bytes(self) -> float:
        return self._cwnd

    @property
    def ssthresh_bytes(self) -> float:
        return self._ssthresh

    def _cwnd_segments(self) -> float:
        return self._cwnd / self.mss

    def on_ack(self, now: float, acked_bytes: int, rtt: float) -> None:
        if acked_bytes <= 0:
            return
        if self._cwnd < self._ssthresh:
            # Slow start with appropriate byte counting (cap per ACK).
            self._cwnd += min(acked_bytes, 2 * self.mss)
            return
        # Congestion avoidance in CUBIC's time domain.
        if self._epoch_start < 0:
            self._epoch_start = now
            w_max_seg = max(self._w_max, self._cwnd) / self.mss
            cwnd_seg = self._cwnd_segments()
            if w_max_seg > cwnd_seg:
                self._k = ((w_max_seg - cwnd_seg) / self.c) ** (1.0 / 3.0)
            else:
                self._k = 0.0
            self._tcp_cwnd = self._cwnd
        t = now - self._epoch_start
        target_seg = self.c * (t - self._k) ** 3 + self._w_max / self.mss
        target = max(target_seg * self.mss, self.mss)
        # TCP-friendly region: never be slower than an equivalent Reno flow.
        self._tcp_cwnd += (
            3.0 * (1.0 - self.beta) / (1.0 + self.beta)
            * self.mss * (acked_bytes / max(self._cwnd, self.mss))
            * self.mss
        ) / self.mss
        target = max(target, self._tcp_cwnd)
        if target > self._cwnd:
            # Approach the cubic target over roughly one RTT of ACKs.
            self._cwnd += (target - self._cwnd) * (acked_bytes / max(self._cwnd, self.mss))
        else:
            self._cwnd += self.mss * 0.01 * (acked_bytes / max(self._cwnd, self.mss))
        self._cwnd = max(self._cwnd, float(self.mss))

    def on_loss(self, now: float) -> None:
        if now < self.in_recovery_until:
            return
        if self.fast_convergence and self._cwnd < self._w_max:
            self._w_max = self._cwnd * (1.0 + self.beta) / 2.0
        else:
            self._w_max = self._cwnd
        self._cwnd = max(self._cwnd * self.beta, 2.0 * self.mss)
        self._ssthresh = self._cwnd
        self._epoch_start = -1.0
        self.in_recovery_until = now + 0.1

    def on_timeout(self, now: float, flight_bytes: float = 0.0) -> None:
        reference = max(self._cwnd, flight_bytes)
        self._w_max = reference
        self._ssthresh = max(reference * self.beta, 2.0 * self.mss)
        self._cwnd = float(self.mss)
        self._epoch_start = -1.0
        self.in_recovery_until = now
