"""Nimbus elasticity detection (§5.1).

Bundler's delay-based inner loop would lose throughput to buffer-filling
cross traffic, so it uses the Nimbus mechanism [Goyal et al.] to detect such
traffic and temporarily stop controlling queues:

* :class:`NimbusPulser` superimposes the asymmetric sinusoidal pulse on the
  base sending rate: a half-sine *up* pulse of amplitude ``A`` over the first
  quarter of each period, balanced by a shallower half-sine *down* pulse of
  amplitude ``A/3`` over the remaining three quarters (zero net volume).
  The paper uses period ``T = 0.2 s`` and amplitude ``A = mu / 4``.
* :class:`NimbusDetector` estimates the cross-traffic rate
  ``z = mu * S / R - S`` from the bundle's send rate ``S``, receive rate
  ``R`` and bottleneck estimate ``mu``, keeps a short history, and looks at
  the magnitude of the DFT of ``z`` around the pulse frequency.  Elastic
  (buffer-filling) cross traffic reacts to the pulses within an RTT, so its
  rate shows significant energy at the pulse frequency; inelastic traffic
  (short flows, paced streams) does not.  Only two narrow bands of the
  spectrum are read, so the magnitudes are computed at exactly those DFT
  bins (a Goertzel recurrence per bin) rather than by a full FFT.

The detector only reports *elastic* when cross traffic is actually present
(mean ``z`` above a small fraction of ``mu``) and the pulse-frequency energy
stands out from neighbouring frequencies, which avoids false positives when
the bundle has the bottleneck to itself.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.util.windowed import MaxFilter


class NimbusPulser:
    """Asymmetric sinusoidal rate pulses (zero mean over each period)."""

    def __init__(self, period_s: float = 0.2, amplitude_fraction: float = 0.25) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        if not 0.0 < amplitude_fraction <= 0.5:
            raise ValueError("amplitude_fraction must be in (0, 0.5]")
        self.period_s = period_s
        self.amplitude_fraction = amplitude_fraction

    @property
    def pulse_frequency_hz(self) -> float:
        return 1.0 / self.period_s

    def offset(self, now: float, mu_bps: float) -> float:
        """Rate offset (bits/second) to add to the base rate at time ``now``."""
        if mu_bps <= 0:
            return 0.0
        amplitude = self.amplitude_fraction * mu_bps
        phase = (now % self.period_s) / self.period_s
        if phase < 0.25:
            return amplitude * math.sin(math.pi * (phase / 0.25))
        return -(amplitude / 3.0) * math.sin(math.pi * ((phase - 0.25) / 0.75))

    def up_pulse_queue_bytes(self, mu_bps: float) -> float:
        """Queueing (bytes) needed at the sendbox to source a full up-pulse.

        This is the area under the up-pulse curve, ``A * T / (2 * pi)`` in
        the paper's notation (§5.1), which motivates the 10 ms standing-queue
        target in pass-through mode.
        """
        amplitude = self.amplitude_fraction * mu_bps
        return amplitude * self.period_s / (2.0 * math.pi) / 8.0


def _dft_magnitude(samples: Sequence[float], k: int) -> float:
    """``|X[k]|`` of the DFT of ``samples`` (Goertzel's second-order recurrence)."""
    coeff = 2.0 * math.cos(2.0 * math.pi * k / len(samples))
    s1 = s2 = 0.0
    for x in samples:
        s1, s2 = x + coeff * s1 - s2, s1
    return math.sqrt(max(s1 * s1 + s2 * s2 - coeff * s1 * s2, 0.0))


class NimbusDetector:
    """Spectral detector for elastic (buffer-filling) cross traffic."""

    def __init__(
        self,
        pulser: Optional[NimbusPulser] = None,
        *,
        sample_interval_s: float = 0.01,
        history_s: float = 5.0,
        detection_interval_s: float = 0.5,
        elasticity_threshold: float = 2.5,
        min_cross_fraction: float = 0.1,
        min_queue_delay_s: float = 0.003,
        bw_window_s: float = 10.0,
        hysteresis_intervals: int = 3,
    ) -> None:
        self.pulser = pulser or NimbusPulser()
        self.sample_interval_s = sample_interval_s
        self.history_s = history_s
        self.detection_interval_s = detection_interval_s
        self.elasticity_threshold = elasticity_threshold
        self.min_cross_fraction = min_cross_fraction
        self.min_queue_delay_s = min_queue_delay_s
        self.hysteresis_intervals = hysteresis_intervals
        self._mu_hat = MaxFilter(bw_window_s)
        maxlen = max(int(history_s / sample_interval_s), 16)
        self._cross_samples: Deque[float] = deque(maxlen=maxlen)
        self._last_detection_time = 0.0
        self._elastic = False
        self._elastic_votes = 0
        self._inelastic_votes = 0
        self.last_elasticity_metric = 0.0
        self.last_cross_rate_bps = 0.0

    # -- inputs -------------------------------------------------------------

    def record_sample(
        self,
        now: float,
        send_rate_bps: float,
        recv_rate_bps: float,
        queue_delay_s: float = math.inf,
    ) -> None:
        """Record one control-interval sample of the bundle's send/receive rates.

        ``queue_delay_s`` is the measured self-inflicted queueing delay on the
        path.  The cross-traffic estimate ``mu * S / R - S`` is only meaningful
        when the bottleneck is actually busy (a queue exists); when the path is
        uncongested, ``R`` simply tracks ``S`` and the estimate would mirror our
        own pulses, so such samples are recorded as "no cross traffic".
        """
        if recv_rate_bps > 0:
            self._mu_hat.update(now, recv_rate_bps)
        mu = self._mu_hat.current(now)
        if mu is None or mu <= 0 or recv_rate_bps <= 0:
            return
        if queue_delay_s < self.min_queue_delay_s:
            cross = 0.0
        else:
            cross = max(0.0, mu * send_rate_bps / recv_rate_bps - send_rate_bps)
        self.last_cross_rate_bps = cross
        self._cross_samples.append(cross)
        if now - self._last_detection_time >= self.detection_interval_s:
            self._last_detection_time = now
            self._run_detection()

    @property
    def mu_hat_bps(self) -> Optional[float]:
        """Current bottleneck-bandwidth estimate."""
        return self._mu_hat.current()

    # -- detection ------------------------------------------------------------

    def _band_bins(self, n: int) -> Tuple[List[int], List[int]]:
        """DFT bins of an ``n``-sample window in the pulse and reference bands."""
        f_pulse = self.pulser.pulse_frequency_hz
        # Bin k sits at k * spacing.  Keep this exact float expression: which
        # bins land on a band edge, and so the pinned result bytes, depend on it.
        spacing = 1.0 / (n * self.sample_interval_s)
        pulse: List[int] = []
        reference: List[int] = []
        for k in range(n // 2 + 1):
            f = k * spacing
            if f_pulse * 0.8 <= f <= f_pulse * 1.2:
                pulse.append(k)
            # Reference band: frequencies away from the pulse and its first
            # harmonic, in the same general range so broadband noise cancels out.
            elif f_pulse * 1.4 <= f <= f_pulse * 3.0 and not (
                f_pulse * 1.8 <= f <= f_pulse * 2.2
            ):
                reference.append(k)
        return pulse, reference

    def elasticity_metric(self) -> float:
        """Ratio of cross-traffic energy at the pulse frequency to nearby frequencies."""
        n = len(self._cross_samples)
        if n < int(1.0 / self.sample_interval_s):
            return 0.0
        pulse_band, reference_band = self._band_bins(n)
        if not pulse_band or not reference_band:
            return 0.0
        mean = sum(self._cross_samples) / n
        samples = [x - mean for x in self._cross_samples]
        pulse_energy = max(_dft_magnitude(samples, k) for k in pulse_band)
        reference_energy = (
            sum(_dft_magnitude(samples, k) for k in reference_band) / len(reference_band)
        ) + 1e-9
        return pulse_energy / reference_energy

    def _run_detection(self) -> None:
        mu = self._mu_hat.current()
        if mu is None or mu <= 0:
            return
        metric = self.elasticity_metric()
        self.last_elasticity_metric = metric
        mean_cross = (
            sum(self._cross_samples) / len(self._cross_samples) if self._cross_samples else 0.0
        )
        cross_present = mean_cross >= self.min_cross_fraction * mu
        is_elastic_now = cross_present and metric >= self.elasticity_threshold
        if is_elastic_now:
            self._elastic_votes += 1
            self._inelastic_votes = 0
        else:
            self._inelastic_votes += 1
            self._elastic_votes = 0
        # Hysteresis: require several consecutive agreeing detections before
        # switching modes, so one noisy spectral window does not flap the bundle
        # between delay-control and pass-through.
        if not self._elastic and self._elastic_votes >= self.hysteresis_intervals:
            self._elastic = True
        elif self._elastic and self._inelastic_votes >= self.hysteresis_intervals:
            self._elastic = False

    @property
    def elastic_cross_traffic(self) -> bool:
        """True while buffer-filling (elastic) cross traffic is believed present."""
        return self._elastic

    def reset(self) -> None:
        """Clear detector state (used when the bundle is idle for a long time)."""
        self._cross_samples.clear()
        self._elastic = False
        self._elastic_votes = 0
        self._inelastic_votes = 0
        self.last_elasticity_metric = 0.0
