"""Per-bundle control loop: rate control, cross-traffic fallback, multipath fallback.

The controller is the piece of the sendbox control plane that decides, once
per control interval, what rate the token bucket should enforce for a
bundle.  It composes four mechanisms from the paper:

* **Delay mode** (§4.3): the configured rate controller (Copa by default)
  consumes the epoch measurements and produces the bundle rate that keeps
  the bottleneck queue small, shifting queueing to the sendbox.
* **Nimbus pulses and elasticity detection** (§5.1): an asymmetric sinusoid
  is superimposed on the rate, and the magnitudes of the estimated
  cross-traffic rate's DFT bins around the pulse frequency reveal
  buffer-filling competitors.
* **Pass-through mode** (§5.1): when buffer-filling cross traffic is
  present, the controller stops using the delay-based rate and instead uses
  a PI controller to keep only a small (10 ms) standing queue at the
  sendbox, letting the endhost loops compete on their own.  Pulsing
  continues so the detector can notice when the cross traffic leaves.
* **Multipath fallback** (§5.2): if the out-of-order fraction of congestion
  ACKs indicates imbalanced load-balanced paths, rate control is disabled
  entirely (status-quo behaviour) until measurements look sane again.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.cc import make_rate_cc
from repro.cc.base import BundleMeasurement, RateCongestionControl
from repro.cc.nimbus import NimbusDetector, NimbusPulser
from repro.core.config import BundlerConfig
from repro.core.multipath import MultipathDetector
from repro.core.passthrough import PiQueueController
from repro.net.trace import TimeSeries


class BundlerMode(enum.Enum):
    """Operating mode of a bundle's rate control."""

    DELAY_CONTROL = "delay_control"
    PASS_THROUGH = "pass_through"
    DISABLED_MULTIPATH = "disabled_multipath"


class BundleController:
    """Chooses the bundle's sending rate each control interval."""

    def __init__(
        self,
        config: BundlerConfig,
        *,
        max_rate_bps: float,
        rate_cc: Optional[RateCongestionControl] = None,
    ) -> None:
        self.config = config
        self.max_rate_bps = max_rate_bps
        cc_kwargs = dict(config.sendbox_cc_kwargs)
        cc_kwargs.setdefault("initial_rate_bps", config.initial_rate_bps)
        if rate_cc is not None:
            self.rate_cc = rate_cc
        else:
            self.rate_cc = make_rate_cc(config.sendbox_cc, **cc_kwargs)
        self.pulser = NimbusPulser(
            period_s=config.nimbus_period_s,
            amplitude_fraction=config.nimbus_amplitude_fraction,
        )
        self.nimbus = (
            NimbusDetector(
                self.pulser,
                sample_interval_s=config.control_interval_s,
                elasticity_threshold=config.nimbus_elasticity_threshold,
                min_cross_fraction=config.nimbus_min_cross_fraction,
            )
            if config.enable_nimbus
            else None
        )
        self.pi = PiQueueController(
            alpha=config.pi_alpha,
            beta=config.pi_beta,
            target_queue_s=config.target_queue_s,
            min_rate_bps=config.min_rate_bps,
            max_rate_bps=max_rate_bps,
        )
        self.multipath = (
            MultipathDetector(
                threshold=config.multipath_threshold,
                window_s=config.multipath_window_s,
                min_samples=config.multipath_min_samples,
            )
            if config.enable_multipath_detection
            else None
        )
        self.mode = BundlerMode.DELAY_CONTROL
        self._base_rate = self.rate_cc.initial_rate_bps()
        self.mode_history = TimeSeries()
        self.mode_changes = 0

    # -- inputs from the measurement engine ----------------------------------------

    def record_ack_ordering(self, now: float, out_of_order: bool) -> None:
        """Feed one congestion-ACK ordering observation to the multipath detector."""
        if self.multipath is not None:
            self.multipath.record(now, out_of_order)

    # -- main decision ----------------------------------------------------------------

    def tick(
        self,
        now: float,
        measurement: Optional[BundleMeasurement],
        sendbox_queue_delay_s: float,
    ) -> float:
        """Compute the rate to enforce for the next control interval."""
        if measurement is not None and self.nimbus is not None:
            self.nimbus.record_sample(
                now,
                measurement.send_rate,
                measurement.recv_rate,
                queue_delay_s=measurement.queue_delay,
            )

        next_mode = self._choose_mode(now)
        if next_mode is not self.mode:
            self._on_mode_change(next_mode)
        self.mode = next_mode

        if self.mode is BundlerMode.DISABLED_MULTIPATH:
            rate = self.max_rate_bps
        elif self.mode is BundlerMode.PASS_THROUGH:
            rate_scale = self._rate_scale(measurement)
            rate = self.pi.update(now, sendbox_queue_delay_s, rate_scale)
            rate += self._pulse_offset(now)
        else:
            if measurement is not None:
                self._base_rate = self.rate_cc.on_measurement(measurement)
            else:
                fallback = self.rate_cc.on_no_feedback(now)
                if fallback is not None:
                    self._base_rate = fallback
            rate = self._base_rate + self._pulse_offset(now)

        rate = min(max(rate, self.config.min_rate_bps), self.max_rate_bps)
        self.mode_history.add(now, self._mode_code(self.mode))
        return rate

    # -- helpers --------------------------------------------------------------------------

    def _choose_mode(self, now: float) -> BundlerMode:
        if self.multipath is not None and self.multipath.imbalanced(now):
            return BundlerMode.DISABLED_MULTIPATH
        if self.nimbus is not None and self.nimbus.elastic_cross_traffic:
            return BundlerMode.PASS_THROUGH
        return BundlerMode.DELAY_CONTROL

    def _on_mode_change(self, new_mode: BundlerMode) -> None:
        self.mode_changes += 1
        if new_mode is BundlerMode.PASS_THROUGH:
            # Start the PI controller from the current delay-mode rate so the
            # transition does not create a rate discontinuity.
            self.pi.reset(max(self._base_rate, self.config.min_rate_bps))

    def _rate_scale(self, measurement: Optional[BundleMeasurement]) -> float:
        if self.nimbus is not None and self.nimbus.mu_hat_bps:
            return self.nimbus.mu_hat_bps
        if measurement is not None and measurement.recv_rate > 0:
            return measurement.recv_rate
        return max(self._base_rate, self.config.min_rate_bps)

    def _pulse_offset(self, now: float) -> float:
        if self.nimbus is None:
            return 0.0
        mu = self.nimbus.mu_hat_bps or self._base_rate
        return self.pulser.offset(now, mu)

    @staticmethod
    def _mode_code(mode: BundlerMode) -> int:
        return {
            BundlerMode.DELAY_CONTROL: 0,
            BundlerMode.PASS_THROUGH: 1,
            BundlerMode.DISABLED_MULTIPATH: 2,
        }[mode]

    # -- reporting --------------------------------------------------------------------------

    def time_in_mode(self, mode: BundlerMode, end_time: float) -> float:
        """Seconds spent in ``mode`` up to ``end_time`` (from the mode history)."""
        history = self.mode_history
        if not len(history):
            return 0.0
        total = 0.0
        code = self._mode_code(mode)
        times, values = history.times, history.values
        for i, (t, v) in enumerate(zip(times, values, strict=True)):
            nxt = times[i + 1] if i + 1 < len(times) else end_time
            if v == code:
                total += max(nxt - t, 0.0)
        return total
