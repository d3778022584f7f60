"""Bundler configuration.

One :class:`BundlerConfig` describes everything about how a
sendbox/receivebox pair operates: the inner congestion control algorithm,
the operator's scheduling policy, the Nimbus cross-traffic detection and
pass-through parameters, the epoch measurement parameters, and the
multipath fallback threshold.  Defaults follow the paper's prototype and
evaluation setup (§6, §7.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass
class BundlerConfig:
    """Configuration for one Bundler deployment (a sendbox/receivebox pair)."""

    # --- inner control loop -------------------------------------------------
    #: Sendbox congestion control algorithm: "copa", "basic_delay", "bbr" or
    #: "constant" (see :data:`repro.cc.RATE_CC_REGISTRY`).
    sendbox_cc: str = "copa"
    #: Extra keyword arguments for the rate controller.
    sendbox_cc_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Control-plane invocation period (the prototype invokes the congestion
    #: control algorithm every 10 ms via libccp, §6.2).
    control_interval_s: float = 0.01
    #: Rate used before the first measurement arrives, bits/second.
    initial_rate_bps: float = 24e6
    #: Lower bound on the bundle rate, bits/second.
    min_rate_bps: float = 0.5e6

    # --- scheduling policy ----------------------------------------------------
    #: Scheduling policy applied to the shifted queue at the sendbox:
    #: one of "sfq", "fifo", "fq_codel", "prio", "drr".
    scheduler: str = "sfq"
    #: Extra keyword arguments for the scheduler qdisc.
    scheduler_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Packet limit of the sendbox queue.  It must be deep — the point of
    #: Bundler is to hold the queue here rather than in the network — but not
    #: unbounded, or loss-based endhost flows would grow their windows (and
    #: this queue) without limit.  A few thousand packets is several
    #: bandwidth-delay products at the evaluated rates, comparable to the
    #: prototype's qdisc limits.
    sendbox_queue_packets: int = 2500

    # --- epoch measurement (§4.5) ----------------------------------------------
    #: Epoch boundaries are spaced so that roughly ``epoch_rtt_fraction`` of a
    #: minRTT's worth of packets separates consecutive samples.
    epoch_rtt_fraction: float = 0.25
    #: Epoch size used before the first RTT estimate exists (packets).
    initial_epoch_size: int = 16
    #: Bounds on the epoch size (packets, powers of two).
    min_epoch_size: int = 1
    max_epoch_size: int = 8192
    #: Measurements are averaged over a sliding window of this many RTTs.
    measurement_window_rtts: float = 1.0
    #: Boundary packets unacknowledged for this long are treated as lost.
    feedback_timeout_s: float = 2.0

    # --- cross-traffic detection and pass-through (§5.1) -------------------------
    #: Enable Nimbus pulsing / elasticity detection.
    enable_nimbus: bool = True
    #: Pulse period (seconds); the paper uses T = 0.2 s.
    nimbus_period_s: float = 0.2
    #: Pulse amplitude as a fraction of the bottleneck estimate (paper: 1/4).
    nimbus_amplitude_fraction: float = 0.25
    #: Elasticity metric threshold above which cross traffic is declared elastic.
    nimbus_elasticity_threshold: float = 2.5
    #: Minimum cross-traffic rate (fraction of the bottleneck estimate) for an
    #: elastic verdict — prevents false positives when the bundle is alone.
    nimbus_min_cross_fraction: float = 0.1
    #: Target standing queue at the sendbox while letting traffic pass
    #: (8 ms of pulse volume plus a 2 ms cushion, §5.1).
    target_queue_s: float = 0.010
    #: PI controller gains for the pass-through standing queue (§5.1).
    pi_alpha: float = 10.0
    pi_beta: float = 10.0

    # --- multipath fallback (§5.2) -------------------------------------------------
    #: Enable the out-of-order-epoch multipath imbalance detector.
    enable_multipath_detection: bool = True
    #: Fraction of out-of-order epoch measurements above which the paths are
    #: considered imbalanced (the paper determines 5% empirically, §7.6).
    multipath_threshold: float = 0.05
    #: Sliding window over which the out-of-order fraction is computed.
    multipath_window_s: float = 5.0
    #: Minimum number of epoch measurements before the detector may trigger.
    multipath_min_samples: int = 50

    # --- control-message plumbing ------------------------------------------------------
    #: UDP port of the sendbox control agent (receives congestion ACKs).
    sendbox_control_port: int = 9999
    #: UDP port of the receivebox control agent (receives epoch-size updates).
    receivebox_control_port: int = 9998
    #: Size of out-of-band control messages, bytes.
    control_packet_size: int = 40

    def __post_init__(self) -> None:
        if self.control_interval_s <= 0:
            raise ValueError("control_interval_s must be positive")
        if not 0.0 < self.epoch_rtt_fraction <= 1.0:
            raise ValueError("epoch_rtt_fraction must be in (0, 1]")
        if self.min_epoch_size < 1 or self.max_epoch_size < self.min_epoch_size:
            raise ValueError("epoch size bounds must satisfy 1 <= min <= max")
        if not 0.0 < self.multipath_threshold < 1.0:
            raise ValueError("multipath_threshold must be in (0, 1)")
        if self.target_queue_s <= 0:
            raise ValueError("target_queue_s must be positive")
        if self.sendbox_control_port == self.receivebox_control_port:
            raise ValueError("sendbox and receivebox control ports must differ")
