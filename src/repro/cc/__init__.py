"""Congestion control algorithms.

Two interfaces live here (defined in :mod:`repro.cc.base`):

* **Window controllers** drive endhost TCP flows (Cubic, Reno, BBR, and
  the constant-window controller used to emulate an idealized TCP
  proxy).  Bundler leaves these untouched — they keep probing for bandwidth
  exactly as they would without a Bundler on path (§4.1).
* **Rate controllers** drive the bundle's inner control loop at the sendbox
  (Copa, Nimbus BasicDelay, rate-mode BBR), fed by the epoch-based
  measurements of §4.5 once per 10 ms control interval.

:mod:`repro.cc.nimbus` implements the Nimbus elasticity detector (§5.1):
pulsed sending rates, cross-traffic rate estimation, and a spectral test
for buffer-filling cross traffic (the DFT magnitudes of the cross-traffic
rate in the pulse band against a neighbouring reference band), plus the
watchdog that decides when Bundler should let traffic pass.
"""

from repro.cc.base import (
    BundleMeasurement,
    RateCongestionControl,
    WindowCongestionControl,
)
from repro.cc.reno import RenoCC
from repro.cc.cubic import CubicCC
from repro.cc.bbr import BbrRateControl, BbrWindowCC
from repro.cc.copa import CopaRateControl
from repro.cc.basic_delay import BasicDelayRateControl
from repro.cc.nimbus import NimbusDetector, NimbusPulser
from repro.cc.constant import ConstantWindowCC, ConstantRateControl

WINDOW_CC_REGISTRY = {
    "reno": RenoCC,
    "cubic": CubicCC,
    "bbr": BbrWindowCC,
    "constant": ConstantWindowCC,
}

RATE_CC_REGISTRY = {
    "copa": CopaRateControl,
    "basic_delay": BasicDelayRateControl,
    "bbr": BbrRateControl,
    "constant": ConstantRateControl,
}


def make_window_cc(name: str, **kwargs) -> WindowCongestionControl:
    """Construct an endhost (window-based) congestion controller by name."""
    try:
        cls = WINDOW_CC_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown window congestion controller {name!r}; available: {sorted(WINDOW_CC_REGISTRY)}"
        ) from None
    return cls(**kwargs)


def make_rate_cc(name: str, **kwargs) -> RateCongestionControl:
    """Construct a sendbox (rate-based) congestion controller by name."""
    try:
        cls = RATE_CC_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown rate congestion controller {name!r}; available: {sorted(RATE_CC_REGISTRY)}"
        ) from None
    return cls(**kwargs)


__all__ = [
    "BundleMeasurement",
    "RateCongestionControl",
    "WindowCongestionControl",
    "RenoCC",
    "CubicCC",
    "BbrRateControl",
    "BbrWindowCC",
    "CopaRateControl",
    "BasicDelayRateControl",
    "NimbusDetector",
    "NimbusPulser",
    "ConstantWindowCC",
    "ConstantRateControl",
    "make_window_cc",
    "make_rate_cc",
    "WINDOW_CC_REGISTRY",
    "RATE_CC_REGISTRY",
]
