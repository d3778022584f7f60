"""RPR050 fixtures: simulator imports that run when a runner module loads."""

import json
import repro.net.simulator  # expect[RPR050]
from repro.core import BundlerConfig  # expect[RPR050]
from repro import traffic  # expect[RPR050]

try:
    from repro.qdisc.sfq import SfqQdisc  # expect[RPR050]
except ImportError:
    SfqQdisc = None


class Holder:
    import repro.workload.flowsize  # expect[RPR050]


def describe():
    return json.dumps([BundlerConfig, traffic, SfqQdisc, repro.net.simulator])
