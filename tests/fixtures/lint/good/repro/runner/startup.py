"""RPR050 counterpart: the simulator is imported where it runs."""

import json

from repro.runner.spec import RunSpec
from repro.util.rng import derive_seed


def execute(spec: RunSpec):
    # Function-level: paid by the command that simulates, not by start-up.
    from repro.net.simulator import Simulator
    import repro.traffic.replay

    return json.dumps([derive_seed(1, "x"), Simulator, repro.traffic.replay])
