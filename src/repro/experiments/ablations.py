"""Ablations of Bundler's design choices (no numbered paper figure).

The paper argues for these choices qualitatively; these scenarios quantify
them so the claims are regression-checked like any figure:

* :data:`ablation_epoch_sampling` — epoch sampling period: quarter-RTT
  spacing (the paper's choice, §4.5) versus sparser sampling, measured on
  the standard §7.1 workload.
* :data:`ablation_pi_gains` — the pass-through PI queue controller's gains
  (§5): settle time to the target standing queue in a closed-loop fluid
  model.  Fully deterministic, so it is registered ``seed_sensitive=False``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.passthrough import PiQueueController
from repro.net.simulator import Simulator
from repro.experiments.scenarios import ScenarioConfig, run_scenario, scenario_metrics


def _epoch_sampling_scenario(*, seed: int, epoch_rtt_fraction: float, **params):
    config = ScenarioConfig(
        mode="bundler_sfq",
        seed=seed,
        bundler_overrides={"epoch_rtt_fraction": epoch_rtt_fraction},
        **params,
    )
    return scenario_metrics(run_scenario(config))


def pi_settle_time(
    alpha: float,
    beta: float,
    *,
    target_queue_s: float = 0.010,
    tolerance_s: float = 0.002,
    arrival_bps: float = 24e6,
    initial_rate_bps: float = 20e6,
    dt_s: float = 0.01,
    steps: int = 4000,
) -> Optional[float]:
    """Closed-loop fluid-model settle time of the standing-queue controller.

    A constant arrival rate feeds a queue drained at the controller's rate;
    returns the first time the queueing delay stays within ``tolerance_s``
    of the target, or ``None`` if it never settles within the horizon.

    The difference equation is stepped by a :class:`Simulator` timer (one
    event per ``dt_s``) rather than a bare ``for`` loop.  The timer fires at
    drift-free multiples of ``dt_s``, so each step sees exactly the
    ``step * dt_s`` timestamps the plain loop used — metrics are
    byte-identical — while the scenario now exercises (and is benchmarked
    against) the real event loop instead of recording 0 events.
    """
    pi = PiQueueController(
        alpha=alpha, beta=beta, target_queue_s=target_queue_s, min_rate_bps=1e6
    )
    pi.reset(initial_rate_bps)
    sim = Simulator()
    queue_bytes, rate = 0.0, initial_rate_bps
    settle: Optional[float] = None
    step = 0

    def tick() -> None:
        nonlocal queue_bytes, rate, settle, step
        queue_bytes = max(0.0, queue_bytes + (arrival_bps - rate) * dt_s / 8.0)
        queue_delay = queue_bytes * 8.0 / max(rate, 1e6)
        rate = pi.update(step * dt_s, queue_delay, arrival_bps)
        if step > 10 and abs(queue_delay - target_queue_s) < tolerance_s:
            settle = step * dt_s
            timer.cancel()
            return
        step += 1
        if step >= steps:
            timer.cancel()

    timer = sim.every(dt_s, tick, start=0.0)
    sim.run()
    return settle


def _pi_gains_scenario(
    *,
    seed: int,
    alpha: float,
    beta: float,
    target_queue_s: float,
    tolerance_s: float,
    arrival_mbps: float,
    horizon_s: float,
) -> Dict[str, object]:
    # Pure difference equation — deterministic, the seed is unused.
    dt_s = 0.01
    settle = pi_settle_time(
        alpha,
        beta,
        target_queue_s=target_queue_s,
        tolerance_s=tolerance_s,
        arrival_bps=arrival_mbps * 1e6,
        dt_s=dt_s,
        steps=int(horizon_s / dt_s),
    )
    return {"settle_time_s": settle, "settled": settle is not None}
