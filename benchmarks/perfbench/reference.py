"""Reference operations: how fast is the machine *right now*?

The sandbox this benchmark runs on shares its cores.  Measured while the
benchmark was being defined: for seconds to minutes at a time everything —
simulation cells, cold sweeps, this kernel — runs 1.4-1.7x slower (a busy
sibling hyperthread, by the look of it; no steal time is reported), about a
third of the time.  Raw timings then differ by 25% between two runs of one
commit, which no 10% regression bound survives.

So every run interleaves its repetitions with two tiny fixed operations that
live here, use nothing from ``src/``, and therefore cannot be changed by any
change to the program:

* ``compute`` — an event-loop-shaped pure-Python kernel (heap push/pop,
  small slotted objects, method calls, dict stores), for CPU-bound work;
* ``spawn`` — a fresh interpreter importing a handful of stdlib modules,
  for work dominated by process start-up and import (``setup_s``, the
  fresh-process CLI calls of ``sweep_warm``), which the slow mode hits less
  (1.4x against 1.6-1.7x).

A run's timings are scaled by ``REFERENCE_S[kind] / lower_quartile(samples
of that kind in this run)``: they are reported *at reference speed*, the
speed of the undisturbed reference sandbox.  A run that sat entirely inside
a slow period reads within ~8% of a quiet one instead of 60% above it, and
on a quiet run the factor is 1.
"""

from __future__ import annotations

import heapq
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

#: Undisturbed time of each reference operation on the reference sandbox
#: (2 vCPU, Python 3.11).  Constants, not measurements: they only fix the
#: unit, so that normalised values read as microseconds/seconds there.
REFERENCE_S: Dict[str, float] = {"compute": 0.0510, "spawn": 0.0490}


class _Event:
    __slots__ = ("a", "b")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = a * 2.0

    def step(self, now: float) -> float:
        self.b += now * 1e-9
        return self.b


def compute(n: int = 60_000) -> float:
    """Seconds for ``n`` pop/step/push rounds over a 2000-entry heap."""
    t0 = time.perf_counter()
    queue: list = []
    seen: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(2000):
        push(queue, (i * 1e-3, i, _Event(i)))
    for i in range(n):
        when, seq, event = pop(queue)
        event.step(when)
        seen[seq & 1023] = event
        push(queue, (when + 1.0 + (seq % 7) * 1e-3, i + 2000,
                     _Event(seq) if i & 3 == 0 else event))
    return time.perf_counter() - t0


def spawn() -> float:
    """Seconds for a fresh interpreter to import some of the stdlib."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-S", "-c",
         "import json, argparse, subprocess, hashlib, tempfile, dataclasses, typing, random"],
        check=True,
    )
    return time.perf_counter() - t0


OPERATIONS = {"compute": compute, "spawn": spawn}


def lower_quartile(values: Sequence[float]) -> float:
    """The statistic every timing here is reported as.

    Interference only ever slows a sample down and comes in bursts that can
    cover half a run, so the median sits in whichever mode the bursts picked;
    the lower quartile stays in the undisturbed mode without leaning on one
    lucky sample the way the minimum does.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def speed_factors(samples: Dict[str, List[float]]) -> Dict[str, float]:
    """Multiply a timing by this to express it at reference speed."""
    return {kind: REFERENCE_S[kind] / lower_quartile(values) for kind, values in samples.items()}
