"""Benchmark harness configuration.

Each benchmark module regenerates one table or figure from the paper's
evaluation, prints the paper-style rows (so the run can be compared with the
published numbers at a glance), and asserts the *qualitative* claims — who
wins and roughly by how much — rather than exact values, since the substrate
here is a scaled-down simulator rather than the authors' testbed.

All benchmarks are deliberately scaled down (lower bottleneck rates, shorter
durations, thousands rather than millions of requests) so the whole suite
runs in minutes.  The scale knobs live in :data:`repro.testing.BENCH_SCALE`
and can be raised for a closer-to-paper run.

Every figure benchmark but one routes through the :mod:`repro.api` engine
facade via the :func:`bench_sweep` fixture: cells are executed on a small
worker pool and cached under ``.repro-cache/``, so re-running a figure only
simulates what changed.  Assertions go through
:func:`repro.api.aggregate_outcome` — per-(scenario, params) cells with
mean/CI across seeds — so a benchmark that sweeps several seeds asserts on
the aggregate, not on one draw.  The exception is
``test_fig05_fig06_estimates.py``, which calls ``run_estimate_sweep``
directly: it pools the estimate errors of all four cells before taking the
80th percentile, which per-cell metrics cannot express.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.testing import RESULTS_FILE_ENV  # noqa: E402

_RESULTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results.txt")
os.environ.setdefault(RESULTS_FILE_ENV, _RESULTS_PATH)


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    path = os.environ.get(RESULTS_FILE_ENV, _RESULTS_PATH)
    if os.path.exists(path):
        os.remove(path)
    yield


@pytest.fixture(scope="session")
def runner_cache(tmp_path_factory):
    """The result cache used by runner-routed benchmarks.

    Defaults to the shared ``.repro-cache/`` so re-running a figure only
    simulates missing cells.  That also means cached cells do NOT re-exercise
    the simulator after a code change — set ``REPRO_BENCH_FRESH=1`` or delete
    ``.repro-cache/`` to force full re-simulation.  (CI restores its cache
    under a key that hashes the whole ``src/`` tree, so restored cells were
    produced by byte-identical code and never mask a regression.)
    """
    from repro.api import ResultCache

    if os.environ.get("REPRO_BENCH_FRESH"):
        return ResultCache(str(tmp_path_factory.mktemp("repro-cache")))
    return ResultCache()


@pytest.fixture
def bench_sweep(runner_cache):
    """Execute a list of :class:`repro.api.RunSpec` cells through the engine.

    Returns the :class:`repro.api.SweepOutcome`; repeat invocations are
    served from the content-addressed cache.
    """
    from repro.api import run_sweep

    def _sweep(specs, workers: int = 2):
        return run_sweep(specs, workers=workers, cache=runner_cache)

    return _sweep
