"""Determinism regressions for the workload primitives.

The runner's whole caching story assumes that ``(seed, label)`` →
``derive_seed`` → an RNG stream is identical across processes and hosts.
These tests pin that down for the two primitives every workload is built
from — ``rng.expovariate`` inter-arrivals and :class:`EmpiricalSizeDistribution` —
with in-process golden values *and* a subprocess cross-check (a process
boundary is exactly where ``hash()``-based seeding betrayed projects
before ``PYTHONHASHSEED`` discipline).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.util.rng import derive_seed, make_rng
from repro.workload.flowsize import internet_core_cdf

#: One shared recipe so the in-process and subprocess sides compute the
#: same thing from only (seed, label) — never from shared state.
_SNIPPET = """
import json, sys
from repro.util.rng import derive_seed, make_rng
from repro.workload.flowsize import internet_core_cdf

seed = int(sys.argv[1])
rng = make_rng(derive_seed(seed, "workload"))
interarrivals = [rng.expovariate(120.0) for _ in range(50)]
sizes = internet_core_cdf()
samples = [sizes.sample(rng) for _ in range(50)]
print(json.dumps({"interarrivals": interarrivals, "sizes": samples}))
"""


def _sequences(seed: int):
    rng = make_rng(derive_seed(seed, "workload"))
    interarrivals = [rng.expovariate(120.0) for _ in range(50)]
    sizes = internet_core_cdf()
    samples = [sizes.sample(rng) for _ in range(50)]
    return {"interarrivals": interarrivals, "sizes": samples}


class TestInProcessDeterminism:
    def test_same_seed_identical_sequences(self):
        assert _sequences(7) == _sequences(7)

    def test_different_seeds_differ(self):
        assert _sequences(7) != _sequences(8)

    def test_derive_seed_scopes_streams(self):
        # Different labels over one root seed must give unrelated streams.
        a = make_rng(derive_seed(1, "workload")).random()
        b = make_rng(derive_seed(1, "workload-cross")).random()
        assert a != b

    def test_golden_values(self):
        # Pinned draws: a change here means every cached cell is stale.
        sequences = _sequences(3)
        assert sequences["interarrivals"][0] == pytest.approx(0.00349883461, abs=1e-9)
        assert sequences["interarrivals"][9] == pytest.approx(0.01718448750, abs=1e-9)
        assert sequences["sizes"][:5] == [154, 308, 558, 239, 4137]


class TestCrossProcessDeterminism:
    @pytest.mark.parametrize("seed", [1, 1234])
    def test_subprocess_reproduces_sequences(self, seed):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = os.environ.copy()
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [sys.executable, "-c", _SNIPPET, str(seed)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        remote = json.loads(result.stdout)
        local = _sequences(seed)
        assert remote["sizes"] == local["sizes"]
        assert remote["interarrivals"] == pytest.approx(local["interarrivals"])
