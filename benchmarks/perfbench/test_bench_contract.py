"""The benchmark keeps its own contract.

Runs ``bench.py --quick`` once (smoke sizes, one repetition, about 13 s)
and checks what every later performance claim relies on: the manifest at
the repo root is the one this harness generates, every name in it is
emitted with its unit, every per-layer metric says in advance what it
should move, shares sum to one, and a poisoned environment is refused.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCH = os.path.join(HERE, "bench.py")
sys.path.insert(0, HERE)

import catalog  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _bench(*args, **env_overrides):
    env = {k: v for k, v in os.environ.items() if k not in ("REPRO_SANITIZE", "REPRO_PROBES")}
    env.update(env_overrides)
    return subprocess.run([sys.executable, BENCH, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "quick.json"
    proc = _bench("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), str(out)


def test_manifest_is_generated_from_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest == catalog.manifest(), "regenerate with: bench.py manifest > BENCHMARK.json"
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
               for key in ("end_to_end", "per_layer") for m in manifest[key])
    assert 2 <= len(manifest["workloads"]) <= 8 and len(manifest["per_layer"]) <= 128
    for workload in manifest["workloads"]:
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_every_per_layer_metric_declares_what_it_should_move():
    end_to_end = {m.name for m in catalog.END_TO_END}
    for metric in catalog.PER_LAYER:
        assert metric.moves or metric.flat, f"{metric.name} predicts nothing"
        for pair in metric.moves:
            moved, _, workload = pair.partition("@")
            assert moved in end_to_end and workload in catalog.WORKLOADS, (metric.name, pair)
        assert set(metric.flat) <= set(catalog.WORKLOADS), metric.name
        assert not {p.partition("@")[2] for p in metric.moves} & set(metric.flat), metric.name


def test_every_metric_is_emitted_with_its_unit(report):
    data, _ = report
    assert set(data["workloads"]) == set(catalog.WORKLOADS)
    first = next(iter(catalog.WORKLOADS))
    for name, workload in data["workloads"].items():
        assert workload["why"] == catalog.WORKLOADS[name]
        assert workload["failed"] == 0 and workload["attempted"] >= 1, workload["failures"]
        for metric in catalog.END_TO_END:
            emitted = workload["end_to_end"][metric.name]
            assert emitted["unit"] == metric.unit and emitted["value"] > 0, (name, metric.name)
        for metric in catalog.PER_LAYER:
            # The drives ride along with the first workload's traced run only.
            if metric.source == "trace" or name == first:
                emitted = workload["per_layer"][metric.name]
                assert emitted["unit"] == metric.unit, (name, metric.name)
    env = data["env"]
    assert {"python", "platform", "nproc", "loadavg_1m_start", "loadavg_1m_end",
            "pinned_env", "git_commit"} <= set(env)


def test_shares_sum_to_one(report):
    data, _ = report
    for name, workload in data["workloads"].items():
        total = sum(workload["per_layer"][f"{p}.self_share"]["value"]
                    for p in (*catalog.SHARE_PACKAGES, "other"))
        assert total == pytest.approx(1.0, abs=0.01), name


def test_a_report_agrees_with_itself(report):
    _, path = report
    proc = _bench("compare", path, path)
    assert proc.returncode == 0, proc.stdout
    assert "REGRESSED" not in proc.stdout and "DRIFT" not in proc.stdout


@pytest.mark.parametrize("variable", ["REPRO_SANITIZE", "REPRO_PROBES"])
def test_poisoned_environment_is_refused(variable):
    proc = _bench("--quick", **{variable: "1"})
    assert proc.returncode == 3
    assert variable in proc.stderr and "refusing" in proc.stderr
    assert not proc.stdout.strip()
