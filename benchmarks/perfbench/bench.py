#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end + per-layer metrics.

One run of one workload (the form the benchmark driver uses; the last
stdout line is the result object)::

    python3 benchmarks/perfbench/bench.py --workload request_sfq --seed 1 --seconds 20 --trace 0

Every workload, tracing off then the traced attribution run, printed as
one report (``--out`` keeps it as JSON; ``--repeat 2`` runs two sets and
compares them — the self-agreement check; ``--quick`` shrinks every size
to a smoke test)::

    python3 benchmarks/perfbench/bench.py [--seed 1] [--out report.json] [--repeat 2] [--quick]
    python3 benchmarks/perfbench/bench.py compare A.json B.json

Method: closed loop, one client.  This process only orchestrates — it
never imports the program.  Each workload runs in its own fresh
subprocess with a pinned environment, one after another; set-up time is
measured from outside as the wall time of further fresh interpreters that
import the program and build the workload's inputs.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import reference  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Scratch space: inside the checkout (the benchmark writes nowhere else),
#: never the repo's own ``.repro-cache/``.
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")

PINNED_ENV = {"REPRO_OBS": "1", "REPRO_PROBES": "0", "PYTHONHASHSEED": "0"}
_FALSY = ("", "0", "false", "no", "off")

#: Fresh worker processes an untraced run pools its repetitions from.
PROCESSES = 3
REPORT_FORMAT = 1


class Refused(RuntimeError):
    """The environment would poison the numbers; nothing was measured."""


def check_environment(environ: Dict[str, str]) -> None:
    """Same refusals as ``repro.obs.perf.run_bench``, made before any spawn."""
    if environ.get("REPRO_SANITIZE", "").strip().lower() not in _FALSY:
        raise Refused("refusing to benchmark with REPRO_SANITIZE set: sanitizer wrappers "
                      "slow the hot path (unset it and re-run)")
    if "REPRO_PROBES" in environ and environ["REPRO_PROBES"].strip().lower() not in _FALSY[1:]:
        raise Refused("refusing to benchmark with REPRO_PROBES explicitly enabled: probe "
                      "sampling must never reach a recorded number (unset it and re-run)")
    if not os.path.isfile(os.path.join(SRC, "repro", "api.py")):
        raise Refused(f"program under test not found: {os.path.join(SRC, 'repro', 'api.py')}")


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("REPRO_SANITIZE", "REPRO_BENCH_FRESH")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE] + (
        [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    return env


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment_record() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
        "pinned_env": {**PINNED_ENV, "REPRO_SANITIZE": None},
        "git_commit": _git_commit(),
    }


def warn_if_loaded(env: Dict[str, Any]) -> None:
    if env["loadavg_1m_start"] > 0.5 * (env["nproc"] or 1):
        print(f"WARNING: 1-min load average {env['loadavg_1m_start']:.2f} exceeds 0.5 per core "
              f"on {env['nproc']} cores; timings from this run are suspect", file=sys.stderr)


# -- one run of one workload -------------------------------------------------


def _spawn(args: Sequence[str], *, cwd: str) -> str:
    """Run ``bench.py <args>`` in a fresh interpreter; returns its stdout."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                          cwd=cwd, env=child_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _work(workload: str, args: Sequence[str]) -> Dict[str, Any]:
    """One fresh worker subprocess in its own scratch directory; its result."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT)
    try:
        stdout = _spawn(["_worker", "--workload", workload, *args], cwd=tmp)
        return json.loads(stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if os.path.isdir(TMP_ROOT) and not os.listdir(TMP_ROOT):
            os.rmdir(TMP_ROOT)


def _sample(values: Sequence[float], unit: str) -> Dict[str, Any]:
    """A timing as the lower quartile of its samples (see reference.py),
    with median, min, max and n kept beside it."""
    return {"value": reference.lower_quartile(values), "unit": unit, "n": len(values),
            "median": statistics.median(values), "min": min(values), "max": max(values),
            "samples": list(values)}


def run_one(workload: str, *, seed: int, seconds: float, trace: bool, quick: bool,
            with_drives: bool = True) -> Dict[str, Any]:
    """One run of ``workload``: the unit every mode is built on.

    An untraced run splits its ``seconds`` over PROCESSES fresh worker
    processes, one after another, and pools their repetitions: a Python
    process keeps a speed of its own (memory layout, the core it landed on)
    that differs by several percent from the next one's, so repetitions from
    a single process agree with each other far better than with the truth.
    The pooled timings are brought to reference speed with the pooled
    reference samples of the same run.
    """
    common = ["--seed", str(seed)] + (["--quick"] if quick else [])
    if trace:
        raws = [_work(workload, [*common, "--trace", "1",
                                 "--drives", "1" if with_drives else "0"])]
    else:
        processes = 1 if quick else PROCESSES
        raws = [_work(workload, [*common, "--trace", "0", "--seconds", str(seconds / processes)])
                for _ in range(processes)]
    first = raws[0]
    run: Dict[str, Any] = {
        "workload": workload, "seed": seed, "trace": trace,
        "attempted": sum(r["attempted"] for r in raws) + 1,
        "failed": sum(r["failed"] for r in raws),
        "failures": [f for r in raws for f in r["failures"]],
        "counters": first["counters"], "digests": first["digests"],
    }
    if any(r["digests"] != first["digests"] for r in raws):
        run["failed"] += 1
        run["failures"].append("result digests differ between worker processes")
    if trace:
        units = {m.name: m.unit for m in catalog.PER_LAYER}
        run["metrics"] = {name: {"value": value, "unit": units[name]}
                          for name, value in first["per_layer"].items()}
        run["top_functions"] = first["top_functions"]
        run["detail"] = {"untraced_wall_s": first["untraced_wall_s"],
                         "traced_wall_s": first["traced_wall_s"]}
        return run
    factors = reference.speed_factors(
        {kind: [v for r in raws for v in r["reference_s"][kind]] for kind in reference.OPERATIONS})

    def pooled(name: str, unit: str, kind: str) -> Dict[str, Any]:
        return _sample([v * factors[kind] for r in raws for v in r[name]], unit)

    run["metrics"] = {
        "wall_us_per_op": pooled("wall_us_per_op", "us", first["reference"]),
        "cpu_us_per_op": pooled("cpu_us_per_op", "us", first["reference"]),
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in raws), "unit": "MB", "n": len(raws)},
        "setup_s": pooled("setup_s", "s", "spawn"),
    }
    # Raw (not brought to reference speed) numbers of the run, for the record.
    run["detail"] = {
        **first["detail"], "ops": first["ops"], "processes": len(raws),
        "repetitions": sum(len(r["wall_s"]) for r in raws),
        "raw_wall_s": statistics.median(w for r in raws for w in r["wall_s"]),
        "raw_cpu_s": statistics.median(c for r in raws for c in r["cpu_s"]),
        **{f"speed_factor_{kind}": factor for kind, factor in factors.items()},
    }
    return run


def driver_line(run: Dict[str, Any]) -> str:
    """The result object the benchmark driver reads from the last stdout line."""
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in run["metrics"].items()},
    })


def print_run(run: Dict[str, Any]) -> None:
    kind = "per-layer (traced run + drives)" if run["trace"] else "end-to-end (tracing off)"
    print(f"== {run['workload']} seed={run['seed']} {kind}: "
          f"{run['failed']}/{run['attempted']} operations failed")
    for failure in run["failures"]:
        print(f"   FAILED {failure}")
    for name, m in run["metrics"].items():
        spread = (f"  [lower quartile of n={m['n']}: min {m['min']:.6g} median {m['median']:.6g} "
                  f"max {m['max']:.6g}]") if "min" in m else ""
        print(f"   {name:36s} {m['value']:>14.6g} {m['unit']}{spread}")
    for name, value in sorted(run.get("detail", {}).items()):
        print(f"   ({name} = {value:.6g})")


# -- all workloads -> one report ---------------------------------------------


def run_all(*, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    env = environment_record()
    warn_if_loaded(env)
    report: Dict[str, Any] = {"format": REPORT_FORMAT, "seed": seed, "quick": quick,
                              "seconds": seconds, "env": env, "workloads": {}}
    for index, workload in enumerate(catalog.WORKLOADS):
        untraced = run_one(workload, seed=seed, seconds=seconds, trace=False, quick=quick)
        print_run(untraced)
        # The drives do not depend on the workload: run them once per report.
        traced = run_one(workload, seed=seed, seconds=seconds, trace=True, quick=quick,
                         with_drives=index == 0)
        print_run(traced)
        attempted = untraced["attempted"] + traced["attempted"] + 1
        failed = untraced["failed"] + traced["failed"]
        failures = untraced["failures"] + traced["failures"]
        if traced["digests"] != untraced["digests"]:
            failed += 1
            failures.append("traced run's result digests differ from the untraced run's")
        report["workloads"][workload] = {
            "why": catalog.WORKLOADS[workload],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "attempted": attempted,
            "failed": failed,
            "failed_fraction": failed / attempted,
            "failures": failures,
            # Deterministic: must repeat exactly between runs of one commit.
            "deterministic": {
                "digests": untraced["digests"],
                "counters": traced["counters"],
                "simulated_gain": untraced["detail"].get("simulated_gain"),
            },
            "detail": {**untraced["detail"], **traced["detail"]},
            "top_functions": traced["top_functions"],
        }
    env["loadavg_1m_end"] = os.getloadavg()[0]
    return report


# -- compare -----------------------------------------------------------------

SHARE_TOLERANCE = 0.02
#: Drive metrics that are simulated outputs, not host time: exactly repeatable.
SIMULATED = ("experiments.sfq_median_gain", "experiments.sfq_p99_gain",
             "experiments.queue_shift_gain")


def compare(a: Dict[str, Any], b: Dict[str, Any], *, strict: bool) -> int:
    """Apply the bounds per (metric, workload); returns the exit code.

    ``regressed``: B's value is worse than A's by more than the bound.
    ``unresolved``: the run-to-run spread of either side exceeds the bound,
    so neither "same" nor "worse" can be claimed — unless every run of one
    side beats every run of the other.  A regression or a higher
    ``failed_fraction`` exits 1; ``strict`` (two sets of one commit, which
    must agree) also fails on unresolved pairs, drift in a deterministic
    count or simulated metric, and a ``self_share`` that moved > 0.02.
    """
    bad = soft = 0
    print(f"{'workload':16s} {'metric':18s} {'A':>12s} {'B':>12s} {'B/A-1':>8s} "
          f"{'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for workload in catalog.WORKLOADS:
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            print(f"{workload:16s} missing from one report")
            bad += 1
            continue
        for metric in catalog.END_TO_END:
            ma, mb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            worse = (mb["value"] - ma["value"]) / ma["value"]
            if metric.better == "higher":
                worse = -worse
            # How tightly the undisturbed repetitions cluster under the
            # reported lower quartile.
            spreads = [(m["value"] - m.get("min", m["value"])) / m["value"] for m in (ma, mb)]
            disjoint = (mb.get("min", mb["value"]) > ma.get("max", ma["value"])
                        or mb.get("max", mb["value"]) < ma.get("min", ma["value"]))
            if worse > metric.bound and (max(spreads) <= metric.bound or disjoint):
                verdict = "REGRESSED"
                bad += 1
            elif max(spreads) > metric.bound and not disjoint:
                verdict = "unresolved"
                soft += 1
            else:
                verdict = "improved" if worse < -metric.bound else "ok"
            print(f"{workload:16s} {metric.name:18s} {ma['value']:12.5g} {mb['value']:12.5g} "
                  f"{worse:+8.1%} {spreads[0]:9.1%} {spreads[1]:9.1%} {metric.bound:6.0%}  "
                  f"{verdict}")
        if wb["failed_fraction"] > wa["failed_fraction"]:
            print(f"{workload:16s} failed_fraction rose "
                  f"{wa['failed_fraction']:.4f} -> {wb['failed_fraction']:.4f}  REGRESSED")
            bad += 1
        da, db = wa["deterministic"], wb["deterministic"]
        if a.get("seed") == b.get("seed"):
            for key in sorted(set(da["counters"]) | set(db["counters"])):
                if key != "sim_time_s" and da["counters"].get(key) != db["counters"].get(key):
                    print(f"{workload:16s} count {key} drifted "
                          f"{da['counters'].get(key)} -> {db['counters'].get(key)}  DRIFT")
                    soft += 1
            if da["digests"] != db["digests"] or da["simulated_gain"] != db["simulated_gain"]:
                print(f"{workload:16s} result digests / simulated gain drifted "
                      f"({da['simulated_gain']} -> {db['simulated_gain']})  DRIFT")
                soft += 1
        for name, ma in wa["per_layer"].items():
            mb = wb["per_layer"].get(name)
            if mb is None:
                continue
            if name.endswith(".self_share") and abs(mb["value"] - ma["value"]) > SHARE_TOLERANCE:
                print(f"{workload:16s} {name} moved {ma['value']:.3f} -> {mb['value']:.3f}  MOVED")
                soft += 1
            if name in SIMULATED and mb["value"] != ma["value"]:
                print(f"{workload:16s} {name} drifted {ma['value']!r} -> {mb['value']!r}  DRIFT")
                soft += 1
    print(f"{bad} regression(s), {soft} unresolved/drifted/moved")
    return 1 if bad or (strict and soft) else 0


# -- CLI ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", default="run",
                        choices=("run", "compare", "manifest", "_worker", "_setup"))
    parser.add_argument("files", nargs="*", help="compare: two report files")
    parser.add_argument("--workload", choices=tuple(catalog.WORKLOADS),
                        help="run one workload and end with the driver's result line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(catalog.RUN_SECONDS),
                        help="how long one run measures repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="smoke-test sizes, 1 repetition")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run this many full sets and compare the first two")
    parser.add_argument("--out", help="write the (last) report as JSON")
    parser.add_argument("--drives", type=int, choices=(0, 1), default=1, help=argparse.SUPPRESS)
    return parser


def _worker(args: argparse.Namespace) -> int:
    import workloads  # imports the program under test

    tmp = os.getcwd()
    if args.command == "_setup":
        workloads.setup_only(args.workload, args.seed, args.quick)
        return 0
    workload = workloads.WORKLOADS[args.workload](args.seed, args.quick, tmp)
    if args.trace:
        raw = workloads.run_traced(workload, with_drives=bool(args.drives))
    else:
        raw = workloads.run_untraced(workload, seconds=args.seconds)
    print(json.dumps(raw))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("_worker", "_setup"):
        return _worker(args)
    if args.command == "manifest":
        print(json.dumps(catalog.manifest(), indent=2))
        return 0
    if args.command == "compare":
        if len(args.files) != 2:
            print("usage: bench.py compare A.json B.json", file=sys.stderr)
            return 2
        reports = []
        for path in args.files:
            with open(path, encoding="utf-8") as fh:
                reports.append(json.load(fh))
        return compare(reports[0], reports[1], strict=False)
    try:
        check_environment(dict(os.environ))
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.workload:
        warn_if_loaded(environment_record())
        run = run_one(args.workload, seed=args.seed, seconds=args.seconds,
                      trace=bool(args.trace), quick=args.quick)
        print_run(run)
        print(driver_line(run))
        return 0
    reports = [run_all(seed=args.seed, seconds=args.seconds, quick=args.quick)
               for _ in range(max(args.repeat, 1))]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(reports[-1], fh, indent=1, sort_keys=True)
            fh.write("\n")
    code = 0 if all(w["failed"] == 0 for r in reports for w in r["workloads"].values()) else 1
    if len(reports) > 1:
        code = max(code, compare(reports[0], reports[1], strict=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
