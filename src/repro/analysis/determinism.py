"""Determinism rules (RPR001–RPR009).

The whole reproduction rests on bit-identical replay: the same scenario,
params and seed must produce the same packets, metrics, and cache key on
every machine, under every execution backend.  Anything that reads ambient
entropy — the global ``random`` module, wall clocks, ``os.urandom`` — or
that iterates an unordered ``set`` on a path that feeds hashes or event
ordering silently breaks that.  All randomness must flow from seeded
:class:`random.Random` instances derived via :func:`repro.util.rng.derive_seed`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.corpus import Corpus, ModuleInfo
from repro.analysis.rules import Finding, get_rule, rule

#: Packages whose code runs inside the simulation (or generates its inputs)
#: and therefore must be bit-deterministic.
SIM_PACKAGES = frozenset({"net", "core", "transport", "qdisc", "traffic", "workload"})

#: Dotted call names that read ambient entropy or wall clocks.  Resolved
#: through each module's import aliases, so ``from time import time`` and
#: ``import datetime as dt`` are caught too.
BANNED_CALLS = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "time.monotonic": "host clock",
    "time.monotonic_ns": "host clock",
    "time.perf_counter": "host clock",
    "time.perf_counter_ns": "host clock",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "datetime.datetime.today": "wall clock",
    "datetime.date.today": "wall clock",
    "os.urandom": "OS entropy",
    "uuid.uuid1": "host identity + clock",
    "uuid.uuid4": "OS entropy",
    "secrets.token_bytes": "OS entropy",
    "secrets.token_hex": "OS entropy",
    "secrets.randbelow": "OS entropy",
}

#: ``random.<fn>`` module-level functions draw from the process-global RNG,
#: whose state is shared across everything in the interpreter — the exact
#: bug class PR 1 burned a fix on.  ``random.Random`` itself is handled
#: separately (seeded construction is the sanctioned pattern).
_GLOBAL_RANDOM_OK = frozenset({"random.Random", "random.SystemRandom"})


def _call_name(module: ModuleInfo, node: ast.Call):
    return module.dotted_name(node.func)


@rule(
    "RPR001",
    name="ambient-entropy-in-sim",
    rationale=(
        "Simulation packages (net/, core/, transport/, qdisc/, traffic/) "
        "must be bit-deterministic; wall clocks, OS entropy and the global "
        "random module break serial==process==distributed parity."
    ),
    fix_hint=(
        "thread a seeded random.Random down from the scenario "
        "(util/rng.derive_seed) or use sim.now instead of a host clock"
    ),
)
def check_ambient_entropy(
    module: ModuleInfo, corpus: Corpus, options
) -> Iterator[Finding]:
    if module.package not in SIM_PACKAGES:
        return
    this = get_rule("RPR001")
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(module, node)
        if name is None:
            continue
        if name in BANNED_CALLS:
            yield this.finding(
                f"call to {name}() ({BANNED_CALLS[name]}) in simulation "
                f"package {module.package}/",
                module.path,
                node.lineno,
                node.col_offset,
            )
        elif (
            name.startswith("random.")
            and name.count(".") == 1
            and name not in _GLOBAL_RANDOM_OK
        ):
            yield this.finding(
                f"call to {name}() draws from the process-global RNG in "
                f"simulation package {module.package}/",
                module.path,
                node.lineno,
                node.col_offset,
            )


@rule(
    "RPR002",
    name="unseeded-random",
    rationale=(
        "random.Random() with no seed initializes from OS entropy, so two "
        "runs of the same (scenario, params, seed) cell diverge and the "
        "result cache serves stale-keyed garbage."
    ),
    fix_hint="pass an explicit seed: random.Random(derive_seed(seed, 'label'))",
)
def check_unseeded_random(
    module: ModuleInfo, corpus: Corpus, options
) -> Iterator[Finding]:
    this = get_rule("RPR002")
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(module, node)
        if name in ("random.Random", "random.SystemRandom") and not (
            node.args or node.keywords
        ):
            yield this.finding(
                f"{name}() constructed without a seed",
                module.path,
                node.lineno,
                node.col_offset,
            )


@rule(
    "RPR003",
    name="bare-set-iteration-in-sim",
    rationale=(
        "Iteration order of a set depends on insertion history and hash "
        "randomization of its elements; in simulation packages that order "
        "can leak into event ordering or digests."
    ),
    fix_hint="iterate sorted(the_set) or keep an ordered dict/list instead",
)
def check_bare_set_iteration(
    module: ModuleInfo, corpus: Corpus, options
) -> Iterator[Finding]:
    if module.package not in SIM_PACKAGES:
        return
    this = get_rule("RPR003")

    def is_bare_set(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            name = module.dotted_name(expr.func)
            return name in ("set", "frozenset")
        return False

    for node in ast.walk(module.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)) and is_bare_set(node.iter):
            yield this.finding(
                "iteration over an unordered set",
                module.path,
                node.iter.lineno,
                node.iter.col_offset,
            )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                if is_bare_set(gen.iter):
                    yield this.finding(
                        "comprehension over an unordered set",
                        module.path,
                        gen.iter.lineno,
                        gen.iter.col_offset,
                    )
