"""Import-layering rules (RPR050–RPR059).

Naming a scenario must not import the simulator: ``list``, ``report``,
``gc``, ``fidelity``'s validation and a fully cached ``sweep`` load the
runner, the catalogue of declarations and the table renderer, and nothing
of ``net``/``core``/``qdisc``/``transport``/``cc``/``traffic``/``workload``
(pinned dynamically by ``tests/test_import_layering.py``).  A module-level
import of one of those in a module every command loads drags the whole
model in at start-up; this rule names the line.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.corpus import Corpus, ModuleInfo
from repro.analysis.rules import Finding, get_rule, rule

#: Packages that make up the simulator and its inputs.
MODEL_PACKAGES = frozenset({"net", "core", "qdisc", "transport", "cc", "traffic", "workload"})

#: Modules loaded by commands that only name scenarios (beside ``runner/``).
LIGHT_MODULES = frozenset({"metrics/reporting.py", "experiments/catalog.py"})


def _model_package(dotted: str) -> str:
    """The model package ``dotted`` lies in (``""`` when it lies in none)."""
    parts = dotted.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in MODEL_PACKAGES:
        return parts[1]
    return ""


def _module_level_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Import statements that run when the module is imported.

    Descends into ``if``/``try``/``with``/class bodies (they execute at
    import) but not into functions.
    """
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


@rule(
    "RPR050",
    name="model-import-at-start-up",
    rationale=(
        "runner/, metrics/reporting.py and experiments/catalog.py are "
        "loaded by commands that never simulate; a module-level import of "
        "repro.{net,core,qdisc,transport,cc,traffic,workload} there makes "
        "every start-up compile the simulator."
    ),
    fix_hint="import it where it runs (inside the function that needs it)",
)
def check_model_import_at_start_up(
    module: ModuleInfo, corpus: Corpus, options
) -> Iterator[Finding]:
    if module.package != "runner" and module.rel not in LIGHT_MODULES:
        return
    this = get_rule("RPR050")
    for node in _module_level_imports(module.tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif node.level == 0 and node.module == "repro":
            names = [f"repro.{alias.name}" for alias in node.names]
        elif node.level == 0 and node.module:
            names = [node.module]
        else:
            continue  # relative imports are not used in this tree
        for name in names:
            package = _model_package(name)
            if package:
                yield this.finding(
                    f"module-level import of {name} in {module.rel}: "
                    f"{package}/ is simulator code",
                    module.path,
                    node.lineno,
                    node.col_offset,
                )
