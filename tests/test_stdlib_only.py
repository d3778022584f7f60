"""The dependency line: ``src/repro`` runs on the standard library alone.

``setup.py`` declares no ``install_requires`` and CI's ``bare-install`` job
installs nothing but the package, so a third-party import anywhere under
``src/`` is a ``ModuleNotFoundError`` on a clean machine.  pytest and
hypothesis are test-only and never imported from ``src/``.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_src_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    foreign = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.relative_to(SRC)}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert not foreign, "third-party imports under src/:\n" + "\n".join(foreign)


_NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
import repro.api, repro.runner.cli, repro.runner.worker
from repro.runner.engine import execute_run
from repro.runner.spec import RunSpec
result = execute_run(RunSpec("fig13_competing_bundles", params={"duration_s": 2}, seed=1))
assert result.metrics["bundle0_completed"] > 0, result.metrics
"""


def test_a_nimbus_cell_runs_with_numpy_unimportable():
    # fig13 runs every bundle with enable_nimbus=True, so the detector's
    # spectral test executes (two detections per simulated second).
    subprocess.run(
        [sys.executable, "-c", _NO_NUMPY], check=True, timeout=120,
        env={"PYTHONPATH": str(SRC)},
    )
