"""The paper's claims, judged over seeds 1..N, against the committed page.

One sweep over every figure's cells; each claim's rendered row must be
byte-equal to its row in ``docs/fidelity.md``.  The page is the pin: a
*contradicts* row fails nothing, a row that moves fails until the page is
regenerated (``python -m repro.runner fidelity --format md > docs/fidelity.md``).
"""

from pathlib import Path

import pytest

from repro.api import run_sweep
from repro.experiments import claims

PAGE = Path(__file__).resolve().parent.parent / "docs" / "fidelity.md"


@pytest.fixture(scope="session")
def measured_rows(runner_cache):
    outcome = run_sweep(claims.sweep_specs(), workers=2, cache=runner_cache)
    return {row.claim.id: claims.render_row(row) for row in claims.evaluate(outcome.results)}


@pytest.fixture(scope="session")
def committed_rows():
    lines = PAGE.read_text(encoding="utf-8").splitlines()
    return {line.split("`")[1]: line for line in lines if line.startswith("| `")}


@pytest.mark.parametrize("claim_id", [claim.id for claim in claims.CLAIMS])
def test_claim(claim_id, measured_rows, committed_rows):
    assert measured_rows[claim_id] == committed_rows.get(claim_id), (
        f"docs/fidelity.md no longer says what seeds 1..{claims.N} measure for {claim_id}:\n"
        f"  measured : {measured_rows[claim_id]}\n"
        f"  committed: {committed_rows.get(claim_id)}\n"
        "If the change is meant, regenerate the page (see this module's docstring)."
    )
