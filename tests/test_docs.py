"""Documentation checks: links resolve, the generated catalogue is fresh.

CI's docs job runs exactly this file.  Three invariants:

* every relative Markdown link (and anchor-less file reference) in
  ``README.md`` and ``docs/*.md`` points at a file that exists;
* ``docs/scenarios.md`` is byte-identical to what
  ``repro-runner list -v --format md`` renders from the live registry —
  adding or changing a scenario without regenerating the catalogue fails
  here, not three PRs later;
* ``docs/fidelity.md`` has one row per claim of
  ``repro.experiments.claims.CLAIMS``, in table order (what each row *says*
  is pinned, with simulation, by ``benchmarks/test_claims.py``).
"""

import argparse
import inspect
import re
from pathlib import Path

import pytest

from repro.experiments.claims import CLAIMS
from repro.runner.cli import build_parser, render_scenarios_markdown
from repro.runner.distributed import DistributedBackend
from repro.runner.registry import load_builtin_scenarios
from repro.traffic.generators import GENERATORS, SIZE_DISTRIBUTIONS

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _doc_files():
    return [REPO_ROOT / "README.md", *sorted(DOCS.glob("*.md"))]


def test_docs_tree_exists():
    expected = {
        "architecture.md", "runner.md", "api.md", "distributed.md", "scenarios.md", "fidelity.md",
    }
    assert expected <= {p.name for p in DOCS.glob("*.md")}


@pytest.mark.parametrize("doc", _doc_files(), ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    broken = []
    for target in _LINK.findall(doc.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path = target.split("#", 1)[0]
        if not path:  # pure in-page anchor
            continue
        resolved = (doc.parent / path).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{doc.relative_to(REPO_ROOT)} has broken links: {broken}"


def test_scenarios_md_matches_registry():
    generated = render_scenarios_markdown(load_builtin_scenarios(), verbose=True)
    committed = (DOCS / "scenarios.md").read_text(encoding="utf-8")
    assert committed == generated, (
        "docs/scenarios.md is stale versus the scenario registry; regenerate with:\n"
        "  PYTHONPATH=src python -m repro.runner list -v --format md > docs/scenarios.md"
    )


def test_scenarios_md_covers_every_scenario():
    registry = load_builtin_scenarios()
    text = (DOCS / "scenarios.md").read_text(encoding="utf-8")
    missing = [name for name in registry.names() if f"`{name}`" not in text]
    assert not missing


def test_fidelity_md_has_one_row_per_claim():
    # No simulation: a claim added, renamed or deleted without regenerating
    # the page fails here (and in the docs CI job) before any sweep runs.
    text = (DOCS / "fidelity.md").read_text(encoding="utf-8")
    documented = re.findall(r"^\| `([^`]+)` \|", text, flags=re.MULTILINE)
    assert documented == [claim.id for claim in CLAIMS], (
        "docs/fidelity.md is stale versus repro.experiments.claims.CLAIMS; regenerate with:\n"
        "  PYTHONPATH=src python -m repro.runner fidelity --format md > docs/fidelity.md"
    )


def test_readme_mentions_docs_tree():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for page in (
        "docs/architecture.md", "docs/runner.md", "docs/distributed.md", "docs/api.md",
        "docs/fidelity.md",
    ):
        assert page in readme, f"README no longer links {page}"


def test_distributed_md_knob_list_matches_the_constructor():
    # The "Tuning knobs" sentence must name exactly the keyword options
    # DistributedBackend takes, in order — a knob added, removed or
    # renamed without touching the page fails here.
    text = (DOCS / "distributed.md").read_text(encoding="utf-8")
    sentence = text.split("Tuning knobs on `DistributedBackend`:", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"`(\w+)` \(", sentence)
    options = [
        name
        for name, param in inspect.signature(DistributedBackend.__init__).parameters.items()
        if param.kind is inspect.Parameter.KEYWORD_ONLY
    ]
    assert documented == options


def test_workloads_md_knob_tables_match_the_declarations():
    # One row per declared generator / size-distribution knob, carrying the
    # type (kind, unit, choices, bounds), default and description that
    # ParamSpace.describe_rows() renders: a knob added, re-bounded or
    # re-defaulted without touching the page fails here.
    text = (DOCS / "workloads.md").read_text(encoding="utf-8")
    catalog = [(name, definition.params) for name, definition in GENERATORS.items()]
    catalog += [(name, space) for name, (space, _) in SIZE_DISTRIBUTIONS.items()]
    missing = [
        row
        for owner, space in catalog
        for row in (
            f"| `{owner}` | `{name}` | {kind} | {default} | {description} |"
            for name, kind, default, description in space.describe_rows()
        )
        if row not in text
    ]
    assert not missing, "docs/workloads.md lacks or misstates:\n" + "\n".join(missing)
    documented = re.findall(r"^\| `(\w+)` \| `(\w+)` \|", text, flags=re.MULTILINE)
    declared = [(owner, spec.name) for owner, space in catalog for spec in space]
    assert documented == declared, "a documented knob is no longer declared (or out of order)"


def test_runner_md_command_table_matches_the_parser():
    # One row per top-level subcommand, no more and no fewer: a command
    # added to or deleted from the CLI without touching the page fails here.
    text = (DOCS / "runner.md").read_text(encoding="utf-8")
    table = text.split("| Subcommand | Job |", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"^\| `([\w-]+)", table, flags=re.MULTILINE)
    [subcommands] = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert sorted(documented) == sorted(subcommands.choices)


def _option_strings(parser):
    """Every ``--flag`` of ``parser`` and, recursively, of its subcommands."""
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _option_strings(sub)
    return flags


@pytest.mark.parametrize("page", ["distributed.md", "runner.md"])
def test_every_documented_flag_exists(page, capsys):
    # A flag deleted from the CLI (or the worker entry point) while a page
    # still tells people to pass it fails here.
    from repro.runner import worker

    with pytest.raises(SystemExit):
        worker.main(["--help"])
    known = _option_strings(build_parser()) | set(
        re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out)
    )
    text = (DOCS / page).read_text(encoding="utf-8")
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    assert documented <= known, f"docs/{page} names flags no parser has: {documented - known}"
