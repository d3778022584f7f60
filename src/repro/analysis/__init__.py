"""Static invariant linter and runtime event-loop sanitizer.

Every guarantee this reproduction leans on — byte-for-byte
serial == process == distributed parity, content-addressed cache keys, the
qdisc ``peek()``/O(1)-backlog contract — used to be an *implicit*
convention, caught only after the fact by parity tests.  This package makes
those contracts machine-checked:

* the **linter** (``repro-runner lint`` / ``python -m repro.analysis``) is
  an AST-based rule engine.  Each rule has a stable ``RPRnnn`` code, a
  severity, a rationale and a fix hint; intentional exceptions are
  suppressed inline with ``# repro: noqa[RPRnnn] -- justification`` (the
  justification is required — an empty one is itself a finding).  See
  ``docs/static-analysis.md`` for the rule catalogue.

* the **sanitizer** (:mod:`repro.analysis.sanitizer`, enabled with
  ``REPRO_SANITIZE=1``) instruments live :class:`~repro.net.simulator.Simulator`,
  :class:`~repro.net.link.Link` and qdisc instances to assert conservation
  invariants at runtime — per-link packet conservation, declared backlog ==
  actual queue sum at every enqueue/dequeue, the batched-``advance()``
  contract, cancel-token hygiene, and that a closed TCP flow's port only
  ever sees packets its sender would have ignored — and fails loudly with
  the offending component's path.

The linter never imports the code it checks (pure ``ast``), so it is safe
to run on a broken tree; the sanitizer never changes event order, RNG
draws, or counters, so sanitized runs are byte-for-byte identical to
unsanitized ones (pinned by ``tests/test_analysis_sanitizer.py``).
"""

from repro.analysis.engine import LintOptions, LintReport, lint_paths
from repro.analysis.rules import Finding, Rule, all_rules, get_rule
from repro.analysis.sanitizer import (
    SANITIZE_ENV,
    Sanitizer,
    SanitizerViolation,
    sanitize_enabled,
)

# Importing the rule modules registers their rules with the registry.
from repro.analysis import determinism as _determinism  # noqa: F401
from repro.analysis import layering as _layering  # noqa: F401
from repro.analysis import purity as _purity  # noqa: F401
from repro.analysis import qdisc_rules as _qdisc_rules  # noqa: F401
from repro.analysis import scheduler as _scheduler  # noqa: F401
from repro.analysis import wire_schema as _wire_schema  # noqa: F401

__all__ = [
    "Finding",
    "LintOptions",
    "LintReport",
    "Rule",
    "SANITIZE_ENV",
    "Sanitizer",
    "SanitizerViolation",
    "all_rules",
    "get_rule",
    "lint_paths",
    "sanitize_enabled",
]
