"""Typed rule framework for the invariant linter.

A rule is a checker function registered under a stable ``RPRnnn`` code with
a severity, a one-line rationale, and a fix hint.  Two scopes exist:

* **file** rules run once per module and see ``(module, corpus, options)``;
* **project** rules run once per lint invocation and see
  ``(corpus, options)`` — this is how cross-module contracts (the qdisc
  subclass graph, the wire schema snapshot) are checked.

Rule codes are grouped by contract family::

    RPR000          linter meta (malformed / unjustified suppressions)
    RPR001..RPR009  determinism
    RPR010..RPR019  scheduler discipline
    RPR020..RPR029  qdisc contract
    RPR030..RPR039  cache purity
    RPR040..RPR049  wire compatibility
    RPR050..RPR059  import layering

Codes are permanent: a retired rule's code is never reused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional

#: Finding severities, in increasing order of badness.  Both fail the lint
#: exit code today; the distinction is carried for output formats and for
#: a future ``--severity`` gate.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source location."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0
    severity: str = "error"
    fix_hint: str = ""
    #: Set by the engine when an inline suppression covered this finding.
    suppressed: bool = False
    #: The suppression's justification text (when suppressed).
    justification: Optional[str] = None

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    code: str
    name: str
    rationale: str
    fix_hint: str
    severity: str = "error"
    #: "file" rules run per module; "project" rules run once per corpus.
    scope: str = "file"
    checker: Callable = field(default=None, compare=False)  # type: ignore[assignment]

    def finding(
        self, message: str, path: str, line: int, col: int = 0
    ) -> Finding:
        """Build a :class:`Finding` carrying this rule's metadata."""
        return Finding(
            code=self.code,
            message=message,
            path=path,
            line=line,
            col=col,
            severity=self.severity,
            fix_hint=self.fix_hint,
        )


_REGISTRY: Dict[str, Rule] = {}


def rule(
    code: str,
    *,
    name: str,
    rationale: str,
    fix_hint: str,
    severity: str = "error",
    scope: str = "file",
) -> Callable[[Callable], Callable]:
    """Register the decorated checker function under ``code``.

    File checkers are called as ``checker(module, corpus, options)`` and
    project checkers as ``checker(corpus, options)``; both return an
    iterable of :class:`Finding`.
    """
    if not code.startswith("RPR") or not code[3:].isdigit() or len(code) != 6:
        raise ValueError(f"rule code {code!r} must look like RPRnnn")
    if severity not in SEVERITIES:
        raise ValueError(f"rule {code}: unknown severity {severity!r}")
    if scope not in ("file", "project"):
        raise ValueError(f"rule {code}: unknown scope {scope!r}")

    def decorate(checker: Callable) -> Callable:
        if code in _REGISTRY:
            raise ValueError(f"duplicate rule code {code}")
        _REGISTRY[code] = Rule(
            code=code,
            name=name,
            rationale=rationale,
            fix_hint=fix_hint,
            severity=severity,
            scope=scope,
            checker=checker,
        )
        return checker

    return decorate


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by code."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Rule:
    try:
        return _REGISTRY[code]
    except KeyError:
        raise KeyError(
            f"no rule {code!r}; known codes: {', '.join(sorted(_REGISTRY))}"
        ) from None


def is_known_code(code: str) -> bool:
    return code in _REGISTRY


def run_rules(modules: Iterable, corpus, options) -> Iterator[Finding]:
    """Run every registered rule over ``corpus`` and yield raw findings."""
    module_list = list(modules)
    for rule_obj in all_rules():
        if rule_obj.scope == "file":
            for module in module_list:
                yield from rule_obj.checker(module, corpus, options)
        else:
            yield from rule_obj.checker(corpus, options)
