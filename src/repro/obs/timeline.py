"""Span-style phase timing for a run.

A :class:`Timeline` is a tiny monotonic-clock accumulator: named spans are
opened and closed around the phases of a run (``scenario-body``,
``workload-generate``, ``trace-replay``, ``metrics-finalize``, ...) and
each name accumulates a call count and total wall seconds.  It is *not* a
tracing system — there is no nesting, no per-span records, no ids — because
the question it answers is only "where did this run's wall time go", and a
flat ``{name: (count, total_s)}`` table answers that in a handful of bytes
that travel inside :attr:`RunResult.telemetry`.

Span names are an open vocabulary; the ones the stack emits by default are
catalogued in ``docs/observability.md``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Iterator


class _Span:
    """One open span: two clock reads and one :meth:`Timeline.add`.

    A plain slotted object, not a ``@contextmanager`` generator — replay
    opens one per flow.
    """

    __slots__ = ("_timeline", "_name", "_started")

    def __init__(self, timeline: "Timeline", name: str) -> None:
        self._timeline = timeline
        self._name = name

    def __enter__(self) -> None:
        self._started = perf_counter()

    def __exit__(self, *exc_info: Any) -> None:
        self._timeline.add(self._name, perf_counter() - self._started)


class Timeline:
    """Named wall-time accumulators with a context-manager span API."""

    __slots__ = ("_spans",)

    def __init__(self) -> None:
        # name -> [count, total_seconds]; a plain list keeps the hot
        # ``add`` path to two attribute-free item writes.
        self._spans: Dict[str, list] = {}

    def add(self, name: str, seconds: float) -> None:
        """Fold ``seconds`` into the span called ``name``."""
        entry = self._spans.get(name)
        if entry is None:
            self._spans[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def span(self, name: str) -> "_Span":
        """Time the enclosed ``with`` block into ``name`` (monotonic clock)."""
        return _Span(self, name)

    def wrap_iter(self, name: str, iterator) -> Iterator[Any]:
        """Yield from ``iterator``, charging time spent *pulling* items.

        Used to meter lazily-generated workload streams (trace generators
        are consumed one event at a time during replay, so there is no
        single "generate" block to wrap).
        """
        iterator = iter(iterator)
        while True:
            started = perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                self.add(name, perf_counter() - started)
                return
            self.add(name, perf_counter() - started)
            yield item

    def __len__(self) -> int:
        return len(self._spans)

    def __contains__(self, name: str) -> bool:
        return name in self._spans

    def total_s(self, name: str) -> float:
        """Accumulated seconds for ``name`` (0.0 when never opened)."""
        entry = self._spans.get(name)
        return entry[1] if entry is not None else 0.0

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-serializable ``{name: {count, total_s}}`` view."""
        return {
            name: {"count": entry[0], "total_s": round(entry[1], 6)}
            for name, entry in sorted(self._spans.items())
        }
