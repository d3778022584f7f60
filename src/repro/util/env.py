"""The one parser behind the ``REPRO_*`` on/off switches.

``REPRO_OBS``, ``REPRO_PROBES`` and ``REPRO_SANITIZE`` share a single
spelling convention (tabulated in ``docs/observability.md``): ``0`` /
``false`` / ``off`` / ``no`` — any case, surrounding space ignored — turn a
switch off, an empty or unset variable leaves it at its default, anything
else turns it on.
"""

from __future__ import annotations

import os

_FALSY = ("0", "false", "off", "no")


def env_flag(name: str, default: bool) -> bool:
    """The on/off switch ``name``, read from the environment at call time."""
    text = os.environ.get(name, "").strip().lower()
    if not text:
        return default
    return text not in _FALSY
