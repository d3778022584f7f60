"""Wire-compatibility rule (RPR040–RPR049).

The distributed pool speaks a versioned JSON frame protocol
(:mod:`repro.runner.wire`): ``WorkItem``/``WorkOutcome`` dataclasses
cross process and machine boundaries as ``asdict`` payloads, and a worker
built from an older checkout must keep interoperating within one
``PROTOCOL_VERSION``.  That means frame fields are *only ever added*
(and added optional); removing or renaming a field, or making an optional
field required, needs a protocol version bump.

The rule checks the current AST-extracted schema against a committed
snapshot (``src/repro/analysis/wire_snapshot.json``).  Any drift is a
finding; compatible drift is resolved by regenerating the snapshot
(``repro-runner lint --update-snapshot``), while incompatible drift is
refused until ``PROTOCOL_VERSION`` is bumped alongside it.
"""

from __future__ import annotations

import ast
import json
import os
from typing import Any, Dict, Iterator, List, Optional

from repro.analysis.corpus import Corpus, LintUsageError, ModuleInfo
from repro.analysis.rules import Finding, get_rule, rule

#: Dataclasses that cross the wire as asdict() payloads, and the module
#: (package-relative) that defines them.
WIRE_FRAMES = ("WorkItem", "WorkOutcome")
FRAMES_MODULE = "runner/backends.py"
VERSION_MODULE = "runner/wire.py"
#: Modules whose ``{"type": ...}`` dict literals define the message kinds.
MESSAGE_MODULES = ("runner/worker.py", "runner/distributed.py")

DEFAULT_SNAPSHOT_PATH = os.path.join(os.path.dirname(__file__), "wire_snapshot.json")


def _extract_frames(module: ModuleInfo) -> Dict[str, List[Dict[str, Any]]]:
    frames: Dict[str, List[Dict[str, Any]]] = {}
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef) or node.name not in WIRE_FRAMES:
            continue
        fields: List[Dict[str, Any]] = []
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                fields.append(
                    {"name": stmt.target.id, "required": stmt.value is None}
                )
        frames[node.name] = fields
    return frames


def _extract_protocol_version(module: ModuleInfo) -> Optional[int]:
    for node in module.tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "PROTOCOL_VERSION":
                value = node.value
                if isinstance(value, ast.Constant) and isinstance(value.value, int):
                    return value.value
    return None


def _extract_message_types(modules: List[ModuleInfo]) -> List[str]:
    kinds = set()
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Dict):
                continue
            for key, value in zip(node.keys, node.values, strict=True):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "type"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                    and not value.value.startswith("_")  # in-process sentinels
                ):
                    kinds.add(value.value)
    return sorted(kinds)


def extract_schema(corpus: Corpus) -> Optional[Dict[str, Any]]:
    """The current wire schema, or ``None`` if the corpus has no wire code."""
    frames_module = corpus.module(FRAMES_MODULE)
    version_module = corpus.module(VERSION_MODULE)
    if frames_module is None or version_module is None:
        return None
    message_modules = [
        m for rel in MESSAGE_MODULES if (m := corpus.module(rel)) is not None
    ]
    return {
        "protocol_version": _extract_protocol_version(version_module),
        "frames": _extract_frames(frames_module),
        "message_types": _extract_message_types(message_modules),
    }


def diff_schema(snapshot: Dict[str, Any], current: Dict[str, Any]):
    """Compare schemas.  Returns ``(incompatible, compatible)`` message lists."""
    incompatible: List[str] = []
    compatible: List[str] = []
    old_frames = snapshot.get("frames", {})
    new_frames = current.get("frames", {})
    for frame, old_fields in old_frames.items():
        new_fields = new_frames.get(frame)
        if new_fields is None:
            incompatible.append(f"frame {frame} was removed")
            continue
        old_by_name = {f["name"]: f for f in old_fields}
        new_by_name = {f["name"]: f for f in new_fields}
        for name, old_field in old_by_name.items():
            new_field = new_by_name.get(name)
            if new_field is None:
                incompatible.append(f"{frame}.{name} was removed or renamed")
            elif new_field["required"] and not old_field["required"]:
                incompatible.append(f"{frame}.{name} became required")
            elif old_field["required"] and not new_field["required"]:
                compatible.append(f"{frame}.{name} became optional")
        for name, new_field in new_by_name.items():
            if name in old_by_name:
                continue
            if new_field["required"]:
                incompatible.append(
                    f"{frame}.{name} was added as required (old senders omit it)"
                )
            else:
                compatible.append(f"{frame}.{name} was added (optional)")
    for frame in new_frames:
        if frame not in old_frames:
            compatible.append(f"frame {frame} was added")
    old_types = set(snapshot.get("message_types", []))
    new_types = set(current.get("message_types", []))
    for kind in sorted(old_types - new_types):
        incompatible.append(f"message type {kind!r} was removed")
    for kind in sorted(new_types - old_types):
        compatible.append(f"message type {kind!r} was added")
    return incompatible, compatible


def load_snapshot(path: str) -> Optional[Dict[str, Any]]:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def update_snapshot(corpus: Corpus, path: Optional[str] = None) -> str:
    """Regenerate the snapshot; refuses incompatible drift without a bump."""
    path = path or DEFAULT_SNAPSHOT_PATH
    current = extract_schema(corpus)
    if current is None:
        raise LintUsageError(
            "--update-snapshot: the linted paths do not include "
            f"{FRAMES_MODULE} and {VERSION_MODULE} (lint src/ or src/repro)"
        )
    snapshot = load_snapshot(path)
    if snapshot is not None:
        incompatible, _ = diff_schema(snapshot, current)
        bumped = (current.get("protocol_version") or 0) > (
            snapshot.get("protocol_version") or 0
        )
        if incompatible and not bumped:
            raise LintUsageError(
                "--update-snapshot refused: incompatible wire changes "
                f"({'; '.join(incompatible)}) require a PROTOCOL_VERSION "
                f"bump in {VERSION_MODULE}"
            )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(current, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


@rule(
    "RPR040",
    name="wire-schema-drift",
    rationale=(
        "WorkItem/WorkOutcome frames cross machine boundaries; within one "
        "PROTOCOL_VERSION, fields are only ever added (and added "
        "optional), so an old worker and a new coordinator keep "
        "interoperating.  All drift must be recorded in the committed "
        "snapshot."
    ),
    fix_hint=(
        "run 'repro-runner lint --update-snapshot src/' to record "
        "compatible changes; incompatible changes also need a "
        "PROTOCOL_VERSION bump in runner/wire.py"
    ),
    scope="project",
)
def check_wire_schema(corpus: Corpus, options) -> Iterator[Finding]:
    current = extract_schema(corpus)
    if current is None:
        return  # corpus doesn't contain the wire modules (partial lint)
    this = get_rule("RPR040")
    frames_module = corpus.module(FRAMES_MODULE)
    anchor_path = frames_module.path
    path = getattr(options, "snapshot_path", None) or DEFAULT_SNAPSHOT_PATH
    snapshot = load_snapshot(path)
    if snapshot is None:
        yield this.finding(
            f"no committed wire schema snapshot at {path}; run "
            "'repro-runner lint --update-snapshot src/'",
            anchor_path,
            1,
        )
        return
    incompatible, compatible = diff_schema(snapshot, current)
    bumped = (current.get("protocol_version") or 0) > (
        snapshot.get("protocol_version") or 0
    )
    for message in incompatible:
        if bumped:
            yield this.finding(
                f"wire schema changed incompatibly ({message}); "
                "PROTOCOL_VERSION was bumped — record it with "
                "--update-snapshot",
                anchor_path,
                1,
            )
        else:
            yield this.finding(
                f"incompatible wire schema change: {message}; bump "
                f"PROTOCOL_VERSION in {VERSION_MODULE} and re-run "
                "--update-snapshot",
                anchor_path,
                1,
            )
    for message in compatible:
        yield this.finding(
            f"unrecorded wire schema change: {message}; run "
            "'repro-runner lint --update-snapshot src/'",
            anchor_path,
            1,
        )
    if not incompatible and not compatible:
        snap_version = snapshot.get("protocol_version")
        if current.get("protocol_version") != snap_version:
            yield this.finding(
                f"PROTOCOL_VERSION changed ({snap_version} -> "
                f"{current.get('protocol_version')}) with no schema delta; "
                "run --update-snapshot to record it",
                anchor_path,
                1,
            )
