"""Content-addressed result cache with a manifest index and GC.

Every run's :class:`~repro.runner.result.RunResult` is stored as one JSON
file under the cache root (default ``.repro-cache/``), named by the run's
content key.  Re-running a figure therefore only simulates the cells that
are missing; everything else is served from disk.  The cache is plain JSON
on purpose: records survive refactors, diff cleanly, and can be inspected
with nothing but ``cat``.

Alongside the records the cache maintains ``manifest.json``, a single index
mapping each key to the run's identity and execution metadata::

    {
      "format": 1,
      "records": {
        "<key>": {
          "scenario": "fig09_slowdown",
          "params": {...resolved params...},
          "seed": 1,
          "scenario_version": 1,
          "elapsed_s": 1.82,
          "created_at": 1769900000.0
        },
        ...
      }
    }

The manifest is a derived artifact: :meth:`ResultCache.rebuild_manifest`
reconstructs it from the record files at any time, so a stale or deleted
manifest is never fatal — a sweep flushes it once, when it ends, so after
a killed sweep it lags the record files until the next load rescans.
:meth:`ResultCache.gc` uses it to evict records whose ``scenario_version``
no longer matches the registered scenario and records older than a
caller-given age.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.runner.result import RunResult

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Name of the manifest index file inside the cache root.
MANIFEST_NAME = "manifest.json"

#: Version of the manifest file layout.
MANIFEST_FORMAT = 1


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Record files :meth:`ResultCache.iter_results` could not read (truncated,
    #: not JSON, not a record) and therefore left out of what it yielded.
    unreadable: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


@dataclass
class GcStats:
    """What one :meth:`ResultCache.gc` pass examined and evicted."""

    examined: int = 0
    evicted_stale_version: int = 0
    evicted_age: int = 0
    #: Keys that were (or, under ``dry_run``, would have been) removed.
    evicted_keys: List[str] = field(default_factory=list)
    #: Temp files a killed writer left in the cache root, past the grace.
    evicted_tmp_files: List[str] = field(default_factory=list)

    @property
    def evicted(self) -> int:
        return self.evicted_stale_version + self.evicted_age

    @property
    def evicted_stale_tmp(self) -> int:
        return len(self.evicted_tmp_files)

    @property
    def kept(self) -> int:
        return self.examined - self.evicted

    def summary(self) -> str:
        text = (
            f"{self.examined} record(s) examined: {self.evicted} evicted "
            f"({self.evicted_stale_version} stale version, {self.evicted_age} expired), "
            f"{self.kept} kept"
        )
        if self.evicted_stale_tmp:
            text += f"; {self.evicted_stale_tmp} stale temp file(s) evicted"
        return text


class ResultCache:
    """Directory-backed store of :class:`RunResult` records keyed by content."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or DEFAULT_CACHE_DIR
        self.stats = CacheStats()
        self._manifest: Optional[Dict[str, Dict[str, Any]]] = None
        self._defer_manifest = False
        self._manifest_dirty = False

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def _manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def _write_json_atomic(self, path: str, payload: Mapping[str, Any]) -> None:
        """Temp file + rename, so a crash never leaves a half-written file."""
        import tempfile  # writers only: readers (list, report, a warm sweep) never load it

        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
            result = RunResult.from_payload(
                record["result"], telemetry=record.get("telemetry")
            )
        except (OSError, ValueError, KeyError):
            # Missing or corrupt record — treat as a miss; a fresh run will
            # overwrite it.
            self.stats.misses += 1
            return None
        if result.key != key:
            # The file is named for this cell but holds another's record
            # (copied, renamed, half-restored cache): the name is not the
            # identity.  A miss, so the rerun overwrites it.
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, result: RunResult, *, elapsed_s: Optional[float] = None) -> str:
        """Store ``result`` and index it in the manifest; returns the record's path.

        The write is atomic (temp file + rename) so a crashed or killed
        worker can never leave a half-written record behind.
        """
        created_at = time.time()  # repro: noqa[RPR030] -- created_at lives in the record envelope, never in "result" whose bytes are the cache identity
        record: Dict[str, Any] = {"result": result.to_payload(), "created_at": created_at}
        if elapsed_s is not None:
            record["elapsed_s"] = elapsed_s
        # Telemetry lives in the record *envelope*, beside elapsed_s and
        # created_at — never inside "result", whose bytes are the identity
        # the cache keys over.
        if result.telemetry:
            record["telemetry"] = dict(result.telemetry)
        path = self._path(result.key)
        self._write_json_atomic(path, record)
        self.stats.writes += 1
        manifest = self.manifest()
        manifest[result.key] = self._manifest_entry(record)
        if self._defer_manifest:
            self._manifest_dirty = True
        else:
            self._write_manifest(manifest)
        return path

    @contextlib.contextmanager
    def deferred_manifest(self):
        """Batch manifest writes: one flush when the block exits.

        ``put`` rewrites the whole manifest file; inside this context it
        only updates the in-memory index, so an n-cell sweep does one
        manifest write instead of n (the engine wraps the backend's
        ``execute`` call in this).  Record files themselves are still
        written immediately.
        """
        self._defer_manifest = True
        try:
            yield self
        finally:
            self._defer_manifest = False
            if self._manifest_dirty:
                self._manifest_dirty = False
                self._write_manifest(self.manifest())

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def _record_names(self) -> List[str]:
        if not os.path.isdir(self.root):
            return []
        return sorted(
            name
            for name in os.listdir(self.root)
            if name.endswith(".json") and name != MANIFEST_NAME
        )

    def __len__(self) -> int:
        return len(self._record_names())

    def iter_results(self) -> Iterator[RunResult]:
        """All readable records in the cache (unordered).

        A record that cannot be read is skipped and counted in
        ``stats.unreadable``.
        """
        for name in self._record_names():
            try:
                with open(os.path.join(self.root, name), "r", encoding="utf-8") as fh:
                    record = json.load(fh)
                result = RunResult.from_payload(
                    record["result"], telemetry=record.get("telemetry")
                )
            except (OSError, ValueError, KeyError):
                self.stats.unreadable += 1
                continue
            yield result

    # -- manifest index ----------------------------------------------------

    @staticmethod
    def _manifest_entry(record: Mapping[str, Any]) -> Dict[str, Any]:
        result = record["result"]
        entry: Dict[str, Any] = {
            "scenario": result["scenario"],
            "params": dict(result.get("params", {})),
            "seed": result["seed"],
            "scenario_version": result.get("scenario_version", 1),
        }
        if record.get("elapsed_s") is not None:
            entry["elapsed_s"] = record["elapsed_s"]
        if record.get("created_at") is not None:
            entry["created_at"] = record["created_at"]
        # Surface the headline run-size numbers in the index so ad-hoc
        # inspection never needs to open every record.
        telemetry = record.get("telemetry")
        if isinstance(telemetry, dict) and telemetry.get("events_processed"):
            entry["events_processed"] = telemetry["events_processed"]
            entry["events_per_sec"] = telemetry.get("events_per_sec")
        return entry

    def manifest(self) -> Dict[str, Dict[str, Any]]:
        """The key → entry index, loaded from disk (rebuilt when unreadable).

        The returned mapping is the cache's live in-memory copy; callers
        should treat it as read-only and go through :meth:`put` / :meth:`gc`
        / :meth:`rebuild_manifest` for changes.
        """
        if self._manifest is not None:
            return self._manifest
        try:
            with open(self._manifest_path(), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if payload.get("format") != MANIFEST_FORMAT:
                raise ValueError(f"unsupported manifest format {payload.get('format')!r}")
            records = dict(payload["records"])
            if len(records) != len(self._record_names()):
                # A killed sweep or a second writer left records the file
                # does not list; flushing it as is would drop them.
                raise ValueError("manifest out of step with the record files")
            self._manifest = records
        except (OSError, ValueError, KeyError):
            # Missing, corrupt, foreign-format, or stale manifest — derive
            # it from the records, which are the source of truth.
            self._manifest = self._scan_records()
        return self._manifest

    def _scan_records(self) -> Dict[str, Dict[str, Any]]:
        entries: Dict[str, Dict[str, Any]] = {}
        for name in self._record_names():
            path = os.path.join(self.root, name)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    record = json.load(fh)
                entry = self._manifest_entry(record)
                key = record["result"]["key"]
            except (OSError, ValueError, KeyError):
                continue
            # Pre-manifest records carry no created_at; the file mtime is the
            # best available age signal.
            if "created_at" not in entry:
                try:
                    entry["created_at"] = os.path.getmtime(path)
                except OSError:
                    pass
            entries[key] = entry
        return entries

    def _write_manifest(self, entries: Dict[str, Dict[str, Any]]) -> None:
        self._manifest = entries
        self._write_json_atomic(
            self._manifest_path(), {"format": MANIFEST_FORMAT, "records": entries}
        )

    def rebuild_manifest(self) -> Dict[str, Dict[str, Any]]:
        """Rescan every record file and rewrite the manifest from scratch.

        Use after records were added or deleted behind this instance's back
        (another process, manual ``rm``); returns the fresh index.
        """
        entries = self._scan_records()
        self._write_manifest(entries)
        return entries

    # -- garbage collection ------------------------------------------------

    #: A ``*.tmp`` file in the cache root younger than this may belong to a
    #: writer that is still alive, so gc leaves it alone.
    TMP_GRACE_S = 86_400.0

    def gc(
        self,
        *,
        registry=None,
        max_age_s: Optional[float] = None,
        now: Optional[float] = None,
        dry_run: bool = False,
    ) -> GcStats:
        """Evict stale records; returns what was examined and removed.

        Two independent eviction rules, each enabled by its argument:

        * ``registry`` — a :class:`~repro.runner.registry.ScenarioRegistry`;
          records whose ``scenario_version`` differs from the currently
          registered version are evicted (their scenario's semantics have
          changed, so they can never be served again).  Records of scenarios
          not present in the registry are kept: an unloaded experiment module
          is not evidence of staleness.
        * ``max_age_s`` — records whose ``created_at`` (file mtime for
          pre-manifest records) is older than this many seconds are evicted.
          A negative (or NaN) age is a :class:`ValueError`, raised before any
          file is touched: every record is older than a negative age.

        Alongside the records, ``*.tmp`` files in the cache root older than
        :data:`TMP_GRACE_S` are swept: a writer killed between creating its
        temp file and renaming it into place leaves one behind.

        The manifest is rebuilt from the record files first, so records
        written by other processes are seen, and rewritten after eviction.
        With ``dry_run`` nothing is deleted; the stats report what would be.
        """
        if max_age_s is not None and not max_age_s >= 0:
            raise ValueError(f"max_age_s must be >= 0, got {max_age_s!r}")
        now = now if now is not None else time.time()  # repro: noqa[RPR030] -- gc age policy compares envelope created_at stamps; never touches cached payloads
        entries = self.rebuild_manifest()
        stats = GcStats(examined=len(entries))
        survivors: Dict[str, Dict[str, Any]] = {}
        for key, entry in entries.items():
            stale = False
            if registry is not None and entry["scenario"] in registry:
                current = registry.get(entry["scenario"]).version
                if entry.get("scenario_version", 1) != current:
                    stats.evicted_stale_version += 1
                    stale = True
            if not stale and max_age_s is not None:
                created = entry.get("created_at")
                if created is not None and now - created > max_age_s:
                    stats.evicted_age += 1
                    stale = True
            if stale:
                stats.evicted_keys.append(key)
            else:
                survivors[key] = entry
        self._gc_stale_tmp(stats, now=now)
        if dry_run:
            return stats
        for key in stats.evicted_keys:
            try:
                os.unlink(self._path(key))
            except OSError:
                pass
        for path in stats.evicted_tmp_files:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._write_manifest(survivors)
        return stats

    def _gc_stale_tmp(self, stats: GcStats, *, now: float) -> None:
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".tmp"):
                continue
            path = os.path.join(self.root, name)
            try:
                if now - os.path.getmtime(path) < self.TMP_GRACE_S:
                    continue
            except OSError:
                continue
            stats.evicted_tmp_files.append(path)

    def by_scenario(self) -> Dict[str, List[RunResult]]:
        grouped: Dict[str, List[RunResult]] = {}
        for result in self.iter_results():
            grouped.setdefault(result.scenario, []).append(result)
        return grouped
