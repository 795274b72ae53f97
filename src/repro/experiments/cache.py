"""Content-addressed on-disk cache for trial results.

Each trial's identity is the stable hash of (scenario name + version, trial
parameters, trial seed, code version tag) — nothing about the sweep it was
part of — so a resumed sweep, a re-run, or a *larger* sweep that includes
previously-computed points all hit the cache for the trials they share.

Records are stored one-JSON-file-per-trial under a two-level fan-out
(``<scenario>/<key[:2]>/<key>.json``) so directories stay small.

**Concurrency contract** (the sweep service multiplexes many concurrent
sweeps — threads and worker processes — over one shared cache):

* *writes are atomic, last-write-wins*: :meth:`ResultCache.put` goes through
  a same-directory temp file + :func:`os.replace`, so a reader never observes
  a torn record and a killed writer (even ``kill -9``) leaves at most an
  orphaned ``*.tmp`` file, never a corrupt ``*.json``.  Two writers racing on
  one key both publish complete records; because keys are content addresses
  of deterministic trials, the two payloads are identical and the race is
  harmless;
* *corrupt files are quarantined, never trusted*: a record that is unreadable
  or malformed (not valid JSON, or valid JSON without a well-formed
  ``"record"`` object — e.g. external tampering or a torn write by a
  pre-atomic version of this code) is renamed to ``<key>.corrupt`` on first
  contact and reported as a miss, so :meth:`ResultCache.get`,
  :meth:`ResultCache.contains` and :meth:`ResultCache.count` can never
  disagree about what is cached and the next run simply re-executes that
  trial;
* *per-instance stats are advisory*: :class:`CacheStats` counters are plain
  attribute increments (GIL-atomic but not cross-thread-exact under heavy
  contention); correctness never depends on them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import repro

from repro.experiments.spec import canonical_json, stable_hash
from repro.telemetry.metrics import counter
from repro.utils.atomic import atomic_write_text

__all__ = ["ResultCache", "CacheStats", "trial_key", "code_version_tag"]

# process-wide telemetry counters (every ResultCache instance feeds them; the
# per-instance CacheStats below stay the precise per-cache view)
_HITS = counter("cache.hits")
_MISSES = counter("cache.misses")
_WRITES = counter("cache.writes")
_QUARANTINED = counter("cache.quarantined")


def code_version_tag() -> str:
    """The tag folded into every cache key; bump ``repro.__version__`` to
    invalidate all cached results after a behaviour-changing code change."""
    return f"repro-{repro.__version__}"


def trial_key(
    scenario: str,
    scenario_version: str,
    params: Mapping[str, Any],
    seed: int,
    code_tag: str | None = None,
) -> str:
    """Stable content address of one trial result."""
    return stable_hash(
        {
            "scenario": scenario,
            "scenario_version": scenario_version,
            "params": dict(params),
            "seed": int(seed),
            "code": code_tag if code_tag is not None else code_version_tag(),
        },
        length=40,
    )


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class _CorruptRecord(Exception):
    """Internal: the file exists but does not hold a well-formed record."""


@dataclass
class ResultCache:
    """A content-addressed store of trial records under ``cache_dir``."""

    cache_dir: Path | str
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.cache_dir = Path(self.cache_dir)

    def _path(self, scenario: str, key: str) -> str:
        # plain ``str`` paths: this runs twice per trial on a cold sweep
        return os.path.join(self.cache_dir, scenario, key[:2], key + ".json")

    def _load(self, path: str) -> dict[str, Any]:
        """Read and validate one record file.

        Raises :class:`FileNotFoundError` for a genuine miss and
        :class:`_CorruptRecord` for a file that exists but cannot be trusted
        (invalid JSON or UTF-8, or a payload without a dict-valued
        ``"record"``).
        """
        with open(path, "rb") as handle:
            raw = handle.read()
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise _CorruptRecord(f"invalid JSON: {error}") from None
        if not isinstance(payload, dict) or not isinstance(payload.get("record"), dict):
            raise _CorruptRecord("payload is not an object with a 'record' object")
        return payload["record"]

    def _quarantine(self, path: str) -> None:
        """Move a corrupt file out of the ``*.json`` namespace (best effort).

        The rename is atomic, so concurrent readers tripping over the same
        bad file either quarantine it themselves or find it already gone —
        both end up reporting a miss.
        """
        try:
            os.replace(path, os.path.splitext(path)[0] + ".corrupt")
        except FileNotFoundError:
            pass  # another reader quarantined it first
        self.stats.quarantined += 1
        _QUARANTINED.inc()

    def get(self, scenario: str, key: str) -> dict[str, Any] | None:
        """The cached record for ``key``, or ``None`` (counts a hit/miss).

        A malformed file is quarantined (renamed to ``<key>.corrupt``) and
        reported as a miss, so the caller re-executes the trial and the next
        :meth:`put` rewrites a clean record.
        """
        path = self._path(scenario, key)
        try:
            record = self._load(path)
        except FileNotFoundError:
            self.stats.misses += 1
            _MISSES.inc()
            return None
        except _CorruptRecord:
            self._quarantine(path)
            self.stats.misses += 1
            _MISSES.inc()
            return None
        self.stats.hits += 1
        _HITS.inc()
        return record

    def put(self, scenario: str, key: str, record: Mapping[str, Any]) -> Path:
        """Atomically persist ``record`` under ``key`` and return its path.

        Safe under concurrent writers (see the module docstring): each write
        publishes a complete file via temp-file + ``os.replace``; racing
        writers of the same content-addressed key are last-write-wins over
        identical payloads.
        """
        path = atomic_write_text(
            self._path(scenario, key),
            canonical_json({"key": key, "record": dict(record)}),
        )
        self.stats.writes += 1
        _WRITES.inc()
        return path

    def contains(self, scenario: str, key: str) -> bool:
        """Whether a *valid* record for ``key`` is cached (no hit/miss counts).

        Validates the payload the same way :meth:`get` does — and quarantines
        corrupt files the same way — so ``contains()`` never claims a record
        that ``get()`` would treat as a miss.
        """
        path = self._path(scenario, key)
        try:
            self._load(path)
        except FileNotFoundError:
            return False
        except _CorruptRecord:
            self._quarantine(path)
            return False
        return True

    def count(self, scenario: str | None = None) -> int:
        """Number of cached records (for one scenario or the whole cache).

        Counts ``*.json`` files; quarantined ``*.corrupt`` files and in-flight
        ``*.tmp`` files are excluded by construction.
        """
        root = Path(self.cache_dir) if scenario is None else Path(self.cache_dir) / scenario
        if not root.exists():
            return 0
        return sum(1 for _ in root.rglob("*.json"))
