"""Persistent result store: content-addressed JSON files on disk.

Layout::

    <root>/                     ~/.cache/repro, or $REPRO_CACHE_DIR
      stats.json                lifetime hit/miss/put/eviction counters
      stats.lock                flock guard for counter updates
      v-<fingerprint16>/        one generation per code version
        <kind>-<digest16>.json  {"spec": ..., "result": ..., "elapsed": ...}

The *code fingerprint* is a SHA-256 over every ``.py`` source of the
``repro`` package — the whole tree, so new subpackages are picked up
automatically — and editing the simulator silently invalidates the
cache (stale generations stay on disk until ``repro cache clear`` or
``repro cache gc``).  Writes are atomic (tmp file + ``os.replace``);
corrupt or unreadable entries read as misses, are deleted, and emit a
warning.  A hit touches the entry's mtime so ``cache gc`` can evict
least-recently-used entries.  Set ``REPRO_NO_CACHE=1`` to disable the
default store entirely.

Accounting happens at two levels: per-instance session counters
(``hits``/``misses``/``puts``) and lifetime counters persisted in
``stats.json`` under an ``fcntl`` file lock, so every process writing
through one root — concurrent sweeps, ``repro cache gc`` — adds up to
one coherent total.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

from .serialize import decode_result, encode_result
from .spec import Spec, spec_digest, spec_to_dict

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
NO_CACHE_ENV = "REPRO_NO_CACHE"
DEFAULT_CACHE_DIR = "~/.cache/repro"

STATS_FILE = "stats.json"
STATS_LOCK = "stats.lock"
#: Lifetime counter names tracked in ``stats.json``.
STATS_KEYS = ("hits", "misses", "puts", "evictions")

_fingerprint_cache: Dict[str, str] = {}


def cache_root() -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR).expanduser()


def fingerprint_sources(package_dir: Optional[Path] = None) -> List[Path]:
    """Every source file the code fingerprint covers, sorted.

    Walks the package tree rather than a hard-coded module list, so a
    new subpackage (``repro.staticcheck``, …) can never be silently missing
    from the fingerprint; ``tests/test_harness_store.py`` asserts every
    subpackage is represented.
    """
    if package_dir is None:
        package_dir = Path(__file__).resolve().parent.parent
    return sorted(package_dir.rglob("*.py"))


def code_fingerprint(package_dir: Optional[Path] = None) -> str:
    """SHA-256 of the ``repro`` package sources (cached per process)."""
    if package_dir is None:
        package_dir = Path(__file__).resolve().parent.parent
    package_dir = Path(package_dir).resolve()
    key = str(package_dir)
    if key not in _fingerprint_cache:
        digest = hashlib.sha256()
        for path in fingerprint_sources(package_dir):
            digest.update(str(path.relative_to(package_dir)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint_cache[key] = digest.hexdigest()
    return _fingerprint_cache[key]


@contextmanager
def _file_lock(path: Path):
    """Exclusive advisory lock on *path* (created on demand).

    Serializes cross-process read-modify-write of the shared counter
    file; on platforms without ``fcntl`` (Windows) it degrades to
    lock-free best effort — counters may undercount there, never crash.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = open(path, "a+")
    try:
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX fallback
            yield
        else:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    finally:
        handle.close()


class ResultStore:
    """Spec-addressed result cache under one root directory."""

    def __init__(self, root: Optional[Path] = None,
                 fingerprint: Optional[str] = None):
        self.root = Path(root) if root is not None else cache_root()
        self.fingerprint = fingerprint or code_fingerprint()
        #: Session counters (this instance only); lifetime totals live in
        #: ``stats.json`` and are visible through :meth:`counters`.
        self.hits = 0
        self.misses = 0
        self.puts = 0

    # -- paths -------------------------------------------------------------------
    @property
    def generation_dir(self) -> Path:
        return self.root / f"v-{self.fingerprint[:16]}"

    def path_for(self, spec: Spec) -> Path:
        return self.generation_dir / f"{spec.kind}-{spec_digest(spec)[:16]}.json"

    # -- lifetime counters -------------------------------------------------------
    @property
    def _stats_path(self) -> Path:
        return self.root / STATS_FILE

    def _bump(self, **deltas: int) -> None:
        """Add *deltas* to the persistent lifetime counters (flock'd)."""
        try:
            with _file_lock(self.root / STATS_LOCK):
                totals = self._read_counters()
                for key, delta in deltas.items():
                    totals[key] = totals.get(key, 0) + delta
                fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
                with os.fdopen(fd, "w") as handle:
                    json.dump(totals, handle)
                os.replace(tmp, self._stats_path)
        except OSError:
            # Counters are accounting, not correctness: a read-only or
            # vanished cache root must never fail a get/put.
            pass

    def _read_counters(self) -> Dict[str, int]:
        try:
            data = json.loads(self._stats_path.read_text())
        except (OSError, ValueError):
            return {}
        return {k: int(v) for k, v in data.items() if isinstance(v, (int, float))}

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Session (this instance) and lifetime (all processes) counters."""
        lifetime = {key: 0 for key in STATS_KEYS}
        lifetime.update(self._read_counters())
        return {
            "session": {"hits": self.hits, "misses": self.misses,
                        "puts": self.puts},
            "lifetime": lifetime,
        }

    # -- access ------------------------------------------------------------------
    def get(self, spec: Spec):
        """The stored result for *spec*, or None on a miss."""
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text())
            result = decode_result(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            self._bump(misses=1)
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # Corrupt entry (interrupted write of an old layout, truncated
            # file): drop it, warn, and recompute.
            warnings.warn(f"repro cache: dropping corrupt entry {path.name} "
                          f"({type(exc).__name__}: {exc})", stacklevel=2)
            path.unlink(missing_ok=True)
            self.misses += 1
            self._bump(misses=1)
            return None
        self.hits += 1
        self._bump(hits=1)
        try:
            os.utime(path)  # LRU clock for `cache gc`
        except OSError:
            pass
        return result

    def put(self, spec: Spec, result, elapsed: Optional[float] = None) -> Path:
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spec": spec_to_dict(spec),
            "result": encode_result(result),
            "elapsed": elapsed,
        }
        # Atomic publish: a reader sees the old entry or the new one,
        # never a torn write — concurrent writers of the same digest are
        # safe because each replace is all-or-nothing.
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        finally:
            # After a successful replace the temp name is gone; anything
            # still there means we are unwinding (including Ctrl-C) and
            # must not leave the orphan behind.  Nothing is caught, so
            # KeyboardInterrupt/SystemExit propagate untouched.
            if os.path.exists(tmp):
                os.unlink(tmp)
        self.puts += 1
        self._bump(puts=1)
        return path

    # -- management --------------------------------------------------------------
    def info(self) -> Dict:
        generations = []
        total_entries = 0
        total_bytes = 0
        if self.root.is_dir():
            for directory in sorted(self.root.glob("v-*")):
                entries = list(directory.glob("*.json"))
                size = sum(p.stat().st_size for p in entries)
                generations.append({
                    "name": directory.name,
                    "entries": len(entries),
                    "bytes": size,
                    "current": directory == self.generation_dir,
                })
                total_entries += len(entries)
                total_bytes += size
        return {
            "root": str(self.root),
            "fingerprint": self.fingerprint,
            "generations": generations,
            "entries": total_entries,
            "bytes": total_bytes,
            "counters": self.counters(),
        }

    def clear(self) -> int:
        """Delete every cached entry (all generations); returns the count."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for directory in self.root.glob("v-*"):
            for path in directory.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
            try:
                directory.rmdir()
            except OSError:
                pass
        if removed:
            self._bump(evictions=removed)
        return removed


def default_store() -> Optional[ResultStore]:
    """The process-default store, or None when caching is disabled."""
    if os.environ.get(NO_CACHE_ENV, "").lower() in ("1", "true", "yes", "on"):
        return None
    return ResultStore()
