"""Cache management: eviction policy + ``repro cache gc``.

The store itself only ever grows (every new code fingerprint opens a
fresh generation; old ones linger).  This module implements the
reclamation side:

* **age rule** (``--max-age SECS``): entries not read or written for
  longer than the limit are evicted (the store touches an entry's mtime
  on every hit, so mtime is a last-use clock);
* **size rule** (``--max-bytes N``): evict least-recently-used entries
  until the cache fits, preferring entries of *stale* generations (any
  ``v-*`` directory other than the current fingerprint's) before
  touching warm current-generation results.

Evictions are counted into the store's lifetime ``stats.json``, so
``repro cache info`` shows hit/miss/put/eviction totals side by side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from .store import ResultStore


@dataclass
class CacheEntry:
    """One cached result file, with the facts eviction needs."""

    path: Path
    bytes: int
    mtime: float
    generation: str
    current: bool


@dataclass
class GcReport:
    """What one gc pass did."""

    scanned: int
    removed: int
    freed_bytes: int
    kept: int
    kept_bytes: int

    def render(self) -> str:
        return (f"cache gc: removed {self.removed}/{self.scanned} entries "
                f"({self.freed_bytes} bytes freed), "
                f"kept {self.kept} ({self.kept_bytes} bytes)")


def scan_entries(store: ResultStore) -> List[CacheEntry]:
    """Every result entry under the store root, all generations."""
    entries: List[CacheEntry] = []
    if not store.root.is_dir():
        return entries
    for directory in sorted(store.root.glob("v-*")):
        current = directory == store.generation_dir
        for path in directory.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with a concurrent eviction
            entries.append(CacheEntry(path, stat.st_size, stat.st_mtime,
                                      directory.name, current))
    return entries


def plan_gc(entries: List[CacheEntry],
            max_bytes: Optional[int] = None,
            max_age: Optional[float] = None,
            now: Optional[float] = None) -> List[CacheEntry]:
    """The entries a gc pass should evict, in eviction order."""
    now = time.time() if now is None else now
    doomed: List[CacheEntry] = []
    doomed_paths = set()

    if max_age is not None:
        for entry in entries:
            if now - entry.mtime > max_age:
                doomed.append(entry)
                doomed_paths.add(entry.path)

    if max_bytes is not None:
        survivors = [e for e in entries if e.path not in doomed_paths]
        total = sum(e.bytes for e in survivors)
        # Stale generations first, then least recently used.
        survivors.sort(key=lambda e: (e.current, e.mtime))
        for entry in survivors:
            if total <= max_bytes:
                break
            doomed.append(entry)
            doomed_paths.add(entry.path)
            total -= entry.bytes
    return doomed


def run_gc(store: ResultStore,
           max_bytes: Optional[int] = None,
           max_age: Optional[float] = None,
           now: Optional[float] = None) -> GcReport:
    """Apply the eviction policy; empty generation dirs are pruned."""
    entries = scan_entries(store)
    doomed = plan_gc(entries, max_bytes=max_bytes, max_age=max_age, now=now)
    removed = 0
    freed = 0
    for entry in doomed:
        try:
            entry.path.unlink()
        except OSError:
            continue
        removed += 1
        freed += entry.bytes
    if removed:
        store._bump(evictions=removed)
    # Prune generation directories emptied by this pass.
    for directory in store.root.glob("v-*"):
        try:
            next(directory.iterdir())
        except StopIteration:
            try:
                directory.rmdir()
            except OSError:
                pass
        except OSError:
            pass
    kept = len(entries) - removed
    kept_bytes = sum(e.bytes for e in entries) - freed
    return GcReport(scanned=len(entries), removed=removed, freed_bytes=freed,
                    kept=kept, kept_bytes=kept_bytes)


def cache_report(store: ResultStore) -> Dict:
    """``repro cache info`` payload: layout + counters in one dict."""
    info = store.info()
    counters = info["counters"]["lifetime"]
    lookups = counters.get("hits", 0) + counters.get("misses", 0)
    info["hit_rate"] = (counters.get("hits", 0) / lookups) if lookups else None
    return info
