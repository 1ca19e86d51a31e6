"""Cache management: scan, LRU/age eviction, gc accounting."""

import os
import time

from repro.harness import CellSpec, ResultStore
from repro.harness.cachectl import cache_report, plan_gc, run_gc, scan_entries


def spec(scheme, rf=64):
    return CellSpec("505.mcf_r", rf, scheme, 500)


def fill(store, schemes=("baseline", "atr", "combined")):
    for scheme in schemes:
        store.put(spec(scheme), {"scheme": scheme})


def set_mtime(path, when):
    os.utime(path, (when, when))


def test_scan_sees_all_generations(tmp_path):
    old = ResultStore(root=tmp_path, fingerprint="a" * 64)
    new = ResultStore(root=tmp_path, fingerprint="b" * 64)
    fill(old)
    fill(new)
    entries = scan_entries(new)
    assert len(entries) == 6
    assert sum(e.current for e in entries) == 3
    assert {e.generation for e in entries} == {"v-" + "a" * 16,
                                               "v-" + "b" * 16}


def test_age_rule_evicts_stale_entries(tmp_path):
    store = ResultStore(root=tmp_path)
    fill(store)
    now = time.time()
    set_mtime(store.path_for(spec("baseline")), now - 1000)

    report = run_gc(store, max_age=500, now=now)
    assert report.removed == 1
    assert store.get(spec("baseline")) is None
    assert store.get(spec("atr")) is not None


def test_size_rule_evicts_lru_stale_generations_first(tmp_path):
    old = ResultStore(root=tmp_path, fingerprint="a" * 64)
    store = ResultStore(root=tmp_path)
    fill(old)
    fill(store)
    now = time.time()
    # Make a current-generation entry the globally oldest: the stale
    # generation must still go first.
    set_mtime(store.path_for(spec("baseline")), now - 9999)

    entries = scan_entries(store)
    current_bytes = sum(e.bytes for e in entries if e.current)
    doomed = plan_gc(entries, max_bytes=current_bytes, now=now)
    assert all(not e.current for e in doomed)
    assert len(doomed) == 3

    report = run_gc(store, max_bytes=current_bytes, now=now)
    assert report.removed == 3
    # The stale generation directory is pruned once emptied.
    assert not (tmp_path / ("v-" + "a" * 16)).exists()
    assert store.get(spec("atr")) is not None


def test_hits_refresh_lru_position(tmp_path):
    """store.get touches mtime, so a hot entry survives size pressure
    that evicts its colder siblings."""
    store = ResultStore(root=tmp_path)
    fill(store)
    now = time.time()
    for scheme in ("baseline", "atr", "combined"):
        set_mtime(store.path_for(spec(scheme)), now - 5000)
    assert store.get(spec("atr")) is not None  # refreshes mtime to ~now

    entries = scan_entries(store)
    keep_bytes = max(e.bytes for e in entries) + 1
    report = run_gc(store, max_bytes=keep_bytes, now=now)
    assert report.removed == 2
    assert store.get(spec("atr")) is not None


def test_gc_to_zero_and_counters(tmp_path):
    store = ResultStore(root=tmp_path)
    fill(store)
    report = run_gc(store, max_bytes=0)
    assert report.removed == 3
    assert report.kept == 0
    assert store.info()["entries"] == 0
    assert store.info()["counters"]["lifetime"]["evictions"] == 3
    # gc over an empty cache is a clean no-op.
    empty = run_gc(store, max_bytes=0, max_age=1)
    assert (empty.scanned, empty.removed) == (0, 0)


def test_cache_report_hit_rate(tmp_path):
    store = ResultStore(root=tmp_path)
    assert cache_report(store)["hit_rate"] is None  # no lookups yet
    fill(store, schemes=("atr",))
    store.get(spec("atr"))
    store.get(spec("baseline"))  # miss
    rate = cache_report(store)["hit_rate"]
    assert abs(rate - 0.5) < 1e-9
