"""Persistent store: hit/miss, fingerprint invalidation, management."""

import json
import multiprocessing
from pathlib import Path

import pytest

from repro.harness import (
    CellSpec,
    ResultStore,
    code_fingerprint,
    default_store,
    fingerprint_sources,
    simulate_cell,
)

SPEC = CellSpec("505.mcf_r", 64, "atr", 1000)


@pytest.fixture(scope="module")
def cell():
    return simulate_cell(SPEC)


def test_miss_then_hit(tmp_path, cell):
    store = ResultStore(root=tmp_path)
    assert store.get(SPEC) is None
    store.put(SPEC, cell)
    cached = store.get(SPEC)
    assert cached is not None
    assert cached.ipc == cell.ipc
    assert cached.stats == cell.stats
    assert (store.hits, store.misses) == (1, 1)


def test_fingerprint_change_invalidates(tmp_path, cell):
    old = ResultStore(root=tmp_path, fingerprint="a" * 64)
    old.put(SPEC, cell)
    assert old.get(SPEC) is not None

    # Same root, new code version: must be a miss, old entry untouched.
    new = ResultStore(root=tmp_path, fingerprint="b" * 64)
    assert new.get(SPEC) is None
    new.put(SPEC, cell)
    info = new.info()
    assert len(info["generations"]) == 2
    assert info["entries"] == 2
    assert sum(g["current"] for g in info["generations"]) == 1


def test_corrupt_entry_reads_as_miss_and_is_removed(tmp_path, cell):
    store = ResultStore(root=tmp_path)
    path = store.put(SPEC, cell)
    path.write_text("{not json")
    with pytest.warns(UserWarning, match="corrupt entry"):
        assert store.get(SPEC) is None
    assert not path.exists()
    # Recomputed and re-stored: hits again.
    store.put(SPEC, cell)
    assert store.get(SPEC) is not None


def test_truncated_entry_reads_as_miss(tmp_path, cell):
    store = ResultStore(root=tmp_path)
    path = store.put(SPEC, cell)
    path.write_text(path.read_text()[: path.stat().st_size // 2])
    with pytest.warns(UserWarning, match="corrupt entry"):
        assert store.get(SPEC) is None
    assert not path.exists()


def test_counters_in_info_and_persisted(tmp_path, cell):
    store = ResultStore(root=tmp_path)
    store.get(SPEC)  # miss
    store.put(SPEC, cell)
    store.get(SPEC)  # hit
    counters = store.info()["counters"]
    assert counters["session"] == {"hits": 1, "misses": 1, "puts": 1}
    assert counters["lifetime"]["hits"] == 1
    assert counters["lifetime"]["misses"] == 1
    assert counters["lifetime"]["puts"] == 1
    # Lifetime counters are shared across instances (and processes).
    other = ResultStore(root=tmp_path)
    other.get(SPEC)
    assert other.info()["counters"]["lifetime"]["hits"] == 2
    assert other.info()["counters"]["session"]["hits"] == 1


def test_clear_removes_all_generations(tmp_path, cell):
    ResultStore(root=tmp_path, fingerprint="a" * 64).put(SPEC, cell)
    ResultStore(root=tmp_path, fingerprint="b" * 64).put(SPEC, cell)
    store = ResultStore(root=tmp_path)
    assert store.clear() == 2
    assert store.info()["entries"] == 0
    assert store.clear() == 0  # idempotent, even with no directory content


def test_default_store_honors_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    store = default_store()
    assert store is not None
    assert store.root == tmp_path / "elsewhere"


def test_default_store_disabled_by_no_cache_env(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert default_store() is None


def _put_many(root: str, worker: int, repeats: int) -> None:
    store = ResultStore(root=Path(root), fingerprint="c" * 64)
    for _ in range(repeats):
        store.put(SPEC, {"worker": worker})  # raw payload round-trips


def test_concurrent_puts_same_digest_no_corruption(tmp_path):
    """Two processes hammering one digest: the entry stays valid JSON
    and the lifetime put counter loses no increments (flock'd)."""
    context = multiprocessing.get_context("fork")
    repeats = 20
    workers = [context.Process(target=_put_many,
                               args=(str(tmp_path), i, repeats))
               for i in range(2)]
    for process in workers:
        process.start()
    for process in workers:
        process.join(30)
        assert process.exitcode == 0
    store = ResultStore(root=tmp_path, fingerprint="c" * 64)
    result = store.get(SPEC)
    assert result in ({"worker": 0}, {"worker": 1})
    # The entry file is intact JSON with the full envelope.
    payload = json.loads(store.path_for(SPEC).read_text())
    assert payload["result"]["kind"] == "raw"
    assert store.info()["counters"]["lifetime"]["puts"] == 2 * repeats
    # No orphaned temp files from the atomic-write dance.
    assert not list(store.generation_dir.glob("*.tmp"))


def test_code_fingerprint_stable_in_process():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


def test_fingerprint_covers_every_subpackage():
    """Regression guard for stale fingerprints: every subpackage of
    ``repro`` (including ones added after the store was written, like
    ``repro.staticcheck``) must contribute sources to the fingerprint."""
    import repro

    package_dir = Path(repro.__file__).resolve().parent
    covered = {path.parent for path in fingerprint_sources()}
    subpackages = [directory for directory in package_dir.iterdir()
                   if directory.is_dir() and (directory / "__init__.py").is_file()]
    assert subpackages, "repro has subpackages"
    missing = [str(d) for d in subpackages if d not in covered]
    assert not missing, f"subpackages missing from code fingerprint: {missing}"


def test_fingerprint_tracks_new_subpackage_files(tmp_path):
    """Adding a file anywhere under the package tree changes the
    fingerprint — no hard-coded module list to forget to update."""
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "sub" / "__init__.py").write_text("x = 1\n")
    first = code_fingerprint(package)
    (package / "sub" / "new_module.py").write_text("y = 2\n")
    # Bypass the per-process memo by hashing a copy at a new path.
    import shutil

    clone = tmp_path / "pkg2"
    shutil.copytree(package, clone)
    assert code_fingerprint(clone) != first
