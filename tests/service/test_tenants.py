"""The multi-tenant observation store: sharing, eviction, read safety.

ISSUE-9 satellite: LRU eviction respects the byte bound, never evicts an
object mid-read, and a second tenant hitting the same content address is
served from the pool without recomputation.
"""

import threading
import time

import numpy as np
import pytest

from repro.engine.core import collect_batch
from repro.multiwalk.observations import RuntimeObservations
from repro.service.tenants import TenantCacheStore
from repro.solvers.base import LasVegasAlgorithm, RunResult


class CountingAlgorithm(LasVegasAlgorithm):
    """Counts executions so cache hits are distinguishable from re-runs."""

    name = "counting"
    calls = 0

    def _run(self, rng: np.random.Generator) -> RunResult:
        type(self).calls += 1
        return RunResult(solved=True, iterations=int(rng.integers(1, 100)), runtime_seconds=0.0)


def _batch(label: str, n: int = 64) -> RuntimeObservations:
    rng = np.random.default_rng(0)
    return RuntimeObservations(
        label=label,
        iterations=rng.integers(1, 1000, n).astype(float),
        runtimes=np.zeros(n),
        solved=np.ones(n, dtype=bool),
        seeds=np.arange(n, dtype=np.int64),
    )


class TestLRUEviction:
    def test_pool_stays_under_the_byte_bound(self, tmp_path):
        probe = TenantCacheStore(tmp_path / "probe")
        size = probe.store("t", "obj-0.json", _batch("probe")).stat().st_size
        store = TenantCacheStore(tmp_path / "store", max_bytes=3 * size)
        for i in range(8):
            store.store("t", f"obj-{i}.json", _batch(f"b{i}"))
            assert store.total_bytes() <= 3 * size
        assert store.evictions == 5
        # The survivors are the most recently stored.
        names = sorted(p.name for p in store.objects_dir.iterdir())
        assert names == ["obj-5.json", "obj-6.json", "obj-7.json"]

    def test_eviction_is_least_recently_used(self, tmp_path):
        probe = TenantCacheStore(tmp_path / "probe")
        size = probe.store("t", "obj.json", _batch("probe")).stat().st_size
        store = TenantCacheStore(tmp_path / "store", max_bytes=2 * size + size // 2)
        store.store("t", "a.json", _batch("a"))
        store.store("t", "b.json", _batch("b"))
        assert store.load("t", "a.json") is not None  # refresh a's recency
        store.store("t", "c.json", _batch("c"))  # must evict b, not a
        assert store.load("t", "a.json") is not None
        assert store.load("t", "b.json") is None
        assert store.load("t", "c.json") is not None

    def test_eviction_removes_tenant_markers(self, tmp_path):
        probe = TenantCacheStore(tmp_path / "probe")
        size = probe.store("t", "obj.json", _batch("probe")).stat().st_size
        store = TenantCacheStore(tmp_path / "store", max_bytes=size + size // 2)
        store.store("alpha", "a.json", _batch("a"))
        store.store("beta", "b.json", _batch("b"))  # evicts a
        assert not (store.tenant_dir("alpha") / "a.json").exists()

    def test_never_evicts_mid_read(self, tmp_path, monkeypatch):
        """An eviction racing a slow reader must wait for the pin."""
        probe = TenantCacheStore(tmp_path / "probe")
        size = probe.store("t", "obj.json", _batch("probe")).stat().st_size
        store = TenantCacheStore(tmp_path / "store", max_bytes=size + size // 2)
        store.store("t", "slow.json", _batch("slow"))

        in_read = threading.Event()
        release = threading.Event()
        original_load = RuntimeObservations.load

        def slow_load(path):
            in_read.set()
            assert release.wait(timeout=10.0)
            return original_load(path)

        monkeypatch.setattr(RuntimeObservations, "load", staticmethod(slow_load))
        result = {}
        reader = threading.Thread(
            target=lambda: result.update(batch=store.load("t", "slow.json")), daemon=True
        )
        reader.start()
        assert in_read.wait(timeout=10.0)
        monkeypatch.setattr(RuntimeObservations, "load", staticmethod(original_load))
        # Storing another object would evict slow.json (LRU) — but it is
        # pinned by the in-flight read, so the eviction must skip it.
        store.store("t", "new.json", _batch("new"))
        assert store.object_path("slow.json").exists()
        release.set()
        reader.join(timeout=10.0)
        assert result["batch"] is not None and result["batch"].label == "slow"
        # Once the pin is gone the next store may evict it as usual.
        store.store("t", "another.json", _batch("another"))
        assert not store.object_path("slow.json").exists()

    def test_restart_adopts_existing_objects(self, tmp_path):
        first = TenantCacheStore(tmp_path / "store")
        first.store("t", "kept.json", _batch("kept"))
        second = TenantCacheStore(tmp_path / "store")
        assert second.load("t", "kept.json") is not None
        assert second.hits == 1

    def test_interrupted_store_leaves_no_object(self, tmp_path, monkeypatch):
        from pathlib import Path

        store = TenantCacheStore(tmp_path / "store")
        write_bytes = Path.write_bytes

        def torn_bytes(target, data):
            write_bytes(target, data[: len(data) // 2])
            raise KeyboardInterrupt

        monkeypatch.setattr(Path, "write_bytes", torn_bytes)
        with pytest.raises(KeyboardInterrupt):
            store.store("t", "torn.json", _batch("torn"))
        monkeypatch.undo()
        assert list(store.objects_dir.iterdir()) == []
        assert store.load("t", "torn.json") is None
        assert store.stats()["stores"] == 0
        # The next store of the same object lands cleanly.
        store.store("t", "torn.json", _batch("torn"))
        assert store.load("t", "torn.json").label == "torn"

    def test_rejects_nonpositive_bound(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            TenantCacheStore(tmp_path / "store", max_bytes=0)


class TestMultiTenancy:
    def test_cross_tenant_hit_without_recomputation(self, tmp_path):
        """ISSUE-9 satellite: same content address, different tenant — the
        batch is served from the shared pool, the solver never re-runs."""
        store = TenantCacheStore(tmp_path / "store")
        CountingAlgorithm.calls = 0
        first = collect_batch(
            CountingAlgorithm(), 10, base_seed=3, cache=store.tenant_cache("alpha")
        )
        assert CountingAlgorithm.calls == 10
        second = collect_batch(
            CountingAlgorithm(), 10, base_seed=3, cache=store.tenant_cache("beta")
        )
        assert CountingAlgorithm.calls == 10  # no recomputation
        np.testing.assert_array_equal(first.iterations, second.iterations)
        np.testing.assert_array_equal(first.seeds, second.seeds)
        stats = store.stats()
        assert stats["cross_tenant_hits"] == 1
        assert stats["stores"] == 1
        assert sorted(stats["tenants"]) == ["alpha", "beta"]

    def test_same_tenant_hit_is_not_cross_tenant(self, tmp_path):
        store = TenantCacheStore(tmp_path / "store")
        cache = store.tenant_cache("alpha")
        collect_batch(CountingAlgorithm(), 5, base_seed=9, cache=cache)
        collect_batch(CountingAlgorithm(), 5, base_seed=9, cache=cache)
        assert store.stats()["cross_tenant_hits"] == 0
        assert store.stats()["hits"] == 1

    def test_different_keys_are_different_objects(self, tmp_path):
        store = TenantCacheStore(tmp_path / "store")
        cache = store.tenant_cache("alpha")
        collect_batch(CountingAlgorithm(), 5, base_seed=1, cache=cache)
        collect_batch(CountingAlgorithm(), 5, base_seed=2, cache=cache)
        assert store.stats()["objects"] == 2

    def test_markers_record_attribution(self, tmp_path):
        store = TenantCacheStore(tmp_path / "store")
        store.store("alpha", "x.json", _batch("x"))
        store.load("beta", "x.json")
        assert (store.tenant_dir("alpha") / "x.json").exists()
        assert (store.tenant_dir("beta") / "x.json").exists()
        # One object backs both markers.
        assert store.stats()["objects"] == 1


def test_load_miss_is_none_and_counted(tmp_path):
    store = TenantCacheStore(tmp_path / "store")
    assert store.load("t", "absent.json") is None
    assert store.misses == 1
