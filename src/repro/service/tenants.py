"""Multi-tenant observation store: shared content, namespaced attribution.

The engine's :class:`~repro.engine.cache.ObservationCache` is purely
content-addressed: the cache key hashes the algorithm fingerprint, label,
run count and base seed, and seed derivation is backend-independent — so a
batch computed for one tenant is *provably* the batch every other tenant
with the same key would compute.  The service therefore keeps one shared
object pool and gives each tenant only a namespace of marker files:

* ``<root>/objects/<name>`` — the JSON batches, stored once.
* ``<root>/tenants/<tenant>/<name>`` — zero-byte markers recording which
  tenants touched which objects (attribution, stats, cleanup).

On top sits an LRU byte-bound: when the pool exceeds ``max_bytes`` the
least-recently-used objects are evicted — except objects currently being
read, which are pinned until the read completes (an eviction racing a
reader must never yield a torn batch).

:class:`TenantObservationCache` adapts one tenant's view of the store to
the engine's cache interface by overriding the persistence hooks
(``read_batch``/``write_batch``); key derivation — the actual cache
contract — stays in the base class.
"""

from __future__ import annotations

import collections
import json
import threading
from pathlib import Path

from repro.engine.cache import ObservationCache, atomic_write_bytes
from repro.multiwalk.observations import RuntimeObservations

__all__ = ["TenantCacheStore", "TenantObservationCache"]


class TenantCacheStore:
    """Shared content-addressed batch pool with per-tenant namespaces.

    Thread-safe: batch reads happen outside the index lock under a pin
    and writes land through an atomic rename, so a slow read or write
    never stalls the whole service (the lock covers bookkeeping and
    eviction unlinks only).
    """

    def __init__(self, root: str | Path, *, max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.tenants_dir = self.root / "tenants"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.tenants_dir.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._pins: collections.Counter[str] = collections.Counter()
        #: name -> size in bytes, least-recently-used first.
        self._lru: collections.OrderedDict[str, int] = collections.OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.cross_tenant_hits = 0
        # Adopt whatever a previous service run left behind (oldest first,
        # so a restart evicts in roughly the original access order).
        for path in sorted(self.objects_dir.iterdir(), key=lambda p: p.stat().st_mtime):
            if path.is_file():
                self._lru[path.name] = path.stat().st_size

    # -- paths ----------------------------------------------------------
    def object_path(self, name: str) -> Path:
        return self.objects_dir / name

    def tenant_dir(self, tenant: str) -> Path:
        path = self.tenants_dir / tenant
        path.mkdir(parents=True, exist_ok=True)
        return path

    # -- metrics --------------------------------------------------------
    def total_bytes(self) -> int:
        with self._lock:
            return sum(self._lru.values())

    def stats(self) -> dict:
        with self._lock:
            return {
                "objects": len(self._lru),
                "total_bytes": sum(self._lru.values()),
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "cross_tenant_hits": self.cross_tenant_hits,
                "tenants": sorted(p.name for p in self.tenants_dir.iterdir() if p.is_dir()),
            }

    # -- core operations ------------------------------------------------
    def load(self, tenant: str, name: str) -> RuntimeObservations | None:
        """Read object ``name`` on behalf of ``tenant`` (``None`` on a miss).

        A hit on an object this tenant never touched counts as a
        *cross-tenant* hit: content another tenant computed, served
        without recomputation.  The object is pinned for the duration of
        the read so concurrent eviction cannot tear it.
        """
        marker = self.tenant_dir(tenant) / name
        path = self.object_path(name)
        with self._lock:
            if name not in self._lru:
                self.misses += 1
                return None
            self.hits += 1
            if not marker.exists():
                self.cross_tenant_hits += 1
            self._pins[name] += 1
            self._lru.move_to_end(name)
        try:
            observations = RuntimeObservations.load(path)
        finally:
            with self._lock:
                self._pins[name] -= 1
                if self._pins[name] <= 0:
                    del self._pins[name]
        marker.touch()
        return observations

    def store(self, tenant: str, name: str, observations: RuntimeObservations) -> Path:
        """Persist a batch into the shared pool and attribute it to ``tenant``."""
        path = self.object_path(name)
        data = json.dumps(observations.to_dict()).encode()
        atomic_write_bytes(path, data)
        size = len(data)
        (self.tenant_dir(tenant) / name).touch()
        with self._lock:
            self._lru[name] = size
            self._lru.move_to_end(name)
            self.stores += 1
            self._evict_locked(keep=name)
        return path

    def _evict_locked(self, keep: str | None = None) -> None:
        """Drop LRU objects until the pool fits ``max_bytes``.

        Pinned objects (mid-read) and the just-stored ``keep`` object are
        skipped; if everything left is pinned the pool may transiently
        exceed the bound — correctness beats the byte budget.
        """
        if self.max_bytes is None:
            return
        total = sum(self._lru.values())
        for name in list(self._lru):
            if total <= self.max_bytes:
                return
            if name == keep or name in self._pins:
                continue
            total -= self._lru.pop(name)
            self.evictions += 1
            self.object_path(name).unlink(missing_ok=True)
            for tenant_dir in self.tenants_dir.iterdir():
                (tenant_dir / name).unlink(missing_ok=True)

    def tenant_cache(
        self, tenant: str, *, prefix: str = "observations"
    ) -> "TenantObservationCache":
        """The engine-facing cache adapter for one tenant."""
        return TenantObservationCache(self, tenant, prefix=prefix)


class TenantObservationCache(ObservationCache):
    """One tenant's view of a :class:`TenantCacheStore`.

    Key derivation (fingerprint → file name) is inherited unchanged from
    :class:`ObservationCache`; only the persistence hooks are rerouted, so
    the engine's ``collect_batch`` transparently reads and writes the
    shared multi-tenant pool.
    """

    def __init__(
        self, store: TenantCacheStore, tenant: str, *, prefix: str = "observations"
    ) -> None:
        super().__init__(store.tenant_dir(tenant), prefix=prefix)
        self.store_backend = store
        self.tenant = tenant

    def read_batch(self, path: Path) -> RuntimeObservations | None:
        return self.store_backend.load(self.tenant, path.name)

    def write_batch(self, observations: RuntimeObservations, path: Path) -> None:
        self.store_backend.store(self.tenant, path.name, observations)
