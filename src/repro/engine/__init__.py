"""Unified parallel execution engine for run campaigns.

Every layer of this package that launches independent Las Vegas runs — the
campaign orchestrator (and through it the experiments and the service),
the scaling study, the CLI and the benchmarks — routes through this
subsystem instead of rolling its own loop or pool:

* :mod:`repro.engine.seeding` — the single deterministic seed-derivation
  primitive (``spawn_seeds``), shared so that runs are identical no matter
  which layer or backend launches them.
* :mod:`repro.engine.backends` — the :class:`BatchExecutor` strategy
  interface with serial, thread-pool and spawn-context process-pool
  implementations, all yielding results as completed and supporting
  cancellation by closing the iterator early.
* :mod:`repro.engine.tasks` — picklable run payloads, the shared worker
  function, and the work-unit protocol dataclasses used by the distributed
  backend.
* :mod:`repro.engine.distributed` — the multi-host backend: a coordinator
  that serves work units to pull-based workers over a line-delimited JSON
  socket protocol (or a filesystem job directory for queue/HPC settings),
  with per-(task, seed-block) work stealing, re-issue on worker death and
  idempotent result dedup.
* :mod:`repro.engine.lockstep` — the SIMD batching backend: whole
  seed-blocks of a lockstep-capable algorithm serviced as single
  vectorised kernel calls (:mod:`repro.sat.vectorized`) in the calling
  process, with a serial fallback for everything else.
* :mod:`repro.engine.progress` — structured per-run progress events.
* :mod:`repro.engine.cache` — content-addressed on-disk cache of collected
  batches, keyed by (solver, config, problem, seed), so repeated campaigns
  are free.
* :mod:`repro.engine.core` — :func:`iter_batch` (the incremental interface:
  ``(index, result)`` pairs streamed as runs finish), :func:`collect_batch`
  (backend-invariant batch collection, reassembled from the stream) and
  :func:`run_race` (first-finisher-wins with deterministic tie-breaking).

The engine's hard invariant: a given ``base_seed`` yields bit-identical
iteration counts on every backend at any worker count — including the
distributed backend, regardless of which host ran which unit.
"""

from repro.engine.backends import (
    BatchExecutor,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    default_worker_count,
    pick_default_backend,
)
from repro.engine.cache import ObservationCache, algorithm_fingerprint
from repro.engine.core import (
    BACKENDS,
    RaceOutcome,
    collect_batch,
    iter_batch,
    iter_runs,
    resolve_backend,
    run_race,
)
from repro.engine.distributed import (
    DistributedBackend,
    ProtocolError,
    UnitLedger,
    WorkerStats,
    execute_unit,
    run_worker,
)
from repro.engine.lockstep import LockstepBackend
from repro.engine.progress import BatchProgress, ProgressCallback
from repro.engine.seeding import spawn_seeds
from repro.engine.tasks import (
    PROTOCOL_VERSION,
    RunTask,
    UnitResult,
    WorkUnit,
    execute_run,
    shard_units,
)

__all__ = [
    "BACKENDS",
    "PROTOCOL_VERSION",
    "BatchExecutor",
    "BatchProgress",
    "DistributedBackend",
    "LockstepBackend",
    "ObservationCache",
    "ProcessBackend",
    "ProgressCallback",
    "ProtocolError",
    "RaceOutcome",
    "RunTask",
    "SerialBackend",
    "ThreadBackend",
    "UnitLedger",
    "UnitResult",
    "WorkUnit",
    "WorkerStats",
    "algorithm_fingerprint",
    "collect_batch",
    "default_worker_count",
    "execute_run",
    "execute_unit",
    "iter_batch",
    "iter_runs",
    "pick_default_backend",
    "resolve_backend",
    "run_race",
    "run_worker",
    "shard_units",
    "spawn_seeds",
]
