"""Distributed multi-host execution backend: coordinator + pull-based workers.

The paper's headline experiments use up to 256 cores — more than one host
exposes — so the engine needs to fan a campaign out across machines without
giving up its hard invariant (a given ``base_seed`` yields bit-identical
observations on every backend, at any worker count, no matter which host ran
which unit).  :class:`DistributedBackend` keeps the invariant the same way
the single-host backends do: seeds are pre-derived by the coordinator
(:func:`repro.engine.seeding.spawn_seeds`) before any unit is issued, units
are blocks of *contiguous* payloads, and results are reassembled by payload
position, so scheduling order is invisible to consumers.

Two transports share one protocol (:data:`repro.engine.tasks.PROTOCOL_VERSION`):

* **Socket** — the coordinator listens on ``host:port``; workers connect and
  pull units over line-delimited JSON messages (one JSON object per line,
  UTF-8).  Pickled payloads travel base64-encoded inside the JSON.  The
  message flow::

      worker -> {"type": "hello", "protocol": 2, "worker": "<name>", "token": "..."}
      coord  -> {"type": "welcome", "protocol": 2}        (or "error" + close)
      worker -> {"type": "request"}
      coord  -> {"type": "unit", "unit_id": ..., "payload": <b64 pickle>}
                | {"type": "idle"}                        (retry later)
      worker -> {"type": "heartbeat"}                     (while executing; no reply)
      worker -> {"type": "result", "unit_id": ..., "payload": <b64 pickle>}
                | {"type": "failed", "unit_id": ..., "reason": "..."}

  A coordinator constructed with ``auth_token`` refuses the handshake of any
  worker whose hello does not carry the same token (constant-time compare),
  so a fleet exposed on a shared network only accepts its own workers.
  While a unit executes, the worker's heartbeat thread refreshes the
  coordinator-side lease of every unit it holds: slow-but-alive workers are
  never speculatively re-issued, while a wedged (or killed) worker's units
  go stale within ``lease_seconds`` and are re-issued to the rest of the
  fleet — result dedup on ``unit_id`` keeps re-issues idempotent either way.

  A worker that dies mid-unit drops its connection; the coordinator requeues
  every unit checked out on that connection, and speculatively re-issues
  units outstanding past ``lease_seconds`` to idle workers (straggler
  re-execution).  Results are deduplicated on ``unit_id``, so a unit that
  was re-issued and completed twice is counted once.  A payload that raises
  is reported as ``failed`` (the worker survives), retried up to
  ``max_unit_failures`` times, then fails the batch loudly.  Workers exit
  when the coordinator closes the connection (end of campaign) and
  idle-poll between batches of the same campaign.

* **Job directory** — for queue/HPC settings where sockets are awkward, the
  coordinator drops pickled unit files into a shared directory and polls for
  result files; workers claim units by exclusive creation of a claim file,
  write results atomically (``os.replace``), and exit when the coordinator
  writes a ``STOP`` marker (a stale marker from a previous campaign in a
  reused directory is ignored until the worker's connect grace expires).
  Workers heartbeat their claim's mtime on a timer while executing; claims
  gone stale for ``lease_seconds`` belong to dead workers and are deleted
  by the coordinator, re-issuing the unit.  Crashing payloads leave
  ``errors/`` files that bound retries exactly like the socket path.
  First result file wins, which is an idempotent dedup because unit results
  are deterministic.

Both transports ship pickles, so — exactly like :mod:`multiprocessing` —
they assume a trusted cluster: never expose a coordinator to an untrusted
network.

Workers run units through the existing per-host backends (``serial``,
``thread`` or ``process``) and, when given a shared ``cache_dir``, read and
write a content-addressed unit-result cache under ``<cache_dir>/units/`` so
repeated or re-issued units are free across the fleet.
"""

from __future__ import annotations

import base64
import collections
import dataclasses
import hmac
import json
import os
import pickle
import queue
import re
import socket
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.engine.backends import BatchExecutor, SerialBackend
from repro.engine.cache import atomic_write_bytes
from repro.engine.tasks import PROTOCOL_VERSION, UnitResult, WorkUnit, shard_units

__all__ = [
    "DistributedBackend",
    "ProtocolError",
    "UnitLedger",
    "WorkerStats",
    "execute_unit",
    "run_worker",
]


class ProtocolError(RuntimeError):
    """Coordinator and worker disagree about the wire protocol."""


# ----------------------------------------------------------------------
# Wire format: one JSON object per line; pickles travel base64-encoded.
# ----------------------------------------------------------------------
def _encode(obj: Any) -> str:
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def _decode(text: str) -> Any:
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def _send(stream, message: dict) -> None:
    stream.write((json.dumps(message) + "\n").encode("utf-8"))
    stream.flush()


def _recv(stream) -> dict | None:
    line = stream.readline()
    if not line:
        return None
    return json.loads(line.decode("utf-8"))


def _parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"coordinator address must be HOST:PORT, got {address!r}")
    return host, int(port)


def _filename_safe(name: str) -> str:
    """Collapse a worker name to filesystem-safe characters.

    Worker names are user-supplied (``--name team/alpha``) or default to
    ``host:pid``; both can contain separators that must not leak into file
    paths used for failure accounting.
    """
    return re.sub(r"[^A-Za-z0-9._-]", "_", name) or "worker"


# ----------------------------------------------------------------------
# Unit bookkeeping shared by both transports
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _UnitFailure:
    """Terminal failure marker a ledger emits after exhausting a unit's retries."""

    unit_id: str
    reason: str


class UnitLedger:
    """Thread-safe pending/outstanding/completed bookkeeping for one batch.

    The ledger is the coordinator's single source of truth: units are checked
    out to an owner, requeued when the owner dies, and completed exactly once
    — a second result for the same ``unit_id`` (re-issued unit finishing
    twice, duplicate submission) is dropped, which is what makes worker
    failure handling idempotent.

    With ``lease_seconds`` set, a drained ledger speculatively re-issues the
    longest-outstanding unit to an idle worker (classic straggler
    re-execution): a hung-but-still-connected worker then only costs one
    redundant execution, which the dedup absorbs.  Units whose execution
    *raises* are retried up to ``max_failures`` times and then surfaced as a
    :class:`_UnitFailure` on the results queue, so a deterministic crash
    fails the batch loudly instead of crash-looping the fleet forever.
    """

    def __init__(
        self,
        units: Sequence[WorkUnit],
        *,
        lease_seconds: float | None = None,
        max_failures: int = 3,
    ) -> None:
        self._units = {unit.unit_id: unit for unit in units}
        if len(self._units) != len(units):
            raise ValueError("unit ids must be unique within a batch")
        self._pending = collections.deque(units)
        self._outstanding: dict[str, set[str]] = {}  # unit_id -> live owners
        self._issued_at: dict[str, float] = {}
        self._failures: dict[str, int] = {}
        self._completed: set[str] = set()
        self._cancelled = False
        self._lock = threading.Lock()
        self.lease_seconds = lease_seconds
        self.max_failures = max_failures
        #: Completed unit results (and terminal ``_UnitFailure`` markers),
        #: in completion order (consumer side).
        self.results: queue.Queue = queue.Queue()
        #: Units handed out again after their owner died or went stale.
        self.reissues = 0

    @property
    def n_units(self) -> int:
        return len(self._units)

    @property
    def done(self) -> bool:
        with self._lock:
            return len(self._completed) == len(self._units)

    def checkout(self, owner: str) -> WorkUnit | None:
        """Hand the next pending unit to ``owner`` (``None`` when drained).

        When the pending queue is empty but units are still outstanding past
        their lease, the oldest such unit is re-issued to ``owner`` as well —
        if the original worker is merely slow, the duplicate result is
        deduplicated; if it hung, the batch still completes.
        """
        with self._lock:
            if self._cancelled:
                return None
            if self._pending:
                unit = self._pending.popleft()
                self._outstanding[unit.unit_id] = {owner}
                self._issued_at[unit.unit_id] = time.monotonic()
                return unit
            if self.lease_seconds is None or not self._outstanding:
                return None
            stale_id = min(self._outstanding, key=lambda uid: self._issued_at[uid])
            if time.monotonic() - self._issued_at[stale_id] < self.lease_seconds:
                return None
            self._outstanding[stale_id].add(owner)
            self._issued_at[stale_id] = time.monotonic()  # throttle re-issues
            self.reissues += 1
            return self._units[stale_id]

    def requeue(self, unit_id: str, owner: str | None = None) -> bool:
        """Return a checked-out unit to the pending queue (its owner died).

        With ``owner`` given, only that owner's hold is released; the unit is
        requeued when no other worker still has it in flight.  Without
        ``owner`` the unit is requeued unconditionally.
        """
        with self._lock:
            if unit_id in self._completed or unit_id not in self._outstanding:
                return False
            if owner is not None:
                owners = self._outstanding[unit_id]
                owners.discard(owner)
                if owners:
                    return False  # a speculative copy is still running
            self._outstanding.pop(unit_id)
            self._issued_at.pop(unit_id, None)
            self._pending.append(self._units[unit_id])
            self.reissues += 1
            return True

    def release_owner(self, owner: str) -> int:
        """Requeue every unit currently checked out (only) to ``owner``."""
        with self._lock:
            held = [uid for uid, owners in self._outstanding.items() if owner in owners]
        return sum(self.requeue(uid, owner) for uid in held)

    def touch(self, owner: str) -> int:
        """Refresh the lease of every unit ``owner`` holds (worker heartbeat).

        Returns how many outstanding units were refreshed.  A heartbeating
        worker on a slow unit therefore never trips the speculative
        re-issue, no matter how heavy-tailed the run.
        """
        now = time.monotonic()
        with self._lock:
            held = [uid for uid, owners in self._outstanding.items() if owner in owners]
            for uid in held:
                self._issued_at[uid] = now
        return len(held)

    def complete(self, result: UnitResult) -> bool:
        """Record a finished unit; ``False`` for duplicates or unknown ids."""
        with self._lock:
            unit_id = result.unit_id
            if self._cancelled or unit_id not in self._units or unit_id in self._completed:
                return False
            self._completed.add(unit_id)
            self._outstanding.pop(unit_id, None)
            self._issued_at.pop(unit_id, None)
        self.results.put(result)
        return True

    def fail(self, unit_id: str, reason: str, owner: str | None = None) -> bool:
        """Record a failed execution attempt; retry or give up.

        Returns ``True`` while the unit will be retried; on the
        ``max_failures``-th failure the unit is marked completed and a
        :class:`_UnitFailure` is emitted so the consumer can raise.
        """
        with self._lock:
            if self._cancelled or unit_id not in self._units or unit_id in self._completed:
                return False
            count = self._failures[unit_id] = self._failures.get(unit_id, 0) + 1
            if count >= self.max_failures:
                self._completed.add(unit_id)
                self._outstanding.pop(unit_id, None)
                self._issued_at.pop(unit_id, None)
                give_up = True
            else:
                give_up = False
        if give_up:
            self.results.put(_UnitFailure(unit_id=unit_id, reason=reason))
            return False
        self.requeue(unit_id, owner)
        return True

    def cancel(self) -> None:
        """Stop issuing and accepting units (batch abandoned early)."""
        with self._lock:
            self._cancelled = True
            self._pending.clear()
            self._outstanding.clear()
            self._issued_at.clear()


# ----------------------------------------------------------------------
# Worker-side execution (deterministic in-unit ordering + shared cache)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _PositionedCall:
    """Payload wrapper carrying its in-unit position through any backend."""

    fn: Callable[[Any], Any]
    position: int
    payload: Any


def _execute_positioned(call: _PositionedCall) -> tuple[int, Any]:
    return call.position, call.fn(call.payload)


def execute_unit(unit: WorkUnit, executor: BatchExecutor | None = None) -> UnitResult:
    """Run one unit on a local backend, returning values in payload order.

    The local backend may complete payloads out of order; values are
    reassembled by position so a unit's result is byte-identical no matter
    which backend (or host) executed it.
    """
    executor = executor or SerialBackend()
    calls = [
        _PositionedCall(unit.fn, position, payload)
        for position, payload in enumerate(unit.payloads)
    ]
    values: list[Any] = [None] * len(calls)
    for position, value in executor.imap_unordered(_execute_positioned, calls):
        values[position] = value
    return UnitResult(unit_id=unit.unit_id, values=tuple(values))


def _unit_cache_path(cache_dir: str | Path, unit: WorkUnit) -> Path:
    return Path(cache_dir) / "units" / f"unit-{unit.fingerprint()}.pkl"


def _execute_unit_cached(
    unit: WorkUnit,
    executor: BatchExecutor | None,
    cache_dir: str | Path | None,
    stats: "WorkerStats",
) -> UnitResult:
    """Execute a unit, consulting the shared unit-result cache when present."""
    path = _unit_cache_path(cache_dir, unit) if cache_dir is not None else None
    if path is not None and path.exists():
        values = pickle.loads(path.read_bytes())
        stats.cache_hits += 1
        result = UnitResult(unit_id=unit.unit_id, values=tuple(values))
    else:
        result = execute_unit(unit, executor)
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(path, pickle.dumps(list(result.values)))
    stats.units_completed += 1
    stats.runs_completed += len(result.values)
    return result


# ----------------------------------------------------------------------
# Socket transport: coordinator server
# ----------------------------------------------------------------------
class _CoordinatorServer:
    """Listening socket serving units to pull-based workers.

    The server outlives individual batches: one campaign runs several
    batches through the same backend instance, and workers stay connected
    (idle-polling) in between.  ``set_ledger`` installs the active batch.
    """

    def __init__(self, host: str, port: int, auth_token: str | None = None) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen()
        self._sock.settimeout(0.2)  # lets the accept loop notice close()
        self._auth_token = auth_token
        self.host, self.port = self._sock.getsockname()[:2]
        self._ledger: UnitLedger | None = None
        self._ledger_lock = threading.Lock()
        self._closed = threading.Event()
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-coordinator-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def set_ledger(self, ledger: UnitLedger | None) -> None:
        with self._ledger_lock:
            if ledger is not None and self._ledger is not None:
                # One ledger slot: silently evicting an in-flight batch would
                # leave its consumer blocked forever on an empty results queue.
                raise RuntimeError(
                    "a DistributedBackend serves one batch at a time; run "
                    "concurrent batches on separate backend instances"
                )
            self._ledger = ledger

    def _current_ledger(self) -> UnitLedger | None:
        with self._ledger_lock:
            return self._ledger

    def _accept_loop(self) -> None:
        counter = 0
        while not self._closed.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            counter += 1
            with self._connections_lock:
                if self._closed.is_set():
                    conn.close()
                    continue
                self._connections.add(conn)
            threading.Thread(
                target=self._handle_client,
                args=(conn, f"conn-{counter}"),
                name=f"repro-coordinator-{counter}",
                daemon=True,
            ).start()

    def _handle_client(self, conn: socket.socket, owner: str) -> None:
        checked_out: dict[str, UnitLedger] = {}
        stream = conn.makefile("rwb")
        try:
            hello = _recv(stream)
            if hello is None or hello.get("type") != "hello":
                _send(stream, {"type": "error", "reason": "expected a hello message"})
                return
            if hello.get("protocol") != PROTOCOL_VERSION:
                _send(
                    stream,
                    {
                        "type": "error",
                        "protocol": PROTOCOL_VERSION,
                        "reason": (
                            f"protocol version mismatch: coordinator speaks "
                            f"{PROTOCOL_VERSION}, worker announced {hello.get('protocol')!r}"
                        ),
                    },
                )
                return
            if self._auth_token is not None and not hmac.compare_digest(
                str(hello.get("token") or ""), self._auth_token
            ):
                # Constant-time compare; the reason deliberately does not
                # reveal whether the token was missing or merely wrong.
                _send(
                    stream,
                    {
                        "type": "error",
                        "reason": "authentication failed: bad or missing worker token",
                    },
                )
                return
            _send(stream, {"type": "welcome", "protocol": PROTOCOL_VERSION})
            while not self._closed.is_set():
                message = _recv(stream)
                if message is None:
                    break
                if message["type"] == "heartbeat":
                    # Refresh the lease of every unit this connection holds;
                    # heartbeats are fire-and-forget (no reply), so they can
                    # interleave with the request/response flow freely.
                    ledger = self._current_ledger()
                    if ledger is not None:
                        ledger.touch(owner)
                elif message["type"] == "request":
                    ledger = self._current_ledger()
                    unit = ledger.checkout(owner) if ledger is not None else None
                    if unit is None:
                        _send(stream, {"type": "idle"})
                    else:
                        checked_out[unit.unit_id] = ledger
                        _send(
                            stream,
                            {
                                "type": "unit",
                                "unit_id": unit.unit_id,
                                "payload": _encode(unit),
                            },
                        )
                elif message["type"] == "result":
                    result = _decode(message["payload"])
                    ledger = checked_out.pop(result.unit_id, None) or self._current_ledger()
                    if ledger is not None:
                        ledger.complete(result)  # dedups on unit_id
                elif message["type"] == "failed":
                    unit_id = message["unit_id"]
                    ledger = checked_out.pop(unit_id, None) or self._current_ledger()
                    if ledger is not None:
                        # Retry on another worker; after max_failures the
                        # ledger surfaces the failure to the batch consumer.
                        ledger.fail(unit_id, message.get("reason", "unknown"), owner)
                else:
                    _send(
                        stream,
                        {"type": "error", "reason": f"unknown message type {message['type']!r}"},
                    )
                    break
        except (OSError, ValueError, EOFError, json.JSONDecodeError, KeyError):
            pass  # broken client: drop the connection, requeue its units below
        finally:
            # A dead worker's outstanding units go back to the queue so the
            # rest of the fleet absorbs them (work stealing on failure).
            for unit_id, ledger in checked_out.items():
                ledger.requeue(unit_id, owner)
            try:
                stream.close()
            except OSError:
                pass
            conn.close()
            with self._connections_lock:
                self._connections.discard(conn)

    def close(self) -> None:
        self._closed.set()
        self._sock.close()
        with self._connections_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        self._accept_thread.join(timeout=2.0)


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
class DistributedBackend(BatchExecutor):
    """Run batches on external worker processes, possibly on other hosts.

    Exactly one transport must be configured:

    ``coordinator="HOST:PORT"``
        Bind a coordinator socket at that address (``HOST:0`` picks a free
        port, see :meth:`start`); workers connect with
        ``repro-lasvegas worker --connect HOST:PORT``.
    ``job_dir="DIR"``
        Use a shared filesystem directory instead of sockets; workers run
        ``repro-lasvegas worker --job-dir DIR``.

    The backend is an ordinary :class:`BatchExecutor`: ``collect_batch`` and
    ``run_race`` route through it unchanged, and the engine invariant holds
    because seeds are derived before sharding and results are reassembled by
    payload index.  Worker count is whatever connects — pass ``workers`` as
    ``None`` (anything else is rejected, there is no local pool to size).
    One instance serves its batches sequentially (campaigns do exactly
    that); overlapping ``imap_unordered`` calls on the same instance raise
    — use separate instances for concurrent batches.
    """

    name = "distributed"

    def __init__(
        self,
        *,
        coordinator: str | None = None,
        job_dir: str | Path | None = None,
        workers: int | None = None,
        unit_size: int = 4,
        poll_interval: float = 0.05,
        lease_seconds: float = 30.0,
        batch_timeout: float | None = None,
        max_unit_failures: int = 3,
        auth_token: str | None = None,
    ) -> None:
        if workers is not None:
            raise ValueError(
                "the distributed backend has no local pool to size; worker count "
                "is however many 'repro-lasvegas worker' processes connect"
            )
        if (coordinator is None) == (job_dir is None):
            raise ValueError(
                "the distributed backend needs exactly one transport: "
                "coordinator='HOST:PORT' (socket) or job_dir='DIR' (filesystem) "
                "— on the CLI, pass --coordinator or --job-dir"
            )
        if unit_size < 1:
            raise ValueError(f"unit_size must be >= 1, got {unit_size}")
        if auth_token is not None and coordinator is None:
            raise ValueError(
                "auth_token applies to the socket transport only; the job "
                "directory's trust boundary is its filesystem permissions"
            )
        self.coordinator = coordinator
        self.job_dir = Path(job_dir) if job_dir is not None else None
        self.auth_token = auth_token
        self.unit_size = unit_size
        self.poll_interval = poll_interval
        self.lease_seconds = lease_seconds
        self.batch_timeout = batch_timeout
        self.max_unit_failures = max_unit_failures
        self._server: _CoordinatorServer | None = None
        self._batch_counter = 0
        self._closed = False
        #: Job-directory claims re-issued after lease expiry (observability;
        #: the socket transport tracks re-issues on each batch's UnitLedger).
        self.reissues = 0
        # Unique per-coordinator token baked into every task id: without it,
        # two campaigns reusing one job directory would collide on
        # "batch-0001" and the second would consume the first's stale result
        # files (or hang on its DONE marker).
        self._run_token = uuid.uuid4().hex[:8]

    # -- lifecycle ------------------------------------------------------
    def start(self) -> str:
        """Start serving (bind the socket / initialise the job directory).

        Called implicitly by the first batch; calling it eagerly is useful
        to learn the actual address when binding port 0.  Returns the
        coordinator address (socket mode) or the job directory path.
        """
        if self._closed:
            raise RuntimeError("this DistributedBackend has been shut down")
        if self.coordinator is not None:
            if self._server is None:
                host, port = _parse_address(self.coordinator)
                self._server = _CoordinatorServer(host, port, auth_token=self.auth_token)
            return self._server.address
        self._init_job_dir()
        return str(self.job_dir)

    def shutdown(self, *, drain_seconds: float = 0.0) -> None:
        """Stop serving: close worker connections / write the STOP marker.

        Connected socket workers see EOF and exit; job-directory workers see
        ``STOP`` and exit once no claimable work remains.  Idempotent.

        ``drain_seconds`` > 0 waits (up to that long) for the in-flight
        batch's ledger to finish before closing, so a service shutting down
        does not sever workers mid-unit when the remaining work is almost
        done.  The default tears down immediately, as before.
        """
        if self._closed:
            return
        if drain_seconds > 0 and self._server is not None:
            deadline = time.monotonic() + drain_seconds
            while time.monotonic() < deadline:
                ledger = self._server._current_ledger()
                if ledger is None or ledger.done:
                    break
                time.sleep(min(0.05, self.poll_interval))
        self._closed = True
        if self._server is not None:
            self._server.close()
            self._server = None
        if self.job_dir is not None and self.job_dir.exists():
            (self.job_dir / "STOP").touch()

    def __enter__(self) -> "DistributedBackend":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def describe(self) -> str:
        transport = (
            f"coordinator={self.coordinator}"
            if self.coordinator is not None
            else f"job_dir={self.job_dir}"
        )
        return f"{self.name}[{transport}]"

    # -- BatchExecutor interface ---------------------------------------
    def imap_unordered(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        chunksize: int | None = None,
    ) -> Iterator[Any]:
        payloads = list(payloads)
        if not payloads:
            return iter(())
        self.start()
        self._batch_counter += 1
        task_id = f"run-{self._run_token}-batch-{self._batch_counter:04d}"
        unit_size = self.unit_size if chunksize is None else max(1, chunksize)
        units = shard_units(fn, payloads, task_id=task_id, unit_size=unit_size)
        if self.coordinator is not None:
            return self._iter_socket_results(units)
        return self._iter_job_dir_results(units)

    # -- socket transport ----------------------------------------------
    def _iter_socket_results(self, units: list[WorkUnit]) -> Iterator[Any]:
        server = self._server
        assert server is not None  # start() ran in imap_unordered
        ledger = UnitLedger(
            units, lease_seconds=self.lease_seconds, max_failures=self.max_unit_failures
        )
        server.set_ledger(ledger)
        try:
            completed = 0
            deadline = self._new_deadline()
            while completed < len(units):
                try:
                    result = ledger.results.get(timeout=0.2)
                except queue.Empty:
                    self._check_deadline(deadline, f"{len(units) - completed} units pending")
                    continue
                if isinstance(result, _UnitFailure):
                    raise RuntimeError(
                        f"unit {result.unit_id} failed on {self.max_unit_failures} "
                        f"workers, last error: {result.reason}"
                    )
                completed += 1
                deadline = self._new_deadline()
                yield from result.values
        finally:
            server.set_ledger(None)
            ledger.cancel()  # late results from cancelled batches are dropped

    def _new_deadline(self) -> float | None:
        return None if self.batch_timeout is None else time.monotonic() + self.batch_timeout

    def _check_deadline(self, deadline: float | None, detail: str) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise RuntimeError(
                f"distributed batch made no progress for {self.batch_timeout:g}s "
                f"({detail}); are any workers connected?"
            )

    # -- job-directory transport ---------------------------------------
    def _init_job_dir(self) -> None:
        assert self.job_dir is not None
        self.job_dir.mkdir(parents=True, exist_ok=True)
        meta_path = self.job_dir / "meta.json"
        if meta_path.exists():
            meta = json.loads(meta_path.read_text())
            if meta.get("protocol") != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"job directory {self.job_dir} uses protocol "
                    f"{meta.get('protocol')!r}, this coordinator speaks {PROTOCOL_VERSION}"
                )
        # (Re)write the metadata so a reused directory reflects *this*
        # coordinator's configuration, not the first-ever campaign's.
        atomic_write_bytes(
            meta_path,
            json.dumps(
                {
                    "protocol": PROTOCOL_VERSION,
                    "max_unit_failures": self.max_unit_failures,
                    "lease_seconds": self.lease_seconds,
                }
            ).encode("utf-8"),
        )
        # Clear a previous campaign's shutdown marker, or freshly launched
        # workers would exit on their first idle scan and this campaign
        # would wait for them forever.
        try:
            (self.job_dir / "STOP").unlink()
        except OSError:
            pass

    def _batch_dir(self, task_id: str) -> Path:
        assert self.job_dir is not None
        return self.job_dir / "batches" / task_id

    def _iter_job_dir_results(self, units: list[WorkUnit]) -> Iterator[Any]:
        batch_dir = self._batch_dir(units[0].task_id)
        for sub in ("units", "claims", "results", "errors"):
            (batch_dir / sub).mkdir(parents=True, exist_ok=True)
        for unit in units:
            path = batch_dir / "units" / f"{unit.block_index:05d}.unit"
            atomic_write_bytes(path, pickle.dumps(unit))
        pending = {unit.block_index: unit for unit in units}
        try:
            deadline = self._new_deadline()
            while pending:
                progressed = False
                for block_index in sorted(pending):
                    result_path = batch_dir / "results" / f"{block_index:05d}.result"
                    if not result_path.exists():
                        continue
                    values = pickle.loads(result_path.read_bytes())
                    pending.pop(block_index)
                    progressed = True
                    deadline = self._new_deadline()
                    yield from values
                if pending and not progressed:
                    self._raise_on_exhausted_units(batch_dir, pending)
                    self._reissue_stale_claims(batch_dir, pending)
                    self._check_deadline(deadline, f"{len(pending)} units pending")
                    time.sleep(self.poll_interval)
        finally:
            # DONE even on early close, so workers stop scanning this batch.
            (batch_dir / "DONE").touch()

    def _raise_on_exhausted_units(self, batch_dir: Path, pending: dict[int, WorkUnit]) -> None:
        """Fail the batch when a unit has crashed on max_unit_failures workers.

        Each failed execution leaves one ``errors/{block}.{attempt-id}.error``
        file; a unit accumulating ``max_unit_failures`` of them is
        deterministically broken, and polling forever would hide it.
        """
        for block_index in pending:
            errors = sorted((batch_dir / "errors").glob(f"{block_index:05d}.*.error"))
            if len(errors) >= self.max_unit_failures:
                reason = errors[-1].read_text(errors="replace").strip()
                raise RuntimeError(
                    f"unit {pending[block_index].unit_id} failed on "
                    f"{len(errors)} workers, last error: {reason}"
                )

    def _reissue_stale_claims(self, batch_dir: Path, pending: dict[int, WorkUnit]) -> None:
        """Delete claims whose worker produced no result within the lease.

        Workers heartbeat their claim's mtime on a timer while executing, so
        a stale claim means a dead (or wedged) worker, not a slow unit.
        Deleting the claim lets any live worker re-claim the unit; if the
        original worker was merely slow and both finish, the atomic result
        rename makes the duplicate invisible (identical deterministic bytes).
        """
        now = time.time()
        for block_index in pending:
            claim_path = batch_dir / "claims" / f"{block_index:05d}.claim"
            try:
                age = now - claim_path.stat().st_mtime
            except OSError:
                continue  # unclaimed (or just completed): nothing to re-issue
            if age > self.lease_seconds:
                try:
                    claim_path.unlink()
                    self.reissues += 1
                except OSError:
                    pass


# ----------------------------------------------------------------------
# Worker entry point (used by `repro-lasvegas worker` and by tests)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class WorkerStats:
    """What one worker session accomplished (printed by the CLI on exit).

    ``units_completed``/``runs_completed`` count every unit resolved and
    submitted, including those served from the shared unit cache;
    ``cache_hits`` is the subset that skipped execution.
    """

    units_completed: int = 0
    runs_completed: int = 0
    cache_hits: int = 0


def run_worker(
    *,
    coordinator: str | None = None,
    job_dir: str | Path | None = None,
    executor: BatchExecutor | None = None,
    cache_dir: str | Path | None = None,
    poll_interval: float = 0.2,
    connect_timeout: float = 30.0,
    max_units: int | None = None,
    name: str | None = None,
    token: str | None = None,
    heartbeat_seconds: float = 5.0,
) -> WorkerStats:
    """Pull and execute work units until the coordinator shuts down.

    Parameters
    ----------
    coordinator, job_dir:
        Exactly one transport: the coordinator's ``HOST:PORT``, or the
        shared job directory.
    executor:
        Local backend units run through (default: :class:`SerialBackend`).
        Must be a per-host backend, not another :class:`DistributedBackend`.
        Note that :class:`ProcessBackend` builds its spawn pool per unit, so
        it only pays off when the coordinator's ``unit_size`` is large
        enough to amortise pool startup (seconds, mostly numpy imports).
    cache_dir:
        Shared observation-cache directory; unit results are read/written
        under ``<cache_dir>/units/`` so re-issued or repeated units are free.
    poll_interval:
        Sleep between polls while idle (socket: between ``request`` retries;
        job dir: between directory scans).
    connect_timeout:
        How long to keep retrying the initial connection (socket mode) or
        waiting for ``meta.json`` to appear (job-dir mode) — lets workers
        start before the coordinator.
    max_units:
        Stop after completing this many units (mostly for tests).
    name:
        Worker name announced to the coordinator (default: ``host:pid``).
    token:
        Shared secret sent in the socket handshake.  A coordinator started
        with an ``auth_token`` refuses workers whose token does not match;
        socket transport only (the job directory's trust boundary is its
        filesystem permissions).
    heartbeat_seconds:
        Cadence of ``heartbeat`` messages sent while a unit executes
        (socket mode), refreshing the coordinator's leases on this worker's
        units so long-running units are not speculatively re-issued.
        ``0`` disables heartbeats (the pre-v2 behaviour).
    """
    if (coordinator is None) == (job_dir is None):
        raise ValueError("run_worker needs exactly one of coordinator= or job_dir=")
    if token is not None and coordinator is None:
        raise ValueError("token= applies to the socket transport, not job_dir=")
    if isinstance(executor, DistributedBackend):
        raise ValueError("workers must run units on a per-host backend, not 'distributed'")
    stats = WorkerStats()
    worker_name = name or f"{socket.gethostname()}:{os.getpid()}"
    if coordinator is not None:
        _socket_worker_loop(
            coordinator, executor, cache_dir, stats, poll_interval, connect_timeout,
            max_units, worker_name, token, heartbeat_seconds,
        )
    else:
        _job_dir_worker_loop(
            Path(job_dir), executor, cache_dir, stats, poll_interval, connect_timeout,
            max_units, worker_name,
        )
    return stats


def _connect_with_retry(address: str, connect_timeout: float) -> socket.socket:
    host, port = _parse_address(address)
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            return socket.create_connection((host, port), timeout=connect_timeout)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.1)


def _socket_worker_loop(
    coordinator: str,
    executor: BatchExecutor | None,
    cache_dir: str | Path | None,
    stats: WorkerStats,
    poll_interval: float,
    connect_timeout: float,
    max_units: int | None,
    worker_name: str,
    token: str | None = None,
    heartbeat_seconds: float = 5.0,
) -> None:
    conn = _connect_with_retry(coordinator, connect_timeout)
    conn.settimeout(None)
    stream = conn.makefile("rwb")
    # The heartbeat thread and the main loop share one socket; every write
    # must hold this lock so messages never interleave mid-line.
    write_lock = threading.Lock()

    def send(message: dict) -> None:
        with write_lock:
            _send(stream, message)

    try:
        hello = {"type": "hello", "protocol": PROTOCOL_VERSION, "worker": worker_name}
        if token is not None:
            hello["token"] = token
        _send(stream, hello)
        reply = _recv(stream)
        if reply is None:
            return  # coordinator went away before the handshake finished
        if reply.get("type") == "error":
            raise ProtocolError(reply.get("reason", "coordinator rejected the handshake"))
        if reply.get("type") != "welcome":
            raise ProtocolError(f"unexpected handshake reply: {reply!r}")
        completed = 0
        while max_units is None or completed < max_units:
            send({"type": "request"})
            message = _recv(stream)
            if message is None:
                break  # clean shutdown: the coordinator closed the connection
            if message["type"] == "idle":
                time.sleep(poll_interval)
                continue
            if message["type"] == "error":
                raise ProtocolError(message.get("reason", "coordinator error"))
            unit: WorkUnit = _decode(message["payload"])
            # While the unit executes, a side thread heartbeats so the
            # coordinator keeps refreshing this worker's leases instead of
            # speculatively re-issuing a long unit to someone else.
            hb_stop = threading.Event()
            hb_thread: threading.Thread | None = None
            if heartbeat_seconds > 0:

                def heartbeat_loop(stop: threading.Event = hb_stop) -> None:
                    while not stop.wait(heartbeat_seconds):
                        try:
                            send({"type": "heartbeat", "worker": worker_name})
                        except OSError:
                            return  # connection gone; the main loop will notice

                hb_thread = threading.Thread(
                    target=heartbeat_loop, name=f"heartbeat-{worker_name}", daemon=True
                )
                hb_thread.start()
            try:
                result = _execute_unit_cached(unit, executor, cache_dir, stats)
            except Exception as exc:
                # A crashing payload must not kill the worker: report the
                # failure so the coordinator can retry elsewhere (and give
                # up loudly after max_unit_failures), then keep serving.
                hb_stop.set()
                if hb_thread is not None:
                    hb_thread.join()
                send({"type": "failed", "unit_id": unit.unit_id, "reason": repr(exc)})
                continue
            hb_stop.set()
            if hb_thread is not None:
                hb_thread.join()
            send({"type": "result", "unit_id": result.unit_id, "payload": _encode(result)})
            completed += 1
    except (BrokenPipeError, ConnectionResetError):
        pass  # coordinator died mid-session; our units will be re-issued
    finally:
        try:
            stream.close()
        except OSError:
            pass
        conn.close()


def _job_dir_worker_loop(
    job_dir: Path,
    executor: BatchExecutor | None,
    cache_dir: str | Path | None,
    stats: WorkerStats,
    poll_interval: float,
    connect_timeout: float,
    max_units: int | None,
    worker_name: str,
) -> None:
    meta_path = job_dir / "meta.json"
    start_wall = time.time()
    deadline = time.monotonic() + connect_timeout
    while not meta_path.exists():
        if time.monotonic() >= deadline:
            raise FileNotFoundError(
                f"no coordinator metadata at {meta_path} after {connect_timeout:g}s"
            )
        time.sleep(0.1)
    meta = json.loads(meta_path.read_text())
    if meta.get("protocol") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"job directory {job_dir} uses protocol {meta.get('protocol')!r}, "
            f"this worker speaks {PROTOCOL_VERSION}"
        )
    max_failures = int(meta.get("max_unit_failures", 3))
    lease_seconds = float(meta.get("lease_seconds", 30.0))
    safe_name = _filename_safe(worker_name)
    completed = 0
    while max_units is None or completed < max_units:
        did_work = False
        for batch_dir in sorted(p for p in (job_dir / "batches").glob("*") if p.is_dir()):
            if (batch_dir / "DONE").exists():
                continue
            for unit_path in sorted((batch_dir / "units").glob("*.unit")):
                block = unit_path.stem
                result_path = batch_dir / "results" / f"{block}.result"
                if result_path.exists():
                    continue
                # A unit that already crashed max_unit_failures times is the
                # coordinator's to fail; retrying it again only burns time.
                attempts = len(list((batch_dir / "errors").glob(f"{block}.*.error")))
                if attempts >= max_failures:
                    continue
                claim_path = batch_dir / "claims" / f"{block}.claim"
                try:
                    with open(claim_path, "x") as claim:
                        claim.write(json.dumps({"worker": worker_name, "time": time.time()}))
                except FileExistsError:
                    continue  # another worker owns (or owned) this unit

                # Heartbeat the claim's mtime on a timer for as long as the
                # unit runs, so the coordinator's lease only expires claims
                # of dead workers — never of live workers on slow units
                # (heavy-tailed runs routinely outlast any fixed lease).
                stop_heartbeat = threading.Event()

                def heartbeat_loop(
                    path: Path = claim_path, stop: threading.Event = stop_heartbeat
                ) -> None:
                    while not stop.wait(max(lease_seconds / 4.0, 0.05)):
                        try:
                            os.utime(path)
                        except OSError:
                            pass  # claim was leased away; dedup covers the rest

                heartbeat = threading.Thread(target=heartbeat_loop, daemon=True)
                heartbeat.start()
                unit: WorkUnit = pickle.loads(unit_path.read_bytes())
                try:
                    result = _execute_unit_cached(unit, executor, cache_dir, stats)
                except Exception as exc:
                    # Leave an error file for the coordinator's failure
                    # accounting and release the claim so the unit can be
                    # retried (here or elsewhere) until attempts run out.
                    error_path = (
                        batch_dir
                        / "errors"
                        / f"{block}.{safe_name}-{os.getpid()}-{attempts + 1}.error"
                    )
                    error_path.parent.mkdir(parents=True, exist_ok=True)
                    error_path.write_text(repr(exc))
                    try:
                        claim_path.unlink()
                    except OSError:
                        pass
                    did_work = True  # progress was made: an attempt was recorded
                    continue
                finally:
                    stop_heartbeat.set()
                    heartbeat.join(timeout=2.0)
                result_path.parent.mkdir(parents=True, exist_ok=True)
                atomic_write_bytes(result_path, pickle.dumps(list(result.values)))
                # First writer wins; duplicates are byte-identical anyway.
                did_work = True
                completed += 1
                if max_units is not None and completed >= max_units:
                    return
        if not did_work:
            # Honour STOP only when it postdates this worker (a live
            # shutdown) or the connect grace has passed: a stale marker
            # from a previous campaign must not kill workers launched
            # just before the next coordinator starts and clears it.
            stop = job_dir / "STOP"
            try:
                stop_mtime: float | None = stop.stat().st_mtime
            except OSError:
                stop_mtime = None
            if stop_mtime is not None and (
                stop_mtime >= start_wall or time.monotonic() >= deadline
            ):
                return
            time.sleep(poll_interval)
