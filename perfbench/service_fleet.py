"""Workload ``service-fleet``: the HTTP service over a two-worker socket fleet.

``repro.cli serve`` runs with the distributed backend and a multi-tenant
cache store; two ``repro.cli worker`` processes connect to its coordinator.
Both the HTTP API and the worker handshake are token-authenticated.  One
client drives it in a closed loop (one request in flight at a time; the
service runs jobs one at a time by design, so this measures its capacity):

* cold phase — campaigns of the quick ``SAT`` stage (80 WalkSAT runs on the
  bundled ``uf50-218`` instance) at distinct base seeds, submitted by
  tenant ``A``; every one computes on the fleet and writes the store;
* hit phase (traced runs) — at least 100 resubmissions of those campaigns
  by other tenants, every one served from the shared store.

Completion is taken from the event stream's terminal ``state`` event, not
by polling.  Workers poll for work every 20 ms when idle (the CLI default
is 200 ms) so the poll phase does not dominate the first-result latency.
"""

from __future__ import annotations

import dataclasses
import json
import queue
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

import harness

NAME = "service-fleet"
N_WORKERS = 2
WORKER_POLL_S = 0.02
SEED_STRIDE = 7919
MIN_COLD = 12
MIN_HITS = 100
#: Share of ``--seconds`` given to the cold phase of a traced run.
COLD_SHARE = 0.6
SETUP_TIMEOUT_S = 60.0
#: Extra fleets started (and stopped) per run, so ``setup_s`` is a median of three.
SETUP_REPEATS = 2


#: Cold campaigns run the quick ``SAT`` stage on one bundled instance, so the
#: seed varies the run stream but not the instance: drawn planted instances
#: differ up to 16-fold in work per solved run (see NOTES.md), more than any
#: affordable number of campaigns per run averages out.
SAT_CONFIG = {"sat_family": "dimacs", "sat_dimacs": "uf50-218-s1"}


def submission(base_seed: int, tenant: str) -> dict:
    return {"profile": "quick", "stages": "SAT",
            "config": {"base_seed": base_seed, **SAT_CONFIG}, "tenant": tenant}


def setup(seed: int) -> dict:
    start = time.perf_counter()
    from repro.service import CampaignClient  # noqa: F401 - the import is what is timed

    return {"import_s": time.perf_counter() - start}


class _Lines:
    """Drains a child's stderr on a thread so its pipe never fills."""

    def __init__(self, stream) -> None:
        self.lines: list[str] = []
        self._queue: queue.Queue[str | None] = queue.Queue()
        self._thread = threading.Thread(target=self._pump, args=(stream,), daemon=True)
        self._thread.start()

    def _pump(self, stream) -> None:
        for line in stream:
            self.lines.append(line.rstrip("\n"))
            self._queue.put(line)
        self._queue.put(None)

    def wait_for(self, prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._queue.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise harness.BenchmarkError(f"no {prefix!r} line within {timeout:g}s") from None
            if line is None:
                raise harness.BenchmarkError(f"process exited before {prefix!r}: {self.lines[-3:]}")
            if line.startswith(prefix):
                return line

    def join(self) -> None:
        self._thread.join(timeout=5.0)


def _established(port: int) -> int:
    """Accepted TCP connections on a local listening port (from ``/proc``)."""
    count = 0
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            rows = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            fields = row.split()
            if int(fields[1].rsplit(":", 1)[1], 16) == port and fields[3] == "01":
                count += 1
    return count


@dataclasses.dataclass
class Fleet:
    serve: subprocess.Popen
    workers: list[subprocess.Popen]
    serve_log: _Lines
    worker_logs: list[_Lines]
    url: str
    token: str
    store: Path

    @property
    def pids(self) -> list[int]:
        return [self.serve.pid] + [w.pid for w in self.workers]

    def client(self):
        from repro.service import CampaignClient

        return CampaignClient(self.url, token=self.token, timeout=60.0)

    def stop(self) -> list[dict]:
        """Stop the service (graceful drain), then the workers; parse their stats."""
        harness.stop_process(self.serve)
        for worker in self.workers:
            try:
                worker.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                harness.stop_process(worker)
        for log in [self.serve_log, *self.worker_logs]:
            log.join()
        stats = []
        for log in self.worker_logs:
            for line in log.lines:
                if line.startswith("worker done:"):
                    stats.append(dict(kv.split("=") for kv in line.split(":", 1)[1].split()))
        return stats


def start_fleet(seed: int) -> tuple[Fleet, float]:
    """Start serve + workers, run one warm-up campaign; return the fleet and set-up time."""
    start = time.perf_counter()
    store = harness.fresh_dir("service-store")
    token, worker_token = uuid.uuid4().hex, uuid.uuid4().hex
    cli = [sys.executable, "-m", "repro.cli"]
    serve = subprocess.Popen(
        cli + ["serve", "--host", "127.0.0.1", "--port", "0", "--token", token,
               "--backend", "distributed", "--coordinator", "127.0.0.1:0",
               "--worker-token", worker_token, "--cache", str(store), "--drain-seconds", "5"],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, cwd=str(harness.ROOT), env=harness.child_env(),
    )
    serve_log = _Lines(serve.stderr)
    workers: list[subprocess.Popen] = []
    fleet = Fleet(serve, workers, serve_log, [], "", token, store)
    try:
        coordinator = serve_log.wait_for("coordinator listening on", SETUP_TIMEOUT_S).split()[-1]
        url = serve_log.wait_for("campaign service listening on", SETUP_TIMEOUT_S).split()[4]
        fleet.url = url
        for k in range(N_WORKERS):
            worker = subprocess.Popen(
                cli + ["worker", "--connect", coordinator, "--token", worker_token,
                       "--poll-interval", str(WORKER_POLL_S), "--name", f"w{k}"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, cwd=str(harness.ROOT), env=harness.child_env(),
            )
            workers.append(worker)
            fleet.worker_logs.append(_Lines(worker.stderr))
        port = int(coordinator.rsplit(":", 1)[1])
        deadline = time.monotonic() + SETUP_TIMEOUT_S
        while _established(port) < N_WORKERS:
            if time.monotonic() > deadline or any(w.poll() is not None for w in workers):
                raise harness.BenchmarkError("workers did not connect to the coordinator")
            time.sleep(0.01)
        outcome = submit_and_follow(fleet.client(), submission(seed + 10**6, "warmup"))
        if outcome["state"] != "done":
            raise harness.BenchmarkError(f"warm-up campaign ended {outcome['state']}")
    except BaseException:
        fleet.stop()
        harness.remove_dir(store)
        raise
    return fleet, time.perf_counter() - start


def submit_and_follow(client, payload: dict, *, traced: bool = False) -> dict:
    """Submit, follow the event stream to its terminal event, fetch the report."""
    from repro.service.jobs import TERMINAL_STATES

    start = time.perf_counter()
    job = client.submit(payload)
    submitted = time.perf_counter()
    first_obs = None
    state = None
    events = []
    for event in client.stream_events(job):
        if traced:
            events.append((time.perf_counter(), event))
        if first_obs is None and event["kind"] == "observation":
            first_obs = time.perf_counter() - start
        if event["kind"] == "state" and event["state"] in TERMINAL_STATES:
            state = event["state"]
            break
    streamed = time.perf_counter()
    report = client.report(job)
    end = time.perf_counter()
    out = {"job": job, "state": state, "report": report, "start": start, "end": end,
           "elapsed": end - start, "first_obs": first_obs}
    if traced:
        out.update(submit_s=submitted - start, stream_s=streamed - submitted,
                   report_s=end - streamed, events=events,
                   report_bytes=len((json.dumps(report.as_dict()) + "\n").encode()))
    return out


def check_cold(report, base_seed: int) -> list[str]:
    """The cold campaign replays and its stream passes :func:`inproc.replay_check`."""
    from repro.campaign import verify_report
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.stages import campaign_stages

    import inproc

    verify_report(report)
    config = dataclasses.replace(ExperimentConfig.quick(), base_seed=base_seed, **SAT_CONFIG)
    spec = next(s for s in campaign_stages(config, kinds=("sat",)) if s.key == "SAT")
    return inproc.replay_check(spec, report.stage("SAT").stream)


def _trace_cold(trace: harness.Trace, client, request: str, outcome: dict) -> dict:
    """Spans of one traced cold campaign, from the client side and its events."""
    offset = time.time() - time.perf_counter()  # status times are wall clock
    snapshot = client.status(outcome["job"])
    job_start = snapshot["started_at"] - offset
    job_end = snapshot["finished_at"] - offset
    trace.span("service", "request", outcome["start"], outcome["end"], request=request)
    trace.span("engine", "job", job_start, job_end, request=request)
    observations = [e for _, e in outcome["events"] if e["kind"] == "observation"]
    for e in observations:
        end = job_start + e["elapsed_seconds"]
        trace.span("solver", "run", end - e["runtime_seconds"], end, request=request)
    elapsed = [0.0] + [e["elapsed_seconds"] for e in observations]
    busy = sum(e["runtime_seconds"] for e in observations)
    iters = sum(e["iterations"] for e in observations)
    return {
        "first_obs_s": outcome["first_obs"],
        "startup_s": observations[0]["elapsed_seconds"] if observations else 0.0,
        "gaps": [b - a for a, b in zip(elapsed, elapsed[1:])],
        "busy_s": busy,
        "iters": iters,
        "iters_per_s": {"SAT": iters / busy} if busy > 0 else {},
        "round_walls": [job_end - job_start],
        "shares": trace.layer_shares(request, outcome["start"], outcome["end"]),
    }


def _cache_io(store: Path) -> tuple[float, float]:
    """Read and rewrite every batch in the store through the cache's public hooks."""
    from repro.engine import ObservationCache

    scratch = harness.fresh_dir("cache-replay")
    cache = ObservationCache(scratch)
    read_s = write_s = 0.0
    for path in sorted((store / "objects").iterdir()):
        start = time.perf_counter()
        batch = cache.read_batch(path)
        mid = time.perf_counter()
        cache.write_batch(batch, scratch / path.name)
        read_s += mid - start
        write_s += time.perf_counter() - mid
    harness.remove_dir(scratch)
    return read_s, write_s


def run(args, result: harness.Result) -> None:
    from repro.campaign import replay_decisions

    import inproc

    trace = harness.Trace() if args.trace else None
    fleet, setup_first = start_fleet(args.seed)
    setups = [setup_first]
    try:
        client = fleet.client()
        cpu_window = harness.CpuWindow(live=fleet.pids)
        plain, cpu, counts, colds = [], [], [], []
        traced_s, layers, replay_s = [], [], []
        budget = args.seconds * (COLD_SHARE if trace else 1.0)
        began = time.perf_counter()
        modes = (False, True) if trace else (False,)
        for i in range(10_000):
            elapsed = time.perf_counter() - began
            if len(plain) >= MIN_COLD and elapsed * (1 + 1 / len(plain)) > budget:
                break
            for m, traced in enumerate(harness.alternate(modes, args.seed + i) if trace else modes):
                # Every cold submission needs a seed of its own, or it would hit.
                base_seed = args.seed + SEED_STRIDE * (i * len(modes) + m)
                payload = submission(base_seed, "A")
                result.attempted += 1
                cpu_window.start()
                try:
                    outcome = submit_and_follow(client, payload, traced=traced)
                    cpu_used = cpu_window.stop()
                    problems = [] if outcome["state"] == "done" else [f"ended {outcome['state']}"]
                    problems += check_cold(outcome["report"], base_seed)
                except Exception as exc:  # noqa: BLE001 - a failed campaign is a failed operation
                    result.fail(f"cold base seed {base_seed}: {type(exc).__name__}: {exc}")
                    continue
                for problem in problems:
                    result.fail(f"cold base seed {base_seed}: {problem}")
                if not traced:
                    plain.append(outcome["elapsed"])
                    cpu.append(cpu_used)
                    counts.append(inproc.campaign_counts(outcome["report"]))
                    colds.append((base_seed, outcome["report"]))
                    continue
                traced_s.append(outcome["elapsed"])
                layers.append(_trace_cold(trace, client, f"cold{i}", outcome))
                t0 = time.perf_counter()
                replay_decisions(outcome["report"])
                replay_s.append(time.perf_counter() - t0)
        result.put("campaign_s", harness.median(plain), "s", len(plain))
        result.put("cpu_s", harness.median(cpu), "s", len(cpu))
        result.put("work_per_solved", harness.median([c["work_per_solved"] for c in counts]),
                   "iterations", len(counts))
        result.put("peak_rss_mb", max([harness.own_peak_rss_mb()]
                                      + [harness.proc_peak_rss_mb(p) for p in fleet.pids]), "MB")
        print(f"{NAME}: {len(plain)} cold campaigns, runs={sum(c['issued'] for c in counts)} "
              f"iterations={sum(c['iterations'] for c in counts)}", file=sys.stderr)
        if trace is not None:
            _hit_phase(result, client, colds, args.seconds - (time.perf_counter() - began))
            inproc.put_layers(result, layers, counts, replay_s, plain, traced_s)
            result.put("engine.workers_max", N_WORKERS, "count")
            health = client.health()["cache"]
    finally:
        worker_stats = fleet.stop()
    if trace is not None:
        result.put("cache.hits", health["hits"], "count")
        result.put("cache.misses", health["misses"], "count")
        result.put("cache.bytes", health["total_bytes"], "bytes")
        result.put("cache.cross_tenant_hits", health["cross_tenant_hits"], "count")
        read_s, write_s = _cache_io(fleet.store)
        result.put("cache.read_s", read_s, "s", health["objects"])
        result.put("cache.write_s", write_s, "s", health["objects"])
        for key, name in (("units", "fleet.units"), ("runs", "fleet.runs"),
                          ("cache-hits", "fleet.cache_hits")):
            result.put(name, sum(int(s[key]) for s in worker_stats), "count", len(worker_stats))
        trace.write(harness.WORK / f"trace-{NAME}-{args.seed}.json")
    if len(worker_stats) != N_WORKERS:
        result.fail(f"{N_WORKERS - len(worker_stats)} worker(s) did not exit cleanly")
    harness.remove_dir(fleet.store)
    for _ in range(SETUP_REPEATS):
        extra, seconds = start_fleet(args.seed)
        setups.append(seconds)
        extra.stop()
        harness.remove_dir(extra.store)
    result.put("setup_s", harness.median(setups), "s", len(setups))
    if trace is not None:
        probes = [harness.setup_probe(NAME, args.seed) for _ in range(3)]
        result.put("setup.import_s", harness.median([p["import_s"] for p in probes]), "s", 3)


def _hit_phase(result: harness.Result, client, colds, seconds: float) -> None:
    """Resubmit the cold campaigns from fresh tenants until enough hits are in."""
    import inproc

    expected = {seed: inproc.deterministic(report) for seed, report in colds}
    hits = []
    began = time.perf_counter()
    tenant = 0
    while len(hits) < MIN_HITS or time.perf_counter() - began < seconds:
        for base_seed, _ in colds:
            result.attempted += 1
            try:
                outcome = submit_and_follow(client, submission(base_seed, f"h{tenant}"), traced=True)
            except Exception as exc:  # noqa: BLE001 - a failed resubmission is a failed operation
                result.fail(f"hit base seed {base_seed}: {type(exc).__name__}: {exc}")
                continue
            if outcome["state"] != "done" or inproc.deterministic(outcome["report"]) != expected[base_seed]:
                result.fail(f"hit base seed {base_seed}: report differs from its cold campaign")
            hits.append(outcome)
        tenant += 1
    latencies = [h["elapsed"] for h in hits]
    result.put("hit_campaign_s", harness.median(latencies), "s", len(hits))
    result.put("hit_campaign_p90_s", harness.percentile(latencies, 90), "s", len(hits))
    for key in ("submit_s", "stream_s", "report_s"):
        result.put(f"service.{key}", harness.median([h[key] for h in hits]), "s", len(hits))
    result.put("service.events", harness.median([len(h["events"]) for h in hits]), "count", len(hits))
    result.put("service.report_bytes", harness.median([h["report_bytes"] for h in hits]),
               "bytes", len(hits))
