"""Shared plumbing of the campaign benchmark.

Everything here is measured from outside the program: wall clocks around
public calls, CPU and memory counters of this process and of every child it
starts (read from ``/proc``), a fixed reference loop that tracks the host's
speed, and a process-hygiene check that finds anything a run left behind.
Spans recorded by a traced run live in :class:`Trace` and are written out
once, when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
#: The program under test.
SRC = ROOT / "src"
#: Scratch space for cache directories and traces; removed per run except traces.
WORK = ROOT / ".perfbench_work"
#: Environment variable every process started by a run inherits.
MARKER = "PERFBENCH_RUN"

_TICKS = os.sysconf("SC_CLK_TCK")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (e.g. the program's source is missing)."""


def require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"program source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for program subprocesses: the source on ``PYTHONPATH``."""
    env = dict(os.environ)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


# -- statistics ---------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in ``(0, 100]``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def digest(payload) -> str:
    """Short stable digest of a JSON-serialisable payload."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def stream_digest(records) -> str:
    """Digest of one stage's run stream: seeds, iteration counts, solved flags."""
    return digest([[int(r.seed), int(r.iterations), bool(r.solved)] for r in records])


def load_digests(workload: str) -> dict:
    path = Path(__file__).resolve().parent / "digests.json"
    return json.loads(path.read_text()).get(workload, {})


# -- host speed ---------------------------------------------------------
#: A fixed pure-Python loop that touches no program code, timed ``k`` times.
_REFERENCE = """
import json, sys, time
samples = []
for _ in range(int(sys.argv[1])):
    start = time.perf_counter()
    x = 1
    for _ in range(400_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    samples.append(time.perf_counter() - start)
print(json.dumps(samples))
"""


def reference_samples(k: int = 5) -> list[float]:
    """Seconds per reference loop, run in a fresh interpreter.

    A fresh process keeps this process's own heap and caches out of the
    figure, so a change between the start and the end of a run is the host.
    """
    out = subprocess.run([sys.executable, "-c", _REFERENCE, str(k)], check=True,
                         capture_output=True, text=True, cwd=str(ROOT))
    return json.loads(out.stdout)


# -- CPU and memory -----------------------------------------------------
def _proc_stat(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of a live process and its reaped children."""
    fields = _proc_stat(pid)
    if fields is None:
        return 0.0
    return sum(int(v) for v in fields[11:15]) / _TICKS


def proc_peak_rss_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def own_cpu_seconds() -> float:
    """CPU of this process plus every child it has reaped (pools included)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def own_peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@dataclass
class CpuWindow:
    """CPU used by this process and by ``live`` children between two points."""

    live: list[int] = field(default_factory=list)
    _start: float = 0.0

    def _now(self) -> float:
        return own_cpu_seconds() + sum(proc_cpu_seconds(pid) for pid in self.live)

    def start(self) -> None:
        self._start = self._now()

    def stop(self) -> float:
        return self._now() - self._start


# -- process hygiene ----------------------------------------------------
def mark_run() -> str:
    """Tag this process so every descendant can be found afterwards."""
    token = uuid.uuid4().hex
    os.environ[MARKER] = token
    return token


def _cmdline(pid: int) -> str:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def leftover_processes(token: str) -> list[tuple[int, str]]:
    """Live processes other than this one that carry the run's marker."""
    needle = f"{MARKER}={token}".encode()
    me = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == me:
            continue
        try:
            environ = (entry / "environ").read_bytes()
        except OSError:
            continue
        if needle in environ.split(b"\0"):
            fields = _proc_stat(int(entry.name))
            if fields is not None and fields[0] != "Z":
                found.append((int(entry.name), _cmdline(int(entry.name))))
    return found


def stop_resource_tracker() -> None:
    """End the multiprocessing resource tracker a spawn pool leaves running."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()  # noqa: SLF001 - no public stop
    except (ImportError, AttributeError):
        pass


def reap_leftovers(token: str) -> list[str]:
    """Kill whatever the run left behind; return their command lines.

    Only pool workers (``spawn_main``) and program processes (``repro``)
    count as leftovers; the resource tracker is stopped first.
    """
    stop_resource_tracker()
    leftovers = [
        (pid, cmd)
        for pid, cmd in leftover_processes(token)
        if "spawn_main" in cmd or "repro" in cmd
    ]
    for pid, _ in leftovers:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and any(
        Path(f"/proc/{pid}").exists() and _proc_stat(pid) and _proc_stat(pid)[0] != "Z"
        for pid, _ in leftovers
    ):
        time.sleep(0.05)
    return [cmd for _, cmd in leftovers]


def stop_process(proc: subprocess.Popen, *, grace: float = 15.0) -> int:
    """SIGTERM, wait up to ``grace`` seconds, then SIGKILL; always reaped."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


# -- scratch directories ------------------------------------------------
def fresh_dir(name: str) -> Path:
    path = WORK / "tmp" / f"{name}-{uuid.uuid4().hex[:12]}"
    path.mkdir(parents=True)
    return path


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# -- set-up probes ------------------------------------------------------
def setup_probe(workload: str, seed: int) -> dict:
    """Time one fresh interpreter from launch to "ready to submit".

    The child (``run.py --setup-probe``) imports what the workload needs,
    builds its stages and prints one JSON line; the parent's clock runs
    from before the launch until that line arrives.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
         "--workload", workload, "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE,
        cwd=str(ROOT),
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or not line.strip():
        raise BenchmarkError(f"set-up probe for {workload} exited {proc.returncode}")
    info = json.loads(line)
    info["setup_s"] = elapsed
    return info


# -- tracing ------------------------------------------------------------
def alternate(pair: tuple, k: int) -> tuple:
    """A traced run's (untraced, traced) pair, reversed for odd ``k``.

    The host's speed drifts within a run (see ``host.ref_drift``);
    alternating which side goes first keeps that drift out of
    ``trace.overhead_share``.
    """
    return pair if k % 2 == 0 else pair[::-1]



#: Layers, outermost first; a point in time belongs to the innermost active one.
LAYERS = ("service", "campaign", "engine", "solver")


class Trace:
    """In-memory spans recorded at layer boundaries, written out at the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def span(self, layer: str, name: str, start: float, end: float, *, request: str, **attrs) -> None:
        self.spans.append(
            {"layer": layer, "name": name, "start": start, "end": end, "request": request, **attrs}
        )

    def layer_shares(self, request: str, start: float, end: float) -> dict[str, float]:
        """Share of ``[start, end]`` spent in each layer, by innermost span.

        Time covered by no span is reported as ``uncovered``; parallel
        spans of one layer (process-pool workers) count once.
        """
        depth = {layer: i for i, layer in enumerate(LAYERS)}
        edges = []
        for s in self.spans:
            lo, hi = max(s["start"], start), min(s["end"], end)
            if s["request"] == request and s["layer"] in depth and hi > lo:
                edges += [(lo, 1, depth[s["layer"]]), (hi, -1, depth[s["layer"]])]
        edges.sort()
        shares = dict.fromkeys((*LAYERS, "uncovered"), 0.0)
        active = [0] * len(LAYERS)
        cursor = start
        for t, step, level in edges + [(end, 0, 0)]:
            deepest = max((i for i, n in enumerate(active) if n), default=None)
            shares["uncovered" if deepest is None else LAYERS[deepest]] += t - cursor
            active[level] += step
            cursor = t
        total = end - start
        return {key: value / total for key, value in shares.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))


# -- result -------------------------------------------------------------
@dataclass
class Result:
    """One run's outcome: operation counts, failures and metric values."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def put(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.metrics[name] = (float(value), unit, int(n))

    def emit(self, units: dict[str, str], *, fill_zero: bool = False) -> None:
        """Print the table to stderr and the JSON result line to stdout.

        ``units`` names every metric to print.  With ``fill_zero`` a layer
        metric the workload never exercises (the service layer of an
        in-process campaign, say) is reported as 0 and listed on stderr.
        """
        missing = [name for name in units if name not in self.metrics]
        if missing and not fill_zero:
            raise BenchmarkError(f"metrics not measured: {missing}")
        if missing:
            print(f"not exercised by this workload (0): {', '.join(missing)}", file=sys.stderr)
        for name in missing:
            self.metrics[name] = (0.0, units[name], 0)
        wrong = [n for n in units if self.metrics[n][1] != units[n]]
        if wrong:
            raise BenchmarkError(f"metrics measured in the wrong unit: {wrong}")
        names = list(units)
        for name in names:
            value, unit, n = self.metrics[name]
            print(f"{name:34s} {value:14.6f} {unit:10s} n={n}", file=sys.stderr)
        for reason in self.failures:
            print(f"FAILED: {reason}", file=sys.stderr)
        payload = {
            "correct": not self.failures,
            "attempted": max(1, self.attempted),
            "failed": len(self.failures),
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": self.metrics[name][1]}
                for name in names
            },
        }
        print(json.dumps(payload), flush=True)
