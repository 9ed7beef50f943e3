"""Shared fixtures for the benchmark harness.

The solver campaign (the expensive part) is collected once per benchmark
session with the ``quick`` profile and shared by every table/figure bench;
each bench then times only the analysis stage it reproduces and prints the
regenerated rows/series once so the output can be compared with the paper.

Every measured speedup/throughput additionally lands in
``BENCH_results.json`` at the repository root via the session-scoped
:func:`bench_results` recorder — one record per measurement with the bench
id, metric name, value, the parameters that shaped it and the git revision
— so CI can archive the numbers as an artifact and PRs can diff the trend
instead of eyeballing captured stdout.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.data import collect_observations

#: Where the recorder writes; the repository root (pytest rootdir).
BENCH_RESULTS_NAME = "BENCH_results.json"


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


class BenchResultRecorder:
    """Append-on-record sink for measured speedups and throughputs.

    The file is rewritten after every :meth:`record` call so a crashed or
    interrupted session still leaves the measurements taken so far — CI
    uploads whatever exists.  One pytest session owns the file: it starts
    fresh rather than accreting across local re-runs.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.git_sha = _git_sha()
        self.records: list[dict] = []

    def record(self, bench: str, metric: str, value: float, **params) -> None:
        """Append one measurement (``params`` document the bench shape)."""
        self.records.append(
            {
                "bench": bench,
                "metric": metric,
                "value": float(value),
                "params": params,
                "git_sha": self.git_sha,
            }
        )
        self.path.write_text(json.dumps(self.records, indent=2) + "\n")


@pytest.fixture(scope="session")
def bench_results(request) -> BenchResultRecorder:
    """Session-wide recorder behind ``BENCH_results.json``."""
    return BenchResultRecorder(Path(request.config.rootpath) / BENCH_RESULTS_NAME)


@pytest.fixture(scope="session")
def quick_config() -> ExperimentConfig:
    """The laptop-scale reproduction profile used by every bench."""
    return ExperimentConfig.quick()


@pytest.fixture(scope="session")
def quick_observations(quick_config):
    """One sequential Adaptive Search campaign shared across all benches."""
    return collect_observations(quick_config, ("benchmarks",))


def print_once(request, text: str) -> None:
    """Print a regenerated table/figure once (not once per benchmark round)."""
    key = f"_printed_{request.node.nodeid}"
    if not getattr(request.config, key, False):
        setattr(request.config, key, True)
        print(f"\n{text}\n")
