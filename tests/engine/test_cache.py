"""On-disk observation cache (repro.engine.cache)."""

import numpy as np
import pytest

from repro.csp.problems import CostasArrayProblem
from repro.engine.cache import ObservationCache, algorithm_fingerprint, atomic_write_bytes
from repro.engine.core import collect_batch
from repro.solvers.adaptive_search import AdaptiveSearch, AdaptiveSearchConfig
from repro.solvers.base import LasVegasAlgorithm, RunResult


class CountingAlgorithm(LasVegasAlgorithm):
    """Synthetic algorithm that counts how many runs were executed."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def _run(self, rng: np.random.Generator) -> RunResult:
        self.calls += 1
        return RunResult(solved=True, iterations=int(rng.integers(1, 100)), runtime_seconds=0.0)


class TestAlgorithmFingerprint:
    def test_same_construction_same_fingerprint(self):
        a = AdaptiveSearch(CostasArrayProblem(7), AdaptiveSearchConfig(max_iterations=100))
        b = AdaptiveSearch(CostasArrayProblem(7), AdaptiveSearchConfig(max_iterations=100))
        assert algorithm_fingerprint(a) == algorithm_fingerprint(b)

    def test_config_change_changes_fingerprint(self):
        a = AdaptiveSearch(CostasArrayProblem(7), AdaptiveSearchConfig(max_iterations=100))
        b = AdaptiveSearch(CostasArrayProblem(7), AdaptiveSearchConfig(max_iterations=200))
        assert algorithm_fingerprint(a) != algorithm_fingerprint(b)

    def test_problem_change_changes_fingerprint(self):
        a = AdaptiveSearch(CostasArrayProblem(7))
        b = AdaptiveSearch(CostasArrayProblem(8))
        assert algorithm_fingerprint(a) != algorithm_fingerprint(b)

    def test_same_shape_different_content_distinct(self):
        """Regression: two CNF formulas with identical (n_vars, n_clauses)
        but different clauses must not collide on one fingerprint."""
        from repro.sat.cnf import CNFFormula
        from repro.solvers.walksat import WalkSAT

        f1 = CNFFormula(3, [(1, 2), (-1, 3)])
        f2 = CNFFormula(3, [(-2, 3), (1, -3)])
        assert algorithm_fingerprint(WalkSAT(f1)) != algorithm_fingerprint(WalkSAT(f2))
        # ... while identical content still collides (cache hits work).
        f1_again = CNFFormula(3, [(1, 2), (-1, 3)])
        assert algorithm_fingerprint(WalkSAT(f1)) == algorithm_fingerprint(WalkSAT(f1_again))


class TestAtomicWriteBytes:
    def test_replaces_the_whole_file_and_leaves_no_sibling(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_bytes(b"a much longer previous payload")
        atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"
        assert list(tmp_path.iterdir()) == [path]

    def test_interrupted_overwrite_keeps_the_previous_content(self, tmp_path, monkeypatch):
        from pathlib import Path

        path = tmp_path / "entry.json"
        path.write_bytes(b"previous")
        write_bytes = Path.write_bytes

        def torn_bytes(target, data):
            write_bytes(target, data[: len(data) // 2])
            raise KeyboardInterrupt

        monkeypatch.setattr(Path, "write_bytes", torn_bytes)
        with pytest.raises(KeyboardInterrupt):
            atomic_write_bytes(path, b"replacement payload")
        monkeypatch.undo()
        assert path.read_bytes() == b"previous"
        assert list(tmp_path.iterdir()) == [path]


class TestObservationCache:
    def test_round_trip(self, tmp_path):
        cache = ObservationCache(tmp_path)
        batch = collect_batch(CountingAlgorithm(), 10, base_seed=1, cache=cache)
        # Probe with a pristine object, as a later process would.
        loaded = cache.read_batch(cache.path_for(CountingAlgorithm(), 10, 1, label=batch.label))
        assert loaded is not None
        np.testing.assert_array_equal(loaded.iterations, batch.iterations)
        np.testing.assert_array_equal(loaded.seeds, batch.seeds)

    def test_repeat_campaign_is_free(self, tmp_path):
        """A fresh process (fresh algorithm object) must hit the disk cache.

        The cache key is taken *before* any run executes, so the stored key
        matches what a pristine object in a later process will probe with —
        even for algorithms whose attributes mutate while running.
        """
        first = CountingAlgorithm()
        batch = collect_batch(first, 10, base_seed=1, cache=tmp_path)
        assert first.calls == 10
        fresh = CountingAlgorithm()  # simulates a new CLI invocation
        again = collect_batch(fresh, 10, base_seed=1, cache=tmp_path)
        assert fresh.calls == 0  # served from disk, nothing re-ran
        np.testing.assert_array_equal(again.iterations, batch.iterations)
        assert len(list(tmp_path.glob("observations-*.json"))) == 1

    def test_key_sensitive_to_seed_and_count(self, tmp_path):
        algo = CountingAlgorithm()
        cache = ObservationCache(tmp_path)
        keys = {
            cache.key(algo, 10, 1),
            cache.key(algo, 10, 2),
            cache.key(algo, 20, 1),
            cache.key(algo, 10, 1, label="other"),
        }
        assert len(keys) == 4
        assert cache.key(algo, 10, 1) == cache.key(algo, 10, 1)

    def test_miss_returns_none(self, tmp_path):
        cache = ObservationCache(tmp_path)
        assert cache.read_batch(cache.path_for(CountingAlgorithm(), 5, 0)) is None

    def test_different_seed_triggers_fresh_campaign(self, tmp_path):
        algo = CountingAlgorithm()
        collect_batch(algo, 5, base_seed=1, cache=tmp_path)
        collect_batch(algo, 5, base_seed=2, cache=tmp_path)
        assert algo.calls == 10
        assert len(list(tmp_path.glob("observations-*.json"))) == 2

    def test_directory_created_on_demand(self, tmp_path):
        target = tmp_path / "nested" / "cache"
        ObservationCache(target)
        assert target.is_dir()

    def test_cache_hit_emits_completion_event(self, tmp_path):
        """A warm-cache return still tells a progress display it finished."""
        collect_batch(CountingAlgorithm(), 5, base_seed=1, cache=tmp_path)
        events = []
        collect_batch(
            CountingAlgorithm(), 5, base_seed=1, cache=tmp_path, progress=events.append
        )
        assert len(events) == 1
        assert events[0].completed == events[0].total == 5
        assert events[0].fraction == 1.0

    def test_invalid_backend_rejected_even_on_warm_cache(self, tmp_path):
        """Backend validation must not depend on cache warmth."""
        collect_batch(CountingAlgorithm(), 5, base_seed=1, cache=tmp_path)
        with pytest.raises(ValueError, match="unknown backend"):
            collect_batch(CountingAlgorithm(), 5, base_seed=1, cache=tmp_path, backend="gpu")

    def test_cross_backend_cache_hit(self, tmp_path):
        """A batch collected serially satisfies a process-backend request."""
        solver = AdaptiveSearch(CostasArrayProblem(6), AdaptiveSearchConfig(max_iterations=50_000))
        first = collect_batch(solver, 6, base_seed=4, cache=tmp_path, backend="serial")
        second = collect_batch(solver, 6, base_seed=4, cache=tmp_path, backend="process", workers=2)
        np.testing.assert_array_equal(first.iterations, second.iterations)
        assert len(list(tmp_path.glob("observations-*.json"))) == 1

    def test_interrupted_write_leaves_no_entry(self, tmp_path, monkeypatch):
        """Regression: a campaign killed mid-write must not leave a truncated
        batch at its content address, where every later run with that key
        would fail to parse it."""
        from pathlib import Path

        write_bytes, write_text = Path.write_bytes, Path.write_text

        # SIGINT half-way through writing the batch, whichever way it is written.
        def torn_bytes(path, data):
            write_bytes(path, data[: len(data) // 2])
            raise KeyboardInterrupt

        def torn_text(path, data, *args, **kwargs):
            write_text(path, data[: len(data) // 2])
            raise KeyboardInterrupt

        monkeypatch.setattr(Path, "write_bytes", torn_bytes)
        monkeypatch.setattr(Path, "write_text", torn_text)
        with pytest.raises(KeyboardInterrupt):
            collect_batch(CountingAlgorithm(), 5, base_seed=1, cache=tmp_path)
        assert list(tmp_path.iterdir()) == []  # no entry, no stray temp file
        monkeypatch.undo()

        algo = CountingAlgorithm()
        batch = collect_batch(algo, 5, base_seed=1, cache=tmp_path)
        assert algo.calls == 5  # re-ran instead of reading a broken entry
        cache = ObservationCache(tmp_path)
        path = cache.path_for(CountingAlgorithm(), 5, 1, label=batch.label)
        np.testing.assert_array_equal(cache.read_batch(path).iterations, batch.iterations)
        assert list(tmp_path.iterdir()) == [path]
