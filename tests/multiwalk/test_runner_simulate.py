"""Sequential batches of independent runs and the simulated multi-walk."""

import numpy as np
import pytest

from repro.core.distributions import ShiftedExponential
from repro.engine import collect_batch
from repro.multiwalk.observations import RuntimeObservations
from repro.multiwalk.simulate import (
    MultiwalkMeasurement,
    simulate_multiwalk_from_observations,
    simulate_multiwalk_speedups,
)
from repro.solvers.base import LasVegasAlgorithm, RunResult


class SyntheticAlgorithm(LasVegasAlgorithm):
    """Las Vegas algorithm whose runtime is an explicit exponential draw."""

    name = "synthetic-exponential"

    def __init__(self, scale: float = 100.0) -> None:
        self.scale = scale

    def _run(self, rng: np.random.Generator) -> RunResult:
        iterations = int(rng.exponential(self.scale)) + 1
        return RunResult(solved=True, iterations=iterations, runtime_seconds=0.0)


class TestSequentialBatch:
    def test_batch_size_and_label(self):
        batch = collect_batch(SyntheticAlgorithm(), 25, base_seed=1, label="synthetic")
        assert isinstance(batch, RuntimeObservations)
        assert batch.n_runs == 25
        assert batch.label == "synthetic"

    def test_batches_are_reproducible(self):
        a = collect_batch(SyntheticAlgorithm(), 10, base_seed=3)
        b = collect_batch(SyntheticAlgorithm(), 10, base_seed=3)
        np.testing.assert_array_equal(a.iterations, b.iterations)

    def test_different_base_seeds_differ(self):
        a = collect_batch(SyntheticAlgorithm(), 10, base_seed=3)
        b = collect_batch(SyntheticAlgorithm(), 10, base_seed=4)
        assert not np.array_equal(a.iterations, b.iterations)

    def test_runs_within_batch_are_independent(self):
        batch = collect_batch(SyntheticAlgorithm(), 50, base_seed=0)
        assert np.unique(batch.iterations).size > 10

    def test_progress_callback(self):
        seen = []
        collect_batch(
            SyntheticAlgorithm(), 5, base_seed=0, progress=lambda event: seen.append(event.index)
        )
        assert seen == [0, 1, 2, 3, 4]


class TestSimulatedMultiwalk:
    def test_linear_speedup_for_exponential_data(self, rng):
        """Exponential runtimes with x0=0 -> measured speed-up ~ number of cores."""
        data = ShiftedExponential(x0=0.0, lam=1e-3).sample(rng, 20000)
        measurement = simulate_multiwalk_from_observations(
            data, cores=[2, 8, 16], n_parallel_runs=3000, rng=rng
        )
        for n in (2, 8, 16):
            assert measurement.speedup(n) == pytest.approx(n, rel=0.15)

    def test_speedup_bounded_by_mean_over_min(self, rng):
        data = rng.lognormal(5.0, 1.0, 400) + 50.0
        measurement = simulate_multiwalk_from_observations(data, cores=[4096], rng=rng)
        bound = data.mean() / data.min()
        assert measurement.speedup(4096) <= bound * 1.0001

    def test_one_core_speedup_is_one_for_degenerate_data(self, rng):
        """With constant runtimes every resample mean is exact, so S(1) == 1."""
        data = np.full(40, 7.0)
        for mode in ("resample", "blocks"):
            measurement = simulate_multiwalk_from_observations(
                data, cores=[1], mode=mode, rng=rng
            )
            assert measurement.speedup(1) == 1.0

    def test_one_core_speedup_is_approximately_one(self, rng):
        data = rng.exponential(10.0, 200)
        measurement = simulate_multiwalk_from_observations(
            data, cores=[1], n_parallel_runs=2000, rng=rng
        )
        assert measurement.speedup(1) == pytest.approx(1.0, rel=0.1)

    def test_one_core_point_honors_sampling_mode(self):
        """The 1-core measurement must use the same sample size as every
        other core count: `n_parallel_runs` singleton blocks in resample
        mode, not the raw observations."""
        data = np.random.default_rng(7).exponential(10.0, 500)
        n_parallel_runs = 13
        measurement = simulate_multiwalk_from_observations(
            data,
            cores=[1],
            n_parallel_runs=n_parallel_runs,
            rng=np.random.default_rng(99),
        )
        expected = np.random.default_rng(99).choice(
            data, size=(n_parallel_runs, 1), replace=True
        ).min(axis=1)
        assert measurement.mean_parallel_cost[0] == pytest.approx(expected.mean())
        # A raw-data mean would be a different sample size (and value) here.
        assert measurement.mean_parallel_cost[0] != pytest.approx(data.mean(), abs=1e-12)

    def test_one_core_blocks_mode_is_internally_consistent(self):
        """In blocks mode the 1-core blocks are the (shuffled) sample itself,
        so the measured mean equals the sequential mean exactly."""
        data = np.random.default_rng(8).exponential(5.0, 64)
        measurement = simulate_multiwalk_from_observations(
            data, cores=[1, 4], mode="blocks", rng=np.random.default_rng(0)
        )
        assert measurement.mean_parallel_cost[0] == pytest.approx(data.mean())
        assert measurement.speedup(1) == pytest.approx(1.0)
        assert measurement.speedup(4) >= measurement.speedup(1)

    def test_blocks_mode_uses_disjoint_blocks(self, rng):
        data = rng.exponential(10.0, 1000)
        measurement = simulate_multiwalk_from_observations(
            data, cores=[10], mode="blocks", rng=rng
        )
        assert measurement.speedup(10) > 1.0

    def test_blocks_mode_requires_enough_observations(self, rng):
        with pytest.raises(ValueError):
            simulate_multiwalk_from_observations(
                rng.exponential(1.0, 5), cores=[10], mode="blocks", rng=rng
            )

    def test_argument_validation(self, rng):
        data = rng.exponential(1.0, 10)
        with pytest.raises(ValueError):
            simulate_multiwalk_from_observations([], cores=[2])
        with pytest.raises(ValueError):
            simulate_multiwalk_from_observations(data, cores=[0])
        with pytest.raises(ValueError):
            simulate_multiwalk_from_observations(data, cores=[2], n_parallel_runs=0)
        with pytest.raises(ValueError):
            simulate_multiwalk_from_observations(data, cores=[2], mode="warp")

    def test_measurement_record_interface(self, rng):
        data = rng.exponential(1.0, 50)
        measurement = simulate_multiwalk_from_observations(data, cores=[2, 4], rng=rng)
        assert isinstance(measurement, MultiwalkMeasurement)
        assert set(measurement.as_dict()) == {2, 4}
        assert list(measurement)[0][0] == 2
        with pytest.raises(KeyError):
            measurement.speedup(64)

    def test_wrapper_accepts_observation_batches(self, rng):
        batch = collect_batch(SyntheticAlgorithm(), 60, base_seed=5)
        measurement = simulate_multiwalk_speedups(batch, cores=[4], rng=rng)
        assert measurement.label == "synthetic-exponential"
        assert measurement.speedup(4) > 1.0

    def test_reproducible_with_seeded_rng(self, rng):
        data = np.random.default_rng(1).exponential(5.0, 200)
        a = simulate_multiwalk_from_observations(data, cores=[8], rng=np.random.default_rng(2))
        b = simulate_multiwalk_from_observations(data, cores=[8], rng=np.random.default_rng(2))
        assert a.speedups == b.speedups
