"""Experiment configuration and campaign collection/caching."""

import numpy as np
import pytest

from repro.experiments.config import BENCHMARK_KEYS, SAT_KEY, ExperimentConfig
from repro.experiments.data import CampaignSummary, collect_observations


class TestExperimentConfig:
    def test_profiles_are_valid(self):
        for config in (ExperimentConfig.tiny(), ExperimentConfig.quick(), ExperimentConfig.full()):
            assert config.n_sequential_runs >= 2
            assert set(config.benchmarks()) == set(BENCHMARK_KEYS)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_sequential_runs=1)
        with pytest.raises(ValueError):
            ExperimentConfig(cores=())
        with pytest.raises(ValueError):
            ExperimentConfig(cores=(0, 4))
        with pytest.raises(ValueError):
            ExperimentConfig(n_parallel_runs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(max_iterations=0)

    def test_benchmark_specs_build_solvers(self, tiny_config):
        for key, spec in tiny_config.benchmarks().items():
            solver = spec.make_solver(100)
            assert solver.config.max_iterations == 100
            assert spec.label
            assert spec.key == key

    def test_paper_families_and_shift_rules(self, tiny_config):
        assert tiny_config.paper_family("MS") == "shifted_lognormal"
        assert tiny_config.paper_family("AI") == "shifted_exponential"
        assert tiny_config.paper_family("Costas") == "shifted_exponential"
        assert tiny_config.paper_shift_rule("Costas") == "zero_if_negligible"

    def test_instance_sizes_affect_benchmarks(self):
        config = ExperimentConfig(magic_square_n=5, all_interval_n=20, costas_n=11,
                                  n_sequential_runs=2)
        specs = config.benchmarks()
        assert specs["MS"].problem_factory().size == 25
        assert specs["AI"].problem_factory().size == 20
        assert specs["Costas"].problem_factory().size == 11


class TestCampaignCollection:
    def test_all_benchmarks_collected(self, tiny_config, tiny_observations):
        assert set(tiny_observations) == set(BENCHMARK_KEYS)
        for key in BENCHMARK_KEYS:
            assert tiny_observations[key].n_runs == tiny_config.n_sequential_runs

    def test_disk_cache_round_trip(self, tmp_path):
        config = ExperimentConfig(
            magic_square_n=3,
            all_interval_n=8,
            costas_n=6,
            n_sequential_runs=4,
            n_parallel_runs=5,
            cores=(2, 4),
            max_iterations=20_000,
            base_seed=7,
        )
        first = collect_observations(config, ("benchmarks",), cache_dir=tmp_path)
        files = list(tmp_path.glob("observations-*.json"))
        assert len(files) == 3
        second = collect_observations(config, ("benchmarks",), cache_dir=tmp_path)
        for key in BENCHMARK_KEYS:
            np.testing.assert_array_equal(first[key].iterations, second[key].iterations)

    def test_campaign_summary(self, tiny_config, tiny_observations):
        summary = CampaignSummary.from_observations(tiny_config, tiny_observations)
        assert set(summary.n_runs) == set(BENCHMARK_KEYS)
        assert all(0.0 <= rate <= 1.0 for rate in summary.success_rates.values())


class TestSATConfig:
    def test_profiles_scale_the_sat_instance(self):
        tiny = ExperimentConfig.tiny()
        quick = ExperimentConfig.quick()
        full = ExperimentConfig.full()
        assert tiny.sat_n_variables < quick.sat_n_variables < full.sat_n_variables
        for config in (tiny, quick, full):
            assert config.sat_clause_ratio == 4.2
            assert config.sat_k == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(sat_n_variables=2, sat_k=3)
        with pytest.raises(ValueError):
            ExperimentConfig(sat_clause_ratio=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(sat_k=0)

    def test_sat_benchmark_spec_is_deterministic(self, tiny_config):
        a = tiny_config.sat_benchmark()
        b = tiny_config.sat_benchmark()
        assert a.key == SAT_KEY
        assert a.label == b.label
        # Same config -> the very same formula: this is what makes SAT
        # campaigns content-addressable in the engine cache.
        assert a.formula_factory().clauses == b.formula_factory().clauses

    def test_different_seed_changes_the_instance(self, tiny_config):
        import dataclasses

        other = dataclasses.replace(tiny_config, base_seed=tiny_config.base_seed + 1)
        assert (
            tiny_config.sat_benchmark().formula_factory().clauses
            != other.sat_benchmark().formula_factory().clauses
        )

    def test_spec_builds_walksat_solver(self, tiny_config):
        solver = tiny_config.sat_benchmark().make_solver(123)
        assert solver.config.max_flips == 123
        assert solver.formula.n_variables == tiny_config.sat_n_variables


class TestSATCampaignCollection:
    def test_collection_is_deterministic(self, tiny_config):
        first = collect_observations(tiny_config, ("sat",))
        assert set(first) == {SAT_KEY}
        assert first[SAT_KEY].n_runs == tiny_config.n_sequential_runs
        again = collect_observations(tiny_config, ("sat",))
        np.testing.assert_array_equal(first[SAT_KEY].iterations, again[SAT_KEY].iterations)

    def test_disk_cache_round_trip(self, tmp_path):
        config = ExperimentConfig(
            sat_n_variables=20,
            n_sequential_runs=4,
            max_iterations=50_000,
            base_seed=13,
        )
        first = collect_observations(config, ("sat",), cache_dir=tmp_path)
        assert len(list(tmp_path.glob("observations-*.json"))) == 1
        second = collect_observations(config, ("sat",), cache_dir=tmp_path)
        np.testing.assert_array_equal(first[SAT_KEY].iterations, second[SAT_KEY].iterations)

    def test_sat_campaign_is_backend_invariant(self, tiny_config):
        serial = collect_observations(tiny_config, ("sat",))[SAT_KEY]
        threaded = collect_observations(tiny_config, ("sat",), backend="thread", workers=2)
        np.testing.assert_array_equal(serial.iterations, threaded[SAT_KEY].iterations)
