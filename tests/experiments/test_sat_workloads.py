"""SAT workload families and policies through the experiment layer."""

import dataclasses

import numpy as np
import pytest

from repro.experiments.config import SAT_FAMILIES, SAT_KEY, ExperimentConfig
from repro.experiments.data import collect_observations
from repro.experiments.sat import sat_flips_table, sat_policy_table
from repro.solvers.policies import POLICIES


def _tiny(**overrides):
    return dataclasses.replace(ExperimentConfig.tiny(), **overrides)


class TestFamilies:
    def test_family_validation(self):
        with pytest.raises(ValueError):
            _tiny(sat_family="satlib")
        with pytest.raises(ValueError):
            _tiny(sat_policy="gsat")

    @pytest.mark.parametrize("family", SAT_FAMILIES)
    def test_formula_factory_is_deterministic(self, family):
        config = _tiny(sat_family=family)
        a = config.sat_benchmark().formula_factory()
        b = config.sat_benchmark().formula_factory()
        assert a.clauses == b.clauses
        assert a.n_variables == b.n_variables

    def test_families_produce_distinct_instances(self):
        planted = _tiny(sat_family="planted").sat_benchmark().formula_factory()
        uniform = _tiny(sat_family="uniform").sat_benchmark().formula_factory()
        dimacs = _tiny(sat_family="dimacs").sat_benchmark().formula_factory()
        assert planted.clauses != uniform.clauses
        assert dimacs.n_variables != planted.n_variables or dimacs.clauses != planted.clauses

    def test_labels_name_family_and_policy(self):
        assert _tiny().sat_benchmark().label == "3-SAT 25@4.2"
        assert _tiny(sat_family="uniform").sat_benchmark().label == "uniform 3-SAT 25@4.2"
        assert _tiny(sat_family="dimacs").sat_benchmark().label.startswith("dimacs uf20")
        assert _tiny(sat_policy="novelty").sat_benchmark().label.endswith("[novelty]")

    def test_dimacs_instance_is_selectable(self):
        config = _tiny(sat_family="dimacs", sat_dimacs="uf50-218-s1")
        formula = config.sat_benchmark().formula_factory()
        assert (formula.n_variables, formula.n_clauses) == (50, 218)

    def test_unknown_dimacs_instance_fails_at_configuration_time(self):
        # Eager validation: a typo'd instance name must fail before any
        # campaign runs, not minutes in when the SAT formula is built.
        with pytest.raises(ValueError, match="bundled instances"):
            _tiny(sat_family="dimacs", sat_dimacs="missing-instance")

    def test_unknown_dimacs_name_is_ignored_by_other_families(self):
        # The name is only consulted by the dimacs family; a stale value
        # must not break planted/uniform configurations.
        config = _tiny(sat_family="planted", sat_dimacs="missing-instance")
        assert config.sat_benchmark().formula_factory().n_variables == 25

    def test_spec_policy_override_reaches_the_solver(self):
        solver = _tiny().sat_benchmark(policy="novelty+").make_solver(1000)
        assert solver.config.policy == "novelty+"
        assert solver.config.max_flips == 1000


class TestCampaignCollection:
    @pytest.mark.parametrize("family", SAT_FAMILIES)
    def test_collect_each_family_through_the_engine(self, family, tmp_path):
        config = _tiny(sat_family=family, n_sequential_runs=8)
        observations = collect_observations(config, ("sat",), cache_dir=tmp_path)
        batch = observations[SAT_KEY]
        assert batch.n_runs == 8
        assert batch.label == config.sat_benchmark().label
        # Second collection must be a disk-cache hit producing equal data.
        again = collect_observations(config, ("sat",), cache_dir=tmp_path)[SAT_KEY]
        np.testing.assert_array_equal(batch.iterations, again.iterations)
        np.testing.assert_array_equal(batch.solved, again.solved)

    def test_families_and_policies_have_distinct_fingerprints(self, tmp_path):
        for family in SAT_FAMILIES:
            for policy in ("walksat", "novelty"):
                config = _tiny(sat_family=family, sat_policy=policy, n_sequential_runs=4)
                collect_observations(config, ("sat",), cache_dir=tmp_path)
        files = {p.name for p in tmp_path.glob("*.json")}
        assert len(files) == len(SAT_FAMILIES) * 2, files

    def test_policy_campaign_collects_every_policy(self):
        config = _tiny(n_sequential_runs=6)
        observations = collect_observations(config, ("sat_policies",))
        assert set(observations) == {f"{SAT_KEY}/{p}" for p in POLICIES}
        labels = {observations[f"{SAT_KEY}/{p}"].label for p in POLICIES}
        assert len(labels) == len(POLICIES)  # one label per policy

    def test_run_executes_the_shared_default_policy_batch_once(
        self, tmp_path, monkeypatch, capsys
    ):
        # Regression: `run sat_flips sat_policies` needs the SAT workload and
        # the policy family; the default policy's batch serves both, so it
        # must run (and be written) once, with no in-process memo involved.
        import repro.cli

        events = []
        collect = repro.cli.collect_observations

        def counting_collect(*args, **kwargs):
            return collect(*args, progress=events.append, **kwargs)

        monkeypatch.setattr(repro.cli, "collect_observations", counting_collect)
        argv = ["run", "sat_flips", "sat_policies", "--profile", "tiny", "--cache", str(tmp_path)]
        assert repro.cli.main(argv) == 0
        assert "Sequential WalkSAT flips" in capsys.readouterr().out
        assert len(list(tmp_path.glob("observations-*.json"))) == 1 + (len(POLICIES) - 1)
        n_runs = ExperimentConfig.tiny().n_sequential_runs
        assert sum(1 for event in events if event.completed == 1) == len(POLICIES)
        assert len(events) == len(POLICIES) * n_runs

    def test_policy_campaign_shares_the_default_policy_cache_entry(self, tmp_path):
        config = _tiny(n_sequential_runs=6)
        collect_observations(config, ("sat",), cache_dir=tmp_path)
        n_single = len(list(tmp_path.glob("*.json")))
        collect_observations(config, ("sat_policies",), cache_dir=tmp_path)
        n_all = len(list(tmp_path.glob("*.json")))
        # The walksat batch was reused from disk: only the three non-default
        # policies added files.
        assert n_single == 1
        assert n_all == 1 + (len(POLICIES) - 1)


class TestCensoringAwareFits:
    def test_uniform_runs_hitting_max_flips_flow_through_censored_fit(self):
        # Regression (ISSUE-5): a tight flip budget on the uniform family
        # censors part of the campaign; sat_flips must report the censored
        # exponential MLE mean instead of the naive solved-only mean.
        config = _tiny(sat_family="uniform", n_sequential_runs=30, max_iterations=60)
        observations = collect_observations(config, ("sat",))
        batch = observations[SAT_KEY]
        assert 0 < batch.n_solved < batch.n_runs, "need a partially censored batch"
        table = sat_flips_table(config, observations)
        assert table.censored_mean is not None
        # The censoring correction adds the capped runs' exposure: it must
        # exceed the naive mean of the solved runs.
        assert table.censored_mean > table.summary.mean
        assert "censoring-aware mean" in table.format()

    def test_fully_observed_batch_reports_no_censored_mean(self):
        config = _tiny(n_sequential_runs=8)
        observations = collect_observations(config, ("sat",))
        assert observations[SAT_KEY].n_solved == 8
        table = sat_flips_table(config, observations)
        assert table.censored_mean is None
        assert "censoring-aware" not in table.format()

    def test_fully_censored_batch_formats_without_crashing(self):
        config = _tiny(sat_family="uniform", n_sequential_runs=6, max_iterations=1)
        observations = collect_observations(config, ("sat",))
        assert observations[SAT_KEY].n_solved == 0
        table = sat_flips_table(config, observations)
        assert table.summary is None
        assert "every run was censored" in table.format()

    def test_policy_table_reports_per_policy_censoring(self):
        config = _tiny(sat_family="uniform", n_sequential_runs=20, max_iterations=60)
        table = sat_policy_table(config, collect_observations(config, ("sat_policies",)))
        assert table.policies == POLICIES
        assert set(table.censored_means) == set(POLICIES)
        formatted = table.format()
        for policy in POLICIES:
            assert policy in formatted
