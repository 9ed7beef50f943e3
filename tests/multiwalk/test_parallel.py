"""In-process multi-walk emulation."""

import numpy as np
import pytest

from repro.csp.problems import CostasArrayProblem, NQueensProblem
from repro.engine import RaceOutcome
from repro.multiwalk.parallel import emulate_multiwalk
from repro.solvers.adaptive_search import AdaptiveSearch
from repro.solvers.base import LasVegasAlgorithm, RunResult


class SyntheticAlgorithm(LasVegasAlgorithm):
    name = "synthetic"

    def _run(self, rng: np.random.Generator) -> RunResult:
        iterations = int(rng.integers(1, 1000))
        return RunResult(solved=True, iterations=iterations, runtime_seconds=0.0)


class TestEmulateMultiwalk:
    def test_winner_has_minimum_iterations(self):
        algo = SyntheticAlgorithm()
        outcome = emulate_multiwalk(algo, 16, base_seed=0)
        assert isinstance(outcome, RaceOutcome)
        assert outcome.solved
        assert outcome.n_completed == 16  # every walk ran to completion
        # Re-running the individual walks must not find anything better.
        seq = np.random.SeedSequence(0)
        seeds = [int(s.generate_state(1)[0]) for s in seq.spawn(16)]
        best = min(algo.run(seed).iterations for seed in seeds)
        assert outcome.winner_result.iterations == best

    def test_more_walks_never_hurt(self):
        """Multi-walk minimum is non-increasing in the number of walks (same seed tree)."""
        algo = SyntheticAlgorithm()
        few = np.mean([emulate_multiwalk(algo, 2, base_seed=s).winner_result.iterations for s in range(15)])
        many = np.mean([emulate_multiwalk(algo, 16, base_seed=s).winner_result.iterations for s in range(15)])
        assert many <= few

    def test_single_walk_equals_sequential_run(self):
        algo = SyntheticAlgorithm()
        outcome = emulate_multiwalk(algo, 1, base_seed=3)
        assert outcome.n_walks == 1
        assert outcome.winner_result.iterations > 0

    def test_rejects_zero_walks(self):
        with pytest.raises(ValueError):
            emulate_multiwalk(SyntheticAlgorithm(), 0)

    def test_unsolved_walks_still_produce_outcome(self):
        from repro.solvers.adaptive_search import AdaptiveSearchConfig

        solver = AdaptiveSearch(NQueensProblem(30), AdaptiveSearchConfig(max_iterations=2))
        outcome = emulate_multiwalk(solver, 3, base_seed=0)
        assert not outcome.solved
        assert outcome.winner_result.iterations <= 2

    def test_real_solver_multiwalk_is_correct(self):
        solver = AdaptiveSearch(CostasArrayProblem(7))
        outcome = emulate_multiwalk(solver, 4, base_seed=1)
        assert outcome.solved
        assert solver.problem.is_solution(outcome.winner_result.solution)

    def test_unsolved_winner_tie_break_is_lowest_index(self):
        """All-unsolved emulations pick (min iterations, min index), as run_race does."""

        class NeverSolves(LasVegasAlgorithm):
            name = "never-solves"

            def _run(self, rng: np.random.Generator) -> RunResult:
                # Constant budget exhaustion: every walk ties on iterations.
                return RunResult(solved=False, iterations=77, runtime_seconds=0.0)

        outcome = emulate_multiwalk(NeverSolves(), 6, base_seed=9)
        assert not outcome.solved
        assert outcome.winner_index == 0
        assert outcome.winner_result.iterations == 77
