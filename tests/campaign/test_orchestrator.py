"""The campaign orchestrator: execution, BUG-021, replay, determinism.

Synthetic solvers keep these fast; the solver's latent "iterations needed"
is a pure function of the seed, so kill-and-reseed rounds at different
budgets stay consistent and the decision log is a pure function of the
base seed — the property the cross-backend determinism tests pin.
"""

import numpy as np
import pytest

from repro.campaign import (
    AdaptiveController,
    CampaignError,
    CampaignReport,
    ReplayError,
    StageSpec,
    run_campaign,
    verify_report,
)
from repro.engine.core import collect_batch
from repro.solvers.base import LasVegasAlgorithm, RunResult


class GeometricSolver(LasVegasAlgorithm):
    """Latent cost = 1 + Exp(scale); solved iff it fits the budget.

    The first rng draw decides the run, so a given seed has one latent
    cost regardless of the issued budget — exactly how a real Las Vegas
    solver behaves under kill-and-reseed.
    """

    name = "geometric"

    def __init__(self, budget: int, scale: float = 100.0):
        self.budget = int(budget)
        self.scale = float(scale)

    def _run(self, rng: np.random.Generator) -> RunResult:
        need = 1 + int(rng.exponential(self.scale))
        if need <= self.budget:
            return RunResult(solved=True, iterations=need, runtime_seconds=0.0)
        return RunResult(solved=False, iterations=self.budget, runtime_seconds=0.0)


class NeverSolves(LasVegasAlgorithm):
    name = "never-solves"

    def _run(self, rng: np.random.Generator) -> RunResult:
        return RunResult(solved=False, iterations=self.budget, runtime_seconds=0.0)

    def __init__(self, budget: int):
        self.budget = int(budget)


def _stage(key="S", quota=10, budget=400, base_seed=7, scale=100.0, **kwargs):
    defaults = dict(
        label=f"geom-{key}",
        kind="test",
        make_solver=lambda budget: GeometricSolver(budget, scale),
        quota=quota,
        base_seed=base_seed,
        budget=budget,
        emit_keys=(key,),
        supports_cutoff=True,
    )
    defaults.update(kwargs)
    return StageSpec(key=key, **defaults)


class TestOffController:
    def test_matches_collect_batch(self):
        stage = _stage()
        report = run_campaign([stage])
        batch = report.observations()["S"]
        reference = collect_batch(
            GeometricSolver(400), 10, base_seed=7, label="geom-S"
        )
        np.testing.assert_array_equal(batch.iterations, reference.iterations)
        np.testing.assert_array_equal(batch.solved, reference.solved)
        np.testing.assert_array_equal(batch.seeds, reference.seeds)
        assert batch.label == reference.label

    def test_static_is_bit_identical_to_off(self):
        stages = [_stage("A", base_seed=1), _stage("B", base_seed=2, after=("A",))]
        off = run_campaign(stages).observations()
        static = run_campaign(stages, controller="static").observations()
        for key in off:
            np.testing.assert_array_equal(off[key].iterations, static[key].iterations)
            np.testing.assert_array_equal(off[key].seeds, static[key].seeds)
            np.testing.assert_array_equal(off[key].solved, static[key].solved)

    def test_emit_keys_fan_out(self):
        stage = _stage(emit_keys=("S", "S/alias"))
        observations = run_campaign([stage]).observations()
        assert set(observations) == {"S", "S/alias"}
        assert observations["S"] is observations["S/alias"]


class TestBug021:
    """Regression for BUG-021: a required stage with zero solved
    observations must hard-fail the campaign, controller or not."""

    def _hopeless(self, **kwargs):
        return _stage(
            make_solver=lambda budget: NeverSolves(budget), quota=5, **kwargs
        )

    @pytest.mark.parametrize("controller", ["off", "static", "adaptive"])
    def test_required_stage_with_zero_solved_fails(self, controller):
        with pytest.raises(CampaignError, match="zero solved"):
            run_campaign([self._hopeless()], controller=controller)

    def test_partial_report_records_the_failure(self):
        with pytest.raises(CampaignError) as excinfo:
            run_campaign([self._hopeless()])
        report = excinfo.value.report
        assert report.failed_stage == "S"
        assert "zero solved" in report.failure_reason
        kinds = [d["kind"] for d in report.decision_dicts()]
        assert "stage-failed" in kinds

    def test_later_stages_are_not_executed_after_a_failure(self):
        calls = []

        def tracking_solver(budget):
            calls.append(budget)
            return GeometricSolver(budget)

        stages = [
            self._hopeless(),
            _stage("T", base_seed=9, make_solver=tracking_solver, after=("S",)),
        ]
        with pytest.raises(CampaignError):
            run_campaign(stages)
        assert calls == []

    def test_optional_stage_does_not_fail_the_campaign(self):
        report = run_campaign([self._hopeless(required=False)])
        assert report.failed_stage is None
        assert report.stage("S").n_solved == 0

    def test_enforce_required_false_is_the_collectors_mode(self):
        report = run_campaign([self._hopeless()], enforce_required=False)
        assert report.failed_stage is None
        batch = report.observations()["S"]
        assert not batch.solved.any()  # the all-censored batch is the answer


class TestAdaptiveOrchestration:
    def test_reaches_quota_in_solved_runs_with_reseeding(self):
        # scale 3x the budget: ~72% of runs censor at the full budget.
        stage = _stage(quota=8, budget=100, scale=300.0, base_seed=3)
        report = run_campaign([stage], controller="adaptive")
        stage_report = report.stage("S")
        assert stage_report.n_solved >= 8
        assert stage_report.n_issued > 8  # censored runs were replaced

    def test_decision_log_is_deterministic_across_runs_and_backends(self):
        stage = _stage(quota=8, budget=100, scale=300.0, base_seed=3)
        logs = [
            run_campaign([stage], controller="adaptive").decision_dicts(),
            run_campaign([stage], controller="adaptive").decision_dicts(),
            run_campaign(
                [stage], controller="adaptive", backend="thread", workers=4
            ).decision_dicts(),
        ]
        assert logs[0] == logs[1] == logs[2]

    def test_run_streams_are_deterministic_too(self):
        stage = _stage(quota=8, budget=100, scale=300.0, base_seed=3)
        a = run_campaign([stage], controller="adaptive").stage("S")
        b = run_campaign(
            [stage], controller="adaptive", backend="thread", workers=2
        ).stage("S")
        assert [r.as_dict() | {"runtime_seconds": 0.0} for r in a.stream] == [
            r.as_dict() | {"runtime_seconds": 0.0} for r in b.stream
        ]

    def test_controller_instance_passthrough(self):
        stage = _stage(quota=6, budget=400)
        controller = AdaptiveController(probe_runs=3, max_round_runs=6)
        report = run_campaign([stage], controller=controller)
        assert report.controller == "adaptive"
        assert report.controller_params["probe_runs"] == 3


class TestReplayAndReport:
    def _report(self, controller="adaptive"):
        stage = _stage(quota=8, budget=100, scale=300.0, base_seed=3)
        return run_campaign([stage], controller=controller)

    @pytest.mark.parametrize("controller", ["off", "static", "adaptive"])
    def test_save_load_verify_round_trip(self, controller, tmp_path):
        report = self._report(controller)
        path = report.save(tmp_path / "report.json")
        loaded = CampaignReport.load(path)
        assert loaded.as_dict() == report.as_dict()
        assert verify_report(loaded) == len(loaded.decisions)

    def test_failed_campaign_report_round_trips(self, tmp_path):
        stage = _stage(make_solver=lambda budget: NeverSolves(budget), quota=4)
        with pytest.raises(CampaignError) as excinfo:
            run_campaign([stage])
        path = excinfo.value.report.save(tmp_path / "failed.json")
        loaded = CampaignReport.load(path)
        assert loaded.failed_stage == "S"
        assert verify_report(loaded) == len(loaded.decisions)

    def test_tampered_stream_fails_verification(self, tmp_path):
        report = self._report()
        payload = report.as_dict()
        # Flip one observation: the re-driven controller must diverge.
        target = payload["stages"][0]["stream"]
        solved = next(r for r in target if r["solved"])
        solved["iterations"] = solved["iterations"] * 10 + 17
        tampered = CampaignReport.from_dict(payload)
        with pytest.raises(ReplayError):
            verify_report(tampered)

    def test_wrong_format_marker_rejected(self):
        with pytest.raises(ValueError, match="format"):
            CampaignReport.from_dict({"format": "something-else"})


class TestDryRun:
    def test_plans_without_executing(self):
        def exploding_solver(budget):
            raise AssertionError("dry run must not build solvers")

        stages = [
            _stage("A", base_seed=1, make_solver=exploding_solver),
            _stage("B", base_seed=2, make_solver=exploding_solver, after=("A",)),
        ]
        report = run_campaign(stages, controller="adaptive", dry_run=True)
        assert report.dry_run
        assert report.observations() == {}
        kinds = [d["kind"] for d in report.decision_dicts()]
        assert kinds == ["dry-run-plan", "dry-run-plan"]
        assert verify_report(report) == 2

    def test_dry_run_is_deterministic(self):
        stages = [_stage("A", base_seed=1), _stage("B", base_seed=2)]
        a = run_campaign(stages, dry_run=True).as_dict()
        b = run_campaign(stages, dry_run=True).as_dict()
        assert a == b
