"""The streaming campaign orchestrator.

:func:`run_campaign` executes a validated stage DAG on any engine backend
under one of three controllers:

* ``off`` — each stage is one classic :func:`repro.engine.collect_batch`
  call (the stage's solver, seeds, label and disk cache), so observations
  and summaries are byte-identical to the pre-orchestrator campaign
  command.  This is the path every experiment collects through
  (:func:`repro.experiments.data.collect_observations`).
* ``static`` — the same runs, planned and recorded: one full-budget round
  of exactly the stage quota, with the plan in the decision log.
* ``adaptive`` — rounds planned live by
  :class:`repro.campaign.controller.AdaptiveController` from streaming
  censoring-aware fits: reduced-cutoff (kill-and-reseed) rounds, a
  fixed-vs-Luby cutoff schedule and predictor-driven worker allocation.

Two invariants hold regardless of controller:

* **BUG-021 guardrail** — a *required* stage whose executed runs contain
  zero solved observations hard-fails the campaign: the failure and its
  reason are appended to the decision log, recorded in the report
  (``failed_stage`` / ``failure_reason``) and surfaced as
  :class:`CampaignError` carrying that report.
* **Deterministic decisions** — controllers consume completed runs in
  stable index order (the orchestrator reassembles each round before
  feeding it), and only their iteration counts and solved flags.  The
  decision log is therefore a pure function of ``base_seed``, identical
  across runs, backends and worker counts — and :func:`replay_decisions`
  re-derives it offline from a saved report, which :func:`verify_report`
  turns into a determinism gate.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.campaign.controller import (
    Controller,
    Decision,
    DecisionLog,
    RoundPlan,
    StageRunRecord,
    make_controller,
)
from repro.campaign.report import CampaignReport, StageReport
from repro.campaign.stages import StageSpec, resolve_stage_order
from repro.engine.backends import BatchExecutor
from repro.engine.cache import ObservationCache
from repro.engine.core import collect_batch, iter_runs
from repro.engine.progress import BatchProgress, ProgressCallback
from repro.engine.seeding import spawn_seeds
from repro.multiwalk.observations import RuntimeObservations
from repro.solvers.base import RunResult

__all__ = ["CampaignError", "ReplayError", "replay_decisions", "run_campaign", "verify_report"]


class CampaignError(RuntimeError):
    """A campaign hard-failed; ``report`` records how far it got and why."""

    def __init__(self, message: str, report: CampaignReport) -> None:
        super().__init__(message)
        self.report = report


class ReplayError(RuntimeError):
    """A saved report's decision log could not be reproduced from its stream."""


#: Backends whose worker count the controller's allocation decision can set.
_ELASTIC_BACKENDS = ("thread", "process")


def _seed_head(stage, n: int = 4) -> list[int]:
    """First few seeds of a stage's stream (prefix-stable, so independent
    of how far the stream is eventually extended)."""
    return [int(seed) for seed in spawn_seeds(stage.base_seed, min(n, stage.quota))]


def _log_dry_run_plan(log: DecisionLog, stage, controller_name: str) -> None:
    """The resolved static plan of one stage, recorded without executing."""
    log.append(
        stage.key,
        "dry-run-plan",
        controller=controller_name,
        quota=stage.quota,
        budget=stage.budget,
        base_seed=stage.base_seed,
        after=list(stage.after),
        emit_keys=list(stage.emit_keys),
        required=bool(stage.required),
        seed_head=_seed_head(stage),
        cutoff=stage.budget,
        schedule="fixed",
        rounds=1,
    )


def _drive_stage(
    stage,
    controller: Controller,
    log: DecisionLog,
    fetch_round: Callable[[RoundPlan, int], Sequence[StageRunRecord]],
) -> list[StageRunRecord]:
    """Alternate plan/observe until the controller is done.

    The single control loop shared by live execution and offline replay:
    ``fetch_round(plan, issued)`` either runs the planned round on the
    engine or slices it out of a saved stream.  Every completed round is
    fed to the controller in index order and summarised as a ``round``
    decision, so the log documents exactly what was issued, killed and
    solved.
    """
    controller.begin_stage(stage, log)
    records: list[StageRunRecord] = []
    while (plan := controller.plan_round()) is not None:
        chunk = list(fetch_round(plan, len(records)))
        for record in chunk:
            controller.observe(record)
        solved = sum(1 for r in chunk if r.solved)
        killed = sum(1 for r in chunk if not r.solved and r.budget < stage.budget)
        log.append(
            stage.key,
            "round",
            round=plan.round_index,
            n_runs=plan.n_runs,
            budget=plan.budget,
            workers=plan.workers,
            note=plan.note,
            solved=solved,
            killed=killed,
            censored=len(chunk) - solved - killed,
        )
        records.extend(chunk)
    return records


def _finish_stage(
    log: DecisionLog, stage, records: Sequence[StageRunRecord], counted: int
) -> str | None:
    """Append the stage epilogue decisions; return the failure reason, if any.

    The BUG-021 guardrail lives here: a required stage whose runs contain
    zero solved observations fails the campaign, controller or not.
    """
    solved = sum(1 for r in records if r.solved)
    if stage.required and solved == 0:
        reason = (
            f"required stage {stage.key!r} yielded zero solved observations "
            f"in {len(records)} runs (all censored at their budgets)"
        )
        log.append(stage.key, "stage-failed", reason=reason, issued=len(records), solved=0)
        return reason
    if counted < stage.quota:
        log.append(
            stage.key,
            "stage-shortfall",
            counted=counted,
            quota=stage.quota,
            issued=len(records),
        )
    log.append(
        stage.key,
        "stage-complete",
        issued=len(records),
        solved=solved,
        counted=counted,
        quota=stage.quota,
    )
    return None


def _records_from_batch(batch: RuntimeObservations, budget: int) -> tuple[StageRunRecord, ...]:
    return tuple(
        StageRunRecord(
            index=i,
            seed=int(batch.seeds[i]),
            iterations=int(batch.iterations[i]),
            solved=bool(batch.solved[i]),
            budget=budget,
            runtime_seconds=float(batch.runtimes[i]),
        )
        for i in range(batch.n_runs)
    )


def _stage_report(
    stage: StageSpec,
    records: Sequence[StageRunRecord],
    batch: RuntimeObservations | None = None,
) -> StageReport:
    return StageReport(
        batch=batch,
        key=stage.key,
        label=stage.label,
        kind=stage.kind,
        quota=stage.quota,
        base_seed=stage.base_seed,
        budget=stage.budget,
        emit_keys=stage.emit_keys,
        after=stage.after,
        required=stage.required,
        supports_cutoff=stage.supports_cutoff,
        stream=tuple(records),
    )


def run_campaign(
    stages: Sequence[StageSpec],
    *,
    controller: str | Controller | None = "off",
    backend: str | BatchExecutor | None = None,
    workers: int | None = None,
    progress: ProgressCallback | None = None,
    cache: ObservationCache | str | Path | None = None,
    dry_run: bool = False,
    enforce_required: bool = True,
    decision_listener: Callable[[Decision], None] | None = None,
) -> CampaignReport:
    """Execute (or, with ``dry_run``, only plan) a campaign stage DAG.

    Parameters
    ----------
    stages:
        Stage specs; validated and topologically ordered before anything
        runs (declaration order wherever dependencies allow).
    controller:
        ``"off"`` (default, one classic batch per stage),
        ``"static"``, ``"adaptive"``, or a configured
        :class:`~repro.campaign.controller.Controller` instance.
    backend, workers, progress, cache:
        Engine plumbing, as for :func:`repro.engine.collect_batch`.  The
        disk cache serves the ``off`` controller only: controller-driven
        rounds are not classic fixed batches, so caching them under the
        batch content address would poison it.
    dry_run:
        Resolve the DAG, record every stage's static plan (seed blocks
        included) in the decision log and return — no solver runs, no
        cache touched.
    enforce_required:
        When false, required stages no longer hard-fail the campaign
        (the experiments' collector uses this: an all-censored batch is a
        valid answer for a table, only ``campaign`` invocations enforce
        BUG-021).
    decision_listener:
        Optional callback receiving each decision as it is appended to the
        log (the campaign service streams decision events through it).
        Observational only: the campaign neither waits for nor consults it.

    Raises
    ------
    CampaignError
        BUG-021: a required stage yielded zero solved observations.  The
        exception carries the partial :class:`CampaignReport` (failed
        stage included) with ``failed_stage``/``failure_reason`` set.
    """
    order = resolve_stage_order(stages)
    if not enforce_required:
        order = [dataclasses.replace(stage, required=False) for stage in order]

    if isinstance(controller, Controller):
        prototype: Controller | None = controller
        controller_name = controller.name
    else:
        prototype = make_controller(controller if controller is not None else "off")
        controller_name = controller if controller is not None else "off"
    controller_params = {} if prototype is None else prototype.params()

    log = DecisionLog(listener=decision_listener)
    if dry_run:
        for stage in order:
            _log_dry_run_plan(log, stage, controller_name)
        return CampaignReport(
            controller=controller_name,
            controller_params=controller_params,
            stages=tuple(_stage_report(stage, ()) for stage in order),
            decisions=tuple(log.decisions),
            dry_run=True,
        )

    elastic = backend in _ELASTIC_BACKENDS
    stage_reports: list[StageReport] = []
    for stage in order:
        batch: RuntimeObservations | None = None
        if prototype is None:
            batch = collect_batch(
                stage.make_solver(stage.budget),
                stage.quota,
                base_seed=stage.base_seed,
                label=stage.label,
                backend=backend,
                workers=workers,
                progress=progress,
                cache=cache,
            )
            records: Sequence[StageRunRecord] = _records_from_batch(batch, stage.budget)
            counted = len(records)
        else:
            start = time.perf_counter()

            def fetch_round(
                plan: RoundPlan, issued: int, stage=stage, start=start
            ) -> list[StageRunRecord]:
                seeds = spawn_seeds(stage.base_seed, issued + plan.n_runs)[issued:]
                solver = stage.make_solver(plan.budget)
                use_workers = (
                    plan.workers if elastic and plan.workers is not None else workers
                )
                results: list[RunResult | None] = [None] * plan.n_runs
                completed = 0
                for local, result in iter_runs(
                    solver, seeds, backend=backend, workers=use_workers
                ):
                    results[local] = result
                    completed += 1
                    if progress is not None:
                        progress(
                            BatchProgress(
                                index=issued + local,
                                completed=issued + completed,
                                total=issued + plan.n_runs,
                                result=result,
                                elapsed_seconds=time.perf_counter() - start,
                            )
                        )
                assert completed == plan.n_runs  # every backend delivers every run
                return [
                    StageRunRecord(
                        index=issued + offset,
                        seed=int(seeds[offset]),
                        iterations=int(result.iterations),
                        solved=bool(result.solved),
                        budget=plan.budget,
                        runtime_seconds=float(result.runtime_seconds),
                    )
                    for offset, result in enumerate(results)
                ]

            records = _drive_stage(stage, prototype, log, fetch_round)
            counted = prototype.counted

        failure = _finish_stage(log, stage, records, counted)
        stage_reports.append(_stage_report(stage, records, batch))
        if failure is not None:
            report = CampaignReport(
                controller=controller_name,
                controller_params=controller_params,
                stages=tuple(stage_reports),
                decisions=tuple(log.decisions),
                failed_stage=stage.key,
                failure_reason=failure,
            )
            raise CampaignError(failure, report)

    return CampaignReport(
        controller=controller_name,
        controller_params=controller_params,
        stages=tuple(stage_reports),
        decisions=tuple(log.decisions),
    )


def replay_decisions(report: CampaignReport) -> list[dict]:
    """Re-derive a report's decision log from its recorded run streams.

    No solver executes: a fresh controller (rebuilt from the recorded name
    and parameters) is driven by the saved per-stage streams through the
    same control loop as the live orchestrator.  Because controllers only
    ever see (index, iterations, solved, budget), the result must equal
    the recorded log — any divergence means the stream and the decisions
    disagree, surfaced as :class:`ReplayError`.
    """
    log = DecisionLog()
    if report.dry_run:
        for stage in report.stages:
            _log_dry_run_plan(log, stage, report.controller)
        return log.as_dicts()
    for stage in report.stages:
        records = list(stage.stream)
        if report.controller == "off":
            counted = len(records)
        else:
            controller = make_controller(report.controller, report.controller_params)

            def fetch_round(
                plan: RoundPlan, issued: int, stage=stage, records=records
            ) -> list[StageRunRecord]:
                chunk = records[issued : issued + plan.n_runs]
                if len(chunk) != plan.n_runs or any(
                    r.budget != plan.budget for r in chunk
                ):
                    raise ReplayError(
                        f"stage {stage.key!r}: recorded stream diverges from the "
                        f"replayed plan at run {issued} "
                        f"(planned {plan.n_runs} runs at budget {plan.budget})"
                    )
                return chunk

            driven = _drive_stage(stage, controller, log, fetch_round)
            if len(driven) != len(records):
                raise ReplayError(
                    f"stage {stage.key!r}: {len(records) - len(driven)} recorded "
                    "runs left over after the replayed controller finished"
                )
            counted = controller.counted
        _finish_stage(log, stage, records, counted)
    return log.as_dicts()


def verify_report(report: CampaignReport) -> int:
    """Determinism gate: assert the decision log replays bit for bit.

    Returns the number of verified decisions; raises :class:`ReplayError`
    naming the first diverging entry otherwise.
    """
    replayed = replay_decisions(report)
    recorded = report.decision_dicts()
    if replayed == recorded:
        return len(recorded)
    for position, (new, old) in enumerate(zip(replayed, recorded)):
        if new != old:
            raise ReplayError(
                f"decision {position} diverges on replay:\n"
                f"  recorded: {old}\n  replayed: {new}"
            )
    raise ReplayError(
        f"decision count diverges on replay: recorded {len(recorded)}, "
        f"replayed {len(replayed)}"
    )
