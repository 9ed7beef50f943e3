"""Collection of the sequential solver campaigns.

Every solver-backed experiment (Tables 1–5, Figures 6–14, the SAT tables)
consumes the same raw material: a batch of independent sequential runs per
benchmark.  :func:`collect_observations` is the one way to collect them: it
runs the stage DAG of :mod:`repro.experiments.stages` through the campaign
orchestrator (:func:`repro.campaign.run_campaign`) with the controller
``off``, which routes every batch through :func:`repro.engine.collect_batch`
— campaigns can be collected on any backend with bit-identical results.
Batches persist across processes through the engine's content-addressed
:class:`repro.engine.ObservationCache` when a cache directory is given; a
disk-cache entry written by one backend is a valid hit for all of them.

The stage DAG gives the ``SAT`` workload and the default policy's row of
the policy family one stage with two emit keys, so that batch runs once
per call even without a disk cache.

The collector runs the orchestrator with ``enforce_required=False``: an
all-censored batch is a legitimate *answer* for a table (the
censoring-aware formatting paths exist for it), whereas the ``campaign``
subcommand enforces the BUG-021 zero-observation guardrail.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable, Mapping

from repro.campaign.orchestrator import run_campaign
from repro.engine.backends import BatchExecutor
from repro.engine.progress import ProgressCallback
from repro.experiments.config import ExperimentConfig
from repro.experiments.stages import campaign_stages
from repro.multiwalk.observations import RuntimeObservations

__all__ = ["CampaignSummary", "collect_observations"]


def collect_observations(
    config: ExperimentConfig,
    kinds: Iterable[str],
    *,
    cache_dir: str | Path | None = None,
    backend: str | BatchExecutor | None = None,
    workers: int | None = None,
    progress: ProgressCallback | None = None,
) -> dict[str, RuntimeObservations]:
    """Run the sequential campaigns of the requested observation kinds.

    Parameters
    ----------
    config:
        Experiment configuration (instance sizes, run counts, seed).
    kinds:
        Observation kinds to collect (any of
        :data:`~repro.experiments.stages.STAGE_KINDS`).  Keys of the
        returned mapping are the stages' emit keys: ``"MS"``, ``"AI"``,
        ``"Costas"``, ``"SAT"`` and ``"SAT/<policy>"``.
    cache_dir:
        Optional directory for JSON persistence across processes.  Files are
        content-addressed by (solver, config, problem, seed), so changing
        any size/seed parameter triggers a fresh campaign.
    backend, workers:
        Execution backend and worker count forwarded to the engine
        (default: serial).
    progress:
        Optional structured progress callback forwarded to the engine.
    """
    report = run_campaign(
        campaign_stages(config, kinds),
        controller="off",
        backend=backend,
        workers=workers,
        progress=progress,
        cache=cache_dir,
        enforce_required=False,
    )
    return report.observations()


@dataclasses.dataclass(frozen=True)
class CampaignSummary:
    """Bookkeeping record describing a collected campaign (used by the CLI)."""

    config: ExperimentConfig
    n_runs: Mapping[str, int]
    success_rates: Mapping[str, float]

    @classmethod
    def from_observations(
        cls, config: ExperimentConfig, observations: Mapping[str, RuntimeObservations]
    ) -> "CampaignSummary":
        return cls(
            config=config,
            n_runs={key: obs.n_runs for key, obs in observations.items()},
            success_rates={key: obs.success_rate() for key, obs in observations.items()},
        )
