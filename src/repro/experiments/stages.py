"""Stage definitions of the experiment campaigns.

The experiment campaigns are *declared* here as
:class:`repro.campaign.StageSpec` DAGs and executed by the orchestrator
(:func:`repro.experiments.data.collect_observations` runs them with the
controller ``off``).  One stage per batch, each with a fixed quota, seed
root, budget and label — which is what keeps ``--controller off``
campaigns byte-identical across releases (same solvers, same seed
streams, same disk-cache addresses).

The stage DAG for a full campaign:

* ``MS``, ``AI``, ``Costas`` — the three CSP benchmarks, independent.
* ``SAT`` — the configured WalkSAT workload; doubles as the default
  policy's row of the policy-family comparison (one stage, two emit
  keys), so the default policy never runs twice.
* ``SAT/<policy>`` — one stage per non-default flip policy, all declared
  ``after`` the ``SAT`` stage: they share its instance and seed stream,
  and the baseline lands first in every log and summary.

:data:`STAGE_KINDS` is the authoritative list of observation kinds; the
experiment registry re-exports it as ``OBSERVATION_KINDS``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.campaign.stages import StageSpec
from repro.experiments.config import BENCHMARK_KEYS, SAT_KEY, ExperimentConfig
from repro.solvers.policies import POLICIES

__all__ = ["STAGE_KINDS", "campaign_stages", "canonical_emit_order"]

#: Observation-campaign kinds a stage (or an experiment) can declare.
STAGE_KINDS: tuple[str, ...] = ("benchmarks", "sat", "sat_policies")


def campaign_stages(
    config: ExperimentConfig, kinds: Iterable[str] = STAGE_KINDS
) -> list[StageSpec]:
    """Build the stage DAG covering the requested observation kinds."""
    kinds = tuple(kinds)
    unknown = [kind for kind in kinds if kind not in STAGE_KINDS]
    if unknown:
        raise ValueError(f"unknown observation kinds {unknown}; expected {STAGE_KINDS}")

    stages: list[StageSpec] = []
    if "benchmarks" in kinds:
        benchmarks = config.benchmarks()
        for offset, key in enumerate(BENCHMARK_KEYS):
            spec = benchmarks[key]
            stages.append(
                StageSpec(
                    key=key,
                    label=spec.label,
                    kind="benchmarks",
                    make_solver=spec.make_solver,
                    quota=config.n_sequential_runs,
                    base_seed=config.base_seed + offset,
                    budget=config.max_iterations,
                    emit_keys=(key,),
                )
            )

    want_sat = "sat" in kinds
    want_policies = "sat_policies" in kinds
    if want_sat or want_policies:
        spec = config.sat_benchmark()
        emit = []
        if want_sat:
            emit.append(SAT_KEY)
        if want_policies:
            # The configured policy's row of the policy family is this very
            # batch: one stage, two emit keys, zero duplicate runs.
            emit.append(f"{SAT_KEY}/{config.sat_policy}")
        stages.append(
            StageSpec(
                key=SAT_KEY,
                label=spec.label,
                kind="sat",
                make_solver=spec.make_solver,
                quota=config.n_sequential_runs,
                # Offset past the three CSP benchmarks' seed roots (+0..2).
                base_seed=config.base_seed + len(BENCHMARK_KEYS),
                budget=config.max_iterations,
                emit_keys=tuple(emit),
                supports_cutoff=True,
            )
        )
    if want_policies:
        for policy in POLICIES:
            if policy == config.sat_policy:
                continue
            policy_spec = config.sat_benchmark(policy=policy)
            stages.append(
                StageSpec(
                    key=f"{SAT_KEY}/{policy}",
                    label=policy_spec.label,
                    kind="sat_policies",
                    make_solver=policy_spec.make_solver,
                    quota=config.n_sequential_runs,
                    # Same seed stream as the SAT stage: batches differ only
                    # in the flip policy, the SAT analogue of comparing
                    # solvers on a fixed benchmark.
                    base_seed=config.base_seed + len(BENCHMARK_KEYS),
                    budget=config.max_iterations,
                    emit_keys=(f"{SAT_KEY}/{policy}",),
                    after=(SAT_KEY,),
                    supports_cutoff=True,
                )
            )
    return stages


def canonical_emit_order(stages: Sequence[StageSpec]) -> list[str]:
    """Emit keys in the order every campaign summary has always printed them.

    CSP benchmarks first (table order), then the SAT workload, then the
    policy family in :data:`~repro.solvers.policies.POLICIES` order — the
    configured policy's shared batch included at its policy position, not
    at its stage position.
    """
    emitted = {key for stage in stages for key in stage.emit_keys}
    order = [key for key in (*BENCHMARK_KEYS, SAT_KEY) if key in emitted]
    order.extend(
        key for policy in POLICIES if (key := f"{SAT_KEY}/{policy}") in emitted
    )
    leftovers = sorted(emitted.difference(order))  # future kinds: stable tail
    return order + leftovers
