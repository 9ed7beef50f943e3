"""Campaign stages: the unit of work the orchestrator schedules.

A campaign is a small DAG of :class:`StageSpec` nodes.  Each stage owns one
deterministic seed stream (rooted at ``base_seed``) and one observation
quota; the orchestrator decides *how* the stage's runs are issued (one
fixed batch under the ``off``/``static`` controllers, adaptive
kill-and-reseed rounds under ``adaptive``) but never *which* runs exist for
a given index — seeds are a pure function of ``(base_seed, index)`` through
the engine's prefix-stable :func:`repro.engine.seeding.spawn_seeds`, so the
stream can be extended indefinitely without disturbing already-issued runs.

``resolve_stage_order`` validates the DAG (unique keys, known dependencies,
acyclic) and returns a deterministic topological order: declaration order,
refined only as far as dependencies require — so two invocations of the
same campaign always execute, print and log stages identically.
"""

from __future__ import annotations

import dataclasses
import fnmatch
from typing import Callable, Sequence

from repro.solvers.base import LasVegasAlgorithm

__all__ = ["StageGraphError", "StageSpec", "resolve_stage_order", "select_stages"]


class StageGraphError(ValueError):
    """The stage list does not form a valid campaign DAG."""


@dataclasses.dataclass(frozen=True)
class StageSpec:
    """One campaign stage: a solver family, a seed stream and a quota.

    Attributes
    ----------
    key:
        Unique stage identifier (``"MS"``, ``"SAT"``, ``"SAT/novelty"`` …).
    label:
        Display/cache label of the collected batch (the engine's
        content-addressed disk cache keys on it, so a label change is a
        cache miss).
    kind:
        Observation kind the stage belongs to (``"benchmarks"``, ``"sat"``,
        ``"sat_policies"``) — experiment-registry vocabulary.
    make_solver:
        ``make_solver(budget)`` returns the stage's solver with the given
        per-run iteration/flip budget.  Controllers re-invoke it per round
        to issue reduced-cutoff (kill-and-reseed) runs.
    quota:
        Observation target.  Under ``off``/``static`` execution this is the
        classic batch size (every completed run counts, censored included);
        the adaptive controller counts *solved* observations and replaces
        killed runs from the same seed stream.
    base_seed:
        Root of the stage's seed stream.
    budget:
        Full per-run budget (the censoring threshold of an un-killed run).
    emit_keys:
        Keys under which the stage's batch appears in the campaign's
        observation mapping (one stage may serve several, e.g. the SAT
        stage doubling as the default policy row).
    after:
        Keys of stages that must complete first.
    required:
        BUG-021 guardrail: a required stage whose batch contains zero
        *solved* observations hard-fails the campaign.
    supports_cutoff:
        Whether the adaptive controller may issue reduced-budget rounds
        (kill-and-reseed).  Off for the CSP benchmarks — their quotas are
        calibrated to solve within budget — on for the SAT workloads.
    """

    key: str
    label: str
    kind: str
    make_solver: Callable[[int], LasVegasAlgorithm]
    quota: int
    base_seed: int
    budget: int
    emit_keys: tuple[str, ...]
    after: tuple[str, ...] = ()
    required: bool = True
    supports_cutoff: bool = False

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("stage key must be non-empty")
        if self.quota < 1:
            raise ValueError(f"stage {self.key!r}: quota must be >= 1, got {self.quota}")
        if self.budget < 1:
            raise ValueError(f"stage {self.key!r}: budget must be >= 1, got {self.budget}")
        if not self.emit_keys:
            raise ValueError(f"stage {self.key!r}: emit_keys must be non-empty")


def resolve_stage_order(stages: Sequence[StageSpec]) -> list[StageSpec]:
    """Validate the campaign DAG and return its deterministic execution order.

    Kahn's algorithm with a declaration-ordered frontier: among ready
    stages the earliest-declared runs first, so the order (and with it the
    decision log, the progress stream and the printed summary) cannot vary
    between invocations.
    """
    stages = list(stages)
    keys = [stage.key for stage in stages]
    duplicates = {key for key in keys if keys.count(key) > 1}
    if duplicates:
        raise StageGraphError(f"duplicate stage keys: {sorted(duplicates)}")
    emitted = [key for stage in stages for key in stage.emit_keys]
    emit_duplicates = {key for key in emitted if emitted.count(key) > 1}
    if emit_duplicates:
        raise StageGraphError(f"multiple stages emit the same keys: {sorted(emit_duplicates)}")
    known = set(keys)
    for stage in stages:
        unknown = [dep for dep in stage.after if dep not in known]
        if unknown:
            raise StageGraphError(f"stage {stage.key!r} depends on unknown stages {unknown}")
        if stage.key in stage.after:
            raise StageGraphError(f"stage {stage.key!r} depends on itself")

    order: list[StageSpec] = []
    done: set[str] = set()
    remaining = list(stages)
    while remaining:
        ready = [stage for stage in remaining if all(dep in done for dep in stage.after)]
        if not ready:
            cycle = sorted(stage.key for stage in remaining)
            raise StageGraphError(f"stage dependencies contain a cycle among {cycle}")
        nxt = ready[0]  # earliest declared among the ready set
        order.append(nxt)
        done.add(nxt.key)
        remaining.remove(nxt)
    return order


def select_stages(stages: Sequence[StageSpec], patterns_arg: str) -> list[StageSpec]:
    """Filter a stage DAG by comma-separated key globs, keeping dependencies.

    Returns the selected stages in their original declaration order.
    Dependencies of selected stages are pulled in transitively so the DAG
    stays resolvable.  Raises :class:`ValueError` (with a human-readable
    message) for an empty pattern list or a pattern matching nothing —
    both the CLI and the campaign service surface that message verbatim.
    """
    patterns = [p.strip() for p in patterns_arg.split(",") if p.strip()]
    if not patterns:
        raise ValueError("--stages got an empty pattern list")
    by_key = {stage.key: stage for stage in stages}
    selected: set[str] = set()
    for pattern in patterns:
        hits = fnmatch.filter(by_key, pattern)
        if not hits:
            known = ", ".join(by_key)
            raise ValueError(
                f"--stages pattern {pattern!r} matches no stage (stages: {known})"
            )
        selected.update(hits)
    frontier = list(selected)
    while frontier:  # dependency closure over `after`
        for dep in by_key[frontier.pop()].after:
            if dep not in selected:
                selected.add(dep)
                frontier.append(dep)
    return [stage for stage in stages if stage.key in selected]
