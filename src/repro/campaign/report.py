"""Campaign reports: stages, observation streams and the decision log.

A :class:`CampaignReport` is the complete, JSON-serialisable record of one
orchestrated campaign: per stage the declared constants (quota, budget,
seed root, flags) plus the full run stream *in index order*, and the
campaign-wide decision log.  The stream is stored with exactly the fields
controllers may consume (index, seed, iterations, solved, budget — plus
wall-clock runtimes for humans), which is what makes a saved report
replayable: the controller logic can be re-driven offline from the report
alone and must reproduce the decision log bit for bit.

A failed campaign (BUG-021: a required stage with zero solved
observations) still produces a report — ``failed_stage`` and
``failure_reason`` record where and why it stopped.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.campaign.controller import Decision, StageRunRecord
from repro.multiwalk.observations import RuntimeObservations

__all__ = ["CampaignReport", "StageReport"]

#: Format tag of the report JSON (bump on incompatible layout changes).
REPORT_FORMAT = "repro-campaign-report-v1"


@dataclasses.dataclass(frozen=True)
class StageReport:
    """One executed (or planned) stage with its full run stream.

    Exposes the same planning attributes as
    :class:`~repro.campaign.stages.StageSpec` (``quota``, ``budget``,
    ``base_seed``, ``supports_cutoff``), so a controller can be re-driven
    from a report during replay without rebuilding any solver.
    """

    key: str
    label: str
    kind: str
    quota: int
    base_seed: int
    budget: int
    emit_keys: tuple[str, ...]
    after: tuple[str, ...]
    required: bool
    supports_cutoff: bool
    stream: tuple[StageRunRecord, ...]
    #: The engine's batch when the ``off`` controller collected the stage
    #: wholesale.  Not serialised; :meth:`observations` returns it as
    #: collected (cache hits included) instead of rebuilding it.
    batch: RuntimeObservations | None = dataclasses.field(
        default=None, compare=False, repr=False
    )

    @property
    def n_issued(self) -> int:
        return len(self.stream)

    @property
    def n_solved(self) -> int:
        return sum(1 for record in self.stream if record.solved)

    @property
    def n_killed(self) -> int:
        """Censored runs issued below the full budget (killed-and-reseeded)."""
        return sum(
            1 for record in self.stream if not record.solved and record.budget < self.budget
        )

    def observations(self) -> RuntimeObservations | None:
        """The stage's batch, reassembled from the stream (``None`` if empty)."""
        if self.batch is not None:
            return self.batch
        if not self.stream:
            return None
        return RuntimeObservations(
            label=self.label,
            iterations=np.array([r.iterations for r in self.stream], dtype=float),
            runtimes=np.array([r.runtime_seconds for r in self.stream], dtype=float),
            solved=np.array([r.solved for r in self.stream], dtype=bool),
            seeds=np.array([r.seed for r in self.stream], dtype=np.int64),
        )

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "kind": self.kind,
            "quota": self.quota,
            "base_seed": self.base_seed,
            "budget": self.budget,
            "emit_keys": list(self.emit_keys),
            "after": list(self.after),
            "required": self.required,
            "supports_cutoff": self.supports_cutoff,
            "n_issued": self.n_issued,
            "n_solved": self.n_solved,
            "n_killed": self.n_killed,
            "stream": [record.as_dict() for record in self.stream],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StageReport":
        return cls(
            key=payload["key"],
            label=payload["label"],
            kind=payload["kind"],
            quota=int(payload["quota"]),
            base_seed=int(payload["base_seed"]),
            budget=int(payload["budget"]),
            emit_keys=tuple(payload["emit_keys"]),
            after=tuple(payload["after"]),
            required=bool(payload["required"]),
            supports_cutoff=bool(payload["supports_cutoff"]),
            stream=tuple(
                StageRunRecord(
                    index=int(r["index"]),
                    seed=int(r["seed"]),
                    iterations=int(r["iterations"]),
                    solved=bool(r["solved"]),
                    budget=int(r["budget"]),
                    runtime_seconds=float(r["runtime_seconds"]),
                )
                for r in payload["stream"]
            ),
        )


@dataclasses.dataclass(frozen=True)
class CampaignReport:
    """Everything one orchestrated campaign did, decided and observed."""

    controller: str
    controller_params: Mapping[str, object]
    stages: tuple[StageReport, ...]
    decisions: tuple[Decision, ...]
    failed_stage: str | None = None
    failure_reason: str | None = None
    dry_run: bool = False

    def stage(self, key: str) -> StageReport:
        for stage in self.stages:
            if stage.key == key:
                return stage
        raise KeyError(f"no stage {key!r} in this report")

    def observations(self) -> dict[str, RuntimeObservations]:
        """Campaign observation mapping: stage order × emit keys.

        Stages without runs (dry runs, stages after a failure) are
        omitted; one stage may serve several keys (e.g. the SAT stage
        doubling as the default policy row) without re-running anything.
        """
        out: dict[str, RuntimeObservations] = {}
        for stage in self.stages:
            batch = stage.observations()
            if batch is None:
                continue
            for key in stage.emit_keys:
                out[key] = batch
        return out

    def decision_dicts(self) -> list[dict]:
        return [decision.as_dict() for decision in self.decisions]

    def summary(self) -> dict:
        """Campaign-level counts for status displays (service API, logs).

        Deliberately tiny and JSON-ready: a status poll must not drag the
        full run streams over the wire — that is what the report endpoint
        is for.
        """
        return {
            "controller": self.controller,
            "dry_run": self.dry_run,
            "stages": len(self.stages),
            "issued": sum(stage.n_issued for stage in self.stages),
            "solved": sum(stage.n_solved for stage in self.stages),
            "decisions": len(self.decisions),
            "failed_stage": self.failed_stage,
            "failure_reason": self.failure_reason,
        }

    def as_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "controller": self.controller,
            "controller_params": dict(self.controller_params),
            "dry_run": self.dry_run,
            "failed_stage": self.failed_stage,
            "failure_reason": self.failure_reason,
            "stages": [stage.as_dict() for stage in self.stages],
            "decisions": self.decision_dicts(),
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return path

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CampaignReport":
        if payload.get("format") != REPORT_FORMAT:
            raise ValueError(
                f"not a campaign report (format={payload.get('format')!r}, "
                f"expected {REPORT_FORMAT!r})"
            )
        return cls(
            controller=payload["controller"],
            controller_params=dict(payload["controller_params"]),
            stages=tuple(StageReport.from_dict(s) for s in payload["stages"]),
            decisions=tuple(
                Decision(
                    seq=int(d["seq"]),
                    stage=d["stage"],
                    kind=d["kind"],
                    detail=dict(d["detail"]),
                )
                for d in payload["decisions"]
            ),
            failed_stage=payload.get("failed_stage"),
            failure_reason=payload.get("failure_reason"),
            dry_run=bool(payload.get("dry_run", False)),
        )

    @classmethod
    def load(cls, path: str | Path) -> "CampaignReport":
        return cls.from_dict(json.loads(Path(path).read_text()))
