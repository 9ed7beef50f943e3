"""Outside-in tracing of a campaign run in this process.

Nothing here edits the program.  Each layer is timed through a public seam
of :func:`repro.campaign.run_campaign`:

* engine rounds — every stage's ``make_solver`` is wrapped; the orchestrator
  calls it once per batch (controller ``off``) or per round (controllers),
  right before dispatch, so its call marks the round start;
* solver runs — the ``progress`` callback sees each result with its own
  ``runtime_seconds``;
* controller — a subclass of the adaptive controller times the public
  ``plan_round`` / ``observe`` protocol.
"""

from __future__ import annotations

import dataclasses
import time

import harness
from repro.campaign import AdaptiveController


def campaign_counts(report) -> dict:
    """Exact counts of a finished campaign (no clocks involved)."""
    records = [r for stage in report.stages for r in stage.stream]
    solved = sum(1 for r in records if r.solved)
    iterations = sum(int(r.iterations) for r in records)
    return {
        "issued": len(records),
        "solved": solved,
        "killed": sum(1 for stage in report.stages for r in stage.stream
                      if not r.solved and r.budget < stage.budget),
        "iterations": iterations,
        "rounds": sum(1 for d in report.decisions if d.kind == "round"),
        "work_per_solved": iterations / solved if solved else float("inf"),
    }


def deterministic(report) -> dict:
    """Every field of a report that does not depend on a clock."""
    return {
        "controller": report.controller,
        "stages": [(s.key, s.base_seed, s.quota, s.budget,
                    [(r.index, r.seed, r.iterations, r.solved, r.budget) for r in s.stream])
                   for s in report.stages],
        "decisions": report.decision_dicts(),
    }


def replay_check(spec, stream) -> list[str]:
    """A stage's stream is seeded by ``spawn_seeds`` and its two cheapest runs,
    executed again directly, give the same iterations and outcome."""
    from repro.engine import spawn_seeds

    if [r.seed for r in stream] != spawn_seeds(spec.base_seed, spec.quota):
        return [f"{spec.key}: seed stream differs from spawn_seeds({spec.base_seed})"]
    problems = []
    for record in sorted(stream, key=lambda r: r.iterations)[:2]:
        again = spec.make_solver(spec.budget).run(record.seed)
        if (int(again.iterations), bool(again.solved)) != (record.iterations, record.solved):
            problems.append(f"{spec.key}: run {record.index} does not replay bit for bit")
    return problems


class TimedAdaptiveController(AdaptiveController):
    """The adaptive controller, with its own compute recorded as spans."""

    def __init__(self, tracer: "CampaignTracer", **params) -> None:
        super().__init__(**params)
        self.tracer = tracer

    def plan_round(self):
        start = time.perf_counter()
        plan = super().plan_round()
        self.tracer.controller_span("plan", start, time.perf_counter())
        return plan

    def observe(self, record) -> None:
        start = time.perf_counter()
        super().observe(record)
        self.tracer.controller_span("observe", start, time.perf_counter())


class CampaignTracer:
    """Collects the spans of one campaign and reduces them to layer metrics."""

    def __init__(self, trace: harness.Trace, request: str) -> None:
        self.trace = trace
        self.request = request
        self.rounds: list[tuple[float, str]] = []  # (start, stage key)
        self.events: list[tuple[float, str, object]] = []  # (time, stage key, result)
        self.controller_s = 0.0

    # -- seams ------------------------------------------------------------
    def wrap_stages(self, stages):
        def wrap(stage):
            make = stage.make_solver

            def make_solver(budget, _make=make, _key=stage.key):
                self.rounds.append((time.perf_counter(), _key))
                return _make(budget)

            return dataclasses.replace(stage, make_solver=make_solver)

        return [wrap(stage) for stage in stages]

    def progress(self, event) -> None:
        self.events.append((time.perf_counter(), self.rounds[-1][1], event.result))

    def controller_span(self, name: str, start: float, end: float) -> None:
        self.controller_s += end - start
        self.trace.span("campaign", name, start, end, request=self.request)

    # -- reduction --------------------------------------------------------
    def finish(self, submit: float, done: float) -> dict:
        """Record engine/solver spans and return this campaign's layer numbers."""
        trace, request = self.trace, self.request
        trace.span("root", "campaign", submit, done, request=request)
        for t, _key, result in self.events:
            trace.span("solver", "run", t - result.runtime_seconds, t, request=request)
        startup = 0.0
        round_walls = []
        bounds = [start for start, _ in self.rounds[1:]] + [done]
        for (start, key), limit in zip(self.rounds, bounds):
            inside = [t for t, _, _ in self.events if start <= t < limit]
            end = max(inside, default=start)
            if inside:
                startup += inside[0] - start
            round_walls.append(end - start)
            trace.span("engine", "round", start, end, request=request, stage=key)
        times = [submit] + [t for t, _, _ in self.events]
        gaps = [b - a for a, b in zip(times, times[1:])]
        per_stage: dict[str, list[float]] = {}
        for _t, key, result in self.events:
            acc = per_stage.setdefault(key, [0.0, 0.0])
            acc[0] += result.iterations
            acc[1] += result.runtime_seconds
        return {
            "first_obs_s": (self.events[0][0] - submit) if self.events else 0.0,
            "busy_s": sum(r.runtime_seconds for _, _, r in self.events),
            "iters": sum(r.iterations for _, _, r in self.events),
            "iters_per_s": {k: it / busy for k, (it, busy) in per_stage.items() if busy > 0},
            "startup_s": startup,
            "round_walls": round_walls,
            "gaps": gaps,
            "controller_s": self.controller_s,
            "shares": trace.layer_shares(request, submit, done),
        }


def put_layers(result: harness.Result, layers: list[dict], counts: list[dict],
               replay_s: list[float], plain_s: list[float], traced_s: list[float]) -> None:
    """Per-layer metrics of a traced run, as medians over its traced campaigns.

    ``layers`` holds one :meth:`CampaignTracer.finish`-shaped dict per traced
    campaign; keys a workload cannot measure this way are simply absent.
    """
    med = harness.median

    def put(name, key, unit):
        values = [x[key] for x in layers if key in x]
        if values:
            result.put(name, med(values), unit, len(values))

    put("first_obs_s", "first_obs_s", "s")
    put("solver.busy_s", "busy_s", "s")
    put("solver.iters", "iters", "count")
    for key in layers[0]["iters_per_s"]:
        values = [x["iters_per_s"][key] for x in layers if key in x["iters_per_s"]]
        result.put(f"solver.{key}.iters_per_s", med(values), "1/s", len(values))
    put("engine.startup_s", "startup_s", "s")
    gaps = [g for x in layers for g in x["gaps"]]
    result.put("engine.obs_gap_p50_s", harness.percentile(gaps, 50), "s", len(gaps))
    result.put("engine.obs_gap_p98_s", harness.percentile(gaps, 98), "s", len(gaps))
    for name in ("rounds", "issued", "killed"):
        result.put(f"campaign.{name}", med([c[name] for c in counts]), "count", len(counts))
    result.put("campaign.solved_ratio", med([c["solved"] / c["issued"] for c in counts]),
               "ratio", len(counts))
    result.put("campaign.replay_s", med(replay_s), "s", len(replay_s))
    walls = [w for x in layers for w in x["round_walls"]]
    result.put("campaign.round_s", med(walls), "s", len(walls))
    put("campaign.controller_s", "controller_s", "s")
    for layer in layers[0]["shares"]:
        result.put(f"share.{layer}", med([x["shares"][layer] for x in layers]), "ratio", len(layers))
    result.put("trace.overhead_share", med(traced_s) / med(plain_s) - 1.0, "ratio", len(layers))
