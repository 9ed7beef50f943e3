"""Workload ``adaptive-process``: the adaptive controller on the process pool.

The campaign is the quick profile's ``Costas`` stage (base seed from the
workload seed, quota cut to 32) plus the ``uniform-sat-quick`` recipe's
censoring-heavy uniform 3-SAT stage with its quota cut to 24 (the recipe's
recorded seed stream and instance, so the stage is satisfiable at every
workload seed).
It runs on the process backend with ``workers = nproc``; the controller's
own worker allocation (8 on a 2-core host) is kept as it is.  Here the
per-round pool start, the per-worker imports and the controller's decisions
do most of the work, and the solvers do little.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time

import harness

NAME = "adaptive-process"
#: Quotas cut from the profile's 80 so one campaign takes ~20 s on a 2-core host.
COSTAS_QUOTA = 32
SAT_QUOTA = 24


def build_stages(seed: int):
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.stages import campaign_stages
    from repro.recipes import generate_stages, load_bundled_recipe

    config = dataclasses.replace(ExperimentConfig.quick(), base_seed=seed)
    costas = [dataclasses.replace(s, quota=COSTAS_QUOTA)
              for s in campaign_stages(config, kinds=("benchmarks",)) if s.key == "Costas"]
    sat = generate_stages(load_bundled_recipe("uniform-sat-quick"))
    return costas + [dataclasses.replace(s, quota=SAT_QUOTA) for s in sat]


def setup(seed: int) -> dict:
    start = time.perf_counter()
    import repro.campaign  # noqa: F401 - the import is what is timed
    import repro.recipes  # noqa: F401

    import_s = time.perf_counter() - start
    return {"import_s": import_s, "stages": len(build_stages(seed))}


def digests(report) -> dict:
    return {
        "decisions": harness.digest(report.decision_dicts()),
        **{s.key: harness.stream_digest(s.stream) for s in report.stages},
    }


def reference_digests(seed: int) -> dict:
    """The same campaign on the serial backend (decisions are backend-invariant)."""
    from repro.campaign import run_campaign

    return digests(run_campaign(build_stages(seed), controller="adaptive", backend="serial"))


def workers_max(report, default: int) -> int:
    return max((d.detail["workers"] or default) for d in report.decisions if d.kind == "round")


def run(args, result: harness.Result) -> None:
    from repro.campaign import replay_decisions, run_campaign, verify_report

    import inproc

    nproc = len(os.sched_getaffinity(0))
    recorded = harness.load_digests(NAME).get(str(args.seed))
    trace = harness.Trace() if args.trace else None
    plain, cpu, counts = [], [], []
    traced, layers, traced_counts, replay_s, pool_starts, wmax = [], [], [], [], [], []
    began = time.perf_counter()
    for j in range(10_000):
        elapsed = time.perf_counter() - began
        if plain and elapsed * (1 + 1 / len(plain)) > args.seconds:
            break
        pair = (None, inproc.CampaignTracer(trace, f"c{j}")) if trace else None
        for tracer in harness.alternate(pair, args.seed + j) if trace else (None,):
            stages = build_stages(args.seed)
            result.attempted += 1
            try:
                if tracer is None:
                    controller, submitted, progress = "adaptive", stages, None
                else:
                    controller = inproc.TimedAdaptiveController(tracer)
                    submitted, progress = tracer.wrap_stages(stages), tracer.progress
                cpu0 = harness.own_cpu_seconds()
                start = time.perf_counter()
                report = run_campaign(submitted, controller=controller, backend="process",
                                      workers=nproc, progress=progress)
                end = time.perf_counter()
                cpu_used = harness.own_cpu_seconds() - cpu0
                verify_report(report)
                if recorded is None:
                    recorded = reference_digests(args.seed)
                got = digests(report)
            except Exception as exc:  # noqa: BLE001 - a failed campaign is a failed operation
                result.fail(f"seed {args.seed}: {type(exc).__name__}: {exc}")
                continue
            if got != recorded:
                bad = sorted(k for k in got if got[k] != recorded.get(k))
                result.fail(f"seed {args.seed}: digests differ from the recorded ones for {bad}")
            c = inproc.campaign_counts(report)
            if tracer is None:
                plain.append(end - start)
                cpu.append(cpu_used)
                counts.append(c)
                print(f"{NAME} seed={args.seed} runs={c['issued']} solved={c['solved']} "
                      f"iterations={c['iterations']} rounds={c['rounds']} "
                      f"campaign_s={end - start:.3f} cpu_s={cpu_used:.2f}", file=sys.stderr)
                continue
            traced.append(end - start)
            traced_counts.append(c)
            layers.append(tracer.finish(start, end))
            pool_starts.append(len(tracer.rounds))
            wmax.append(workers_max(report, nproc))
            t0 = time.perf_counter()
            replay_decisions(report)
            replay_s.append(time.perf_counter() - t0)

    result.put("campaign_s", harness.median(plain), "s", len(plain))
    result.put("cpu_s", harness.median(cpu), "s", len(cpu))
    result.put("work_per_solved", harness.median([c["work_per_solved"] for c in counts]),
               "iterations", len(counts))
    result.put("peak_rss_mb", harness.own_peak_rss_mb(), "MB")
    if trace is not None:
        inproc.put_layers(result, layers, traced_counts, replay_s, plain, traced)
        result.put("engine.pool_starts", harness.median(pool_starts), "count", len(pool_starts))
        result.put("engine.workers_max", max(wmax), "count", len(wmax))
        trace.write(harness.WORK / f"trace-{NAME}-{args.seed}.json")
    probes = [harness.setup_probe(NAME, args.seed) for _ in range(3)]
    result.put("setup_s", harness.median([p["setup_s"] for p in probes]), "s", len(probes))
    result.put("setup.import_s", harness.median([p["import_s"] for p in probes]), "s", len(probes))
