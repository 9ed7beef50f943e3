"""Command-line interface: ``repro-lasvegas`` / ``python -m repro.cli``.

Subcommands
-----------
``list``
    Show every reproducible table/figure with a one-line description.
``run <experiment> [...]``
    Run one or more experiments (``all`` runs everything) and print the
    rows/series the paper reports.
``predict --input FILE``
    Fit a distribution to newline-separated runtimes read from a file (or
    stdin) and print the predicted multi-walk speed-ups — the library's
    end-user workflow.
``campaign``
    Run the experiment campaigns through the streaming orchestrator.  The
    default ``--controller off`` collects exactly the classic batches
    (byte-identical observations and summary); ``--controller static``
    additionally records the plan, and ``--controller adaptive`` re-plans
    every round live (kill-and-reseed cutoffs, fixed-vs-Luby schedule,
    predictor-driven worker allocation).  ``--dry-run`` prints the resolved
    stage DAG and plan without executing; ``--report FILE`` saves the full
    campaign report (run streams + decision log); ``--replay FILE``
    re-derives a saved report's decision log offline and verifies it
    matches bit for bit.  With ``--backend distributed`` the process acts
    as the coordinator (``--coordinator HOST:PORT`` or ``--job-dir DIR``)
    and the runs execute on connected workers.
``worker``
    Join a distributed campaign: connect to a coordinator (``--connect``) or
    watch a job directory (``--job-dir``), pull work units, run them on a
    local backend, and stream results back until the coordinator shuts down.
    ``--token`` authenticates against a coordinator started with a worker
    token.
``serve``
    Run the long-lived campaign service: an HTTP/JSON API (submit, status,
    live event streaming, report fetch, cancel) in front of a bounded job
    queue, a multi-tenant observation cache and any engine backend —
    including ``--backend distributed``, where the service doubles as the
    coordinator for an authenticated worker fleet (``--worker-token``).
``recipe``
    Workload recipes (see ``docs/recipes.md``): ``recipe profile`` refits a
    saved campaign report into a recipe, ``recipe validate`` /
    ``recipe describe`` check and summarise recipe files, and
    ``recipe generate`` deterministically expands a recipe into a synthetic
    campaign at any ``--scale`` — printing the JSON plan by default,
    writing a service submission with ``--submission``, or executing the
    campaign with ``--run`` on any backend/controller.
"""

from __future__ import annotations

import argparse
import dataclasses
import signal
import sys
from pathlib import Path

import numpy as np

from repro.campaign import (
    CONTROLLER_NAMES,
    CampaignError,
    CampaignReport,
    ReplayError,
    run_campaign,
    select_stages,
    verify_report,
)
from repro.core.prediction import predict_speedup_curve, predict_speedup_empirical
from repro.engine.backends import BatchExecutor
from repro.engine.core import BACKENDS, resolve_backend
from repro.engine.distributed import DistributedBackend, ProtocolError, run_worker
from repro.engine.lockstep import LockstepBackend
from repro.engine.progress import BatchProgress
from repro.experiments.config import SAT_FAMILIES, ExperimentConfig
from repro.experiments.data import CampaignSummary, collect_observations
from repro.experiments.stages import campaign_stages, canonical_emit_order
from repro.sat.dimacs import bundled_instance_names
from repro.solvers.policies import POLICIES
from repro.experiments.registry import (
    EXPERIMENTS,
    OBSERVATION_KINDS,
    list_experiments,
    run_experiment,
)

__all__ = ["build_parser", "main"]


#: Profile names accepted by every campaign-running subcommand.
PROFILES: tuple[str, ...] = ("tiny", "quick", "medium", "full")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    profiles = {
        "quick": ExperimentConfig.quick,
        "medium": ExperimentConfig.medium,
        "full": ExperimentConfig.full,
        "tiny": ExperimentConfig.tiny,
    }
    config = profiles[args.profile]()
    overrides = {}
    if getattr(args, "runs", None):
        overrides["n_sequential_runs"] = args.runs
    if getattr(args, "seed", None) is not None:
        overrides["base_seed"] = args.seed
    if getattr(args, "sat_family", None) is not None:
        overrides["sat_family"] = args.sat_family
    if getattr(args, "sat_policy", None) is not None:
        overrides["sat_policy"] = args.sat_policy
    if getattr(args, "sat_dimacs", None) is not None:
        overrides["sat_dimacs"] = args.sat_dimacs
    if getattr(args, "max_iterations", None) is not None:
        overrides["max_iterations"] = args.max_iterations
    # dataclasses.replace keeps every other profile field (instance sizes,
    # SAT workload parameters, core counts) exactly as the profile set it.
    return dataclasses.replace(config, **overrides) if overrides else config


def _add_sat_workload_arguments(parser: argparse.ArgumentParser) -> None:
    """SAT-workload flags shared by the ``run`` and ``campaign`` subcommands."""
    parser.add_argument(
        "--sat-family",
        choices=SAT_FAMILIES,
        default=None,
        help="SAT instance family: planted (satisfiable by construction, default), "
        "uniform (ratio-controlled draw, censoring-heavy near 4.27), or "
        "dimacs (a bundled DIMACS file, see --sat-dimacs)",
    )
    parser.add_argument(
        "--sat-policy",
        choices=POLICIES,
        default=None,
        help="WalkSAT flip policy of the SAT workload (default: walksat/SKC)",
    )
    parser.add_argument(
        "--sat-dimacs",
        choices=bundled_instance_names(),
        default=None,
        metavar="NAME",
        help="bundled DIMACS instance used with --sat-family dimacs "
        f"(one of: {', '.join(bundled_instance_names())})",
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Execution-engine flags shared by every run-collecting subcommand."""
    parser.add_argument(
        "--backend",
        choices=tuple(BACKENDS),
        default="serial",
        help="execution backend for solver campaigns (default: serial)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the thread/process backends (default: one per CPU)",
    )
    parser.add_argument(
        "--lockstep-width",
        type=int,
        default=None,
        metavar="K",
        help="with --backend lockstep: walks per vectorised kernel call "
        "(default: each whole seed-block as one call)",
    )
    parser.add_argument(
        "--cache",
        "--cache-dir",
        dest="cache_dir",
        type=str,
        default=None,
        help="directory of the on-disk observation cache (repeat campaigns are free)",
    )
    parser.add_argument(
        "--coordinator",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="with --backend distributed: bind the coordinator socket here "
        "and serve work units to connected 'worker' processes",
    )
    parser.add_argument(
        "--job-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="with --backend distributed: use a shared job directory instead "
        "of a socket (for queue/HPC settings)",
    )
    parser.add_argument(
        "--unit-size",
        type=int,
        default=None,
        help="runs per distributed work unit (the work-stealing granule, default: 4)",
    )
    parser.add_argument(
        "--batch-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --backend distributed: fail if no unit completes for this long "
        "(default: wait forever)",
    )
    parser.add_argument(
        "--worker-token",
        type=str,
        default=None,
        metavar="TOKEN",
        help="with --backend distributed --coordinator: shared secret workers "
        "must present in their handshake (unauthenticated workers are refused)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lasvegas",
        description="Prediction of parallel speed-ups for Las Vegas algorithms (ICPP 2013 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the reproducible tables and figures")

    run_parser = subparsers.add_parser("run", help="run one or more experiments")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (e.g. table5 figure9) or 'all'",
    )
    run_parser.add_argument("--profile", choices=PROFILES, default="quick")
    run_parser.add_argument("--runs", type=int, default=None, help="override sequential run count")
    run_parser.add_argument("--seed", type=int, default=None, help="override the base seed")
    _add_sat_workload_arguments(run_parser)
    _add_engine_arguments(run_parser)

    predict_parser = subparsers.add_parser(
        "predict", help="predict multi-walk speed-ups from observed runtimes"
    )
    predict_parser.add_argument(
        "--input", type=str, default="-", help="file of newline-separated runtimes ('-' = stdin)"
    )
    predict_parser.add_argument(
        "--cores", type=int, nargs="+", default=[16, 32, 64, 128, 256], help="core counts to predict"
    )
    predict_parser.add_argument(
        "--family",
        type=str,
        default=None,
        help="force a distribution family (default: automatic selection)",
    )
    predict_parser.add_argument(
        "--empirical", action="store_true", help="use the nonparametric (empirical) predictor"
    )

    campaign_parser = subparsers.add_parser(
        "campaign", help="collect the sequential solver campaigns used by the experiments"
    )
    campaign_parser.add_argument("--profile", choices=PROFILES, default="quick")
    campaign_parser.add_argument("--runs", type=int, default=None)
    campaign_parser.add_argument("--seed", type=int, default=None)
    campaign_parser.add_argument("--progress", action="store_true", help="print per-run progress")
    campaign_parser.add_argument(
        "--controller",
        choices=CONTROLLER_NAMES,
        default="off",
        help="campaign controller: off (classic batches, default), static "
        "(same runs, plan recorded) or adaptive (live re-planning from "
        "streaming censoring-aware fits)",
    )
    campaign_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the resolved stage DAG, per-stage seed blocks and the "
        "static plan without executing anything",
    )
    campaign_parser.add_argument(
        "--report",
        type=str,
        default=None,
        metavar="FILE",
        help="write the campaign report (run streams + decision log) as JSON",
    )
    campaign_parser.add_argument(
        "--replay",
        type=str,
        default=None,
        metavar="FILE",
        help="replay a saved report's decision log offline and verify it "
        "matches bit for bit (no solver runs)",
    )
    campaign_parser.add_argument(
        "--stages",
        type=str,
        default=None,
        metavar="PATTERNS",
        help="comma-separated stage keys or globs to run (e.g. 'SAT' or "
        "'SAT/*,Costas'); dependencies are included automatically",
    )
    campaign_parser.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        metavar="N",
        help="override the per-run iteration/flip budget (censoring threshold)",
    )
    _add_sat_workload_arguments(campaign_parser)
    _add_engine_arguments(campaign_parser)

    worker_parser = subparsers.add_parser(
        "worker", help="join a distributed campaign and execute its work units"
    )
    worker_parser.add_argument(
        "--connect",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="coordinator address to pull work units from",
    )
    worker_parser.add_argument(
        "--job-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="shared job directory to pull work units from (instead of a socket)",
    )
    worker_parser.add_argument(
        "--backend",
        choices=("serial", "thread", "process"),
        default="serial",
        help="local backend each work unit runs on (default: serial; 'process' "
        "pays spawn-pool startup per unit, so pair it with a larger "
        "coordinator --unit-size)",
    )
    worker_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the local thread/process backend",
    )
    worker_parser.add_argument(
        "--cache",
        "--cache-dir",
        dest="cache_dir",
        type=str,
        default=None,
        help="shared observation-cache directory (unit results are reused across the fleet)",
    )
    worker_parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        help="seconds between polls while idle (default: 0.2)",
    )
    worker_parser.add_argument(
        "--connect-timeout",
        type=float,
        default=30.0,
        help="seconds to keep retrying the initial connection (default: 30)",
    )
    worker_parser.add_argument(
        "--max-units", type=int, default=None, help="exit after completing this many units"
    )
    worker_parser.add_argument(
        "--name", type=str, default=None, help="worker name announced to the coordinator"
    )
    worker_parser.add_argument(
        "--token",
        type=str,
        default=None,
        metavar="TOKEN",
        help="shared secret presented to the coordinator's handshake (required "
        "when the coordinator was started with --worker-token)",
    )
    worker_parser.add_argument(
        "--heartbeat-seconds",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="cadence of lease-refreshing heartbeats while a unit executes "
        "(socket mode; 0 disables, default: 5)",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the long-lived campaign service (HTTP/JSON submit/stream/report API)",
    )
    serve_parser.add_argument(
        "--host", type=str, default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8321, help="bind port (0 picks a free port; default: 8321)"
    )
    serve_parser.add_argument(
        "--token",
        type=str,
        default=None,
        metavar="TOKEN",
        help="shared API token clients must send as 'Authorization: Bearer ...' "
        "(default: no HTTP authentication; /healthz is always open)",
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=8,
        metavar="N",
        help="queued-job bound; a full queue answers 429 + Retry-After (default: 8)",
    )
    serve_parser.add_argument(
        "--retry-after",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="Retry-After hint sent with 429 responses (default: 5)",
    )
    serve_parser.add_argument(
        "--max-cache-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="LRU byte bound of the multi-tenant observation store rooted at "
        "--cache (least-recently-used batches are evicted beyond it)",
    )
    serve_parser.add_argument(
        "--drain-seconds",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="on shutdown, let the running job (and distributed workers) finish "
        "for up to this long before cancelling (default: 10)",
    )
    _add_engine_arguments(serve_parser)

    recipe_parser = subparsers.add_parser(
        "recipe",
        help="profile campaign reports into workload recipes and generate "
        "synthetic campaigns from them (see docs/recipes.md)",
    )
    recipe_sub = recipe_parser.add_subparsers(dest="recipe_command", required=True)

    recipe_profile = recipe_sub.add_parser(
        "profile", help="refit a saved campaign report (--report FILE) into a recipe"
    )
    recipe_profile.add_argument("report", metavar="REPORT", help="campaign report JSON file")
    recipe_profile.add_argument(
        "--out", type=str, default=None, metavar="FILE", help="write the recipe here (default: stdout)"
    )
    recipe_profile.add_argument(
        "--name", type=str, required=True, help="recipe name (filename-safe slug)"
    )
    recipe_profile.add_argument(
        "--description", type=str, default="", help="one-line description stored in the recipe"
    )

    recipe_validate = recipe_sub.add_parser(
        "validate", help="strictly validate recipe files (or bundled recipe names)"
    )
    recipe_validate.add_argument(
        "recipes", nargs="+", metavar="RECIPE", help="recipe file paths or bundled recipe names"
    )

    recipe_describe = recipe_sub.add_parser(
        "describe", help="summarise a recipe's stages, fitted families and instance mix"
    )
    recipe_describe.add_argument(
        "recipe", metavar="RECIPE", help="recipe file path or bundled recipe name"
    )

    recipe_generate = recipe_sub.add_parser(
        "generate",
        help="deterministically expand a recipe into a synthetic campaign "
        "(prints the JSON plan; --run executes it)",
    )
    recipe_generate.add_argument(
        "recipe", metavar="RECIPE", help="recipe file path or bundled recipe name"
    )
    recipe_generate.add_argument(
        "--scale", type=int, default=1, metavar="N", help="replicas per recipe stage (default: 1)"
    )
    recipe_generate.add_argument(
        "--seed",
        type=int,
        default=None,
        help="re-root every seed stream and instance draw (default: the "
        "recipe's recorded seeds — at --scale 1 an exact replay)",
    )
    recipe_generate.add_argument(
        "--out", type=str, default=None, metavar="FILE", help="write the JSON plan here instead of stdout"
    )
    recipe_generate.add_argument(
        "--submission",
        type=str,
        default=None,
        metavar="FILE",
        help="also write a campaign-service submission body (POST it to /jobs)",
    )
    recipe_generate.add_argument(
        "--run", action="store_true", help="execute the generated campaign now"
    )
    recipe_generate.add_argument(
        "--controller",
        choices=CONTROLLER_NAMES,
        default="off",
        help="campaign controller used with --run / --submission (default: off)",
    )
    recipe_generate.add_argument(
        "--report",
        type=str,
        default=None,
        metavar="FILE",
        help="with --run: write the campaign report (profile it again to close the loop)",
    )
    _add_engine_arguments(recipe_generate)

    return parser


def _command_list() -> int:
    for name, description in list_experiments():
        print(f"{name:<10s} {description}")
    return 0


def _validate_engine_args(args: argparse.Namespace) -> str | None:
    """Reject flag combinations the engine would refuse, with a CLI-style error."""
    if args.backend == "serial" and args.workers not in (None, 1):
        return "--workers requires a parallel backend; add --backend thread or --backend process"
    if args.workers is not None and args.workers < 1:
        return f"--workers must be >= 1, got {args.workers}"
    if args.backend == "lockstep":
        if args.workers is not None:
            return (
                "--workers does not apply to --backend lockstep (it runs "
                "in-process); size the batch axis with --lockstep-width"
            )
        if args.lockstep_width is not None and args.lockstep_width < 1:
            return f"--lockstep-width must be >= 1, got {args.lockstep_width}"
    elif args.lockstep_width is not None:
        return "--lockstep-width requires --backend lockstep"
    if args.backend == "distributed":
        if args.workers is not None:
            return (
                "--workers does not apply to --backend distributed; worker count "
                "is however many 'worker' processes connect"
            )
        if (args.coordinator is None) == (args.job_dir is None):
            return "--backend distributed needs exactly one of --coordinator or --job-dir"
        if args.unit_size is not None and args.unit_size < 1:
            return f"--unit-size must be >= 1, got {args.unit_size}"
        if args.batch_timeout is not None and args.batch_timeout <= 0:
            return f"--batch-timeout must be positive, got {args.batch_timeout:g}"
        if args.worker_token is not None and args.coordinator is None:
            return (
                "--worker-token requires --coordinator (the job directory's "
                "trust boundary is its filesystem permissions)"
            )
    elif (
        args.coordinator is not None
        or args.job_dir is not None
        or args.unit_size is not None
        or args.batch_timeout is not None
        or args.worker_token is not None
    ):
        # Silently ignoring tuning flags would hide misconfiguration (e.g. a
        # user expecting --batch-timeout to bound a process-backend campaign).
        return (
            "--coordinator/--job-dir/--unit-size/--batch-timeout/--worker-token "
            "require --backend distributed"
        )
    return None


def _engine_backend(args: argparse.Namespace) -> str | BatchExecutor:
    """Build the backend spec passed to the engine from validated CLI flags.

    Distributed campaigns need one *configured instance* shared by every
    batch of the invocation, so the coordinator socket (or job directory)
    persists across batches and workers stay connected in between.
    """
    if args.backend == "lockstep" and args.lockstep_width is not None:
        return LockstepBackend(width=args.lockstep_width)
    if args.backend != "distributed":
        return args.backend
    return DistributedBackend(
        coordinator=args.coordinator,
        job_dir=args.job_dir,
        unit_size=args.unit_size if args.unit_size is not None else 4,
        batch_timeout=args.batch_timeout,
        auth_token=args.worker_token,
    )


def _command_run(args: argparse.Namespace) -> int:
    error = _validate_engine_args(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    config = _config_from_args(args)
    names = list(args.experiments)
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        return 2
    # One campaign over the union of the kinds the experiments consume.
    needed = {EXPERIMENTS[name].observations for name in names}
    kinds = [kind for kind in OBSERVATION_KINDS if kind in needed]
    observations = None
    if kinds:
        backend = _engine_backend(args)
        try:
            observations = collect_observations(
                config,
                kinds,
                cache_dir=args.cache_dir,
                backend=backend,
                workers=args.workers if isinstance(backend, str) else None,
            )
        finally:
            if isinstance(backend, DistributedBackend):
                backend.shutdown()  # lets connected workers exit cleanly
    for name in names:
        if EXPERIMENTS[name].observations is not None:
            result = run_experiment(name, config, observations=observations)
        else:
            result = run_experiment(name, config)
        print(result.format())
        print()
    return 0


def _read_values(source: str) -> np.ndarray:
    if source == "-":
        text = sys.stdin.read()
    else:
        text = Path(source).read_text()
    values = [float(token) for token in text.split()]
    if not values:
        raise SystemExit("no runtime values found in the input")
    return np.asarray(values, dtype=float)


def _command_predict(args: argparse.Namespace) -> int:
    values = _read_values(args.input)
    if args.empirical:
        result = predict_speedup_empirical(values, args.cores)
    else:
        result = predict_speedup_curve(values, args.cores, family=args.family)
    print(result.summary())
    return 0


def _print_dry_run(report: CampaignReport) -> None:
    """Render the dry-run plan: stage DAG, seed blocks and the static plan."""
    plans = [d for d in report.decision_dicts() if d["kind"] == "dry-run-plan"]
    print(f"dry run: {len(plans)} stages, controller={report.controller}")
    for entry in plans:
        detail = entry["detail"]
        after = ",".join(detail["after"]) if detail["after"] else "-"
        seeds = ",".join(str(seed) for seed in detail["seed_head"])
        print(
            f"{entry['stage']:<12s} quota={detail['quota']:<5d} "
            f"budget={detail['budget']:<8d} after={after} "
            f"emit={','.join(detail['emit_keys'])}"
        )
        print(
            f"{'':<12s} base_seed={detail['base_seed']} seeds[:4]={seeds} "
            f"schedule={detail['schedule']} cutoff={detail['cutoff']} "
            f"rounds={detail['rounds']}"
        )


def _command_campaign(args: argparse.Namespace) -> int:
    if args.replay is not None:
        try:
            report = CampaignReport.load(args.replay)
            verified = verify_report(report)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load report: {exc}", file=sys.stderr)
            return 2
        except ReplayError as exc:
            print(f"replay FAILED: {exc}", file=sys.stderr)
            return 1
        print(
            f"replay OK: {verified} decisions reproduced "
            f"(controller={report.controller}, {len(report.stages)} stages)"
        )
        return 0

    error = _validate_engine_args(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    config = _config_from_args(args)
    stages = campaign_stages(config)
    if args.stages is not None:
        try:
            stages = select_stages(stages, args.stages)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.dry_run:
        report = run_campaign(stages, controller=args.controller, dry_run=True)
        _print_dry_run(report)
        if args.report is not None:
            report.save(args.report)
        return 0

    progress = None
    if args.progress:

        def progress(event: BatchProgress) -> None:
            status = "solved" if event.result.solved else "censored"
            print(
                f"  run {event.completed}/{event.total} ({event.fraction:.0%}) "
                f"{status} after {event.result.iterations} iterations",
                file=sys.stderr,
            )

    backend = _engine_backend(args)
    try:
        report = run_campaign(
            stages,
            controller=args.controller,
            backend=backend,
            workers=args.workers if isinstance(backend, str) else None,
            progress=progress,
            cache=args.cache_dir,
        )
    except CampaignError as exc:
        print(f"error: campaign failed: {exc}", file=sys.stderr)
        if args.report is not None:
            exc.report.save(args.report)
            print(f"partial report written to {args.report}", file=sys.stderr)
        return 1
    finally:
        if isinstance(backend, DistributedBackend):
            backend.shutdown()  # lets connected workers exit cleanly

    observations = report.observations()
    if args.controller != "off":
        print(
            f"controller={args.controller}: {len(report.decisions)} decisions "
            f"recorded across {len(report.stages)} stages",
            file=sys.stderr,
        )
    summary = CampaignSummary.from_observations(config, observations)
    for key in canonical_emit_order(stages):
        if key not in observations:
            continue
        batch = observations[key]
        print(
            f"{batch.label:<12s} runs={summary.n_runs[key]:<5d} "
            f"success-rate={summary.success_rates[key]:.2%}"
        )
    if args.report is not None:
        report.save(args.report)
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    if (args.connect is None) == (args.job_dir is None):
        print("error: worker needs exactly one of --connect or --job-dir", file=sys.stderr)
        return 2
    if args.backend == "serial" and args.workers not in (None, 1):
        print("error: --workers requires --backend thread or --backend process", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.token is not None and args.connect is None:
        print("error: --token requires --connect (socket transport)", file=sys.stderr)
        return 2
    executor = resolve_backend(args.backend, args.workers)
    try:
        stats = run_worker(
            coordinator=args.connect,
            job_dir=args.job_dir,
            executor=executor,
            cache_dir=args.cache_dir,
            poll_interval=args.poll_interval,
            connect_timeout=args.connect_timeout,
            max_units=args.max_units,
            name=args.name,
            token=args.token,
            heartbeat_seconds=args.heartbeat_seconds,
        )
    except ProtocolError as exc:
        # Version mismatch or a refused handshake (e.g. bad --token): a
        # worker that cannot join must exit loudly, not crash-loop.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"worker done: units={stats.units_completed} runs={stats.runs_completed} "
        f"cache-hits={stats.cache_hits}",
        file=sys.stderr,
    )
    return 0


def _load_recipe_arg(value: str):
    """Resolve a recipe CLI argument: a file path or a bundled recipe name."""
    from repro.recipes import CampaignRecipe, RecipeError, bundled_recipe_names, load_bundled_recipe

    path = Path(value)
    if path.exists():
        return CampaignRecipe.load(path)
    if value in bundled_recipe_names():
        return load_bundled_recipe(value)
    raise RecipeError(
        f"no recipe file {value!r} (bundled recipes: {', '.join(bundled_recipe_names())})"
    )


def _command_recipe(args: argparse.Namespace) -> int:
    import json

    from repro.recipes import (
        ProfileError,
        RecipeError,
        describe_campaign,
        generate_stages,
        generate_submission,
        profile_report,
    )

    if args.recipe_command == "profile":
        try:
            report = CampaignReport.load(args.report)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load report: {exc}", file=sys.stderr)
            return 2
        try:
            recipe = profile_report(report, name=args.name, description=args.description)
        except ProfileError as exc:
            print(f"error: cannot profile report: {exc}", file=sys.stderr)
            return 1
        if args.out is not None:
            recipe.save(args.out)
            print(
                f"recipe {recipe.name!r} written to {args.out} "
                f"({len(recipe.stages)} stages, "
                f"{recipe.source['n_observations']} observations profiled)",
                file=sys.stderr,
            )
        else:
            print(json.dumps(recipe.as_dict(), indent=2, sort_keys=True))
        return 0

    if args.recipe_command == "validate":
        failures = 0
        for value in args.recipes:
            try:
                recipe = _load_recipe_arg(value)
            except RecipeError as exc:
                print(f"{value}: INVALID: {exc}")
                failures += 1
                continue
            print(f"{value}: ok ({recipe.name!r}, {len(recipe.stages)} stages)")
        return 1 if failures else 0

    try:
        recipe = _load_recipe_arg(args.recipe)
    except RecipeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.recipe_command == "describe":
        print(f"recipe {recipe.name}: {recipe.description or '(no description)'}")
        for field, value in sorted(recipe.source.items()):
            print(f"  source.{field} = {value}")
        for stage in recipe.stages:
            instance = stage.instance
            if instance.workload == "csp":
                what = f"{instance.problem} size={instance.size}"
            elif instance.sat_family == "dimacs":
                what = f"dimacs {instance.dimacs} [{instance.policy}]"
            else:
                what = (
                    f"{instance.sat_family} {instance.k}-SAT "
                    f"{instance.n_variables}@{instance.clause_ratio:g} [{instance.policy}]"
                )
            params = ", ".join(
                f"{name}={value:.4g}" for name, value in sorted(stage.runtime.params.items())
            )
            after = ",".join(stage.after) if stage.after else "-"
            print(
                f"{stage.key:<14s} {what:<36s} {stage.runtime.family}({params}) "
                f"censoring={stage.censoring_rate:.0%} quota={stage.quota} "
                f"budget={stage.budget} after={after}"
            )
        return 0

    # recipe generate
    error = _validate_engine_args(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        plan = describe_campaign(recipe, scale=args.scale, base_seed=args.seed)
    except RecipeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plan_text = json.dumps(plan, indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        Path(args.out).write_text(plan_text)
        print(f"campaign plan written to {args.out}", file=sys.stderr)
    elif not args.run:
        sys.stdout.write(plan_text)
    if args.submission is not None:
        try:
            submission = generate_submission(
                recipe, scale=args.scale, base_seed=args.seed, controller=args.controller
            )
        except RecipeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        Path(args.submission).write_text(json.dumps(submission, indent=2, sort_keys=True) + "\n")
        print(f"service submission written to {args.submission}", file=sys.stderr)
    if not args.run:
        return 0

    stages = generate_stages(recipe, scale=args.scale, base_seed=args.seed)
    backend = _engine_backend(args)
    try:
        report = run_campaign(
            stages,
            controller=args.controller,
            backend=backend,
            workers=args.workers if isinstance(backend, str) else None,
            cache=args.cache_dir,
        )
    except CampaignError as exc:
        print(f"error: generated campaign failed: {exc}", file=sys.stderr)
        if args.report is not None:
            exc.report.save(args.report)
            print(f"partial report written to {args.report}", file=sys.stderr)
        return 1
    finally:
        if isinstance(backend, DistributedBackend):
            backend.shutdown()  # lets connected workers exit cleanly
    for stage in report.stages:
        print(
            f"{stage.label:<20s} issued={stage.n_issued:<5d} solved={stage.n_solved:<5d} "
            f"killed={stage.n_killed}"
        )
    if args.report is not None:
        report.save(args.report)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    error = _validate_engine_args(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.max_queue < 1:
        print(f"error: --max-queue must be >= 1, got {args.max_queue}", file=sys.stderr)
        return 2
    if args.max_cache_bytes is not None and args.cache_dir is None:
        print("error: --max-cache-bytes requires --cache DIR", file=sys.stderr)
        return 2
    # Imported lazily: every other subcommand works without the service
    # package's HTTP machinery ever loading.
    from repro.service import CampaignServer, JobManager, TenantCacheStore

    store = None
    if args.cache_dir is not None:
        store = TenantCacheStore(args.cache_dir, max_bytes=args.max_cache_bytes)
    backend = _engine_backend(args)
    if isinstance(backend, DistributedBackend):
        # Bind the coordinator before announcing readiness so workers can
        # connect the moment the address is printed.
        coordinator_address = backend.start()
        print(f"coordinator listening on {coordinator_address}", file=sys.stderr, flush=True)
    manager = JobManager(
        backend=backend,
        workers=args.workers if isinstance(backend, str) else None,
        store=store,
        max_queue=args.max_queue,
        retry_after=args.retry_after,
    )
    server = CampaignServer(manager, host=args.host, port=args.port, token=args.token)
    auth = "token required" if args.token is not None else "no auth"
    print(
        f"campaign service listening on {server.url} ({auth}, queue<={args.max_queue})",
        file=sys.stderr,
        flush=True,
    )

    # SIGTERM (and SIGINT even when the process was started in the
    # background, where the shell leaves it SIG_IGN) must trigger the same
    # graceful drain as ^C at a terminal.
    def _graceful_exit(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _graceful_exit)
    signal.signal(signal.SIGINT, _graceful_exit)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down (draining)...", file=sys.stderr, flush=True)
    finally:
        server.stop(drain_seconds=args.drain_seconds)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-lasvegas`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "predict":
        return _command_predict(args)
    if args.command == "campaign":
        return _command_campaign(args)
    if args.command == "worker":
        return _command_worker(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "recipe":
        return _command_recipe(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
