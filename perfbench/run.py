"""Campaign benchmark: one command for every workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload adaptive-process --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing attached;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics, each layer's share of ``campaign_s`` and the tracing
overhead.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); a readable table
with sample counts goes to standard error.  See ``NOTES.md``.

The module is import-safe: process-pool workers started with the spawn
method re-import it, so everything runs under the ``__main__`` guard.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness

#: Workload name -> module implementing ``run(args, result)`` and ``setup()``.
WORKLOADS = {
    "adaptive-process": "adaptive_process",
    "service-fleet": "service_fleet",
}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=20130813)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    try:
        harness.require_source()
    except harness.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    module = __import__(WORKLOADS[args.workload])

    if args.setup_probe:
        # A fresh interpreter: import what the workload needs, build its
        # stages, report, exit.  The parent times launch -> this line.
        print(json.dumps(module.setup(args.seed)), flush=True)
        return 0

    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    token = harness.mark_run()
    result = harness.Result()
    ref_start = harness.reference_samples()
    try:
        module.run(args, result)
    finally:
        harness.remove_dir(harness.WORK / "tmp")
    ref_end = harness.reference_samples()
    leftovers = harness.reap_leftovers(token)
    for cmd in leftovers:
        result.fail(f"process left behind: {cmd[:120]}")
    if args.trace:
        ref = ref_start + ref_end
        result.put("host.ref_s", harness.median(ref), "s", len(ref))
        result.put(
            "host.ref_drift",
            harness.median(ref_end) / harness.median(ref_start) - 1.0,
            "ratio",
            len(ref),
        )
    result.emit({m["name"]: m["unit"] for m in metrics}, fill_zero=bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
