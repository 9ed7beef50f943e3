"""Cluster sizing: how many cores are worth buying for a local-search workload?

The motivating question of the paper: before renting a 256-core cluster,
predict from cheap sequential runs whether the multi-walk parallelisation
will actually pay off.  This example contrasts two workloads:

* ALL-INTERVAL — runtimes follow a *shifted* exponential, so the speed-up
  saturates at a finite limit and most of the cluster would sit idle;
* COSTAS — runtimes are essentially exponential with a negligible shift, so
  the speed-up is close to linear and more cores keep paying off.

For each workload the example prints the predicted speed-up curve, the
asymptotic limit, the core count reaching 80% of that limit, and the core
count at which parallel efficiency drops below 50%.

Run with:  python examples/cluster_sizing.py
"""

from __future__ import annotations

import numpy as np

from repro.core.prediction import predict_speedup_curve
from repro.core.speedup import SpeedupModel
from repro.csp.problems import AllIntervalProblem, CostasArrayProblem
from repro.engine import collect_batch, pick_default_backend
from repro.solvers import AdaptiveSearch, AdaptiveSearchConfig

#: Collect both campaigns on the process backend when cores are available;
#: the engine guarantees the same iteration counts either way.
BACKEND = pick_default_backend()


def analyse(name: str, iterations: np.ndarray, family: str, shift_rule: str) -> None:
    cores = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    prediction = predict_speedup_curve(iterations, cores, family=family, shift_rule=shift_rule)
    model = SpeedupModel(prediction.distribution)

    print(f"\n=== {name} ===")
    print(f"fitted family: {prediction.family}   parameters: "
          + ", ".join(f"{k}={v:.4g}" for k, v in prediction.distribution.params().items()))
    print(f"asymptotic speed-up limit: {prediction.limit:.1f}")

    if np.isfinite(prediction.limit):
        target = 0.8 * prediction.limit
        needed = model.cores_for_target_speedup(target)
        print(f"cores needed for 80% of the limit ({target:.1f}x): {needed}")
    else:
        print("speed-up grows without bound (linear scaling regime)")

    saturation = model.saturation_cores(efficiency_threshold=0.5, max_cores=1 << 16)
    if saturation is None:
        print("parallel efficiency stays above 50% for every core count tested")
    else:
        print(f"parallel efficiency falls below 50% beyond ~{saturation} cores")

    print(f"{'cores':>6s} {'speed-up':>10s} {'efficiency':>11s}")
    for n, s in prediction.curve:
        print(f"{n:>6d} {s:>10.1f} {s / n:>10.0%}")


def main() -> None:
    budget = 200_000

    ai_solver = AdaptiveSearch(AllIntervalProblem(12), AdaptiveSearchConfig(max_iterations=budget))
    ai_obs = collect_batch(ai_solver, 150, base_seed=1, backend=BACKEND)
    analyse("ALL-INTERVAL 12 (shifted exponential regime)",
            ai_obs.values("iterations"), "shifted_exponential", "min")

    costas_solver = AdaptiveSearch(CostasArrayProblem(10), AdaptiveSearchConfig(max_iterations=budget))
    costas_obs = collect_batch(costas_solver, 150, base_seed=2, backend=BACKEND)
    analyse("COSTAS 10 (near-linear regime)",
            costas_obs.values("iterations"), "shifted_exponential", "zero_if_negligible")


if __name__ == "__main__":
    main()
