"""Emulated multi-walk execution (first finisher wins).

:func:`emulate_multiwalk` runs the ``n`` walks one after another in the
current process and reports the winner.  In iteration count this is
*exactly* what a parallel run would measure (the walks do not interact);
only the wall-clock figure is an emulation.  To race walks for real, call
:func:`repro.engine.run_race` on a parallel backend; the large-scale
experiments use the block-minimum simulation in
:mod:`repro.multiwalk.simulate`.
"""

from __future__ import annotations

import time

from repro.engine.core import RaceOutcome
from repro.engine.seeding import spawn_seeds
from repro.solvers.base import LasVegasAlgorithm

__all__ = ["emulate_multiwalk"]


def emulate_multiwalk(
    algorithm: LasVegasAlgorithm,
    n_walks: int,
    *,
    base_seed: int = 0,
) -> RaceOutcome:
    """Emulate one ``n_walks``-core multi-walk by sequential execution.

    All walks are run to completion (so ``n_completed == n_walks``) and the
    one with the fewest iterations is declared the winner — identical in
    distribution (for the iteration measure) to a genuinely parallel
    first-finisher-wins execution.  When no walk solves, the one with the
    fewest iterations wins, ties broken by lowest walk index (the rule of
    :func:`repro.engine.run_race`).  ``wall_clock_seconds`` is the total
    emulation time; the winner's own ``runtime_seconds`` is what an ideal
    parallel execution with one core per walk would have measured.
    """
    if n_walks < 1:
        raise ValueError(f"n_walks must be >= 1, got {n_walks}")
    start = time.perf_counter()
    seeds = spawn_seeds(base_seed, n_walks)
    results = [algorithm.run(seed) for seed in seeds]
    elapsed = time.perf_counter() - start
    solved_indices = [i for i, r in enumerate(results) if r.solved]
    candidates = solved_indices if solved_indices else range(len(results))
    winner_index = min(candidates, key=lambda i: (results[i].iterations, i))
    return RaceOutcome(
        n_walks=n_walks,
        winner_index=winner_index,
        winner_result=results[winner_index],
        wall_clock_seconds=elapsed,
        n_completed=n_walks,
    )
