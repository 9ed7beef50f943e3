"""Experiment harness regenerating every table and figure of the paper.

Each experiment is addressable by the identifier used in the paper
(``table1`` … ``table5``, ``figure1`` … ``figure14``) through
:func:`repro.experiments.registry.run_experiment`, and is backed by a
dedicated function returning a structured result with a ``format()`` method
that prints the same rows / series the paper reports.  The ``sat_flips``
and ``sat_portfolio`` experiments extend the evaluation to the WalkSAT
workload the paper's conclusion proposes.

The solver-backed experiments run on scaled-down instances (see DESIGN.md §4
for the substitution rationale); instance sizes, run counts and core counts
are controlled by :class:`repro.experiments.config.ExperimentConfig`, with a
``quick`` profile sized for laptops/CI and a ``full`` profile for longer
campaigns.
"""

from repro.experiments.config import BENCHMARK_KEYS, SAT_KEY, ExperimentConfig
from repro.experiments.data import collect_observations
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentEntry,
    list_experiments,
    run_experiment,
)

__all__ = [
    "BENCHMARK_KEYS",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentEntry",
    "SAT_KEY",
    "collect_observations",
    "list_experiments",
    "run_experiment",
]
