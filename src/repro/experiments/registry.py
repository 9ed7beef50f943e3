"""Registry mapping experiment identifiers to experiment functions.

Paper identifiers (``table1`` … ``figure14``) reproduce the evaluation
section; the ``sat_*`` experiments exercise the SAT extension the paper's
conclusion proposes.  Each entry declares which observation campaign it
consumes (``"benchmarks"`` for the three CSP benchmarks, ``"sat"`` for the
configured WalkSAT workload, ``"sat_policies"`` for the flip-policy family,
``None`` for pure-model figures) so the CLI can collect the union of the
campaigns a set of experiments needs in one
:func:`~repro.experiments.data.collect_observations` call.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping

from repro.experiments.config import ExperimentConfig
from repro.experiments.data import collect_observations
from repro.experiments.stages import STAGE_KINDS
from repro.experiments import figures_experiments, figures_fits, figures_model, sat, tables

__all__ = [
    "EXPERIMENTS",
    "ExperimentEntry",
    "OBSERVATION_KINDS",
    "list_experiments",
    "run_experiment",
]

#: Observation-campaign kinds an experiment can declare — the registered
#: stage vocabulary of :mod:`repro.experiments.stages`.
OBSERVATION_KINDS: tuple[str, ...] = STAGE_KINDS


@dataclasses.dataclass(frozen=True)
class ExperimentEntry:
    """One registered experiment.

    Attributes
    ----------
    func:
        Experiment function; solver-backed ones take
        ``(config, observations)``, pure-model ones take keyword arguments
        only.
    observations:
        Which campaign the experiment consumes (one of
        :data:`OBSERVATION_KINDS`), or ``None`` for experiments that run no
        solver.
    description:
        One-line description shown by ``repro-lasvegas list``.
    """

    func: Callable
    observations: str | None
    description: str

    def __post_init__(self) -> None:
        if self.observations is not None and self.observations not in OBSERVATION_KINDS:
            raise ValueError(
                f"observations must be one of {OBSERVATION_KINDS} or None, "
                f"got {self.observations!r}"
            )


EXPERIMENTS: Mapping[str, ExperimentEntry] = {
    "table1": ExperimentEntry(tables.table1_sequential_times, "benchmarks", "Sequential execution times"),
    "table2": ExperimentEntry(tables.table2_sequential_iterations, "benchmarks", "Sequential iteration counts"),
    "table3": ExperimentEntry(tables.table3_time_speedups, "benchmarks", "Measured speed-ups w.r.t. time"),
    "table4": ExperimentEntry(tables.table4_iteration_speedups, "benchmarks", "Measured speed-ups w.r.t. iterations"),
    "table5": ExperimentEntry(tables.table5_prediction_comparison, "benchmarks", "Experimental vs predicted speed-ups"),
    "figure1": ExperimentEntry(figures_model.figure1_gaussian_min, None, "Min-distribution of a gaussian"),
    "figure2": ExperimentEntry(figures_model.figure2_exponential_min, None, "Min-distribution of a shifted exponential"),
    "figure3": ExperimentEntry(figures_model.figure3_exponential_speedup, None, "Predicted speed-up, shifted exponential"),
    "figure4": ExperimentEntry(figures_model.figure4_lognormal_min, None, "Min-distribution of a lognormal"),
    "figure5": ExperimentEntry(figures_model.figure5_lognormal_speedup, None, "Predicted speed-up, lognormal"),
    "figure6": ExperimentEntry(figures_experiments.figure6_csplib_speedups, "benchmarks", "Measured speed-ups, CSPLib benchmarks"),
    "figure7": ExperimentEntry(figures_experiments.figure7_costas_speedups, "benchmarks", "Measured speed-ups, Costas"),
    "figure8": ExperimentEntry(figures_fits.figure8_all_interval_fit, "benchmarks", "ALL-INTERVAL histogram + exponential fit"),
    "figure9": ExperimentEntry(figures_fits.figure9_all_interval_prediction, "benchmarks", "Predicted speed-up, ALL-INTERVAL"),
    "figure10": ExperimentEntry(figures_fits.figure10_magic_square_fit, "benchmarks", "MAGIC-SQUARE histogram + lognormal fit"),
    "figure11": ExperimentEntry(figures_fits.figure11_magic_square_prediction, "benchmarks", "Predicted speed-up, MAGIC-SQUARE"),
    "figure12": ExperimentEntry(figures_fits.figure12_costas_fit, "benchmarks", "COSTAS histogram + exponential fit"),
    "figure13": ExperimentEntry(figures_fits.figure13_costas_prediction, "benchmarks", "Predicted speed-up, COSTAS"),
    "figure14": ExperimentEntry(figures_experiments.figure14_costas_extended, "benchmarks", "COSTAS speed-up at large core counts"),
    "sat_flips": ExperimentEntry(sat.sat_flips_table, "sat", "Sequential WalkSAT flips on the configured SAT workload"),
    "sat_portfolio": ExperimentEntry(sat.sat_portfolio_table, "sat", "Measured vs predicted WalkSAT portfolio speed-ups"),
    "sat_policies": ExperimentEntry(sat.sat_policy_table, "sat_policies", "WalkSAT/Novelty/Novelty+/adaptive flips on one instance"),
}


def list_experiments() -> list[tuple[str, str]]:
    """Available experiment ids with their one-line descriptions."""
    return [(name, entry.description) for name, entry in EXPERIMENTS.items()]


def run_experiment(name: str, config: ExperimentConfig | None = None, **kwargs):
    """Run one experiment by its identifier and return its result object.

    Solver-backed experiments take their campaign from ``observations=``
    when given (a mapping from :func:`collect_observations`, which may
    cover more kinds than the experiment needs); otherwise the campaign is
    collected here, serially and without a disk cache.
    """
    try:
        entry = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known experiments: {known}") from None
    if entry.observations is not None:
        config = config or ExperimentConfig.quick()
        observations = kwargs.pop("observations", None)
        if observations is None:
            observations = collect_observations(config, (entry.observations,))
        return entry.func(config, observations, **kwargs)
    return entry.func(**kwargs)
