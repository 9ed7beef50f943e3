"""Figures 6, 7 and 14: measured speed-up curves.

* Figure 6 — measured speed-ups of the CSPLib benchmarks (MAGIC-SQUARE and
  ALL-INTERVAL) against the ideal linear speed-up, 16…256 cores.
* Figure 7 — measured speed-up of COSTAS, which stays essentially linear.
* Figure 14 — COSTAS speed-up extended to thousands of cores (the paper
  adapts this figure from the 8192-core JUGENE experiment) together with
  the model's prediction, showing the predicted linear scaling holds.

"Measured" means the simulated independent multi-walk over fresh sequential
runs (block minima), the documented stand-in for the paper's cluster.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

import numpy as np

from repro.core.prediction import predict_speedup_curve
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_series
from repro.multiwalk.observations import RuntimeObservations
from repro.multiwalk.simulate import MultiwalkMeasurement, simulate_multiwalk_speedups

__all__ = [
    "MeasuredSpeedupFigure",
    "figure6_csplib_speedups",
    "figure7_costas_speedups",
    "figure14_costas_extended",
]


@dataclasses.dataclass(frozen=True)
class MeasuredSpeedupFigure:
    """Measured speed-up curves (plus optional predicted/ideal references)."""

    title: str
    cores: tuple[int, ...]
    series: Mapping[str, tuple[float, ...]]

    def speedup(self, series_name: str, n_cores: int) -> float:
        values = dict(zip(self.cores, self.series[series_name]))
        return values[int(n_cores)]

    def format(self) -> str:
        return format_series(
            list(self.cores),
            {name: list(values) for name, values in self.series.items()},
            title=self.title,
        )


def _measure(
    observations: RuntimeObservations,
    cores: tuple[int, ...],
    config: ExperimentConfig,
    rng: np.random.Generator,
) -> MultiwalkMeasurement:
    return simulate_multiwalk_speedups(
        observations,
        cores,
        measure="iterations",
        n_parallel_runs=config.n_parallel_runs,
        rng=rng,
    )


def figure6_csplib_speedups(
    config: ExperimentConfig,
    observations: Mapping[str, RuntimeObservations],
) -> MeasuredSpeedupFigure:
    """Figure 6: measured speed-ups for the CSPLib benchmarks (MS and AI)."""
    rng = np.random.default_rng(config.base_seed + 6)
    cores = tuple(config.cores)
    ms = _measure(observations["MS"], cores, config, rng)
    ai = _measure(observations["AI"], cores, config, rng)
    series = {
        "Ideal": tuple(float(c) for c in cores),
        observations["MS"].label: ms.speedups,
        observations["AI"].label: ai.speedups,
    }
    return MeasuredSpeedupFigure(
        title="Figure 6. Measured speed-ups for the CSPLib benchmarks",
        cores=cores,
        series=series,
    )


def figure7_costas_speedups(
    config: ExperimentConfig,
    observations: Mapping[str, RuntimeObservations],
) -> MeasuredSpeedupFigure:
    """Figure 7: measured speed-up for the COSTAS ARRAY problem."""
    rng = np.random.default_rng(config.base_seed + 7)
    cores = tuple(config.cores)
    costas = _measure(observations["Costas"], cores, config, rng)
    series = {
        "Ideal": tuple(float(c) for c in cores),
        observations["Costas"].label: costas.speedups,
    }
    return MeasuredSpeedupFigure(
        title="Figure 7. Measured speed-ups for the COSTAS ARRAY problem",
        cores=cores,
        series=series,
    )


def figure14_costas_extended(
    config: ExperimentConfig,
    observations: Mapping[str, RuntimeObservations],
) -> MeasuredSpeedupFigure:
    """Figure 14: COSTAS speed-up at large core counts, measured vs predicted.

    The measured curve uses the simulated multi-walk; the predicted curve is
    the exponential model fitted with the paper's zero-shift rule.  The
    point of the figure is that both stay close to the ideal linear line far
    beyond 256 cores.
    """
    rng = np.random.default_rng(config.base_seed + 14)
    cores = tuple(list(config.cores) + list(config.extended_cores))
    costas_obs = observations["Costas"]
    measured = _measure(costas_obs, cores, config, rng)
    prediction = predict_speedup_curve(
        costas_obs.values("iterations"),
        cores,
        family=config.paper_family("Costas"),
        shift_rule=config.paper_shift_rule("Costas"),
    )
    series = {
        "Ideal": tuple(float(c) for c in cores),
        f"{costas_obs.label} (measured)": measured.speedups,
        f"{costas_obs.label} (predicted)": tuple(prediction.speedup(c) for c in cores),
    }
    return MeasuredSpeedupFigure(
        title="Figure 14. COSTAS speed-up at large core counts (measured vs predicted)",
        cores=cores,
        series=series,
    )
