"""Figures 8–13: per-benchmark distribution fits and predicted speed-ups.

* Figure 8 / 10 / 12 — histogram of the observed iteration counts overlaid
  with the fitted distribution (shifted exponential for ALL-INTERVAL,
  shifted lognormal for MAGIC-SQUARE, plain exponential for COSTAS), plus
  the Kolmogorov–Smirnov verdict the paper quotes.
* Figure 9 / 11 / 13 — the speed-up curve predicted from that fit as a
  function of the number of cores, with its asymptotic limit.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping


from repro.core.fitting import FitResult, fit_distribution
from repro.core.speedup import SpeedupCurve, SpeedupModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_series
from repro.multiwalk.observations import RuntimeObservations
from repro.stats.histogram import HistogramOverlay, histogram_with_fit

__all__ = [
    "DistributionFitFigure",
    "PredictedSpeedupFigure",
    "figure8_all_interval_fit",
    "figure9_all_interval_prediction",
    "figure10_magic_square_fit",
    "figure11_magic_square_prediction",
    "figure12_costas_fit",
    "figure13_costas_prediction",
]


@dataclasses.dataclass(frozen=True)
class DistributionFitFigure:
    """Histogram + fitted density + KS verdict for one benchmark."""

    title: str
    benchmark: str
    fit: FitResult
    histogram: HistogramOverlay

    def format(self) -> str:
        lines = [self.title, self.fit.summary(), "", self.histogram.to_ascii()]
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class PredictedSpeedupFigure:
    """Speed-up curve predicted from a fitted distribution."""

    title: str
    benchmark: str
    fit: FitResult
    curve: SpeedupCurve
    limit: float

    def format(self) -> str:
        body = format_series(
            list(self.curve.cores),
            {"predicted speed-up": list(self.curve.speedups)},
            title=self.title,
        )
        return body + f"\nasymptotic limit: {self.limit:.4g}"


def _fit_for(config: ExperimentConfig, observations: Mapping[str, RuntimeObservations], key: str) -> FitResult:
    values = observations[key].values("iterations")
    return fit_distribution(
        values,
        config.paper_family(key),
        shift_rule=config.paper_shift_rule(key),
    )


def _fit_figure(
    config: ExperimentConfig,
    observations: Mapping[str, RuntimeObservations],
    key: str,
    figure_number: int,
) -> DistributionFitFigure:
    fit = _fit_for(config, observations, key)
    values = observations[key].values("iterations")
    label = observations[key].label
    return DistributionFitFigure(
        title=(
            f"Figure {figure_number}. Observed iteration counts for {label} "
            f"with fitted {fit.family}"
        ),
        benchmark=key,
        fit=fit,
        histogram=histogram_with_fit(values, fit.distribution),
    )


def _prediction_figure(
    config: ExperimentConfig,
    observations: Mapping[str, RuntimeObservations],
    key: str,
    figure_number: int,
    max_cores: int = 256,
) -> PredictedSpeedupFigure:
    fit = _fit_for(config, observations, key)
    model = SpeedupModel(fit.distribution)
    cores = sorted(set(list(range(1, max_cores + 1, max(1, max_cores // 32))) + [max_cores]))
    label = observations[key].label
    return PredictedSpeedupFigure(
        title=f"Figure {figure_number}. Predicted speed-up for {label} ({fit.family})",
        benchmark=key,
        fit=fit,
        curve=model.curve(cores),
        limit=model.limit(),
    )


# ----------------------------------------------------------------------
def figure8_all_interval_fit(
    config: ExperimentConfig, observations: Mapping[str, RuntimeObservations]
) -> DistributionFitFigure:
    """Figure 8: ALL-INTERVAL histogram with its shifted-exponential fit."""
    return _fit_figure(config, observations, "AI", 8)


def figure9_all_interval_prediction(
    config: ExperimentConfig, observations: Mapping[str, RuntimeObservations]
) -> PredictedSpeedupFigure:
    """Figure 9: predicted speed-up for ALL-INTERVAL (finite limit)."""
    return _prediction_figure(config, observations, "AI", 9)


def figure10_magic_square_fit(
    config: ExperimentConfig, observations: Mapping[str, RuntimeObservations]
) -> DistributionFitFigure:
    """Figure 10: MAGIC-SQUARE histogram with its shifted-lognormal fit."""
    return _fit_figure(config, observations, "MS", 10)


def figure11_magic_square_prediction(
    config: ExperimentConfig, observations: Mapping[str, RuntimeObservations]
) -> PredictedSpeedupFigure:
    """Figure 11: predicted speed-up for MAGIC-SQUARE (lognormal model)."""
    return _prediction_figure(config, observations, "MS", 11)


def figure12_costas_fit(
    config: ExperimentConfig, observations: Mapping[str, RuntimeObservations]
) -> DistributionFitFigure:
    """Figure 12: COSTAS histogram with its (non-shifted) exponential fit."""
    return _fit_figure(config, observations, "Costas", 12)


def figure13_costas_prediction(
    config: ExperimentConfig, observations: Mapping[str, RuntimeObservations]
) -> PredictedSpeedupFigure:
    """Figure 13: predicted speed-up for COSTAS (essentially linear)."""
    return _prediction_figure(config, observations, "Costas", 13)
