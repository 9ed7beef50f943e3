"""Tables 1–5 of the paper.

* Table 1 — sequential execution times (min / mean / median / max).
* Table 2 — sequential iteration counts (same statistics).
* Table 3 — measured multi-walk speed-ups w.r.t. time on 16…256 cores.
* Table 4 — measured multi-walk speed-ups w.r.t. iterations.
* Table 5 — measured vs predicted speed-ups (the paper's headline result).

"Measured" speed-ups come from the simulated multi-walk (block minima over
independent sequential runs — see DESIGN.md §4); "predicted" speed-ups come
from the fitted-distribution model of Section 3 using the same family per
benchmark as the paper (lognormal for MAGIC-SQUARE, shifted exponential for
ALL-INTERVAL, non-shifted exponential for COSTAS).
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

import numpy as np

from repro.core.prediction import PredictionResult, predict_speedup_curve
from repro.experiments.config import BENCHMARK_KEYS, ExperimentConfig
from repro.experiments.report import format_table
from repro.multiwalk.observations import RuntimeObservations
from repro.multiwalk.simulate import MultiwalkMeasurement, simulate_multiwalk_speedups
from repro.stats.descriptive import RuntimeSummary, summarize

__all__ = [
    "PredictionComparisonTable",
    "SequentialSummaryTable",
    "SpeedupTable",
    "table1_sequential_times",
    "table2_sequential_iterations",
    "table3_time_speedups",
    "table4_iteration_speedups",
    "table5_prediction_comparison",
]


# ----------------------------------------------------------------------
# Tables 1 and 2 — sequential statistics
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SequentialSummaryTable:
    """Min/mean/median/max of the sequential runs, one row per benchmark."""

    title: str
    measure: str
    labels: Mapping[str, str]
    summaries: Mapping[str, RuntimeSummary]

    def rows(self) -> list[list[object]]:
        out: list[list[object]] = []
        for key in BENCHMARK_KEYS:
            summary = self.summaries[key]
            out.append(
                [self.labels[key], summary.minimum, summary.mean, summary.median, summary.maximum]
            )
        return out

    def format(self) -> str:
        precision = "{:.2f}" if self.measure == "time" else "{:,.0f}"
        return format_table(
            ["Problem", "Min", "Mean", "Median", "Max"],
            self.rows(),
            title=self.title,
            float_format=precision,
        )


def _summary_table(
    config: ExperimentConfig,
    observations: Mapping[str, RuntimeObservations],
    measure: str,
    title: str,
) -> SequentialSummaryTable:
    labels = {key: observations[key].label for key in BENCHMARK_KEYS}
    summaries = {key: summarize(observations[key].values(measure)) for key in BENCHMARK_KEYS}
    return SequentialSummaryTable(title=title, measure=measure, labels=labels, summaries=summaries)


def table1_sequential_times(
    config: ExperimentConfig,
    observations: Mapping[str, RuntimeObservations],
) -> SequentialSummaryTable:
    """Table 1: sequential execution times (seconds)."""
    return _summary_table(config, observations, "time", "Table 1. Sequential execution times (s)")


def table2_sequential_iterations(
    config: ExperimentConfig,
    observations: Mapping[str, RuntimeObservations],
) -> SequentialSummaryTable:
    """Table 2: sequential number of iterations."""
    return _summary_table(
        config, observations, "iterations", "Table 2. Sequential number of iterations"
    )


# ----------------------------------------------------------------------
# Tables 3 and 4 — measured multi-walk speed-ups
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SpeedupTable:
    """Measured speed-ups per benchmark and core count (Tables 3 and 4)."""

    title: str
    measure: str
    cores: tuple[int, ...]
    sequential_reference: Mapping[str, float]
    measurements: Mapping[str, MultiwalkMeasurement]

    def speedup(self, key: str, n_cores: int) -> float:
        return self.measurements[key].speedup(n_cores)

    def rows(self) -> list[list[object]]:
        out: list[list[object]] = []
        for key in BENCHMARK_KEYS:
            measurement = self.measurements[key]
            row: list[object] = [measurement.label, self.sequential_reference[key]]
            row.extend(measurement.speedup(c) for c in self.cores)
            out.append(row)
        return out

    def format(self) -> str:
        reference_header = "1-core time (s)" if self.measure == "time" else "1-core iterations"
        headers = ["Problem", reference_header] + [f"k={c}" for c in self.cores]
        return format_table(headers, self.rows(), title=self.title, float_format="{:,.1f}")


def _speedup_table(
    config: ExperimentConfig,
    observations: Mapping[str, RuntimeObservations],
    measure: str,
    title: str,
) -> SpeedupTable:
    rng = np.random.default_rng(config.base_seed + 977)
    measurements = {}
    reference = {}
    for key in BENCHMARK_KEYS:
        values = observations[key].values(measure)
        reference[key] = float(values.mean())
        measurements[key] = simulate_multiwalk_speedups(
            observations[key],
            config.cores,
            measure=measure,
            n_parallel_runs=config.n_parallel_runs,
            rng=rng,
        )
    return SpeedupTable(
        title=title,
        measure=measure,
        cores=tuple(config.cores),
        sequential_reference=reference,
        measurements=measurements,
    )


def table3_time_speedups(
    config: ExperimentConfig,
    observations: Mapping[str, RuntimeObservations],
) -> SpeedupTable:
    """Table 3: measured speed-ups with respect to sequential time."""
    return _speedup_table(
        config, observations, "time", "Table 3. Speed-ups with respect to sequential time"
    )


def table4_iteration_speedups(
    config: ExperimentConfig,
    observations: Mapping[str, RuntimeObservations],
) -> SpeedupTable:
    """Table 4: measured speed-ups with respect to sequential iterations."""
    return _speedup_table(
        config,
        observations,
        "iterations",
        "Table 4. Speed-ups with respect to sequential number of iterations",
    )


# ----------------------------------------------------------------------
# Table 5 — predicted vs measured
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class PredictionComparisonTable:
    """Experimental (simulated multi-walk) vs predicted speed-ups (Table 5)."""

    cores: tuple[int, ...]
    labels: Mapping[str, str]
    experimental: Mapping[str, MultiwalkMeasurement]
    predictions: Mapping[str, PredictionResult]

    def relative_error(self, key: str, n_cores: int) -> float:
        """|predicted - measured| / measured for one benchmark/core count."""
        measured = self.experimental[key].speedup(n_cores)
        predicted = self.predictions[key].speedup(n_cores)
        if measured == 0.0:
            return float("inf")
        return abs(predicted - measured) / measured

    def max_relative_error(self, key: str) -> float:
        return max(self.relative_error(key, c) for c in self.cores)

    def rows(self) -> list[list[object]]:
        out: list[list[object]] = []
        for key in BENCHMARK_KEYS:
            exp_row: list[object] = [self.labels[key], "experimental"]
            exp_row.extend(self.experimental[key].speedup(c) for c in self.cores)
            out.append(exp_row)
            pred_row: list[object] = ["", "predicted"]
            pred_row.extend(self.predictions[key].speedup(c) for c in self.cores)
            out.append(pred_row)
        return out

    def format(self) -> str:
        headers = ["Problem", "series"] + [f"k={c}" for c in self.cores]
        body = format_table(
            headers,
            self.rows(),
            title="Table 5. Comparison: experimental and predicted speed-ups",
            float_format="{:.1f}",
        )
        families = ", ".join(
            f"{self.labels[key]}: {self.predictions[key].family}" for key in BENCHMARK_KEYS
        )
        return body + f"\nfitted families: {families}"


def table5_prediction_comparison(
    config: ExperimentConfig,
    observations: Mapping[str, RuntimeObservations],
    *,
    cores: Sequence[int] | None = None,
) -> PredictionComparisonTable:
    """Table 5: predicted speed-ups (Section 6 fits) vs measured speed-ups."""
    core_list = tuple(int(c) for c in (cores or config.cores))

    experimental_table = _speedup_table(config, observations, "iterations", "")
    predictions: dict[str, PredictionResult] = {}
    for key in BENCHMARK_KEYS:
        values = observations[key].values("iterations")
        predictions[key] = predict_speedup_curve(
            values,
            core_list,
            family=config.paper_family(key),
            shift_rule=config.paper_shift_rule(key),
        )
    labels = {key: observations[key].label for key in BENCHMARK_KEYS}
    return PredictionComparisonTable(
        cores=core_list,
        labels=labels,
        experimental=experimental_table.measurements,
        predictions=predictions,
    )
