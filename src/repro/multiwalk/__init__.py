"""Multi-walk model substrate (Definition 2 of the paper).

An independent multi-walk runs ``n`` copies of a Las Vegas algorithm with
independent random streams and stops as soon as the first copy finds a
solution.  This package holds what the reproduction builds on top of the
batches of independent sequential runs the engine collects
(:func:`repro.engine.collect_batch`):

* :mod:`repro.multiwalk.observations` — :class:`RuntimeObservations`, the
  batch container every layer exchanges (and the on-disk cache format).
* :mod:`repro.multiwalk.simulate` — the *simulated* multi-walk: group
  independent sequential runs into blocks of ``n`` and keep each block's
  minimum.  Because an independent multi-walk involves no communication,
  this is behaviourally identical to a parallel execution and is how the
  reproduction stands in for the paper's 256-core cluster.
* :mod:`repro.multiwalk.parallel` — :func:`emulate_multiwalk`, one
  multi-walk run walk by walk in-process.  Real first-finisher-wins races
  are :func:`repro.engine.run_race`.

Seeds derive from a base seed through :func:`repro.engine.spawn_seeds`, so
the serial, thread and process backends produce bit-identical iteration
counts for a given base seed.
"""

from repro.multiwalk.observations import RuntimeObservations
from repro.multiwalk.parallel import emulate_multiwalk
from repro.multiwalk.simulate import (
    MultiwalkMeasurement,
    simulate_multiwalk_from_observations,
    simulate_multiwalk_speedups,
)

__all__ = [
    "MultiwalkMeasurement",
    "RuntimeObservations",
    "emulate_multiwalk",
    "simulate_multiwalk_from_observations",
    "simulate_multiwalk_speedups",
]
