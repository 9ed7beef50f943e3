"""Shared fixtures for the test suite.

Solver campaigns are by far the slowest part of testing, so a single tiny
campaign is collected once per session and shared by every experiment-layer
test through the ``tiny_observations`` fixture.  It lands in a
session-wide disk cache (``tiny_cache_dir``) that tiny-profile CLI
invocations pass as ``--cache``, so they read it back instead of
re-running the solvers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.data import collect_observations


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator for each test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_config() -> ExperimentConfig:
    """Smallest meaningful experiment configuration."""
    return ExperimentConfig.tiny()


@pytest.fixture(scope="session")
def tiny_cache_dir(tmp_path_factory):
    """One observation cache directory for every tiny-profile campaign."""
    return tmp_path_factory.mktemp("tiny-cache")


@pytest.fixture(scope="session")
def tiny_observations(tiny_config, tiny_cache_dir):
    """One shared solver campaign for all experiment-layer tests."""
    return collect_observations(tiny_config, ("benchmarks",), cache_dir=tiny_cache_dir)
