"""Shared fixtures: trained pulses are expensive, so they are built once per
session and cached on disk under tests/artifacts/.  Delete that directory to
force retraining.  Training is seeded, so two rebuilds at one BLAS thread agree
bit for bit, but the committed cnot_defm and lls_tcp no longer match a cold
rebuild (ROADMAP item 3).
"""

from pathlib import Path

import pytest
from hypothesis import settings

ARTIFACTS = Path(__file__).parent / "artifacts"

# every property test draws the same examples on every run and writes no example database
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def artifact_cache():
    from pinnctl.network import load_params, save_params

    def cached(name: str, build):
        path = ARTIFACTS / f"{name}.json"
        if path.exists():
            return load_params(path)
        params = build()
        ARTIFACTS.mkdir(exist_ok=True)
        save_params(params, path)
        return params

    return cached
