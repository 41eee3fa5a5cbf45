"""Shared fixtures: trained pulses are expensive, so they are built once per
session and cached on disk under tests/artifacts/.  Delete that directory to
force retraining; training is seeded, so regenerated artifacts are identical
up to deliberate arithmetic changes, which CHANGES.md records with their size.
"""

from pathlib import Path

import pytest

ARTIFACTS = Path(__file__).parent / "artifacts"


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
