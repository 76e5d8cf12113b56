"""Shared fixtures: tiny libraries/grids built once per test session."""

import json

import numpy as np
import pytest

from repro.data import LibraryConfig, UnionizedGrid, build_library


def pytest_addoption(parser, pluginmanager):
    """Own the ``timeout`` ini key when pytest-timeout is not installed.

    ``pyproject.toml`` sets a per-test ceiling that CI enforces through the
    plugin; without it the key would be an "Unknown config option" warning
    on every local run.  Registered here it is known and inert.
    """
    if not pluginmanager.hasplugin("timeout"):
        parser.addini(
            "timeout",
            "per-test timeout in seconds (enforced by pytest-timeout only)",
        )


@pytest.fixture(scope="session")
def tiny_config():
    return LibraryConfig.tiny()


@pytest.fixture(scope="session")
def small_library(tiny_config):
    """H.M. Small library at tiny fidelity (43 nuclides)."""
    return build_library("hm-small", tiny_config)


@pytest.fixture(scope="session")
def large_library(tiny_config):
    """H.M. Large library at tiny fidelity (329 nuclides)."""
    return build_library("hm-large", tiny_config)


@pytest.fixture(scope="session")
def small_union(small_library):
    return UnionizedGrid(small_library)


@pytest.fixture()
def write_schema1_library():
    """Writes a library file as schema 1 spelt it (two members per
    nuclide) — what a cache directory from before the bump holds."""

    def write(path):
        meta = {"schema": 1, "model": "hm-small", "config": {},
                "nuclides": [], "urr": [], "sab": []}
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh,
                **{"nuc/U238/energy": np.ones(3), "nuc/U238/xs": np.ones((4, 3))},
                __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            )

    return write


@pytest.fixture()
def rng():
    return np.random.default_rng(987)
