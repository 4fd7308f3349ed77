"""Shared fixtures for the test suite."""

import pytest

from repro.core.flows import run_flow


@pytest.fixture(scope="session")
def intdiv8_symbolic_cascade():
    """The 967-gate Table II cascade of INTDIV(8) (collapse, embedding, TBS)."""
    return run_flow("symbolic", "intdiv", 8, verify="off").circuit
