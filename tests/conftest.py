"""Shared fixtures."""

import numpy as np
import pytest

from qopt.model import DiagonalObjective


@pytest.fixture
def energies_at_calls(monkeypatch):
    """Sizes of every ``DiagonalObjective.energies_at`` call made in the test."""
    calls = []
    original = DiagonalObjective.energies_at

    def counted(self, indices):
        calls.append(int(np.size(indices)))
        return original(self, indices)

    monkeypatch.setattr(DiagonalObjective, "energies_at", counted)
    return calls
