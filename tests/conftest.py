"""Shared fixtures."""

import numpy as np
import pytest

from qopt.model import DiagonalObjective, bits_to_index


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


class _TableProgram:
    """Objective program over a fixed energy table, infinite entries included."""

    def __init__(self, energies):
        self.energies = energies

    def table(self):
        return self.energies.copy()

    def at(self, indices):
        return self.energies[np.asarray(indices, dtype=np.int64)]

    def value(self, bits):
        return float(self.energies[bits_to_index(bits)])


@pytest.fixture
def table_objective():
    """Build a native objective from its ``2^n`` energies in index order."""

    def build(energies):
        energies = np.asarray(energies, dtype=np.float64)
        return DiagonalObjective(n=energies.size.bit_length() - 1, program=_TableProgram(energies))

    return build
