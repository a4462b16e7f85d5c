from dataclasses import replace

import pytest

from susywell import oracle
from susywell.potential import potential_closed_form


@pytest.fixture()
def perturbed_oracle(monkeypatch):
    """Negative control: the oracle's Hamiltonian carries 1.1 V instead of V,
    which validate must report as a failure."""
    build = oracle.build_hamiltonian

    def build_perturbed(params, grid):
        H = build(params, grid)
        return replace(H, diag=H.diag + 0.1 * potential_closed_form(grid.points(), params))

    monkeypatch.setattr(oracle, "build_hamiltonian", build_perturbed)
