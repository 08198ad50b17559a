import math

import numpy as np
import pytest

from iondeco import engines, model, observables
from iondeco.experiments import initial_state, scaled_system

# Standard grids used by the cross-engine checks.
R_VALUES = (0.001, 0.005, 0.01, 0.1)
T_GRID_PI = np.linspace(0.0, math.pi, 64)


@pytest.fixture(scope="session")
def system4():
    """Scaled alpha=4 system: (block, spectrum)."""
    return scaled_system(4.0)


@pytest.fixture(scope="session")
def rho0():
    return initial_state()


@pytest.fixture
def linalg_calls(monkeypatch):
    """A list that gains the name of each np.linalg.eigvalsh and np.linalg.cholesky call during the test."""
    calls = []

    def counted(name):
        original = getattr(np.linalg, name)
        return lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs)

    for name in ("eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


@pytest.fixture(scope="session")
def ghz_minus():
    return observables.ghz_state("minus")


@pytest.fixture(scope="session")
def ghz_plus():
    return observables.ghz_state("plus")


@pytest.fixture(scope="session")
def ode_grid(system4, rho0):
    """Runge-Kutta outputs over the standard grid, keyed by (r, t_index)."""
    block, spectrum = system4
    dt = 1e-3 / 4.0
    out = {}
    for r in R_VALUES:
        req = engines.EvolutionRequest(initial=rho0, t=T_GRID_PI, gamma=1.0 / r, dt=dt)
        stack = engines.evolve_ode(block, spectrum, req)
        for j in range(T_GRID_PI.size):
            out[(r, j)] = engines.DensityMatrix(stack.entries[j], stack.basis_order)
    return out


@pytest.fixture(scope="session")
def mc_grid(system4, rho0):
    """Monte Carlo outputs (n_traj = 1e5, seed 0) over the standard grid."""
    block, spectrum = system4
    out = {}
    for r in R_VALUES:
        req = engines.EvolutionRequest(initial=rho0, t=T_GRID_PI, gamma=1.0 / r, n_traj=100_000, seed=0)
        stack = engines.evolve_monte_carlo(block, spectrum, req)
        for j in range(T_GRID_PI.size):
            out[(r, j)] = engines.DensityMatrix(stack.entries[j], stack.basis_order)
    return out
