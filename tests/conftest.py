import math

import numpy as np
import pytest

from iondeco import engines, model, observables
from iondeco.experiments import initial_state, scaled_system

# Standard grids used by the cross-engine checks.
R_VALUES = (0.001, 0.005, 0.01, 0.1)
T_GRID_PI = np.linspace(0.0, math.pi, 64)


def first_order_gap_bound(block, t: float, r: float, floor: float) -> float:
    """Largest max-entry gap the first-order engine may show against the exact
    kick average, at time t and R = 1/gamma (scaled units).

    Per eigenbasis coherence with gap D = Ep - Eq and d = D R, the exact
    factor is phi_first * e^z with z = (t/R)(e^{-id} - 1 + id + d^2/2), and
    |z| <= t |D|^3 R^2 / 6, 0 <= Re z <= t D^4 R^3 / 24.  Hence
    |phi_first - phi_exact| <= |phi_first| |z| e^{Re z}, with
    |phi_first| = exp(-D^2 t R / 2).  The largest entry of V X V^T is at most
    ||X||_F, and with E_pq = phi_first - phi_exact for coherence (p, q),
    ||rho_eig o E||_F <= max|E_pq| since ||rho||_F <= 1.

    The gaps D come from a dense eigvalsh of the block, never from an engine.
    """
    w = np.linalg.eigvalsh(block.entries)
    d = np.abs(w[:, None] - w[None, :])[~np.eye(len(w), dtype=bool)]
    per_pair = (np.exp(-d * d * t * r / 2.0) * (t * d**3 * r * r / 6.0)
                * np.exp(t * d**4 * r**3 / 24.0))
    return float(per_pair.max()) + floor


@pytest.fixture(scope="session")
def system4():
    """Scaled alpha=4 system: (block, spectrum)."""
    return scaled_system(4.0)


@pytest.fixture(scope="session")
def rho0():
    return initial_state()


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
