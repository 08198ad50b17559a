"""Verified simulator for stochastic-unitary-step (intrinsic) decoherence of a
trapped ion coupled to a cavity mode and a resonant laser, tracking the
probability of generating the tripartite GHZ state."""

__version__ = "0.1.0"

from .errors import ConfigError, NumericalError, ValidationError
from .model import (
    HamiltonianBlock,
    ModeIndices,
    Spectrum,
    build_hamiltonian,
    spectrum_analytic,
)
from .engines import (
    DensityMatrix,
    EvolutionRequest,
    closed_form_rho,
    evolve,
    evolve_eigenbasis,
    evolve_monte_carlo,
    evolve_ode,
    evolve_poisson,
    evolve_unitary,
)
from .observables import (
    GHZTarget,
    clamp_probability,
    closed_form_pghz,
    ghz_state,
    p_ghz,
    populations,
    published_pghz,
    purity,
)
from .experiments import (
    AuditReport,
    SweepSpec,
    Table1Row,
    TimeSeries,
    UnitReport,
    audit,
    physical_units,
    sweep,
    table1,
)
