"""Parameter sweeps, unit conversion, and the published-value audit.

Probabilities depend only on (alpha, R, T), so sweeps run in scaled units
with the sideband coupling set to 1; physical_units maps the dimensionless
results onto laboratory numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import engines, model, observables
from .errors import ValidationError

# Published peak probabilities used for side-by-side comparison.  Keys are
# R = a/gamma; the decoherence-free row is R = 0.
PUBLISHED_R_VALUES = (0.001, 0.005, 0.01, 0.1)
PUBLISHED_P_QUARTER = {0.0: 1.0, 0.001: 0.99, 0.005: 0.94, 0.01: 0.89, 0.1: 0.53}
PUBLISHED_P_THREE_QUARTER = {0.0: 1.0, 0.001: 0.94, 0.005: 0.78, 0.01: 0.65, 0.1: 0.37}
PUBLISHED_OMEGA_RAD_S = 8.95e6


def kick_rate(r: float) -> float:
    """gamma = 1/R in scaled units; R = 0 is the decoherence-free gamma = inf."""
    observables.check_r(r)
    return math.inf if r == 0.0 else 1.0 / r


MAX_SCALED_SYSTEMS = 128  # kept by scaled_system per process, least recently used out first; about 1.5 KB each


def scaled_system(
    alpha: float, modes: model.ModeIndices = model.ModeIndices(1, 1),
) -> tuple[model.HamiltonianBlock, model.Spectrum]:
    """Block and spectrum of the coupled (m, n) block, m, n >= 1, for sideband coupling a = 1, mu = alpha.

    Built once per (alpha, m, n) and their types, then shared read-only; a 0-d array alpha keys as its scalar."""
    alpha = alpha[()] if isinstance(alpha, np.ndarray) else alpha
    observables.check_alpha(alpha)  # before the memo hashes it
    modes = model.check_modes(modes)
    return _scaled_system(alpha, modes.m, modes.n)


@functools.lru_cache(maxsize=MAX_SCALED_SYSTEMS, typed=True)
def _scaled_system(alpha: float, m: int, n: int) -> tuple[model.HamiltonianBlock, model.Spectrum]:
    if m < 1 or n < 1:
        raise ValidationError(f"the coupled four-state block requires m >= 1 and n >= 1, got m={m}, n={n}")
    block = model.build_hamiltonian(math.sqrt(alpha * alpha - 1.0), 1.0, model.ModeIndices(m, n))
    return block, model.spectrum_analytic(block)


def initial_state(modes: model.ModeIndices = model.ModeIndices(1, 1)) -> engines.DensityMatrix:
    """|g,m-1,n-1><g,m-1,n-1| in the (m, n) block: |g,0,0> for m = n = 1."""
    return engines.DensityMatrix.basis_state(2, model.check_modes(modes).basis_order())


def _published_rt_grid(t_grid: np.ndarray) -> tuple[tuple[float, ...], np.ndarray, np.ndarray]:
    """R = 0 and the published R values x t_grid, flattened R-major: the R values, then each point's time and gamma."""
    r_values = (0.0,) + PUBLISHED_R_VALUES
    return r_values, np.tile(t_grid, len(r_values)), np.repeat([kick_rate(r) for r in r_values], len(t_grid))


@dataclass
class TimeSeries:
    """Sweep output: one probability column per (R, target) plus purity per R."""

    t_rad: np.ndarray
    probabilities: dict[tuple[float, str], np.ndarray]
    purities: dict[float, np.ndarray]


def sweep(alpha: float, r_values, t_grid, engine: str, **controls) -> TimeSeries:
    """Both GHZ targets' probabilities and the purity over the (R, T) grid.

    t_grid holds scaled times in radians, strictly increasing; controls are
    EvolutionRequest's dt, tail_tol, n_traj and seed.  Every input is checked
    before the first engine call, also with no R.  Each R is one engine call
    over the whole T grid; columns follow the given r order and ascending T,
    so the output layout is deterministic.
    """
    if engine not in engines.ENGINES:  # refused also when there is no R to evolve
        raise ValidationError(f"engine must be one of {tuple(engines.ENGINES)}, got {engine!r}")
    block, spectrum = scaled_system(alpha)
    gammas = [kick_rate(r) for r in r_values]
    t_rad = np.array(engines.check_times(t_grid))  # a copy of its own
    if t_rad.size > 1 and not np.all(np.diff(t_rad) > 0):
        raise ValidationError("t_grid must be strictly increasing")
    req = engines.EvolutionRequest(initial_state(), t_rad, math.inf, **controls)  # each R sets its own gamma
    probabilities = {}
    purities = {}
    for r, gamma in zip(r_values, gammas):
        states = engines.evolve(engine, block, spectrum, replace(req, gamma=gamma))
        for sign, target in observables.GHZ_TARGETS.items():
            probabilities[(r, sign)] = observables.p_ghz(states, target)
        purities[r] = observables.purity(states)
    return TimeSeries(t_rad=t_rad, probabilities=probabilities, purities=purities)


@dataclass(frozen=True)
class UnitReport:
    """Scaled results mapped onto laboratory units."""

    a_rad_s: float
    inv_gamma_ns: dict[float, float]  # r -> 1/gamma in nanoseconds
    t_quarter_us: float  # time reaching T = pi/4, in microseconds


def physical_units(omega_rad_s: float, alpha: float, r_values) -> UnitReport:
    """Convert (alpha, R) into the sideband coupling, kick periods, and the
    quarter-cycle interaction time for a given laser coupling."""
    observables.check_alpha(alpha)
    if not (engines.is_real(omega_rad_s) and 0.0 < omega_rad_s < math.inf):
        raise ValidationError(f"omega must be finite and positive, got {omega_rad_s}")
    for r in r_values:
        kick_rate(r)
    a = omega_rad_s / math.sqrt(alpha * alpha - 1.0)
    if not 0.0 < a < math.inf:
        raise ValidationError(f"omega = {omega_rad_s} and alpha = {alpha} give a sideband coupling a = {a} rad/s, "
                              "which must be finite and positive")
    inv_gamma = {float(r): float(r) / a * 1e9 for r in r_values}
    t_quarter_us = (math.pi / 4.0) / a * 1e6
    if not all(math.isfinite(x) for x in (t_quarter_us, *inv_gamma.values())):
        raise ValidationError(f"the kick periods or t(pi/4) overflow at a = {a} rad/s")
    return UnitReport(a_rad_s=a, inv_gamma_ns=inv_gamma, t_quarter_us=t_quarter_us)


@dataclass(frozen=True)
class Table1Row:
    r: float
    inv_gamma_ns: float
    p_quarter: float  # minus target at T = pi/4
    published_quarter: float
    dev_quarter: float
    p_three_quarter: float  # plus target at T = 3 pi/4
    published_three_quarter: float
    dev_three_quarter: float


def table1(omega_rad_s: float = PUBLISHED_OMEGA_RAD_S, alpha: float = 4.0) -> list[Table1Row]:
    """Reference-engine peak probabilities next to the published table.

    T = pi/4 is compared against the published minus-target column; the
    published T = 3 pi/4 column is interpreted as the plus target, the only
    state of this family reached there (the minus probability is exactly 0 at
    T = 3 pi/4 without decoherence).
    """
    units = physical_units(omega_rad_s, alpha, PUBLISHED_R_VALUES)
    block, spectrum = scaled_system(alpha)
    r_values, t, gamma = _published_rt_grid(np.array([math.pi / 4.0, 3.0 * math.pi / 4.0]))
    states = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(initial_state(), t, gamma))
    p_quarter = observables.p_ghz(states, observables.GHZ_TARGETS["minus"])[0::2]
    p_three_quarter = observables.p_ghz(states, observables.GHZ_TARGETS["plus"])[1::2]
    return [Table1Row(
        r=r,
        inv_gamma_ns=0.0 if r == 0.0 else units.inv_gamma_ns[r],
        p_quarter=p_q,
        published_quarter=PUBLISHED_P_QUARTER[r],
        dev_quarter=abs(p_q - PUBLISHED_P_QUARTER[r]),
        p_three_quarter=p_tq,
        published_three_quarter=PUBLISHED_P_THREE_QUARTER[r],
        dev_three_quarter=abs(p_tq - PUBLISHED_P_THREE_QUARTER[r]),
    ) for r, p_q, p_tq in zip(r_values, p_quarter, p_three_quarter)]


@dataclass(frozen=True)
class AuditReport:
    """Cross-checks of the published closed forms against the engines.

    published_formula_quarter / _three_quarter: decoherence-free values of the
    published P(T) at T = pi/4 and 3 pi/4 (a probability would stay in [0,1];
    these do not, exposing the transcription error in the rapid-term
    coefficients and decay exponents).
    closed_form_gap_quarter: published minus corrected value at T = pi/4.
    transcription_max_dev: worst max-entry distance between the published
    rho(t) expression and the reference engine over the standard grid.
    three_quarter_rows: (r, computed plus-target value, published value,
    absolute deviation) -- the published 3 pi/4 column is not reproduced by
    any evaluated reading, so both value sets are reported side by side.
    """

    published_formula_quarter: float
    published_formula_three_quarter: float
    closed_form_gap_quarter: float
    transcription_max_dev: float
    transcription_grid: str
    three_quarter_rows: list[tuple[float, float, float, float]]


def audit(alpha: float = 4.0) -> AuditReport:
    pub_q = observables.published_pghz(math.pi / 4.0, alpha, 0.0)
    pub_tq = observables.published_pghz(3.0 * math.pi / 4.0, alpha, 0.0)
    gap = pub_q - observables.closed_form_pghz(math.pi / 4.0, alpha, 0.0, "minus")

    block, spectrum = scaled_system(alpha)
    r_grid, t, gamma = _published_rt_grid(np.linspace(0.0, 2.0 * math.pi, 64))
    ref = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(initial_state(), t, gamma))
    lit = engines.closed_form_rho(block, spectrum, t, gamma)
    worst = float(np.abs(ref.entries - lit.entries).max())
    rows = [(row.r, row.p_three_quarter, row.published_three_quarter, row.dev_three_quarter)
            for row in table1(alpha=alpha)[1:]]

    return AuditReport(
        published_formula_quarter=pub_q,
        published_formula_three_quarter=pub_tq,
        closed_form_gap_quarter=gap,
        transcription_max_dev=worst,
        transcription_grid=f"alpha={alpha:g}, R in {r_grid}, 64 T points on [0, 2*pi]",
        three_quarter_rows=rows,
    )
