"""GHZ targets and probability observables.

The targets live in the m = n = 1 block, basis order
(|g,1,1>, |e,1,1>, |g,0,0>, |e,0,0>):

    |GHZ-/+> = (|g,0,0> -/+ i |e,1,1>) / sqrt(2)

P(t) = tr(rho(t) |GHZ><GHZ|) is defined through the density matrix.  A
corrected closed form for P(T) (an exact identity with the reference engine)
and the published closed form (kept verbatim for auditing; it exceeds 1 in
the decoherence-free limit) are both provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engines import DensityMatrix, check_times, is_real
from .errors import ValidationError
from .model import ModeIndices

GHZ_BASIS = ModeIndices(1, 1).basis_order()

SIGNS = ("minus", "plus")

MAX_ALPHA = 9.48e153  # the scaled block's squared eigenvector norms, about 2 alpha^2, overflow from 9.4807e153


def check_alpha(alpha: float) -> None:
    """alpha = mu / a in (1, MAX_ALPHA]: omega = sqrt(alpha^2 - 1) in units of a
    must be positive, and the spectrum's squared norms finite."""
    if not (is_real(alpha) and 1.0 < alpha <= MAX_ALPHA):
        raise ValidationError(f"alpha must exceed 1 and be at most {MAX_ALPHA:g}, got {alpha}")


def check_r(r: float) -> None:
    """R = a / gamma, which must be finite and nonnegative; R = 0 is the
    decoherence-free limit gamma = inf."""
    if not (is_real(r) and 0.0 <= r < math.inf):
        raise ValidationError(f"R must be finite and nonnegative, got {r}")


def _check_sign(sign: str) -> float:
    if sign not in SIGNS:
        raise ValidationError(f"sign must be one of {SIGNS}, got {sign!r}")
    return 1.0 if sign == "minus" else -1.0


@dataclass(frozen=True)
class GHZTarget:
    """One of the two orthogonal maximally entangled targets, as a projector."""

    sign: str
    vector: np.ndarray
    projector: np.ndarray
    basis_order: tuple[str, str, str, str]


def ghz_state(sign: str) -> GHZTarget:
    """Build (|g,0,0> -/+ i |e,1,1>) / sqrt(2) and its projector; a global phase
    would leave the projector, and so every probability, unchanged."""
    upper = _check_sign(sign)
    vector = np.zeros(4, dtype=complex)
    vector[2] = 1.0 / math.sqrt(2.0)
    vector[1] = -upper * 1j / math.sqrt(2.0)
    projector = np.outer(vector, vector.conj())
    vector.flags.writeable = projector.flags.writeable = False  # GHZ_TARGETS shares them with every caller
    return GHZTarget(sign=sign, vector=vector, projector=projector, basis_order=GHZ_BASIS)


GHZ_TARGETS = {sign: ghz_state(sign) for sign in SIGNS}  # built once at import


def p_ghz(rho: DensityMatrix, target: GHZTarget) -> float | np.ndarray:
    """Raw overlap tr(rho * projector), one value per state when rho holds a
    stack of states; clamp with clamp_probability for reporting."""
    if not isinstance(target, GHZTarget):
        raise ValidationError(f"target must be a GHZTarget (see ghz_state), got {target!r}")
    if rho.basis_order != target.basis_order:
        raise ValidationError(f"basis mismatch: {rho.basis_order} vs {target.basis_order}")
    return np.einsum("...ij,ji->...", rho.entries, target.projector).real


def clamp_probability(value: float | np.ndarray) -> float | np.ndarray:
    """Reporting-layer clamp to [0, 1], elementwise on arrays; raw values stay
    available upstream.  Like min(max(value, 0), 1) it keeps -0.0 and NaN."""
    if not (is_real(value) or isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):
        raise ValidationError(f"a probability must be real and at most DBL_MAX in size, got {value!r}")
    return np.clip(value, 0.0, 1.0)


def _decay(rate: float, t_scaled: np.ndarray, r: float) -> np.ndarray | float:
    """exp(rate * T * R) for a rate of magnitude at least 2, exactly 1.0 at R = 0.  T R is formed
    first, so the exponent overflows only where the exact one is below -DBL_MAX, and the factor
    is then exactly 0.0; rate * T first would overflow near MAX_ALPHA whatever R."""
    if not r:
        return 1.0
    with np.errstate(over="ignore"):
        return np.exp(rate * (t_scaled * r))


def closed_form_pghz(t_scaled, alpha: float, r: float, sign: str):
    """Corrected closed-form target probability as a function of scaled time.

    Identity with p_ghz(evolve_eigenbasis(...)); accepts a scalar or an array
    of scaled times T = a*t.  Upper signs (sign="minus"):

        P(T) = c0 + c_mu e^{-2 a^2 T R} cos(2 a T) + c_mu e^{-2 T R} sin(2 T)
               + c_plus e^{-2 (a+1)^2 T R} sin(2 (a+1) T)
               - c_minus e^{-2 (a-1)^2 T R} sin(2 (a-1) T)      (a = alpha)
    """
    upper = _check_sign(sign)
    check_r(r)
    check_alpha(alpha)
    t_scaled = check_times(t_scaled)
    a2 = alpha * alpha
    c_mu = (a2 - 1.0) / a2 / 4.0  # over a2 first: 8.0 * a2 overflows from alpha = 4.74e153
    c_plus = (alpha - 1.0) ** 2 / a2 / 8.0
    c_minus = (alpha + 1.0) ** 2 / a2 / 8.0
    value = (
        (a2 + 1.0) / a2 / 4.0
        + c_mu * _decay(-2.0 * alpha * alpha, t_scaled, r) * np.cos(2.0 * alpha * t_scaled)
        + upper * c_mu * _decay(-2.0, t_scaled, r) * np.sin(2.0 * t_scaled)
        + upper * c_plus * _decay(-2.0 * (alpha + 1.0) ** 2, t_scaled, r) * np.sin(2.0 * (alpha + 1.0) * t_scaled)
        - upper * c_minus * _decay(-2.0 * (alpha - 1.0) ** 2, t_scaled, r) * np.sin(2.0 * (alpha - 1.0) * t_scaled)
    )
    return value if value.ndim else float(value)


def published_pghz(t_scaled, alpha: float, r: float):
    """The published closed-form P(T), evaluated exactly as printed.

    Kept verbatim as an audit target: its two rapid terms carry Omega^2/(2 mu^2)
    coefficients and the last two decay exponents are unsquared.  The output is
    deliberately not clamped -- it is not a probability (it reaches 1.2344 at
    T = pi/4 in the decoherence-free limit).
    """
    check_r(r)
    check_alpha(alpha)
    t_scaled = check_times(t_scaled)
    a2 = alpha * alpha
    lead = (a2 - 1.0) / a2 / 2.0
    c_plus = (alpha - 1.0) ** 2 / a2 / 8.0
    c_minus = (alpha + 1.0) ** 2 / a2 / 8.0
    value = (
        0.5
        + lead * _decay(-2.0 * a2, t_scaled, r) * np.cos(2.0 * alpha * t_scaled)
        + lead * (_decay(-2.0, t_scaled, r) * np.sin(2.0 * t_scaled) - 1.0)
        + c_plus * _decay(-2.0 * (alpha + 1.0), t_scaled, r) * np.sin(2.0 * (alpha + 1.0) * t_scaled)
        - c_minus * _decay(-2.0 * (alpha - 1.0), t_scaled, r) * np.sin(2.0 * (alpha - 1.0) * t_scaled)
    )
    return value if value.ndim else float(value)


def purity(rho: DensityMatrix) -> float | np.ndarray:
    """tr(rho^2), one value per state when rho holds a stack of states."""
    return np.einsum("...ij,...ji->...", rho.entries, rho.entries).real


def populations(rho: DensityMatrix) -> np.ndarray:
    """Diagonal occupations in the block basis, one row per state when rho holds a stack of states."""
    return np.diagonal(rho.entries, axis1=-2, axis2=-1).real.copy()
