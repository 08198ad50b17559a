"""Physical parameters, the four-state interaction block, and its spectrum.

The system is a two-level trapped ion driven by a resonant laser (coupling
``omega``) and coupled to a red-sideband-tuned cavity mode (coupling
``g * eta_c``).  At lowest order in the Lamb-Dicke parameters the dynamics
closes on the four states

    |g, m, n>,  |e, m, n>,  |g, m-1, n-1>,  |e, m-1, n-1>

(ion internal state, vibrational quantum number, cavity photon number), so
everything here is exact 4x4 linear algebra.  hbar = 1 throughout: all
energies are angular frequencies in rad/s.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

# Soft Lamb-Dicke bound, inclusive: eta >= 0.3 draws a warning, not an error.
LAMB_DICKE_SOFT_BOUND = 0.3

# Relative threshold for "significant" eigenvector components when fixing signs.
_SIGN_SIGNIFICANCE = 1e-8


@dataclass(frozen=True)
class SystemParams:
    """Physical couplings of the ion-laser-cavity system.

    omega   laser-ion Rabi coupling (rad/s)
    g       cavity-ion coupling (rad/s)
    eta_c   cavity Lamb-Dicke parameter (dimensionless)
    eta_l   laser Lamb-Dicke parameter (dimensionless, validation only)
    """

    omega: float
    g: float
    eta_c: float
    eta_l: float

    def __post_init__(self):
        for name in ("omega", "g", "eta_c", "eta_l"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and nonnegative, got {getattr(self, name)}")
        for msg in validate_lamb_dicke(self):
            warnings.warn(msg, stacklevel=3)


@dataclass(frozen=True)
class ModeIndices:
    """Vibrational quantum number m and cavity photon number n of the upper pair."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValidationError(f"quantum numbers must be nonnegative, got m={self.m}, n={self.n}")

    def basis_order(self) -> tuple[str, str, str, str]:
        """Labels of the four basis states in the fixed ordering."""
        return (
            f"g,{self.m},{self.n}",
            f"e,{self.m},{self.n}",
            f"g,{self.m - 1},{self.n - 1}",
            f"e,{self.m - 1},{self.n - 1}",
        )


def validate_lamb_dicke(params: SystemParams) -> list[str]:
    """Return warnings for Lamb-Dicke parameters outside the soft regime bound."""
    msgs = []
    for name, value in (("eta_c", params.eta_c), ("eta_l", params.eta_l)):
        if value >= LAMB_DICKE_SOFT_BOUND:
            msgs.append(
                f"{name} = {value:g} is outside the Lamb-Dicke regime "
                f"(soft bound {LAMB_DICKE_SOFT_BOUND}, inclusive); "
                "the four-state block may not describe the physics"
            )
    return msgs


@dataclass(frozen=True)
class HamiltonianBlock:
    """4x4 interaction block in the fixed basis order (real symmetric, hbar = 1)."""

    entries: np.ndarray
    basis_order: tuple[str, str, str, str]

    @property
    def omega(self) -> float:
        return float(self.entries[0, 1])

    @property
    def sideband(self) -> float:
        """The (1,4) entry g eta_c sqrt(mn) = 2a."""
        return float(self.entries[0, 3])

    @property
    def a(self) -> float:
        """Sideband coupling (1/2) g eta_c sqrt(mn), rad/s."""
        return 0.5 * self.sideband

    @property
    def mu(self) -> float:
        """Dressed frequency sqrt(a^2 + omega^2), rad/s."""
        return math.hypot(self.a, self.omega)


def build_hamiltonian(params: SystemParams, modes: ModeIndices) -> HamiltonianBlock:
    """Assemble the interaction block.

    omega sits on the (1,2)/(2,1) and (3,4)/(4,3) positions, the two-quantum
    sideband coupling g*eta_c*sqrt(mn) on (1,4)/(4,1); the diagonal vanishes
    on resonance.  The block maps its own span into itself exactly, so there
    is no truncation error.
    """
    h = np.zeros((4, 4))
    h[0, 1] = h[1, 0] = params.omega
    h[2, 3] = h[3, 2] = params.omega
    h[0, 3] = h[3, 0] = params.g * params.eta_c * math.sqrt(modes.m * modes.n)
    return HamiltonianBlock(entries=h, basis_order=modes.basis_order())


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues and orthonormal eigenvectors of a HamiltonianBlock.

    Eigenvalues follow the fixed convention order

        (E1, E2, E3, E4) = (mu - a, -(mu + a), mu + a, -(mu - a)),

    i.e. from the descending-sorted values (l0 >= l1 >= l2 >= l3) the order is
    (l1, l3, l0, l2).  Eigenvector columns align with the eigenvalues and are
    sign-fixed so the first significant component is nonnegative.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    basis_order: tuple[str, str, str, str]

    def validate(self, block: HamiltonianBlock) -> None:
        h = block.entries
        e_scale = max(np.abs(self.eigenvalues).max(), 1.0)
        residual = np.abs(h @ self.eigenvectors - self.eigenvectors * self.eigenvalues).max()
        if not residual <= 1e-10 * e_scale:  # NaN fails too
            raise NumericalError(f"eigen residual {residual:.3e} exceeds 1e-10 * {e_scale:.3e}")
        gram = self.eigenvectors.T @ self.eigenvectors
        if not np.abs(gram - np.eye(4)).max() <= 1e-12:
            raise NumericalError("eigenvectors are not orthonormal to 1e-12")


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first significant component is >= 0;
    a zero column, with no significant component, is left as it is."""
    mag = np.abs(vectors)
    first = (mag > _SIGN_SIGNIFICANCE * mag.max(axis=0)).argmax(axis=0)
    return np.where(vectors[first, np.arange(vectors.shape[1])] < 0, -vectors, vectors)


# (e1+e4, e2+e3, e1-e4, e2-e3) / sqrt2: the swap-symmetric pair, then the antisymmetric one
_SWAP_BASIS = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0],
                        [1.0, 0.0, 0.0, -1.0], [0.0, 1.0, -1.0, 0.0]]) / math.sqrt(2.0)


def spectrum_analytic(block: HamiltonianBlock) -> Spectrum:
    """Closed-form spectral decomposition of the interaction block.

    The block commutes with the swap (1<->4, 2<->3), so it reduces on the
    symmetric subspace span{(e1+e4)/sqrt2, (e2+e3)/sqrt2} and the
    antisymmetric one.  Each 2x2 problem is solved in the parametrization
    that stays away from the zero vector in the degenerate limits
    (omega = 0 or a = 0).
    """
    # omega comes off the block; sqrt(mu^2 - a^2) loses all its digits when omega << a
    a, mu, omega = block.a, block.mu, block.omega

    eigenvalues = np.array([mu - a, -(mu + a), mu + a, -(mu - a)])
    if mu == 0.0:
        return Spectrum(np.zeros(4), np.eye(4), block.basis_order)

    s1, s2, d1, d2 = _SWAP_BASIS
    # antisymmetric block [[-2a, omega], [omega, 0]]: eigenvalues mu-a, -(mu+a)
    # symmetric block     [[+2a, omega], [omega, 0]]: eigenvalues mu+a, -(mu-a)
    raw = [
        omega * d1 + (mu + a) * d2,
        -(mu + a) * d1 + omega * d2,
        (mu + a) * s1 + omega * s2,
        omega * s1 - (mu + a) * s2,
    ]
    vectors = np.stack([v / np.linalg.norm(v) for v in raw], axis=1)
    spectrum = Spectrum(eigenvalues, _fix_signs(vectors), block.basis_order)
    spectrum.validate(block)
    return spectrum
