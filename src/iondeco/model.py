"""The four-state interaction block of the ion-laser-cavity system, and its spectrum.

The system is a two-level trapped ion driven by a resonant laser (coupling
``omega``) and coupled to a red-sideband-tuned cavity mode.  At lowest order in
the Lamb-Dicke parameters the dynamics closes on the four states

    |g, m, n>,  |e, m, n>,  |g, m-1, n-1>,  |e, m-1, n-1>

(ion internal state, vibrational quantum number, cavity photon number), so
everything here is exact 4x4 linear algebra.  The block depends on two
couplings only: ``omega`` and the sideband coupling a = g eta_c sqrt(mn) / 2,
both inputs of build_hamiltonian.  hbar = 1 throughout: all energies are
angular frequencies in rad/s.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

# Relative threshold for "significant" eigenvector components when fixing signs.
_SIGN_SIGNIFICANCE = 1e-8
# In Spectrum's eigenvalue order, Ep - Eq = _GAP_SIGN[p, q] * (2 (0, mu, a, mu - a, mu + a))[_GAP_INDEX[4 p + q]].
_GAP_INDEX = np.array([0, 1, 2, 3, 1, 0, 4, 2, 2, 4, 0, 1, 3, 2, 1, 0])
_GAP_SIGN = np.array([[1.0, 1.0, -1.0, 1.0], [-1.0, 1.0, -1.0, -1.0], [1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0]])
_GAP_INDEX.flags.writeable = _GAP_SIGN.flags.writeable = False


def is_real(value) -> bool:
    """Whether value is a real number (a bool is one); a float, the common case, skips the slower ABC check."""
    return type(value) is float or isinstance(value, numbers.Real)


def is_integer(value) -> bool:
    """Whether value is an integer and not a bool; an int, the common case, skips the slower ABC check."""
    return type(value) is int or not isinstance(value, bool) and isinstance(value, numbers.Integral)


@dataclass(frozen=True)
class ModeIndices:
    """Vibrational quantum number m and cavity photon number n of the upper pair."""

    m: int
    n: int

    def __post_init__(self):
        if not (is_integer(self.m) and is_integer(self.n)):
            raise ValidationError(f"quantum numbers must be integers, got m={self.m!r}, n={self.n!r}")
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


@dataclass(frozen=True)
class HamiltonianBlock:
    """4x4 interaction block in the fixed basis order (real symmetric, hbar = 1)."""

    entries: np.ndarray
    basis_order: tuple[str, str, str, str]

    @property
    def omega(self) -> float:
        return float(self.entries[0, 1])

    @property
    def a(self) -> float:
        """Sideband coupling a, rad/s, as passed to build_hamiltonian: half the (1,4) entry."""
        return 0.5 * float(self.entries[0, 3])

    @property
    def mu(self) -> float:
        """Dressed frequency sqrt(a^2 + omega^2), rad/s."""
        return math.hypot(self.a, self.omega)


def build_hamiltonian(omega: float, a: float, modes: ModeIndices) -> HamiltonianBlock:
    """Assemble the interaction block from the laser coupling omega and the
    sideband coupling a, each finite and nonnegative (rad/s).

    omega sits on the (1,2)/(2,1) and (3,4)/(4,3) positions, the two-quantum
    sideband coupling 2a on (1,4)/(4,1); the diagonal vanishes on resonance.
    The block maps its own span into itself exactly, so there is no truncation
    error.
    """
    for name, value in (("omega", omega), ("a", a)):
        if not (is_real(value) and 0 <= value < math.inf):
            raise ValidationError(f"{name} must be finite and nonnegative, got {value}")
    h = np.zeros((4, 4))
    h[0, 1] = h[1, 0] = h[2, 3] = h[3, 2] = omega
    h[0, 3] = h[3, 0] = 2.0 * a
    h.flags.writeable = False  # experiments.scaled_system hands the same block to every later call with its key
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
        spectrum = Spectrum(np.zeros(4), np.eye(4), block.basis_order)
    else:
        c = 1.0 / math.sqrt(2.0)  # the swap basis (s1, s2, d1, d2) = (e1+e4, e2+e3, e1-e4, e2-e3) c has entries 0, +-c
        w, m = omega * c, (mu + a) * c
        # rows: omega d1 + (mu+a) d2 and -(mu+a) d1 + omega d2 of the antisymmetric block [[-2a, omega], [omega, 0]]
        # (eigenvalues mu-a, -(mu+a)), (mu+a) s1 + omega s2 and omega s1 - (mu+a) s2 of the symmetric block
        # [[+2a, omega], [omega, 0]] (mu+a, -(mu-a)); 0.0 - w keeps the +0.0 of the first sum where omega = 0
        raw = np.array([[w, m, -m, 0.0 - w], [-m, w, -w, m], [m, w, w, m], [w, -m, -m, w]])
        vectors = np.empty((4, 4))  # eigenvectors as columns: each row of raw over its norm, as np.linalg.norm takes it
        np.divide(raw, [[math.sqrt(v.dot(v))] for v in raw], out=vectors.T)
        spectrum = Spectrum(eigenvalues, _fix_signs(vectors), block.basis_order)
        spectrum.validate(block)
    # experiments.scaled_system hands the same spectrum to every later call with its key
    spectrum.eigenvalues.flags.writeable = spectrum.eigenvectors.flags.writeable = False
    return spectrum
