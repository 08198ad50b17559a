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


@dataclass(frozen=True)
class DerivedCouplings:
    """Couplings derived from SystemParams + ModeIndices.

    a       sideband coupling (1/2) g eta_c sqrt(m n), rad/s
    mu      dressed frequency sqrt(a^2 + omega^2), rad/s
    alpha   mu / a, dimensionless; None when a == 0
    """

    a: float
    mu: float
    alpha: float | None


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


def derived_couplings(params: SystemParams, modes: ModeIndices) -> DerivedCouplings:
    """Compute the sideband coupling, dressed frequency, and their ratio."""
    a = 0.5 * params.g * params.eta_c * math.sqrt(modes.m * modes.n)
    mu = math.hypot(a, params.omega)
    alpha = mu / a if a > 0 else None
    return DerivedCouplings(a=a, mu=mu, alpha=alpha)


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
        if residual > 1e-10 * e_scale:
            raise NumericalError(f"eigen residual {residual:.3e} exceeds 1e-10 * {e_scale:.3e}")
        gram = self.eigenvectors.T @ self.eigenvectors
        if np.abs(gram - np.eye(4)).max() > 1e-12:
            raise NumericalError("eigenvectors are not orthonormal to 1e-12")


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first significant component is >= 0."""
    out = vectors.copy()
    for p in range(out.shape[1]):
        col = out[:, p]
        scale = np.abs(col).max()
        if scale == 0.0:
            continue
        idx = np.flatnonzero(np.abs(col) > _SIGN_SIGNIFICANCE * scale)[0]
        if col[idx] < 0:
            out[:, p] = -col
    return out


def _convention_order(eigenvalues: np.ndarray) -> np.ndarray:
    """Indices rearranging eigenvalues into (mu-a, -(mu+a), mu+a, -(mu-a))."""
    desc = np.argsort(-eigenvalues, kind="stable")
    return desc[[1, 3, 0, 2]]


def spectrum_analytic(block: HamiltonianBlock, couplings: DerivedCouplings) -> Spectrum:
    """Closed-form spectral decomposition of the interaction block.

    The block commutes with the swap (1<->4, 2<->3), so it reduces on the
    symmetric subspace span{(e1+e4)/sqrt2, (e2+e3)/sqrt2} and the
    antisymmetric one.  Each 2x2 problem is solved in the parametrization
    that stays away from the zero vector in the degenerate limits
    (omega = 0 or a = 0).
    """
    a, mu = couplings.a, couplings.mu
    omega = block.omega  # sqrt(mu^2 - a^2) loses all its digits when omega << a
    if abs(block.sideband - 2.0 * a) > 1e-9 * max(mu, 1.0) or abs(math.hypot(a, omega) - mu) > 1e-9 * max(mu, 1.0):
        raise ValidationError("couplings do not match the Hamiltonian block")

    eigenvalues = np.array([mu - a, -(mu + a), mu + a, -(mu - a)])
    if mu == 0.0:
        return Spectrum(np.zeros(4), np.eye(4), block.basis_order)

    s1 = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    s2 = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    d1 = np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0)
    d2 = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)

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


def jacobi_eigh(matrix: np.ndarray, tol: float = 1e-13, max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a real symmetric matrix.

    The matrix is normalized by its largest entry so `tol` bounds the
    off-diagonal max-norm relative to that scale (an absolute 1e-13 would be
    unreachable for rad/s-scale inputs).  Returns (eigenvalues, eigenvectors)
    in the order the rotations leave them; no sorting is applied here.

    Raises NumericalError if the sweep cap is hit, which signals a malformed
    (non-symmetric or non-finite) input.
    """
    m = np.array(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if np.abs(m - m.T).max() > 1e-12 * max(np.abs(m).max(), 1.0):
        raise ValidationError("matrix is not symmetric")
    scale = np.abs(m).max()
    n = m.shape[0]
    if scale == 0.0:
        return np.zeros(n), np.eye(n)
    b = m / scale
    vectors = np.eye(n)
    upper = np.triu_indices(n, 1)
    for _ in range(max_sweeps):
        off = np.abs(b[upper]).max()  # NaN propagates and defeats convergence
        if off <= tol:
            return np.diag(b) * scale, vectors
        for p in range(n):
            for q in range(p + 1, n):
                if b[p, q] == 0.0:
                    continue
                theta = (b[q, q] - b[p, p]) / (2.0 * b[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                b = rot.T @ b @ rot
                vectors = vectors @ rot
    raise NumericalError(f"Jacobi sweep cap ({max_sweeps}) reached without convergence")


def spectrum_numeric(block: HamiltonianBlock) -> Spectrum:
    """Independent spectral decomposition via cyclic Jacobi rotations.

    Serves as the numerical oracle for spectrum_analytic: same convention
    order and sign fixing, different algorithm.
    """
    eigenvalues, vectors = jacobi_eigh(block.entries)
    order = _convention_order(eigenvalues)
    spectrum = Spectrum(eigenvalues[order], _fix_signs(vectors[:, order]), block.basis_order)
    spectrum.validate(block)
    return spectrum
