"""Test-only references, each computed without the code it checks.

poisson_kick_sum       the literal truncated Poisson series of U^k rho U^{dag k},
                       U from a dense eigh of the block; checks evolve_poisson.
spectrum_numeric       LAPACK eigh in the convention order, signs fixed column by
                       column; checks spectrum_analytic.
kick_standard_error    the exact standard error of an n-trajectory Monte Carlo
                       mean, from the Poisson pmf of the kick count and a dense
                       eigh of the block; bounds evolve_monte_carlo.
eigenbasis_coherences  |rho_pq| for p < q in a given eigenbasis.
pure                   the density matrix |v><v| / <v|v>.

They take from iondeco only its containers, its error classes and the sign
significance threshold; test_oracles_import_no_code_they_check pins that.
"""

import math

import numpy as np

from iondeco.engines import DensityMatrix
from iondeco.errors import NumericalError
from iondeco.model import _SIGN_SIGNIFICANCE, Spectrum


def pure(vector, basis_order) -> DensityMatrix:
    v = np.asarray(vector, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()), basis_order)


def eigenbasis_coherences(rho: DensityMatrix, spectrum: Spectrum) -> np.ndarray:
    """|rho_pq| for p < q in the eigenbasis, ordered (01, 02, 03, 12, 13, 23)."""
    assert rho.basis_order == spectrum.basis_order
    v = spectrum.eigenvectors
    rho_eig = v.T @ rho.entries @ v
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return np.array([abs(rho_eig[p, q]) for p, q in pairs])


def loop_fix_signs(vectors):
    """Flip each column whose first significant component is negative, one column at a time."""
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


def spectrum_numeric(block) -> Spectrum:
    """Dense spectral decomposition with LAPACK (np.linalg.eigh), in the
    convention order and sign-fixed, with no use of the closed form."""
    eigenvalues, vectors = np.linalg.eigh(block.entries)
    order = _convention_order(eigenvalues)
    spectrum = Spectrum(eigenvalues[order], loop_fix_signs(vectors[:, order]), block.basis_order)
    spectrum.validate(block)
    return spectrum


def poisson_kick_sum(block, req) -> DensityMatrix:
    """Literal truncated Poisson mixture over repeated kicks U = exp(-iH/gamma).

    U comes from a dense eigensolve of the block, the mixture is accumulated
    term by term until the remaining Poisson tail mass drops below
    req.tail_tol.  Probabilities are computed per term in log space, so large
    gamma*t does not underflow.  Takes one finite gamma and one time.
    """
    gamma = req.gamma
    lam = gamma * req.t
    w, q = np.linalg.eigh(block.entries)
    u = (q * np.exp(-1j * w / gamma)) @ q.conj().T
    term = req.initial.entries.astype(complex)
    out = np.zeros((4, 4), dtype=complex)
    covered = 0.0
    k = 0
    k_cap = int(lam + 20.0 * math.sqrt(lam + 1.0)) + 100
    while covered < 1.0 - req.tail_tol:
        if k > k_cap:
            raise NumericalError(
                f"Poisson kick sum truncated at k={k_cap} with tail mass "
                f"{1.0 - covered:.3e} > tail_tol={req.tail_tol:.3e}"
            )
        if lam == 0.0:
            log_p = 0.0 if k == 0 else -math.inf
        else:
            log_p = k * math.log(lam) - lam - math.lgamma(k + 1)
        if log_p > -745.0:
            p = math.exp(log_p)
            out += p * term
            covered += p
        term = u @ term @ u.conj().T
        k += 1
    return DensityMatrix(out, req.initial.basis_order)


def kick_standard_error(block, rho: DensityMatrix, t: float, gamma: float, n_traj: int) -> np.ndarray:
    """Per-entry standard error sqrt(E|S - E S|^2 / n_traj) of the mean of
    n_traj draws of S = U^N rho U^{dag N}, N ~ Poisson(gamma t), U = exp(-iH/gamma).

    The expectation runs over N within 15 sqrt(gamma t) + 30 of its mean, where
    the Poisson mass left out is far below any tolerance it is used with.
    """
    lam = gamma * t
    if lam == 0.0:
        return np.zeros((4, 4))
    spread = 15.0 * math.sqrt(lam) + 30.0
    ks = np.arange(max(0, int(lam - spread)), int(lam + spread) + 1, dtype=float)
    pmf = np.exp(ks * math.log(lam) - lam - np.array([math.lgamma(k + 1.0) for k in ks]))
    w, q = np.linalg.eigh(block.entries)
    rho_eig = q.T @ rho.entries @ q
    phase = np.exp(-1j * (w[:, None] - w[None, :]) * (ks / gamma)[:, None, None])
    states = q @ (rho_eig * phase) @ q.T
    mean = np.tensordot(pmf, states, axes=1) / pmf.sum()
    var = np.tensordot(pmf, np.square(np.abs(states - mean)), axes=1) / pmf.sum()
    return np.sqrt(var / n_traj)
