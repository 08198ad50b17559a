"""Test-only references, each computed without the code it checks.

poisson_kick_sum       the literal truncated Poisson series of U^k rho U^{dag k},
                       U from a dense eigh of the block; checks evolve_poisson.
spectrum_numeric       LAPACK eigh in the convention order, signs fixed column by
                       column; checks spectrum_analytic.
spectrum_per_vector    the closed form with each eigenvector built from the swap
                       basis and normalised by np.linalg.norm on its own; pins
                       the bits of spectrum_analytic.
kick_standard_error    the exact standard error of an n-trajectory Monte Carlo
                       mean, from the Poisson pmf of the kick count and a dense
                       eigh of the block; bounds evolve_monte_carlo.
exact_differences      Ep - Eq in the convention order from the exact eigenvalues
                       of the block's float mu and a, each difference rounded
                       once; the gaps the dephasing engines apply.
eigenbasis_coherences  |rho_pq| for p < q in a given eigenbasis.
pure                   the density matrix |v><v| / <v|v>.
first_order_gap_bound  the largest gap the first-order engine may show against the
                       exact kick average, from a dense eigvalsh of the block.
stratified_kick_bound  the largest gap n stratified Monte Carlo trajectories may show
                       against the exact kick average, entry by entry, from the
                       exact differences and the engines' eigenvectors.
first_order_generator  the 16x16 first-order generator on vec(rho), from the block.
first_order_expm       exp(t G) vec(rho) by scipy's expm; checks evolve_ode.
eigvalsh_violations    DensityMatrix.violations as it was before the Cholesky
                       certificate: every check, with the least eigenvalue of
                       the Hermitian part always taken by eigvalsh.
gap_path_bounds        the largest gap rounding allows between P or the purity summed from
                       the gap factors and the same value of the dephased state stack,
                       from absolute values of the eigenvectors and the initial state.
find_peaks             the interior local maxima of each probability column of a
                       sweep, with a 3-point parabolic refinement; reads the
                       peak structure of criterion 7.

They take from iondeco only its containers, its error classes and the sign
significance threshold, from scipy only expm, and exact arithmetic from fractions;
test_oracles_import_no_code_they_check pins that.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from iondeco.engines import DensityMatrix
from iondeco.errors import NumericalError
from iondeco.model import _SIGN_SIGNIFICANCE, Spectrum


def pure(vector, basis_order) -> DensityMatrix:
    v = np.asarray(vector, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()), basis_order)


def eigvalsh_violations(entries: np.ndarray, trace_tol: float = 1e-12, psd_floor: float = -1e-10) -> list[str]:
    """The invariant violations of a state or stack, positivity decided by eigvalsh alone."""
    out = []
    if not np.isfinite(entries).all():
        return ["non-finite entries"]
    rho_h = np.swapaxes(entries, -1, -2).conj()
    herm = np.abs(entries - rho_h).max(initial=0.0)
    if herm > 1e-12:
        out.append(f"hermiticity violated by {herm:.3e}")
    tr_err = np.abs(np.trace(entries, axis1=-2, axis2=-1) - 1.0).max(initial=0.0)
    if tr_err > trace_tol:
        out.append(f"trace deviates from 1 by {tr_err:.3e}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (entries + rho_h)).min(initial=np.inf))
    if min_eig < psd_floor:
        out.append(f"minimum eigenvalue {min_eig:.3e} below {psd_floor:.0e}")
    return out


def exact_differences(block) -> np.ndarray:
    """Ep - Eq for the eigenvalues (mu - a, -(mu + a), mu + a, -(mu - a)) of the block's float
    mu and a, each difference taken exactly and rounded once."""
    a, mu = Fraction(block.a), Fraction(block.mu)
    e = (mu - a, -(mu + a), mu + a, -(mu - a))
    return np.array([[float(p - q) for q in e] for p in e])


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


def spectrum_per_vector(block) -> Spectrum:
    """The closed-form spectrum, one eigenvector at a time: each a combination of
    the swap basis (e1+e4, e2+e3, e1-e4, e2-e3) / sqrt2 over its np.linalg.norm."""
    a, mu, omega = block.a, block.mu, block.omega
    eigenvalues = np.array([mu - a, -(mu + a), mu + a, -(mu - a)])
    if mu == 0.0:
        return Spectrum(np.zeros(4), np.eye(4), block.basis_order)
    s1, s2, d1, d2 = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0],
                               [1.0, 0.0, 0.0, -1.0], [0.0, 1.0, -1.0, 0.0]]) / math.sqrt(2.0)
    raw = [
        omega * d1 + (mu + a) * d2,
        -(mu + a) * d1 + omega * d2,
        (mu + a) * s1 + omega * s2,
        omega * s1 - (mu + a) * s2,
    ]
    vectors = np.stack([v / np.linalg.norm(v) for v in raw], axis=1)
    spectrum = Spectrum(eigenvalues, loop_fix_signs(vectors), block.basis_order)
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


def stratified_kick_bound(block, spectrum: Spectrum, rho: DensityMatrix, t: float, gamma: float, k_max: int,
                          n_traj: int, tail_tol: float) -> np.ndarray:
    """Entrywise bound on |rho_MC - rho_poisson| at one time t, for n = n_traj trajectories whose
    kick counts come from the float Poisson CDF C_0..C_K (K = k_max) of mean lam = gamma t, the
    tail past K in bucket K + 1.

    Per eigenbasis gap D with z = e^{-iD/gamma}, |1 - z| = 2 |sin(D / (2 gamma))|, let F_k be
    the share of trajectories below C_k and P_k the exact CDF.  Summation by parts gives
      phi_MC = sum_{k<=K+1} (F_k - F_{k-1}) z^k = z^{K+1} + (1 - z) sum_{k<=K} F_k z^k,
    and psi = z^{K+1} + (1 - z) sum_{k<=K} P_k z^k = sum_{k<=K} p_k z^k + (1 - P_K) z^{K+1},
    which lies within 2 (1 - P_K) <= 2 tail_tol of the exact factor sum_k p_k z^k.  So
      |phi_MC - phi| <= |1 - z| sum_{k<=K} |F_k - P_k| + 2 tail_tol.
    Stratified, the count below C is within 1 of fl(C n), so |F_k - C_k| < 1/n + u, and
    |C_k - P_k| <= delta, the CDF's rounding: each log pmf k log lam - lam - log k! is off by at
    most L = 8u (K |log lam| + lam + log K! + 1), and the cumulative sum adds (K + 2) u, so
    delta = 1.01 (L + u) + (K + 2) u.  The engines' own rounding adds, per factor, at most
    u (24 lam |sin| + 4) for the Poisson exponent lam expm1(-iD/gamma) and its exp, and
    u (2 |D| (K + 1) / gamma + 12 + log2(K + 2)) for the Monte Carlo phases and their weighted sum.
    With E_pq that bound for D = Ep - Eq and X = V^T rho V in the engines' eigenbasis V,
      |rho_MC - rho_poisson| <= |V| (|X| o E) |V|^T + 20 u |V| |X| |V|^T,
    the last term both engines' rounding in the products V (X o Phi) V^T (|Phi| <= 1 + u).
    """
    u = 2.0**-53
    sin = np.abs(np.sin(exact_differences(block) / (2.0 * gamma)))
    lam = gamma * t
    size = k_max + 1
    log_error = 8.0 * u * (k_max * abs(math.log(lam)) + lam + math.lgamma(size) + 1.0) if lam else 0.0
    delta = 1.01 * (log_error + u) + (k_max + 2) * u
    rounding = u * (24.0 * lam * sin + 4.0 + 2.0 * np.abs(exact_differences(block)) * size / gamma + 12.0
                    + math.log2(k_max + 2))
    factor = 2.0 * sin * size * (1.0 / n_traj + u + delta) + 2.0 * tail_tol + rounding
    v = np.abs(spectrum.eigenvectors)
    x = np.abs(spectrum.eigenvectors.T @ rho.entries @ spectrum.eigenvectors)
    return v @ (x * factor) @ v.T + 20.0 * u * (v @ x @ v.T)


def first_order_generator(block, gamma: float) -> np.ndarray:
    """16x16 matrix of rho -> -i[H,rho] - [H,[H,rho]]/(2 gamma) on row-major vec(rho)."""
    eye = np.eye(4)
    comm = np.kron(block.entries, eye) - np.kron(eye, block.entries.T)
    return -1j * comm - (comm @ comm) / (2.0 * gamma)


def first_order_expm(block, rho: DensityMatrix, t: float, gamma: float) -> np.ndarray:
    """rho(t) = exp(t G) vec(rho) for the first-order generator G, by scipy's expm."""
    from scipy.linalg import expm  # scipy is a test extra; only this oracle needs it

    return (expm(t * first_order_generator(block, gamma)) @ rho.entries.reshape(16)).reshape(4, 4)


@dataclass(frozen=True)
class PeakRecord:
    """An interior local maximum of one probability column."""

    r: float
    target: str
    t_peak_rad: float  # 3-point parabolic refinement around the grid maximum
    value: float
    grid_index: int  # the grid maximum, series.t_rad[grid_index]


def _refine(t: np.ndarray, y: np.ndarray, i: int) -> tuple[float, float]:
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom == 0.0:
        return float(t[i]), float(y[i])
    shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
    step = t[i + 1] - t[i]
    return float(t[i] + shift * step), float(y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift)


U = 2.0**-53  # unit roundoff of float64


def gap_path_bounds(spectrum: Spectrum, rho0: DensityMatrix, projectors) -> tuple[list[float], float]:
    """The largest |gap path - state path| that rounding allows at any time, for tr(rho Pi) of each projector
    Pi and for tr(rho^2), rho = V (X o F) V^T the dephased state, X = V^T rho0 V, rho0 exactly Hermitian.

    Both paths take the same float gap factor phi, |phi_g| <= 1, which F places with F_qp = conj(F_pq).  So
    they approximate one exact value each: P* = Re sum_pq X_pq F_pq M_qp, M = V^T Pi V, by the cyclic trace
    for any V; and tr(Y^2) = sum_pq |X_pq|^2 |F_pq|^2, Y = X o F, which the state path's tr(Y G Y G),
    G = V^T V, meets within (2 d + d^2) (sum Xbar)^2, d bounding |G - I| entrywise: the float G's distance
    from I plus the 4 u of its own 4-term sums, as |V|^T |V| <= 1.  A computed sum of n products is within
    n u of the sum of its absolute terms (to first order, for real and imaginary parts alike, so sqrt(2) n u
    on moduli), and each term of either path is at most its absolute analogue, with Xbar = |V|^T |rho0| |V|,
    Mbar = |V|^T |Pi| |V| and Rbar = |V| Xbar |V|^T:
    * P, terms Xbar_pq Mbar_qp, S_P their sum.  State path: X in two 4-term products (8), X o F (2), the
      two dephase products (8), the 16-term trace with Pi of complex products (18): 36.  Gap path: X (8),
      M (8), X_pq M_qp (2), at most 4 entries of one gap (3), the 10-term gap sum (10): 31.  So
      sqrt(2) 67 u S_P < 95 u S_P, taken as 100 u S_P.
    * purity, terms Rbar_ij Rbar_ji, S_rho their sum, at least sum Xbar^2 as diag(|V|^T |V|) is 1 to u.
      State path: rho (X 8, X o F 2, the products 8: 18, in both factors: 36) and the 16-term trace of
      complex products (18): 54.  Gap path: X in both factors of |X_pq|^2 (16) and its square (2), at most
      4 entries of one gap (3), the squares f f (1) and the 10-term gap sum (10): 32.  So sqrt(2) 86 u S_rho
      < 122 u S_rho, taken as 130 u S_rho, plus 2.01 d (sum Xbar)^2.
    The margins cover the second-order terms and the rounding of the bounds themselves."""
    v = np.abs(spectrum.eigenvectors)
    x_bar = v.T @ np.abs(rho0.entries) @ v
    r_bar = v @ x_bar @ v.T
    p_bounds = [100.0 * U * float(np.sum(x_bar * (v.T @ np.abs(pi) @ v).T)) for pi in projectors]
    gram = spectrum.eigenvectors.T @ spectrum.eigenvectors
    d = float(np.abs(gram - np.eye(4)).max()) + 4.0 * U
    return p_bounds, 130.0 * U * float(np.sum(r_bar * r_bar.T)) + 2.01 * d * float(x_bar.sum()) ** 2


def find_peaks(series) -> list[PeakRecord]:
    """Interior strict local maxima of every column of an experiments.TimeSeries;
    plateau ties resolve to the smallest T, and each peak carries its refined
    value and its grid index."""
    records = []
    t = series.t_rad
    if t.size < 3:
        return records
    for (r, sign), y in series.probabilities.items():
        i = 1
        while i < y.size - 1:
            if y[i] > y[i - 1]:
                j = i
                while j + 1 < y.size and y[j + 1] == y[j]:
                    j += 1
                if j < y.size - 1 and y[j + 1] < y[j]:
                    if i == j:
                        t_peak, value = _refine(t, y, i)
                    else:
                        t_peak, value = float(t[i]), float(y[i])
                    records.append(PeakRecord(r=r, target=sign, t_peak_rad=t_peak, value=value, grid_index=i))
                i = j + 1
            else:
                i += 1
    return records
