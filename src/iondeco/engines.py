"""Density-matrix propagation engines for stochastic-unitary-step dephasing.

The system advances by discrete unitary kicks U = exp(-i H / gamma) arriving
as a Poisson process of mean frequency gamma (Milburn, Phys. Rev. A 44, 5401
(1991)).  Averaging U^N over the Poisson number N of kicks multiplies each
eigenbasis coherence (p,q) by a kick-count factor of D = Ep - Eq and leaves
eigenbasis populations untouched.

Five engines, each evolve_*(block, spectrum, req) -> DensityMatrix.  Four are one _dephased call on
gap_factors(name, ...), their kick-count factor over a grid of times on the five closed-form gaps |D|,
which experiments.sweep sums into P and the purity with no state formed:
* first_order_factor exp(-i D t - D^2 t / (2 gamma)): evolve_eigenbasis, the reference;
  evolve_unitary, it at gamma = inf.
* poisson_factor exp(gamma t (e^{-iD/gamma} - 1)), the exact average: evolve_poisson.
* sum_k (c_k / n) exp(-i D k / gamma), the empirical characteristic function of n seeded,
  stratified Poisson draws of N, c_k of them k: evolve_monte_carlo.
evolve_ode takes fixed-step 4th-order Runge-Kutta on the first-order generator
drho/dt = -i[H,rho] - [H,[H,rho]]/(2 gamma): every time's shortened step is summed from 4
shared products, then n steps are the step matrix's powers 2^j, applied at level j to each
time whose n has bit j set.  evolve(name, ...) runs the engine
an ENGINES name stands for.  closed_form_rho transcribes the published
closed-form solution for |g,m-1,n-1> so it can be audited against the engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model import _GAP_INDEX, _GAP_SIGN, HamiltonianBlock, Spectrum, is_integer, is_real

# Largest Monte Carlo trajectory count.  The draws take one uniform per kept table entry whatever the
# count, which sets only their resolution: each count below a CDF entry c is within 1 of c n.
MAX_TRAJECTORIES = 10_000_000
# Largest Runge-Kutta step count t/dt per call.  Binary powering makes the work
# logarithmic in it (one shortened step from 4 products, then at most 24 levels of step
# powers, each one product per time whose step count has that bit set), so
# the budget bounds the rounding, which grows with the step count, not the time.
MAX_ODE_STEPS = 10_000_000
# Largest total length of the Poisson CDF tables of one Monte Carlo call.  It builds one
# at a time, at about 33 B and 0.1 us per entry, a peak near 330 MB and about 1 s, and keeps
# of each only the entries whose count lies strictly between 0 and n (13-37% of them on the
# default grid with 1e5 trajectories), one uniform each.
MAX_KICK_TABLE = 10_000_000


@dataclass
class DensityMatrix:
    """4x4 complex density matrix tagged with its basis order; the engines
    return a stack of them, shape (N, 4, 4), for a 1-D array of times."""

    entries: np.ndarray
    basis_order: tuple[str, str, str, str]

    @classmethod
    def basis_state(cls, index: int, basis_order: tuple[str, str, str, str]) -> "DensityMatrix":
        """|e_index><e_index| on shared read-only entries, valid for good: EvolutionRequest trusts them."""
        return cls(_BASIS_STATES[index], basis_order)

    def violations(self, trace_tol: float = 1e-12, psd_floor: float = -1e-10) -> list[str]:
        """Invariant violations, empty when the state (every state of a stack) is valid; hermiticity is held
        to 1e-12.  A Cholesky factorisation of H - psd_floor I, H the Hermitian part, certifies that no eigenvalue
        lies below the floor, to u |H| as eigvalsh does; only where it fails does eigvalsh decide and report."""
        out = []
        rho = np.asarray(self.entries)
        if rho.dtype.kind not in "iufc" or rho.shape[-2:] != (4, 4):  # no further check is defined on them either
            return [f"entries must be numbers of shape (4, 4) or (N, 4, 4), got {rho.dtype} of shape {rho.shape}"]
        if not np.isfinite(rho).all():  # no further check, and no factorisation, is defined on them
            return ["non-finite entries"]
        rho_h = np.swapaxes(rho, -1, -2).conj()
        herm = np.abs(rho - rho_h).max(initial=0.0)
        if herm > 1e-12:
            out.append(f"hermiticity violated by {herm:.3e}")
        tr_err = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max(initial=0.0)
        if tr_err > trace_tol:
            out.append(f"trace deviates from 1 by {tr_err:.3e}")
        hermitian = 0.5 * (rho + rho_h)
        try:
            np.linalg.cholesky(hermitian - psd_floor * np.eye(rho.shape[-1]))
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(hermitian).min(initial=np.inf))
            if min_eig < psd_floor:
                out.append(f"minimum eigenvalue {min_eig:.3e} below {psd_floor:.0e}")
        return out

    def require_valid(self) -> "DensityMatrix":
        problems = self.violations()
        if problems:
            raise ValidationError("invalid density matrix: " + "; ".join(problems))
        return self


_BASIS_STACK = np.zeros((4, 4, 4), dtype=complex)  # [i] = |e_i><e_i|, built once
_BASIS_STACK[range(4), range(4), range(4)] = 1.0
_BASIS_STACK.flags.writeable = False
_BASIS_STATES = tuple(_BASIS_STACK)  # views of a read-only array, which no caller can make writable


def check_times(t) -> float | np.ndarray:
    """t once it is checked to be a real scalar or 1-D array of finite, nonnegative times: a float as
    it is, checked without numpy, and any other t as a float array."""
    if type(t) is float:
        if 0.0 <= t < math.inf:
            return t
    else:
        times = np.asarray(t)
        if times.dtype.kind in "iuf" and times.ndim <= 1 and np.all(np.isfinite(times) & (times >= 0)):
            return times.astype(float, copy=False)
    raise ValidationError(f"t must be finite and nonnegative (a real scalar or a 1-D array), got {t}")


def _positive_gamma(gamma: float | np.ndarray, t: float | np.ndarray) -> float | np.ndarray:
    """gamma as given, or as a float array of one value per time of t; each positive or inf."""
    scalar = isinstance(gamma, (int, float))  # one gamma, checked without numpy
    gamma = gamma if scalar else np.asarray(gamma)
    if not (is_real(gamma) and gamma > 0 if scalar
            else gamma.dtype.kind in "iuf" and gamma.shape in ((), np.shape(t)) and (gamma > 0).all()):
        raise ValidationError(f"gamma must be positive (or inf), one value or one per time of t, got {gamma}")
    return gamma if scalar else gamma.astype(float, copy=False)


@dataclass
class EvolutionRequest:
    """Inputs common to all engines plus engine-specific controls.

    initial   state at t = 0, one valid 4x4 density matrix; require_valid checks all but the
              very entries of a basis_state, valid by construction (a copy of them is checked)
    t         evolution duration (s), real, or a 1-D array of them
    gamma     kick frequency (1/s); math.inf = decoherence-free; or one per time
              of t, kept as a float array (eigen, poisson and unitary only)
    tail_tol  Poisson tail mass the Monte Carlo kick tables may leave out
    dt        fixed step for the Runge-Kutta engine (None: 1e-3 / mu)
    n_traj    Monte Carlo trajectory count, an integer, at most MAX_TRAJECTORIES
    seed      Monte Carlo seed, an integer (required there, ignored elsewhere)
    """

    initial: DensityMatrix
    t: float | np.ndarray
    gamma: float | np.ndarray = math.inf
    tail_tol: float = 1e-12
    dt: float | None = None
    n_traj: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if not isinstance(self.initial, DensityMatrix):
            raise ValidationError(f"initial must be a DensityMatrix, got {type(self.initial).__name__}")
        if np.shape(self.initial.entries) != (4, 4):
            raise ValidationError(f"initial must be one 4x4 density matrix, got shape {np.shape(self.initial.entries)}")
        if not any(self.initial.entries is state for state in _BASIS_STATES):
            self.initial.require_valid()
        self.gamma = _positive_gamma(self.gamma, check_times(self.t))
        if not (is_real(self.tail_tol) and 0.0 < self.tail_tol < 1.0):
            raise ValidationError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")
        if self.dt is not None and not (is_real(self.dt) and 0.0 < self.dt < math.inf):
            raise ValidationError(f"dt must be finite and positive, got {self.dt}")
        for name, value in (("n_traj", self.n_traj), ("seed", self.seed)):
            if value is not None and not is_integer(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.n_traj is not None and not 1 <= self.n_traj <= MAX_TRAJECTORIES:
            raise ValidationError(f"n_traj must lie in [1, {MAX_TRAJECTORIES}], got {self.n_traj}")


def _check_basis(a: tuple[str, ...], b: tuple[str, ...]) -> None:
    if a != b:
        raise ValidationError(f"basis mismatch: {a} vs {b}")


def _engine_gamma(gamma: float | np.ndarray, *, finite: bool, one: bool) -> float | np.ndarray:
    """An engine's gamma rule: whether it needs gamma finite, and one gamma per call."""
    if one and np.ndim(gamma):
        raise ValidationError(f"this engine takes one gamma per call, got an array of shape {np.shape(gamma)}")
    if finite and (np.isinf(gamma).any() if isinstance(gamma, np.ndarray) else math.isinf(gamma)):
        raise ValidationError("this engine requires finite gamma = 1/R: R must exceed 0, and 1/R must not overflow")
    return gamma


def dephase(spectrum: Spectrum, initial: DensityMatrix, phi: np.ndarray) -> np.ndarray:
    """The kick average V (rho_eig * phi[k]) V^T for each of the N factors in
    phi (N, 4, 4); phi[k][p, q] is the characteristic function of the kick
    count at (Ep - Eq)/gamma, the one thing in which the engines differ.
    Returns an (N, 4, 4) stack: a strided view of a buffer laid out [i, k, j]."""
    _check_basis(spectrum.basis_order, initial.basis_order)
    v = spectrum.eigenvectors
    n = len(phi)
    x = np.empty((4, n, 4), dtype=complex)  # X_k = rho_eig * phi[k], written straight in [p, k, q] order
    np.multiply(v.T @ initial.entries @ v, phi, out=x.transpose(1, 0, 2))
    # two GEMMs over the whole stack, no layout copy: V [X_0 | X_1 | ...], its rows in (i, k) order times V^T
    vx = v @ x.reshape(4, 4 * n)
    return (vx.reshape(4 * n, 4) @ v.T).reshape(4, n, 4).transpose(1, 0, 2)


def first_order_factor(delta: np.ndarray, t: np.ndarray, gamma: float | np.ndarray) -> np.ndarray:
    """exp(-i D t - D^2 t / (2 gamma)), the damping formed as (D t) ((D / 2) / gamma): D^2 alone
    overflows from |D| ~ 1.3e154 and 2 gamma from gamma ~ 9e307, where the damping may be small.
    (D / 2) / gamma is the quotient D / (2 gamma), rounded once, wherever 2 gamma is finite.
    Wherever gamma = inf or t = 0 the damping term is +0.0, so the factor is the bare phase
    exp(-i D t) bit for bit, also where inf * 0 would be NaN; at finite gamma and t > 0 a
    damping past DBL_MAX gives the factor 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        damping = (delta * t) * (0.5 * delta / gamma)
    return np.exp(-1j * delta * t - np.where((gamma == math.inf) | (t == 0.0), 0.0, damping))


def poisson_factor(delta: np.ndarray, t: np.ndarray, gamma: float | np.ndarray) -> np.ndarray:
    """exp(gamma t (e^{-iD/gamma} - 1)), the Poisson mixture sum_k e^{-gamma t} (gamma t)^k / k!
    U^k rho U^{dag k} in closed form.  Written as e^{-ix} - 1, not expm1, the bracket's real part
    would carry an absolute rounding error of ~1e-16, which gamma t multiplies (4.7e-10 at alpha = 4,
    gamma = 1e7, t = pi).  Where D / gamma overflows but 2 gamma t < 2^-53 (R = 1e300), the exact
    factor, within 2 gamma t of 1, is 1; every finite factor is kept."""
    factor = np.exp(gamma * t * np.expm1(-1j * delta / gamma))
    return np.where(np.isfinite(factor) | (2.0 * gamma * t >= 2.0**-53), factor, 1.0)


def gap_factors(name: str, block: HamiltonianBlock, req: EvolutionRequest) -> np.ndarray:
    """The kick-count factor phi(D, t, gamma) of the dephasing engine GAP_FACTORS names, under its gamma rule, at
    each time of req.t (one gamma per time for a gamma array) on the block's five gaps |D| = 2 (0, mu, a, mu - a,
    mu + a): shape np.shape(req.t) + (5,).  A non-finite factor is a ValidationError, no warning."""
    phi, gamma = GAP_FACTORS[name](req)
    t = np.asarray(req.t, dtype=float)
    gamma = gamma.reshape(-1, 1) if isinstance(gamma, np.ndarray) else gamma
    gaps = 2.0 * np.array([0.0, block.mu, block.a, block.mu - block.a, block.mu + block.a])
    with np.errstate(all="ignore"):
        factor = phi(gaps, t.reshape(-1, 1), gamma)
    if not np.isfinite(factor).all():
        raise ValidationError(f"the kick-count factor at |D| up to {gaps.max():.4g} is not finite: a phase |D| t, "
                              "|D| / gamma or |D| k / gamma, or gamma t, exceeds DBL_MAX = 1.798e308")
    return factor.reshape(t.shape + (5,))


def _dephased(spectrum: Spectrum, initial: DensityMatrix, factor: np.ndarray) -> DensityMatrix:
    """dephase with the gap factors, one row per time, placed into Ep - Eq by the model's constant pattern and
    conjugated where D < 0, as phi(-D) = conj(phi(D)); shape factor.shape[:-1] + (4, 4)."""
    gathered = factor.take(_GAP_INDEX, axis=-1).reshape(-1, 4, 4)
    gathered.imag *= _GAP_SIGN
    return DensityMatrix(dephase(spectrum, initial, gathered).reshape(factor.shape[:-1] + (4, 4)), initial.basis_order)


def evolve_eigenbasis(block: HamiltonianBlock, spectrum: Spectrum, req: EvolutionRequest) -> DensityMatrix:
    """Reference engine: the first-order factor; any gamma, inf included, one per time or one per call."""
    return _dephased(spectrum, req.initial, gap_factors("eigen", block, req))


def evolve_unitary(block: HamiltonianBlock, spectrum: Spectrum, req: EvolutionRequest) -> DensityMatrix:
    """Decoherence-free limit: the first-order factor at gamma = inf, whatever req.gamma holds."""
    return _dephased(spectrum, req.initial, gap_factors("unitary", block, req))


def evolve_poisson(block: HamiltonianBlock, spectrum: Spectrum, req: EvolutionRequest) -> DensityMatrix:
    """Exact kick average: the Poisson factor; finite gamma, one per time or one per call."""
    return _dephased(spectrum, req.initial, gap_factors("poisson", block, req))


def _first_order_superoperator(h: np.ndarray, gamma: float) -> np.ndarray:
    """16x16 matrix of rho -> -i[H,rho] - [H,[H,rho]]/(2 gamma) on vec(rho)."""
    eye = np.eye(4)
    comm = (np.multiply.outer(h, eye) - np.multiply.outer(eye, h.T)).transpose(0, 2, 1, 3).reshape(16, 16)
    gen = -1j * comm.astype(complex)
    if not math.isinf(gamma):
        gen = gen - (comm @ comm) / (2.0 * gamma)
    return gen


def _rk4_step(gen: np.ndarray, dt: float, x: np.ndarray, s: float | np.ndarray = 1.0) -> np.ndarray:
    """The classical Runge-Kutta step of length s dt applied to x: the identity (for the step
    matrix, s = 1), or one vector with an (N, 1) array of s, one row per s.  For a linear generator
    that step is exactly the degree-4 Taylor polynomial sum_k (s dt gen)^k x / k!: its scaled terms
    w_k = (dt / k) gen w_(k-1), w_0 = x, take 4 products whatever the number of s, and Horner's rule
    in s sums them elementwise, on the real and imaginary parts alike.  Scaled, no term overflows
    where the step itself is finite (gen^4 alone does from |gen| of about 1e77)."""
    terms = [x]
    for k in (1.0, 2.0, 3.0, 4.0):
        terms.append((dt / k) * (gen @ terms[-1]))
    y = s * terms[4].view(float)
    for term in terms[3:0:-1]:  # y = (y + w_k) s, in place
        y += term.view(float)
        y *= s
    y += x.view(float)
    return y.view(complex)


def default_ode_step(block: HamiltonianBlock) -> float:
    """Default Runge-Kutta step 1e-3 / mu for the given block."""
    if block.mu == 0.0:
        raise ValidationError("cannot derive a default dt for a zero block; pass dt explicitly")
    return 1e-3 / block.mu


def evolve_ode(block: HamiltonianBlock, spectrum: Spectrum, req: EvolutionRequest) -> DensityMatrix:
    """Fixed-step classical 4th-order Runge-Kutta on the first-order generator; one
    gamma per call, inf included, and no use of the spectrum.

    n steps of a linear generator are the n-th power of the step matrix, which commutes
    with the shortened step.  The call takes the shortened step first: every time with
    t - n dt > 1e-15 t, n = int(t / dt), gets that of length s dt, s = (t - n dt) / dt,
    the others s = 0, all summed from 4 products on the shared initial vector.  It then
    walks the powers step^(2^j) level by level, up to the largest time, squaring between
    levels: at level j every time whose n has bit j set takes one product of its own
    with step^(2^j).  Each time gets the same operations in the same order as alone, so a
    grid gives each time the bits of a call at that time alone.  States but t = 0 are
    re-Hermitized; a non-finite entry or a positivity breach below -1e-7 is a NumericalError.
    """
    _check_basis(block.basis_order, req.initial.basis_order)
    times = np.asarray(req.t, dtype=float).ravel()
    dt = req.dt if req.dt is not None else default_ode_step(block)
    n_steps = float(np.max(times, initial=0.0)) / dt  # Python float division: inf for a subnormal dt, no warning
    if n_steps > MAX_ODE_STEPS:
        raise ValidationError(f"t / dt = {n_steps:.3g} Runge-Kutta steps exceed the budget of {MAX_ODE_STEPS}")
    gen = _first_order_superoperator(block.entries, _engine_gamma(req.gamma, finite=False, one=True))
    n_full = (times / dt).astype(np.int64)
    remainder = times - n_full * dt
    levels = int(n_steps).bit_length()
    bits = n_full >> np.arange(levels)[:, None] & 1  # [j] = bit j of each time's n
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging step is reported by the invariant check below
        s = np.where(remainder > 1e-15 * times, remainder / dt, 0.0)[:, None]
        vec = _rk4_step(gen, dt, req.initial.entries.astype(complex).reshape(16), s)[:, :, None]
        power = _rk4_step(gen, dt, np.eye(16, dtype=complex))
        for j in range(levels):
            if j:  # step^(2^j), never squared past the last level
                power = power @ power
            rows = bits[j].nonzero()[0]
            vec[rows] = power @ vec[rows]
        rho = vec.reshape(-1, 4, 4)
        rho = np.where((times == 0.0)[:, None, None], req.initial.entries,
                       0.5 * (rho + np.swapaxes(rho, -1, -2).conj()))
    result = DensityMatrix(rho.reshape(np.shape(req.t) + (4, 4)), req.initial.basis_order)
    problems = result.violations(trace_tol=1e-9, psd_floor=-1e-7)
    if problems:
        raise NumericalError("Runge-Kutta output invalid: " + "; ".join(problems))
    return result


# splitmix64 finalizer constants (Steele, Lea & Flood); the mix of
# (seed, trajectory index) is the per-trajectory sub-seed.
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)

# Entries of the process's cached table of log(k!), 512 KB; a call past it extends a copy.
_LOG_FACTORIAL_CAP = 1 << 16
_log_factorial = np.zeros(0)  # read-only, replaced by a longer table, never written


def _trajectory_uniforms(seed: int, index: np.ndarray) -> np.ndarray:
    """v_i of each trajectory index i, a pure function of (seed, i): the top 53 bits of the
    splitmix64 mix of (seed, i) times 2**-53, in [0, 1).  Trajectory i's uniform is (i + v_i) / n."""
    z = np.asarray(index).astype(np.uint64)  # every pass in place on one buffer
    z += np.uint64(1)
    z *= _SM64_GAMMA
    z += np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)  # int: a numpy seed would not take the mask
    for shift, mix in ((30, _SM64_MIX1), (27, _SM64_MIX2), (31, None)):
        z ^= z >> np.uint64(shift)
        if mix is not None:
            z *= mix
    z >>= np.uint64(11)
    v = z.astype(np.float64)
    v *= 2.0**-53
    return v


def _draws_below(seed: int, n: int, table: np.ndarray) -> np.ndarray:
    """How many of the n trajectory uniforms (i + v_i) / n lie below each entry c of table, "below"
    decided as v_i < c n - i: every i < m = floor(c n) is below, no i > m, and trajectory m where
    v_m < c n - m; all n where c n >= n (m is clipped to n - 1, and c n - (n - 1) >= 1 > v).  One
    uniform per entry, so the count is within 1 of c n."""
    scaled = table * n
    m = np.minimum(scaled, n - 1).astype(np.int64)
    scaled -= m  # c n - m
    return m + (_trajectory_uniforms(seed, m) < scaled)


def _log_factorials(size: int) -> np.ndarray:
    """Read-only log(k!) = math.lgamma(k + 1) for k below at least size.  The process keeps
    one table, grown to powers of two up to _LOG_FACTORIAL_CAP entries; a larger size gets
    a copy extended for that call alone.  Two threads growing it at once each build a
    whole table of the same bits, so either may be kept."""
    global _log_factorial
    table = _log_factorial
    if size > table.size:
        grown = 1 << (size - 1).bit_length() if size <= _LOG_FACTORIAL_CAP else size
        table = np.concatenate((table, np.fromiter(map(math.lgamma, range(table.size + 1, grown + 1)), dtype=float)))
        table.flags.writeable = False
        if grown <= _LOG_FACTORIAL_CAP:
            _log_factorial = table
    return table


def _log_poisson_pmf(k: float, lam: float) -> float:
    return k * math.log(lam) - lam - math.lgamma(k + 1.0)


def _poisson_cutoff(lam: float, tail_tol: float) -> int:
    """Kick count K past which the true Poisson tail mass is below tail_tol.

    The cut is certified with the geometric bound
    sum_{k > K} pmf(k) <= pmf(K+1) / (1 - lam/(K+2)) for K >= lam, which stays
    rigorous where a floating sum of the pmf would drown in rounding.
    """
    k_max = int(lam + 12.0 * math.sqrt(lam + 1.0)) + 30
    for _ in range(64):
        ratio = lam / (k_max + 2.0)
        log_next = _log_poisson_pmf(k_max + 1.0, lam)
        bound = math.exp(log_next) / (1.0 - ratio) if log_next > -745.0 else 0.0
        if bound <= tail_tol:
            return k_max
        k_max = int(1.25 * k_max) + 32
    raise NumericalError(f"cannot certify Poisson tail below tail_tol {tail_tol:.1e}")


def _poisson_cdf(lam: float, k_max: int, log_factorial: np.ndarray) -> np.ndarray:
    """Poisson CDF of mean lam on 0..k_max, from a prefix of the table log(k!)."""
    log_pmf = (np.arange(k_max + 1, dtype=float) * math.log(lam) - lam - log_factorial[: k_max + 1] if lam > 0.0
               else np.zeros(1))
    return np.cumsum(np.where(log_pmf > -745.0, np.exp(log_pmf), 0.0))


def _kick_counts(seed: int, n: int, lams: list[float], k_maxes: list[int],
                 log_factorial: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Each time's histogram of kick counts: c_k trajectories drew k kicks where c_k uniforms lie in
    [cdf[k-1], cdf[k]) of that time's Poisson CDF on 0..K (K + 1 past it), as _draws_below counts them.
    Returns every k with c_k > 0, ascending within each time, those c_k, and the offsets at which
    each time's run of them starts, with the end last.  The CDFs of all times lie end to end in one
    table, which _draws_below counts in once."""
    # An entry's count is 0 where v_0 < c n fails and n where v_(n-1) < c n - (n - 1) holds, both
    # monotone in c, so time j keeps only its entries k = a..b-1 between, then 1.0 for k = b; c_k = 0
    # outside a..b.  Its slots are table[bounds[j]:bounds[j + 1]], and slot i holds k = i - shifts[j].
    first, last = _trajectory_uniforms(seed, np.array([0, n - 1])).tolist()
    parts, bounds, shifts = [], [0], []
    for lam, k_max in zip(lams, k_maxes):
        cdf = _poisson_cdf(lam, k_max, log_factorial)
        scaled = cdf * n
        a = int(np.searchsorted(scaled, first, side="right"))
        scaled -= n - 1
        b = int(np.searchsorted(scaled, last, side="right"))
        parts += (cdf[a:b].copy(), (1.0,))  # a copy, so that the whole CDF is freed
        shifts.append(bounds[-1] - a)
        bounds.append(bounds[-1] + b - a + 1)
    table = np.concatenate(parts or [np.zeros(0)])
    below = _draws_below(seed, n, table)
    counts = np.diff(below, prepend=0)
    counts[bounds[1:-1]] = below[bounds[1:-1]]
    slots = np.flatnonzero(counts)
    firsts = np.searchsorted(slots, bounds)
    return slots - np.repeat(shifts, np.diff(firsts)), counts[slots], firsts.tolist()


def evolve_monte_carlo(block: HamiltonianBlock, spectrum: Spectrum, req: EvolutionRequest) -> DensityMatrix:
    """Average U^N rho U^{dag N} over N ~ Poisson(gamma t), one draw per trajectory; one finite gamma."""
    return _dephased(spectrum, req.initial, gap_factors("mc", block, req))


def _empirical_factor(req: EvolutionRequest):
    """The empirical characteristic function sum_k (c_k / n) exp(-i D k / gamma) of req's draws, as a factor.

    Trajectory i of n maps the stratified uniform (i + v_i) / n through the inverse Poisson CDF,
    v_i the top 53 bits of the splitmix64 mix of (seed, i), so results are bit-identical for a
    given seed and each time of a grid gets the bits of a lone call.  Each trajectory keeps its
    uniform at every time, so the draws are correlated across times.  _kick_counts counts the
    trajectories below every entry of the CDFs of all times, laid end to end, from one uniform per
    entry (_draws_below), in integers; the CDFs take log(k!) from a table kept for the process.
    Stratified draws are unbiased, with at most the variance of i.i.d. ones.  The factor takes
    its phases once for each k drawn at any time, summed by numpy pairwise over the ascending
    k of each time and D, no BLAS.  The CDFs of one call hold at most MAX_KICK_TABLE entries.
    """
    gamma = _engine_gamma(req.gamma, finite=True, one=True)
    if req.seed is None or req.n_traj is None:
        raise ValidationError(f"Monte Carlo engine requires a seed and n_traj, got {req.seed} and {req.n_traj}")
    n = req.n_traj
    lams = [gamma * t_i for t_i in np.asarray(req.t, dtype=float).ravel().tolist()]
    # a cut is at least its mean, so a mean at the budget is charged the budget without seeking its cut
    k_maxes = [0 if lam == 0.0 else _poisson_cutoff(lam, req.tail_tol) if lam < MAX_KICK_TABLE else MAX_KICK_TABLE
               for lam in lams]
    if sum(k_maxes) + len(k_maxes) > MAX_KICK_TABLE:
        raise ValidationError(f"the Poisson kick tables of {len(lams)} times up to gamma*t = {max(lams):.3g} exceed "
                              f"the budget of {MAX_KICK_TABLE} entries; raise R or take fewer, shorter times")
    log_factorial = _log_factorials(max(k_maxes, default=0) + 1)
    drawn, counts, firsts = _kick_counts(req.seed, n, lams, k_maxes, log_factorial)
    weights = counts / n
    kicks, rows = np.unique(drawn, return_inverse=True)

    def empirical_factor(delta, *_):  # phi at each time of t; float weights c_k / n make it 1 at t = 0
        phase = first_order_factor(delta[:, None], kicks / gamma, math.inf)  # one column per k drawn at any time
        phi = np.empty((len(lams), delta.size), dtype=complex)
        for row, lo, hi in zip(phi, firsts, firsts[1:]):  # take, not [:, rows]: a C-ordered product, summed pairwise
            row[:] = (weights[lo:hi] * phase.take(rows[lo:hi], axis=1)).sum(axis=1)
        return phi
    return empirical_factor


# Dephasing engine name -> its factor phi(D, t, gamma) and gamma from the request, under the engine's gamma rule
GAP_FACTORS = {"eigen": lambda req: (first_order_factor, req.gamma),
               "unitary": lambda req: (first_order_factor, math.inf),
               "poisson": lambda req: (poisson_factor, _engine_gamma(req.gamma, finite=True, one=False)),
               "mc": lambda req: (_empirical_factor(req), math.inf)}

# Engine name -> its function's name here; evolve looks it up at each call, so a
# wrapper set on the module attribute (a tracer, a test's counter) sees every call.
ENGINES = {"eigen": "evolve_eigenbasis", "poisson": "evolve_poisson", "ode": "evolve_ode",
           "mc": "evolve_monte_carlo", "unitary": "evolve_unitary"}


def evolve(name: str, block: HamiltonianBlock, spectrum: Spectrum, req: EvolutionRequest) -> DensityMatrix:
    """The state at each time of req.t from the engine ENGINES names."""
    if name not in ENGINES:
        raise ValidationError(f"engine must be one of {tuple(ENGINES)}, got {name!r}")
    return globals()[ENGINES[name]](block, spectrum, req)


def closed_form_rho(
    block: HamiltonianBlock,
    spectrum: Spectrum,
    t: float | np.ndarray,
    gamma: float | np.ndarray,
) -> DensityMatrix:
    """Literal transcription of the published closed-form rho(t) for the
    initial state |g, m-1, n-1><g, m-1, n-1|; t is a scalar or an array of times,
    gamma one value or one per time, and the entries have shape np.shape(t) + (4, 4).

    Exists to audit that published expression against the engines, not to
    serve as a reference.  Coefficients use A^2 = (mu + omega)/(4 mu),
    B^2 = (mu - omega)/(4 mu) with nonnegative roots.

    The publication never writes the eigenvectors out, so their sign
    realization is pinned here by requiring the expression to reproduce the
    stated initial state at t = 0; with this package's sign convention that
    amounts to negating the first eigenvector.  Any residual against the
    reference engine is reported by the audit, not corrected.
    """
    a, mu, omega = block.a, block.mu, block.omega
    if not (a > 0 and omega > 0):
        raise ValidationError("transcription requires a > 0 and omega > 0")
    t = check_times(t)
    gamma = _positive_gamma(gamma, t)
    cap_a = math.sqrt((mu + omega) / (4.0 * mu))
    cap_b = a / math.sqrt(4.0 * mu * (mu + omega))  # B^2 = (mu - omega) / (4 mu) without the cancellation

    v = spectrum.eigenvectors.astype(complex)
    v[:, 0] = -v[:, 0]
    t = np.asarray(t, dtype=float)[..., None, None]
    gamma = np.asarray(gamma, dtype=float)[..., None, None]

    ket_bra = np.einsum("ip,jq->pqij", v, v.conj())  # ket_bra[p, q] = |p><q|, one product per entry

    def damp(freq: float):
        # decay exponent 2 freq^2 t / gamma of the published expression; none where gamma = inf.
        # Where 2 freq^2 t overflows (freq near MAX_ALPHA), (freq t) ((2 freq) / gamma) may not.
        with np.errstate(over="ignore", invalid="ignore"):
            exponent = 2.0 * freq * freq * t / gamma
            exponent = np.where(np.isfinite(exponent), exponent, (freq * t) * (2.0 * freq / gamma))
        return np.where(gamma == math.inf, 0.0, exponent)

    apb = 0.5 * (cap_a + cap_b) ** 2
    amb = 0.5 * (cap_a - cap_b) ** 2
    cross = 0.5 * (cap_a**2 - cap_b**2)

    d_minus, d_plus, d_mu, d_a = damp(mu - a), damp(mu + a), damp(mu), damp(a)
    rho = apb * (ket_bra[0, 0] + ket_bra[3, 3]) - apb * (
        np.exp(-d_minus - 2j * (mu - a) * t) * ket_bra[0, 3]
        + np.exp(-d_minus + 2j * (mu - a) * t) * ket_bra[3, 0]
    )
    rho += amb * (
        np.exp(-d_plus + 2j * (mu + a) * t) * ket_bra[1, 2]
        + np.exp(-d_plus - 2j * (mu + a) * t) * ket_bra[2, 1]
    )
    rho += amb * (ket_bra[1, 1] + ket_bra[2, 2])
    rho += cross * (
        np.exp(-d_mu - 2j * mu * t) * (ket_bra[0, 1] - ket_bra[2, 3])
        + np.exp(-d_mu + 2j * mu * t) * (ket_bra[1, 0] - ket_bra[3, 2])
        + np.exp(-d_a + 2j * a * t) * (ket_bra[0, 2] - ket_bra[1, 3])
        + np.exp(-d_a - 2j * a * t) * (ket_bra[2, 0] - ket_bra[3, 1])
    )
    return DensityMatrix(rho, spectrum.basis_order)
