import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iondeco import engines, experiments, model, observables
from iondeco.errors import NumericalError, ValidationError
from iondeco.experiments import scaled_system

import oracles
from conftest import T_GRID_PI


def random_state(rng, basis):
    """Random full-rank density matrix."""
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    return engines.DensityMatrix(rho / np.trace(rho).real, basis)


def eig_populations(spectrum, rho):
    v = spectrum.eigenvectors
    return np.diag(v.T @ rho.entries @ v).real


# ---------------------------------------------------------------- request/type


def test_request_validation():
    rho = engines.DensityMatrix.basis_state(2, observables.GHZ_BASIS)
    with pytest.raises(ValidationError):
        engines.EvolutionRequest(rho, t=-1.0)
    with pytest.raises(ValidationError):
        engines.EvolutionRequest(rho, t=1.0, gamma=0.0)
    with pytest.raises(ValidationError):
        engines.EvolutionRequest(rho, t=1.0, dt=0.0)
    with pytest.raises(ValidationError):
        engines.EvolutionRequest(rho, t=1.0, tail_tol=1.5)
    with pytest.raises(ValidationError):
        engines.EvolutionRequest(rho, t=1.0, n_traj=0)
    with pytest.raises(ValidationError, match="trace"):  # a trace-2 state
        engines.EvolutionRequest(engines.DensityMatrix(2.0 * rho.entries, rho.basis_order), t=1.0)
    for shape in ((3, 3), (2, 4, 4)):  # not one 4x4 matrix
        entries = np.zeros(shape, dtype=complex)
        entries[..., 0, 0] = 1.0
        with pytest.raises(ValidationError, match="4x4"):
            engines.EvolutionRequest(engines.DensityMatrix(entries, rho.basis_order), t=1.0)


def test_request_rejects_bad_gamma_arrays():
    rho = engines.DensityMatrix.basis_state(2, observables.GHZ_BASIS)
    t = np.array([0.5, 1.0, 2.0])
    engines.EvolutionRequest(rho, t=t, gamma=np.array([1.0, math.inf, 5.0]))  # one gamma per time
    for gamma in (np.ones(2), np.ones(4), np.ones((3, 1)), np.ones((1, 3)), np.ones(1)):
        with pytest.raises(ValidationError, match="gamma"):
            engines.EvolutionRequest(rho, t=t, gamma=gamma)
    with pytest.raises(ValidationError, match="gamma"):  # a scalar t takes one gamma
        engines.EvolutionRequest(rho, t=1.0, gamma=np.ones(3))
    for bad in (0.0, -0.0, -1.0, -math.inf, math.nan):
        with pytest.raises(ValidationError, match="gamma"):
            engines.EvolutionRequest(rho, t=t, gamma=np.array([1.0, bad, 5.0]))
        with pytest.raises(ValidationError, match="gamma"):
            engines.EvolutionRequest(rho, t=1.0, gamma=bad)


REFUSE_INF = {"poisson", "mc"}  # "finite gamma"
REFUSE_ARRAY = {"ode", "mc"}  # "one gamma per call"


@pytest.mark.parametrize("name", sorted(engines.ENGINES))
def test_engine_rules(system4, rho0, name):
    """Every engine, called by name, returns a DensityMatrix of shape t.shape + (4, 4);
    exactly poisson and mc refuse gamma = inf, and exactly ode and mc a gamma array."""
    block, spectrum = system4

    def outcome(t, gamma):
        try:
            out = engines.evolve(name, block, spectrum, engines.EvolutionRequest(rho0, t, gamma, n_traj=100, seed=1))
        except ValidationError as exc:
            return str(exc)
        assert isinstance(out, engines.DensityMatrix) and out.entries.shape == np.shape(t) + (4, 4)
        return "ok"

    grid = np.array([0.5, 1.0, 2.0])
    for t in (1.0, grid, np.empty(0)):
        assert outcome(t, 10.0) == "ok"
    for t, gamma, refused in ((1.0, math.inf, name in REFUSE_INF),
                              (grid, np.array([10.0, 100.0, 5.0]), name in REFUSE_ARRAY),
                              (grid, np.array([10.0, math.inf, 5.0]), name in REFUSE_ARRAY | REFUSE_INF)):
        expected = ("one gamma per call" if np.ndim(gamma) and name in REFUSE_ARRAY
                    else "finite gamma" if refused else "ok")
        assert expected in outcome(t, gamma)


def test_evolve_rejects_an_unknown_engine_name(system4, rho0):
    block, spectrum = system4
    with pytest.raises(ValidationError, match="engine must be one of .*'bogus'"):
        engines.evolve("bogus", block, spectrum, engines.EvolutionRequest(rho0, 1.0))


@pytest.mark.parametrize("bad", [0.0, -0.0, -1, -math.inf, math.nan, np.array([1.0, 0.0, 5.0])])
def test_request_and_closed_form_rho_share_the_gamma_check(system4, rho0, bad):
    """Both raise the same ValidationError, before closed_form_rho divides by gamma,
    so no RuntimeWarning is emitted."""
    block, spectrum = system4
    t = np.array([0.5, 1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="gamma must be positive") as from_request:
            engines.EvolutionRequest(rho0, t, bad)
        with pytest.raises(ValidationError, match="gamma must be positive") as from_closed_form:
            engines.closed_form_rho(block, spectrum, t, bad)
    assert str(from_request.value) == str(from_closed_form.value)


def test_oracles_import_no_code_they_check():
    """tests/oracles.py, the first-order gap bound and the expm reference among its
    oracles, takes only containers, error classes and a constant from iondeco, and
    only expm from scipy."""
    tree = ast.parse(Path(oracles.__file__).read_text())
    assert {"first_order_gap_bound", "first_order_generator", "first_order_expm"} <= {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    imported = {(node.module, alias.name) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported == {("iondeco.engines", "DensityMatrix"), ("iondeco.errors", "NumericalError"),
                        ("iondeco.model", "_SIGN_SIGNIFICANCE"), ("iondeco.model", "Spectrum"),
                        ("scipy.linalg", "expm")}
    assert {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names} == {
        "math", "numpy"}


def test_density_matrix_validation():
    rho = engines.DensityMatrix.basis_state(2, observables.GHZ_BASIS)
    assert rho.violations() == []
    bad = engines.DensityMatrix(np.eye(4, dtype=complex), observables.GHZ_BASIS)
    assert any("trace" in v for v in bad.violations())
    with pytest.raises(ValidationError):
        bad.require_valid()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_initial_state_is_a_validation_error(bad):
    """A non-finite entry is reported as a violation before any eigen solve, which
    would raise LinAlgError on it, and before any arithmetic that would warn."""
    entries = engines.DensityMatrix.basis_state(2, observables.GHZ_BASIS).entries
    entries[1, 3] = bad
    rho = engines.DensityMatrix(entries, observables.GHZ_BASIS)
    assert rho.violations() == ["non-finite entries"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite entries"):
            engines.EvolutionRequest(rho, t=1.0)


def test_basis_state_equals_pure_bitwise():
    """Signed zeros included: basis_state(i) has the bits of the pure state of e_i."""
    for i in range(4):
        pure = oracles.pure(np.eye(4)[i], observables.GHZ_BASIS).entries
        entries = engines.DensityMatrix.basis_state(i, observables.GHZ_BASIS).entries
        assert entries.dtype == pure.dtype and entries.view(np.uint64).tolist() == pure.view(np.uint64).tolist()


def test_basis_mismatch_rejected(system4, rho0):
    block, spectrum = system4
    other = engines.DensityMatrix(rho0.entries.copy(), model.ModeIndices(2, 2).basis_order())
    with pytest.raises(ValidationError):
        engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(other, t=1.0))


# ------------------------------------------------------------------ eigenbasis


def test_eigenbasis_t_zero_identity(system4, rho0):
    block, spectrum = system4
    out = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=0.0, gamma=50.0))
    np.testing.assert_allclose(out.entries, rho0.entries, atol=1e-15)


def test_eigenbasis_diagonal_state_is_stationary(system4):
    block, spectrum = system4
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    rho = engines.DensityMatrix(
        (spectrum.eigenvectors * weights) @ spectrum.eigenvectors.T + 0j, spectrum.basis_order)
    for gamma in (math.inf, 10.0, 0.5):
        out = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho, t=2.7, gamma=gamma))
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-12)


def test_eigenbasis_reference_value(system4, rho0, ghz_minus):
    block, spectrum = system4
    out = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=math.pi / 4, gamma=100.0))
    p = observables.p_ghz(out, ghz_minus)
    assert p == pytest.approx(0.896, abs=1e-3)
    assert p == pytest.approx(observables.closed_form_pghz(math.pi / 4, 4.0, 0.01, "minus"), abs=1e-12)


def test_eigenbasis_dephasing_properties(system4, rho0):
    block, spectrum = system4
    rng = np.random.default_rng(5)
    rho = random_state(rng, spectrum.basis_order)
    pops0 = eig_populations(spectrum, rho)
    times = np.sort(rng.uniform(0.0, 6.0, size=8))
    gamma = 30.0
    last_purity = np.inf
    last_coh = np.full(6, np.inf)
    for t in times:
        out = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho, t=float(t), gamma=gamma))
        assert out.violations(psd_floor=-1e-10) == []
        np.testing.assert_allclose(eig_populations(spectrum, out), pops0, atol=1e-10)
        p = observables.purity(out)
        assert p <= last_purity + 1e-12
        last_purity = p
        coh = oracles.eigenbasis_coherences(out, spectrum)
        assert np.all(coh <= last_coh + 1e-12)
        last_coh = coh


def test_gamma_inf_matches_unitary(system4, rho0):
    block, spectrum = system4
    a = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=1.3, gamma=math.inf))
    b = engines.evolve_unitary(block, spectrum, engines.EvolutionRequest(rho0, t=1.3, gamma=5.0))
    np.testing.assert_array_equal(a.entries, b.entries)  # identical code path


def test_gamma_inf_is_the_bare_phase_where_the_damping_would_overflow():
    """At alpha = 5e153 the gap D ~ 1e154 makes D^2 t overflow at t = 6.  At gamma = inf
    the first-order factor is still the bare phase: eigen and unitary give its bits, and
    mc (N kicks at t = N / gamma) the per-trajectory mean, with no RuntimeWarning."""
    block, spectrum = scaled_system(5e153)
    rho = experiments.initial_state()
    v = spectrum.eigenvectors
    delta = spectrum.eigenvalues[:, None] - spectrum.eigenvalues[None, :]
    assert math.isinf(float(delta.max()) * float(delta.max()) * 6.0)
    bare = v @ ((v.T @ rho.entries @ v) * np.exp(-1j * delta * 6.0)) @ v.T
    for name in ("eigen", "unitary"):
        assert np.array_equal(engines.evolve(name, block, spectrum, engines.EvolutionRequest(rho, 6.0)).entries, bare)
    mc = engines.evolve_monte_carlo(block, spectrum, engines.EvolutionRequest(rho, 6.0, 2.0, n_traj=200, seed=1))
    per_trajectory = per_trajectory_monte_carlo(spectrum, rho, trajectory_kicks(6.0, 2.0, 200, 1), 2.0)
    assert np.abs(mc.entries - per_trajectory).max() <= 1e-13


def test_gamma_inf_rule_holds_elementwise_where_the_damping_would_overflow():
    """An inf entry of a gamma array gives the bare phase as one gamma = inf does, and a
    finite entry whose damping overflows the factor 0, as one finite gamma does; the
    published rho(t) drops its decay exponent wherever gamma = inf.  At alpha = 5e153,
    with no RuntimeWarning (the suite makes them errors) and no NaN."""
    block, spectrum = scaled_system(5e153)
    rho = experiments.initial_state()
    t = np.array([6.0, 6.0, 0.5])
    gamma = np.array([math.inf, 2.0, math.inf])
    grid = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho, t, gamma))
    for j in range(t.size):
        one = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho, float(t[j]), float(gamma[j])))
        assert np.array_equal(grid.entries[j], one.entries)
    assert np.isfinite(engines.closed_form_rho(block, spectrum, t, gamma).entries).all()
    assert np.isfinite(engines.closed_form_rho(block, spectrum, 6.0, math.inf).entries).all()


# --------------------------------------------------------------------- unitary


def test_unitary_preserves_purity(system4):
    block, spectrum = system4
    rng = np.random.default_rng(9)
    rho = random_state(rng, spectrum.basis_order)
    p0 = observables.purity(rho)
    out = engines.evolve_unitary(block, spectrum, engines.EvolutionRequest(rho, t=3.7))
    assert observables.purity(out) == pytest.approx(p0, abs=1e-12)


def test_unitary_reaches_ghz(system4, rho0, ghz_minus):
    block, spectrum = system4
    out = engines.evolve_unitary(block, spectrum, engines.EvolutionRequest(rho0, t=math.pi / 4))
    assert observables.p_ghz(out, ghz_minus) == pytest.approx(1.0, abs=1e-9)
    out0 = engines.evolve_unitary(block, spectrum, engines.EvolutionRequest(rho0, t=0.0))
    np.testing.assert_allclose(out0.entries, rho0.entries, atol=1e-15)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(alpha=st.floats(1.0, 20.0, exclude_min=True), m=st.integers(1, 5), n=st.integers(1, 5),
       t=st.floats(0.0, 2.0 * math.pi), seed=st.integers(0, 2**32 - 1))
@example(alpha=1.0000000000000002, m=1, n=3, t=1.0, seed=0)  # a rounds to 1 - 1 ulp, omega ~ 2e-8
def test_unitary_engine_is_the_phase_transform(alpha, m, n, t, seed):
    """The unitary engine, now the reference engine at gamma = inf, applies the
    bare phases exp(-i Delta T) exactly and agrees with U rho U^dag from a
    dense eigensolve of the block."""
    block, spectrum = scaled_system(alpha, model.ModeIndices(m, n))
    rho = random_state(np.random.default_rng(seed), spectrum.basis_order)
    out = engines.evolve_unitary(block, spectrum, engines.EvolutionRequest(rho, t=t, gamma=10.0)).entries
    v = spectrum.eigenvectors
    delta = spectrum.eigenvalues[:, None] - spectrum.eigenvalues[None, :]
    assert np.array_equal(out, v @ ((v.T @ rho.entries @ v) * np.exp(-1j * delta * t)) @ v.T)
    w, q = np.linalg.eigh(block.entries)
    u = (q * np.exp(-1j * w * t)) @ q.conj().T
    assert np.abs(out - u @ rho.entries @ u.conj().T).max() <= 1e-12


# --------------------------------------------------------------------- poisson


def test_poisson_zero_block_is_stationary():
    params = model.SystemParams(0.0, 0.0, 0.1, 0.1)
    modes = model.ModeIndices(1, 1)
    block = model.build_hamiltonian(params, modes)
    spectrum = oracles.spectrum_numeric(block)
    rho = engines.DensityMatrix.basis_state(1, modes.basis_order())
    out = engines.evolve_poisson(block, spectrum, engines.EvolutionRequest(rho, t=5.0, gamma=2.0))
    np.testing.assert_allclose(out.entries, rho.entries, atol=1e-14)


def test_poisson_t_zero(system4, rho0):
    block, spectrum = system4
    out = engines.evolve_poisson(block, spectrum, engines.EvolutionRequest(rho0, t=0.0, gamma=2.0))
    np.testing.assert_allclose(out.entries, rho0.entries, atol=1e-15)


@pytest.mark.parametrize("r,t", [(0.005, 0.3), (0.01, math.pi / 4), (0.1, 2.0), (0.001, math.pi)])
def test_poisson_matches_literal_kick_sum(system4, rho0, r, t):
    # tail_tol = 1e-11: at gamma*t ~ 3e3 the pmf accumulation carries ~2e-12
    # of rounding, so the default 1e-12 coverage target is not reliably
    # reachable there; the agreement tolerance still dominates the truncation
    block, spectrum = system4
    req = engines.EvolutionRequest(rho0, t=t, gamma=1.0 / r, tail_tol=1e-11)
    closed = engines.evolve_poisson(block, spectrum, req)
    summed = oracles.poisson_kick_sum(block, req)
    assert np.abs(closed.entries - summed.entries).max() <= 1e-10


@settings(derandomize=True, max_examples=100, deadline=None)
@given(alpha=st.floats(1.0, 20.0, exclude_min=True), r=st.floats(0.01, 0.5),
       t=st.floats(0.0, math.pi), seed=st.integers(0, 2**32 - 1))
def test_poisson_matches_literal_kick_sum_for_mixed_states(alpha, r, t, seed):
    """The closed-form kick average equals the literal Poisson series for
    random alpha, R, T and mixed initial states; gamma*t stays below 315."""
    block, spectrum = scaled_system(alpha)
    rho = random_state(np.random.default_rng(seed), spectrum.basis_order)
    req = engines.EvolutionRequest(rho, t=t, gamma=1.0 / r, tail_tol=1e-11)
    closed = engines.evolve_poisson(block, spectrum, req)
    summed = oracles.poisson_kick_sum(block, req)
    assert np.abs(closed.entries - summed.entries).max() <= 1e-10


def test_poisson_kick_sum_tail_cap(system4, rho0):
    # at gamma*t = 25 the accumulated mass plateaus a few ulp below 1, so an
    # unreachable tail_tol must hit the term cap instead of looping forever
    block, _ = system4
    req = engines.EvolutionRequest(rho0, t=2.5, gamma=10.0, tail_tol=1e-300)
    with pytest.raises(NumericalError):
        oracles.poisson_kick_sum(block, req)


def test_poisson_populations_conserved(system4, rho0):
    block, spectrum = system4
    pops0 = eig_populations(spectrum, rho0)
    for t in (0.5, 2.0):
        out = engines.evolve_poisson(block, spectrum, engines.EvolutionRequest(rho0, t=t, gamma=20.0))
        np.testing.assert_allclose(eig_populations(spectrum, out), pops0, atol=1e-10)


def test_poisson_close_to_first_order_at_small_r(system4, rho0):
    # trace distance <= 1e-3 for R = 0.001 over T in [0, pi]
    block, spectrum = system4
    gamma = 1000.0
    for t in np.linspace(0.0, math.pi, 64):
        req = engines.EvolutionRequest(rho0, t=float(t), gamma=gamma)
        d = (engines.evolve_poisson(block, spectrum, req).entries
             - engines.evolve_eigenbasis(block, spectrum, req).entries)
        trace_distance = 0.5 * np.abs(np.linalg.eigvalsh(d)).sum()
        assert trace_distance <= 1e-3


@pytest.mark.parametrize("r", [1e-7, 1e-8])
def test_poisson_exact_at_tiny_r(system4, rho0, r):
    # the true first-order gap is ~1e-12 here; e^{-iD/gamma} - 1 written out
    # would add gamma t * 1e-16 of rounding (~5e-10) and break the bound
    block, spectrum = system4
    for t in T_GRID_PI:
        req = engines.EvolutionRequest(rho0, t=float(t), gamma=1.0 / r)
        gap = np.abs(engines.evolve_poisson(block, spectrum, req).entries
                     - engines.evolve_eigenbasis(block, spectrum, req).entries).max()
        assert gap <= oracles.first_order_gap_bound(block, float(t), r, 1e-13)


# ------------------------------------------------------------------------- ode


def test_ode_t_zero(system4, rho0):
    block, spectrum = system4
    out = engines.evolve_ode(block, spectrum, engines.EvolutionRequest(rho0, t=0.0, gamma=10.0))
    np.testing.assert_allclose(out.entries, rho0.entries, atol=1e-15)


def test_ode_unitary_limit(system4, rho0):
    block, spectrum = system4
    req = engines.EvolutionRequest(rho0, t=math.pi, gamma=math.inf, dt=1e-3 / 4.0)
    out = engines.evolve_ode(block, spectrum, req)
    ref = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=math.pi))
    assert np.abs(out.entries - ref.entries).max() <= 1e-8


def test_ode_fourth_order_convergence(system4, rho0):
    block, spectrum = system4
    gamma = 100.0
    ref = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=1.0, gamma=gamma))
    errs = []
    for dt in (4e-3, 2e-3):
        out = engines.evolve_ode(block, spectrum, engines.EvolutionRequest(rho0, t=1.0, gamma=gamma, dt=dt))
        errs.append(np.abs(out.entries - ref.entries).max())
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_ode_default_step(system4):
    block, _ = system4
    assert engines.default_ode_step(block) == pytest.approx(1e-3 / 4.0, rel=1e-12)


def test_ode_diverging_step_reports_numerical_failure(system4, rho0):
    block, spectrum = system4
    with pytest.raises(NumericalError):
        engines.evolve_ode(block, spectrum, engines.EvolutionRequest(rho0, t=50.0, gamma=1.0, dt=5.0))


def test_ode_output_state_invariants(system4, rho0):
    block, spectrum = system4
    out = engines.evolve_ode(block, spectrum, engines.EvolutionRequest(rho0, t=2.0, gamma=10.0))
    assert out.violations(hermitian_tol=1e-12, trace_tol=1e-9, psd_floor=-1e-7) == []


def restart_rk4(block, rho, t, gamma, dt):
    """Reference: one Runge-Kutta run from t = 0 to t, one step matrix product per step."""
    if t == 0.0:
        return rho.entries.astype(complex)
    gen = engines._first_order_superoperator(block.entries, gamma)
    n_full = int(t / dt)
    remainder = t - n_full * dt
    step = engines._rk4_step(gen, dt, np.eye(16, dtype=complex))
    vec = rho.entries.astype(complex).reshape(16)
    for _ in range(n_full):
        vec = step @ vec
    if remainder > 1e-15 * t:
        vec = engines._rk4_step(gen, remainder, vec)
    out = vec.reshape(4, 4)
    return 0.5 * (out + out.conj().T)


def test_ode_grid_march_equals_restarts(system4):
    """An unsorted grid, with repeated times and t = 0, gives each time the bits of a
    call at that time alone, and each of those is within rounding of a stepwise run.

    Both compute the power step^n, n = int(t / dt), then the same shortened step, on
    vec(rho0) with ||vec(rho0)||_2 = ||rho0||_F <= 1.  Take the matrix-vector rounding
    bound: a 16-term complex product A x errs by at most c ||x||_2 with c = 16u,
    u = 2^-53, when ||A||_2 <= 1 (to first order in u).  The step is normal, so
    ||step||_2 = max |p(z)| over z = dt x eigenvalue of the generator.  On the
    imaginary axis |p(z)| <= 1 (gamma = inf) and a damping Re z < 0 lowers it, so
    no power of the step amplifies an error; evaluating |p(z)| can still read 1 ulp
    above 1, and the bound carries the growth s^n of the computed s = max(1, |p(z)|).
    * The stepwise run makes n products: at most n c off step^n x.
    * The engine's ladder[j] is off step^(2^j) by e_j, where e_0 = 0 and a squaring
      gives e_(j+1) <= 2 e_j + c, so e_j <= (2^j - 1) c.  Applying it adds
      e_j + c = 2^j c, and over the set bits of n that sums to n c.
    * The shortened step is 4 products in each: at most 4 c more in each.
    Re-Hermitizing does not grow the Frobenius norm, which bounds the largest entry,
    so the two differ by at most 2 (n + 4) c: 7.1e-12 at n = 2000, against a gap of
    5.3e-14 there.
    """
    block, spectrum = system4
    dt, c = 1e-3, 16.0 * 2.0**-53
    mixed = random_state(np.random.default_rng(31), spectrum.basis_order)
    grid = np.concatenate([np.linspace(0.0, 2.0, 9), [1.3, 0.0, 0.25, 1.3, 2.0 / 3.0]])
    for gamma in (10.0, math.inf):
        zs = dt * np.linalg.eigvals(oracles.first_order_generator(block, gamma))
        s = max(1.0, np.abs(1 + zs + zs**2 / 2 + zs**3 / 6 + zs**4 / 24).max())
        for rho in (experiments.initial_state(), mixed):
            together = engines.evolve("ode", block, spectrum, engines.EvolutionRequest(rho, grid, gamma, dt=dt))
            assert together.entries.shape == (grid.size, 4, 4)
            for j, t in enumerate(grid):
                one = engines.evolve_ode(block, spectrum, engines.EvolutionRequest(rho, float(t), gamma, dt=dt))
                assert np.array_equal(together.entries[j], one.entries)
                stepwise = restart_rk4(block, rho, float(t), gamma, dt)
                n = int(t / dt)
                assert np.abs(one.entries - stepwise).max() <= 2.0 * (n + 4) * c * s**n
    empty = engines.evolve_ode(block, spectrum, engines.EvolutionRequest(mixed, np.array([]), 10.0))
    assert empty.entries.shape == (0, 4, 4)


def test_ode_march_within_rk4_error_of_expm(system4):
    """Third oracle for the first-order generator: expm of the 16x16
    superoperator on row-major vec(rho), built here from the block.

    The generator G is a polynomial in the real symmetric C = H x I - I x H^T,
    so it is normal, and the RK4 step is the degree-4 Taylor polynomial p of
    exp(dt G).  Where |p(z)| <= 1 at every z = dt * eigenvalue of G (checked
    below), and Re z <= 0, n steps are off by at most n |p(z) - e^z| <=
    n |z|^5 e^|z| / 120 at the largest |z|, in the Frobenius norm
    (||rho0||_F <= 1), which bounds the largest entry.
    """
    pytest.importorskip("scipy.linalg")
    block, spectrum = system4
    dt = 2e-3
    grid = np.array([math.pi, 0.0, 0.5, 2.0, 0.5 + 1e-4])
    mixed = random_state(np.random.default_rng(41), spectrum.basis_order)
    for gamma in (10.0, 100.0, math.inf):
        zs = dt * np.linalg.eigvals(oracles.first_order_generator(block, gamma))
        assert np.abs(1 + zs + zs**2 / 2 + zs**3 / 6 + zs**4 / 24).max() <= 1.0
        z = np.abs(zs).max()
        for rho in (experiments.initial_state(), mixed):
            march = engines.evolve_ode(block, spectrum, engines.EvolutionRequest(rho, grid, gamma, dt=dt))
            for j, t in enumerate(grid):
                exact = oracles.first_order_expm(block, rho, t, gamma)
                bound = (math.floor(t / dt) + 1) * z**5 * math.exp(z) / 120.0 + 1e-12
                assert np.abs(march.entries[j] - exact).max() <= bound


@settings(derandomize=True, max_examples=100, deadline=None)
@given(alpha=st.floats(1.0, 20.0, exclude_min=True), m=st.integers(1, 5), n=st.integers(1, 5),
       r=st.one_of(st.just(0.0), st.floats(0.001, 0.5)), seed=st.integers(0, 2**32 - 1),
       t=st.floats(0.0, 2.0 * math.pi), extra=st.integers(0, 2**20), fraction=st.floats(0.0, 1.0))
@example(alpha=20.0, m=5, n=5, r=0.0, seed=0, t=math.pi, extra=2**20, fraction=0.5)
def test_ode_within_rk4_error_of_expm_everywhere(alpha, m, n, r, seed, t, extra, fraction):
    """The bound of test_ode_march_within_rk4_error_of_expm, (floor(t/dt) + 1)
    |z|^5 e^|z| / 120 + 1e-12 at the largest |z| = dt x |eigenvalue of G|, over
    random (alpha, m, n), R (gamma = inf included) and mixed states.  The step is
    chosen so that |z| = 0.02, and a second time lies beyond 2^20 steps, so the
    ladder of step powers is 21 or 22 levels deep there.  Evaluating |p(z)| can read
    1 ulp above 1 where it is 1 in exact arithmetic, so the bound carries the growth
    s^n of the computed s = max(1, |p(z)|): |p^n - e^(nz)| <= n s^(n-1) |p - e^z|.
    """
    pytest.importorskip("scipy.linalg")
    block, spectrum = scaled_system(alpha, model.ModeIndices(m, n))
    gamma = experiments.kick_rate(r)
    rho = random_state(np.random.default_rng(seed), spectrum.basis_order)
    eigenvalues = np.linalg.eigvals(oracles.first_order_generator(block, gamma))
    dt = 0.02 / np.abs(eigenvalues).max()
    zs = dt * eigenvalues
    z = np.abs(zs).max()
    s = max(1.0, np.abs(1 + zs + zs**2 / 2 + zs**3 / 6 + zs**4 / 24).max())
    grid = np.array([t, (2**20 + extra + fraction) * dt])
    out = engines.evolve_ode(block, spectrum, engines.EvolutionRequest(rho, grid, gamma, dt=dt))
    for j, t_j in enumerate(grid.tolist()):
        steps = math.floor(t_j / dt)
        bound = (steps + 1) * z**5 * math.exp(z) / 120.0 * s**steps + 1e-12
        assert np.abs(out.entries[j] - oracles.first_order_expm(block, rho, t_j, gamma)).max() <= bound


# ----------------------------------------------------------------- monte carlo


def test_monte_carlo_requires_seed_and_trajectories(system4, rho0):
    block, spectrum = system4
    with pytest.raises(ValidationError):
        engines.evolve_monte_carlo(block, spectrum, engines.EvolutionRequest(rho0, t=1.0, gamma=10.0, n_traj=100))
    with pytest.raises(ValidationError):
        engines.evolve_monte_carlo(block, spectrum, engines.EvolutionRequest(rho0, t=1.0, gamma=10.0, seed=1))
    with pytest.raises(ValidationError):
        engines.evolve_monte_carlo(
            block, spectrum, engines.EvolutionRequest(rho0, t=1.0, gamma=math.inf, n_traj=10, seed=1))


def test_monte_carlo_zero_block_exact():
    params = model.SystemParams(0.0, 0.0, 0.1, 0.1)
    modes = model.ModeIndices(1, 1)
    block = model.build_hamiltonian(params, modes)
    spectrum = oracles.spectrum_numeric(block)
    rho = engines.DensityMatrix.basis_state(0, modes.basis_order())
    result = engines.evolve_monte_carlo(
        block, spectrum, engines.EvolutionRequest(rho, t=3.0, gamma=2.0, n_traj=500, seed=4))
    np.testing.assert_allclose(result.entries, rho.entries, atol=1e-14)


def test_monte_carlo_deterministic_bits(system4, rho0):
    block, spectrum = system4
    req = engines.EvolutionRequest(rho0, t=1.2, gamma=50.0, n_traj=4000, seed=123)
    a = engines.evolve_monte_carlo(block, spectrum, req)
    b = engines.evolve_monte_carlo(block, spectrum, req)
    assert np.array_equal(a.entries, b.entries)
    c = engines.evolve_monte_carlo(block, spectrum,
                                   engines.EvolutionRequest(rho0, t=1.2, gamma=50.0, n_traj=4000, seed=124))
    assert not np.array_equal(a.entries, c.entries)


def test_monte_carlo_converges_to_poisson(system4, rho0):
    block, spectrum = system4
    req = engines.EvolutionRequest(rho0, t=math.pi / 4, gamma=100.0, n_traj=100_000, seed=0)
    result = engines.evolve_monte_carlo(block, spectrum, req)
    exact = engines.evolve_poisson(block, spectrum, req)
    dev = np.abs(result.entries - exact.entries)
    assert np.all(dev <= 3.0 * oracles.kick_standard_error(block, rho0, math.pi / 4, 100.0, 100_000) + 1e-12)


# ------------------------------------------------- published rho(t) expression


def test_closed_form_rho_initial_state(system4, rho0):
    block, spectrum = system4
    out = engines.closed_form_rho(block, spectrum, t=0.0, gamma=math.inf)
    assert np.trace(out.entries).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(out.entries, rho0.entries, atol=1e-12)


def test_closed_form_rho_matches_unitary(system4, rho0):
    block, spectrum = system4
    for t in (math.pi / 8, math.pi / 4, math.pi / 2):
        lit = engines.closed_form_rho(block, spectrum, t=t, gamma=math.inf)
        ref = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=t))
        assert np.abs(lit.entries - ref.entries).max() <= 1e-9


def test_closed_form_rho_matches_reference_engine(system4, rho0):
    block, spectrum = system4
    lit = engines.closed_form_rho(block, spectrum, t=math.pi / 4, gamma=100.0)
    ref = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=math.pi / 4, gamma=100.0))
    assert np.abs(lit.entries - ref.entries).max() <= 1e-9


def test_closed_form_rho_rejects_degenerate_couplings(system4):
    _, spectrum = system4
    decoupled = model.build_hamiltonian(model.SystemParams(1.0, 0.0, 0.1, 0.1), model.ModeIndices(1, 1))
    assert (decoupled.a, decoupled.mu) == (0.0, 1.0)
    with pytest.raises(ValidationError):
        engines.closed_form_rho(decoupled, spectrum, 1.0, 10.0)


# ------------------------------------------------------------ cross-engine spot


def test_all_engines_agree_at_reference_point(system4, rho0):
    block, spectrum = system4
    req = engines.EvolutionRequest(rho0, t=math.pi / 4, gamma=100.0, dt=1e-3 / 4.0)
    eig = engines.evolve_eigenbasis(block, spectrum, req)
    ode = engines.evolve_ode(block, spectrum, req)
    poi = engines.evolve_poisson(block, spectrum, req)
    assert np.abs(eig.entries - ode.entries).max() <= 1e-6
    # exact kick average differs from the first-order engine only at O(R^2)
    assert np.abs(eig.entries - poi.entries).max() <= 5e-3
    for state in (eig, ode, poi):
        assert state.violations(hermitian_tol=1e-12, trace_tol=1e-9, psd_floor=-1e-7) == []


# ------------------------------------------------------ batched dephasing kernel


def per_point_transform(engine, spectrum, rho, t, gamma):
    """The 2-D per-point transform the engines computed before batching."""
    v = spectrum.eigenvectors
    delta = spectrum.eigenvalues[:, None] - spectrum.eigenvalues[None, :]
    if engine == "poisson":
        factor = np.exp(gamma * t * np.expm1(-1j * delta / gamma))
    elif engine == "unitary" or math.isinf(gamma):
        factor = np.exp(-1j * delta * t)
    else:
        factor = np.exp(-1j * delta * t - delta * delta * t / (2.0 * gamma))
    return v @ ((v.T @ rho.entries @ v) * factor) @ v.T


DEPHASING_ENGINES = ("eigen", "poisson", "unitary")


@pytest.mark.parametrize("engine", DEPHASING_ENGINES)
@pytest.mark.parametrize("alpha", [1.5, 4.0, 12.0])
def test_batched_engines_equal_per_point(engine, alpha):
    full = np.linspace(0.0, 2.0 * math.pi, 37)
    r_values = (0.0, 1e-3, 0.1, 0.5) if engine != "poisson" else (1e-3, 0.1, 0.5)
    if engine == "poisson":  # the exact kick average needs finite gamma, R > 0
        with pytest.raises(ValidationError):
            experiments.sweep(experiments.SweepSpec(alpha, (0.0,), full, engine=engine))
    block, spectrum = scaled_system(alpha)
    mixed = random_state(np.random.default_rng(17), spectrum.basis_order)
    targets = {sign: observables.ghz_state(sign) for sign in observables.SIGNS}
    # a full grid, a single-state stack (N = 1) and an empty one (N = 0)
    for grid in (full, np.array([1.3]), np.empty(0)):
        series = experiments.sweep(experiments.SweepSpec(alpha, r_values, grid, engine=engine))
        for r in r_values:
            gamma = experiments.kick_rate(r)
            assert series.purities[r].shape == grid.shape
            for rho0 in (experiments.initial_state(), mixed):
                batched = engines.evolve(engine, block, spectrum, engines.EvolutionRequest(rho0, grid, gamma))
                assert batched.entries.shape == (grid.size, 4, 4)
                for j, t in enumerate(grid):
                    one = engines.evolve(engine, block, spectrum, engines.EvolutionRequest(rho0, float(t), gamma))
                    assert np.array_equal(batched.entries[j], one.entries)
                    assert np.array_equal(one.entries, per_point_transform(engine, spectrum, rho0, float(t), gamma))
                    if rho0 is mixed:
                        continue
                    for sign, target in targets.items():
                        assert series.probabilities[(r, sign)][j] == observables.p_ghz(one, target)
                    assert series.purities[r][j] == observables.purity(one)


def test_closed_form_rho_vectorised_equals_scalar(system4):
    block, spectrum = system4
    grid = np.linspace(0.0, 2.0 * math.pi, 64)
    gammas = (math.inf, 1000.0, 10.0)
    for gamma in gammas:
        stacked = engines.closed_form_rho(block, spectrum, grid, gamma)
        assert stacked.entries.shape == (grid.size, 4, 4)
        for j, t in enumerate(grid):
            scalar = engines.closed_form_rho(block, spectrum, float(t), gamma)
            assert np.array_equal(stacked.entries[j], scalar.entries)
    # the flattened (gamma, T) grid, one gamma per time, in one call
    rt = engines.closed_form_rho(block, spectrum, np.tile(grid, len(gammas)), np.repeat(gammas, grid.size))
    assert rt.entries.shape == (len(gammas) * grid.size, 4, 4)
    for k, gamma in enumerate(gammas):
        stacked = engines.closed_form_rho(block, spectrum, grid, gamma)
        assert np.array_equal(rt.entries[k * grid.size:(k + 1) * grid.size], stacked.entries)


@pytest.mark.parametrize("engine", DEPHASING_ENGINES)
@pytest.mark.parametrize("alpha", [1.5, 4.0, 12.0])
def test_gamma_grid_call_equals_per_gamma_calls(engine, alpha):
    """One call over a tiled (R, T) grid with one gamma per time has the bits
    of one call per R; eigen and unitary mix gamma = inf into the grid."""
    grid = np.linspace(0.0, 2.0 * math.pi, 37)
    r_values = (1e-3, 0.0, 0.1, 0.5, 0.0) if engine != "poisson" else (1e-3, 0.1, 0.5)
    gammas = [experiments.kick_rate(r) for r in r_values]
    block, spectrum = scaled_system(alpha)
    mixed = random_state(np.random.default_rng(23), spectrum.basis_order)
    t, gamma = np.tile(grid, len(gammas)), np.repeat(gammas, grid.size)
    for rho0 in (experiments.initial_state(), mixed):
        one_call = engines.evolve(engine, block, spectrum, engines.EvolutionRequest(rho0, t, gamma))
        assert one_call.entries.shape == (t.size, 4, 4)
        for k, g in enumerate(gammas):
            per_r = engines.evolve(engine, block, spectrum, engines.EvolutionRequest(rho0, grid, g))
            assert np.array_equal(one_call.entries[k * grid.size:(k + 1) * grid.size], per_r.entries)


@pytest.mark.parametrize("engine", DEPHASING_ENGINES)
def test_signed_zero_difference_keeps_the_bits(engine):
    """At omega = 0 the eigenvalues are (0, -2a, 2a, -0.0), so Ep - Eq holds a -0.0
    beside +0.0 and the gather reuses the +0.0 factor; the bits, signed zeros
    included, are those of the factor over all 16 differences."""
    block = model.build_hamiltonian(model.SystemParams(0.0, 1.0, 0.1, 0.1), model.ModeIndices(1, 1))
    spectrum = model.spectrum_analytic(block)
    delta = spectrum.eigenvalues[:, None] - spectrum.eigenvalues[None, :]
    assert np.signbit(delta[3, 0]) and not np.signbit(delta[0, 3])
    grid = np.linspace(0.0, 30.0, 11)
    for gamma in ((10.0, 1e4) if engine == "poisson" else (math.inf, 10.0)):
        for rho0 in (engines.DensityMatrix.basis_state(2, spectrum.basis_order),
                     random_state(np.random.default_rng(5), spectrum.basis_order)):
            batched = engines.evolve(engine, block, spectrum, engines.EvolutionRequest(rho0, grid, gamma))
            for j, t in enumerate(grid):
                one = per_point_transform(engine, spectrum, rho0, float(t), gamma)
                assert batched.entries[j].view(np.uint64).tolist() == one.view(np.uint64).tolist()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(alpha=st.floats(1.0, 20.0, exclude_min=True), m=st.integers(1, 5), n=st.integers(1, 5),
       r=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
@example(alpha=1.0000000000000002, m=1, n=3, r=0.01, seed=0)  # omega ~ 2e-8: near-degenerate differences
def test_factor_from_distinct_differences_equals_full_factor(alpha, m, n, r, seed):
    """_dephased evaluates phi once per distinct Ep - Eq and gathers; that has
    the bits of phi over all 16 differences."""
    block, spectrum = scaled_system(alpha, model.ModeIndices(m, n))
    rho = random_state(np.random.default_rng(seed), spectrum.basis_order)
    t = np.linspace(0.0, 7.0, 11)
    gamma = np.repeat([experiments.kick_rate(r), 3.0], [6, 5])
    def phi(delta, t, gamma):
        return np.exp(-1j * delta * t - delta * delta * t / (2.0 * gamma))
    delta = spectrum.eigenvalues[:, None] - spectrum.eigenvalues[None, :]
    full = engines.dephase(spectrum, rho, phi(delta, t[:, None, None], gamma[:, None, None]))
    gathered = engines._dephased(spectrum, rho, t, gamma, phi)
    assert np.array_equal(gathered.entries, full)


def trajectory_kicks(t, gamma, n, seed, tail_tol=1e-12):
    """Kick count of each trajectory, each drawn by inverting the Poisson CDF."""
    k_max = engines._poisson_cutoff(gamma * t, tail_tol)
    cdf = engines._poisson_cdf(gamma * t, k_max, np.array([math.lgamma(k + 1.0) for k in range(k_max + 1)]))
    return np.searchsorted(cdf, engines._trajectory_uniforms(seed, n), side="right")


def per_pass_uniforms(seed, n):
    """The splitmix64 uniforms as computed before the passes ran in place on
    one buffer: every pass allocates a new array."""
    idx = np.arange(n, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + (idx + np.uint64(1)) * engines._SM64_GAMMA
    z = (z ^ (z >> np.uint64(30))) * engines._SM64_MIX1
    z = (z ^ (z >> np.uint64(27))) * engines._SM64_MIX2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.one_of(st.sampled_from([0, -1, -12345, 7, 2**63 + 5, 2**64 - 1]), st.integers(-2**64, 2**64 - 1)),
       n=st.integers(1, 3000))
@example(seed=0, n=3000)
@example(seed=-1, n=1)
@example(seed=2**64 - 1, n=3000)
def test_in_place_uniforms_equal_per_pass_formula(seed, n):
    assert np.array_equal(engines._trajectory_uniforms(seed, n), per_pass_uniforms(seed, n))


def per_trajectory_monte_carlo(spectrum, rho, kicks, gamma):
    """Mean over every trajectory, one state per draw."""
    v = spectrum.eigenvectors
    delta = spectrum.eigenvalues[:, None] - spectrum.eigenvalues[None, :]
    states = v @ ((v.T @ rho.entries @ v) * np.exp(-1j * delta * (kicks[:, None, None] / gamma))) @ v.T
    return states.mean(axis=0)


def assert_grouped_stack_equals_per_state(spectrum, rho, kicks, gamma):
    """dephase of the distinct kick counts, the stack the Monte Carlo engine
    averages, equals V X V^T taken one state at a time."""
    v = spectrum.eigenvectors
    delta = spectrum.eigenvalues[:, None] - spectrum.eigenvalues[None, :]
    phi = np.exp(-1j * delta * (np.unique(kicks)[:, None, None] / gamma))
    stack = engines.dephase(spectrum, rho, phi)
    assert stack.shape == phi.shape
    for x, state in zip((v.T @ rho.entries @ v) * phi, stack):
        assert np.array_equal(state, v @ x @ v.T)


def test_grouped_monte_carlo_matches_per_trajectory_mean(system4, rho0):
    block, spectrum = system4
    mixed = random_state(np.random.default_rng(23), spectrum.basis_order)
    n = 5000
    for r, t, rho, seed in ((0.001, math.pi, rho0, 0), (0.01, math.pi / 4, rho0, 7), (0.1, 2.0, mixed, 99)):
        req = engines.EvolutionRequest(rho, t=t, gamma=1.0 / r, n_traj=n, seed=seed)
        result = engines.evolve_monte_carlo(block, spectrum, req)
        kicks = trajectory_kicks(t, 1.0 / r, n, seed)
        assert np.abs(result.entries - per_trajectory_monte_carlo(spectrum, rho, kicks, 1.0 / r)).max() <= 1e-13
        for stack_kicks in (kicks, kicks[:1], kicks[:0]):  # many distinct counts, one (N = 1), none (N = 0)
            assert_grouped_stack_equals_per_state(spectrum, rho, stack_kicks, 1.0 / r)
    single = engines.evolve_monte_carlo(
        block, spectrum, engines.EvolutionRequest(rho0, t=1.0, gamma=100.0, n_traj=1, seed=3))
    one_kick_count = per_trajectory_monte_carlo(spectrum, rho0, trajectory_kicks(1.0, 100.0, 1, 3), 100.0)
    assert np.abs(single.entries - one_kick_count).max() <= 1e-13


def test_monte_carlo_grid_equals_per_point(system4, rho0):
    block, spectrum = system4
    # the second grid puts its largest T first, so the shared log-factorial
    # table is built for that T and the others take prefixes of it
    for grid in (np.linspace(0.0, math.pi, 9), np.array([math.pi, 0.0, 0.4, 2.5, 0.4, 1e-3])):
        batched = engines.evolve_monte_carlo(
            block, spectrum, engines.EvolutionRequest(rho0, t=grid, gamma=100.0, n_traj=3000, seed=5))
        for j, t in enumerate(grid):
            one = engines.evolve_monte_carlo(
                block, spectrum, engines.EvolutionRequest(rho0, t=float(t), gamma=100.0, n_traj=3000, seed=5))
            assert np.array_equal(batched.entries[j], one.entries)


def test_violations_cover_every_state_of_a_stack(system4, rho0):
    block, spectrum = system4
    grid = np.linspace(0.0, math.pi, 16)
    stack = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=grid, gamma=30.0))
    assert stack.violations() == []
    stack.entries[5] *= 1.01  # one state of the stack loses unit trace
    assert [v for v in stack.violations() if "trace" in v]
