import ast
import math
import os
import re
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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


WRONG_TYPES = {
    "n_traj=2.5": lambda rho: engines.EvolutionRequest(rho, 1.0, 10.0, n_traj=2.5, seed=1),  # a trace-0.8 state
    "n_traj=2.0": lambda rho: engines.EvolutionRequest(rho, 1.0, 10.0, n_traj=2.0, seed=1),
    "n_traj=True": lambda rho: engines.EvolutionRequest(rho, 1.0, 10.0, n_traj=True, seed=1),  # ran as 1
    "seed=1.5": lambda rho: engines.EvolutionRequest(rho, 1.0, 10.0, n_traj=10, seed=1.5),
    "seed=False": lambda rho: engines.EvolutionRequest(rho, 1.0, 10.0, n_traj=10, seed=False),
    "t=1+1j": lambda rho: engines.EvolutionRequest(rho, 1 + 1j),
    "t='1'": lambda rho: engines.EvolutionRequest(rho, "1"),  # was accepted as 1.0
    "t=True": lambda rho: engines.EvolutionRequest(rho, True),
    "t=10**400": lambda rho: engines.EvolutionRequest(rho, 10**400),
    "tail_tol='x'": lambda rho: engines.EvolutionRequest(rho, 1.0, tail_tol="x"),
    "dt='x'": lambda rho: engines.EvolutionRequest(rho, 1.0, dt="x"),
    "gamma='x'": lambda rho: engines.EvolutionRequest(rho, 1.0, "x"),
    "gamma=[1j]": lambda rho: engines.EvolutionRequest(rho, np.ones(1), [1j]),
    "scaled_system('4')": lambda rho: scaled_system("4"),
    "closed_form_pghz(r='0')": lambda rho: observables.closed_form_pghz(1.0, 4.0, "0", "minus"),
    "EvolutionRequest(array)": lambda rho: engines.EvolutionRequest(np.eye(4) / 4, 1.0),  # not a DensityMatrix
    "p_ghz(rho, 'minus')": lambda rho: observables.p_ghz(rho, "minus"),  # a sign, not a GHZTarget
    "physical_units('8.95e6')": lambda rho: experiments.physical_units("8.95e6", 4.0, (0.01,)),
    "scaled_system([4.0])": lambda rho: scaled_system([4.0]),  # unhashable, the memo's key
    "ModeIndices(1.5, 1)": lambda rho: model.ModeIndices(1.5, 1),  # built the basis g,1.5,1 ... g,0.5,0
    "ModeIndices(1.0, 1)": lambda rho: model.ModeIndices(1.0, 1),
    "ModeIndices(True, 2)": lambda rho: model.ModeIndices(True, 2),  # built g,True,2
    "ModeIndices('1', 1)": lambda rho: model.ModeIndices("1", 1),
    "build_hamiltonian('1')": lambda rho: model.build_hamiltonian("1", 1.0, model.ModeIndices(1, 1)),
    "clamp_probability('1')": lambda rho: observables.clamp_probability("1"),
    "clamp_probability(1j)": lambda rho: observables.clamp_probability(1j),  # returned 1j
    "sweep(t_grid=['x'])": lambda rho: experiments.sweep(4.0, (0.1,), ["x"], "eigen"),
    # ints past DBL_MAX raised OverflowError where they became floats
    "build_hamiltonian(10**400)": lambda rho: model.build_hamiltonian(10**400, 1.0, model.ModeIndices(1, 1)),
    "kick_rate(10**400)": lambda rho: experiments.kick_rate(10**400),
    "physical_units(10**400)": lambda rho: experiments.physical_units(10**400, 4.0, (0.01,)),
    "gamma=10**400": lambda rho: engines.EvolutionRequest(rho, 1.0, 10**400),
    "dt=10**400": lambda rho: engines.EvolutionRequest(rho, 1.0, 10.0, dt=10**400),
    # a modes that is not a ModeIndices raised AttributeError
    "build_hamiltonian(modes='x')": lambda rho: model.build_hamiltonian(1.0, 1.0, "x"),
    "scaled_system(modes=(1, 1))": lambda rho: scaled_system(4.0, (1, 1)),
    "initial_state('x')": lambda rho: experiments.initial_state("x"),
}


@pytest.mark.parametrize("call", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_wrong_types_are_validation_errors(rho0, call):
    """A value of the wrong type is a ValidationError, not a TypeError, a state off by its
    trace, or a value read as another type; integers must be integers (not bools or floats)
    and reals real."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            call(rho0)


def test_numpy_integers_and_reals_are_accepted(rho0):
    req = engines.EvolutionRequest(rho0, np.float64(1.0), np.int64(10), np.float32(1e-9), 1, np.int64(5), np.int64(3))
    mc = engines.evolve_monte_carlo(*scaled_system(4.0), req)
    assert mc.violations() == [] and np.array_equal(mc.entries, engines.evolve_monte_carlo(
        *scaled_system(4.0), engines.EvolutionRequest(rho0, 1.0, 10.0, 1e-9, 1.0, 5, 3)).entries)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(t=st.one_of(st.floats(), st.floats(-1e-300, 1e-300)))
@example(t=-0.0)
@example(t=-1e-300)
@example(t=-5e-324)
@example(t=math.nan)
@example(t=-math.inf)
@example(t=math.inf)
@example(t=1.7976931348623157e308)
def test_a_float_t_is_refused_where_and_as_the_array_check_refuses_it(rho0, t):
    """A float t skips numpy; its np.float64, which takes the array check, gets the same
    outcome: both refused with one message, or both accepted with the same bits."""
    def outcome(value):
        try:
            return engines.check_times(value)
        except ValidationError as exc:
            return str(exc)

    fast, checked = outcome(t), outcome(np.float64(t))
    if isinstance(checked, str):
        assert fast == checked and checked.startswith("t must be finite and nonnegative")
        with pytest.raises(ValidationError, match=re.escape(checked)):
            engines.EvolutionRequest(rho0, t)
    else:
        assert type(fast) is float and np.float64(fast).tobytes() == checked.tobytes()
        assert engines.EvolutionRequest(rho0, t).t is t


def test_a_float_t_is_checked_without_numpy(monkeypatch):
    def no_numpy(*args, **kwargs):
        raise AssertionError("numpy was called")

    for name in ("asarray", "isfinite", "all"):
        monkeypatch.setattr(engines.np, name, no_numpy)
    assert engines.check_times(1.5) == 1.5
    with pytest.raises(ValidationError, match="got -1e-300$"):
        engines.check_times(-1e-300)


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
    only expm from scipy (and the dataclass decorator of its peak records, and the
    exact arithmetic of its eigenvalue differences)."""
    tree = ast.parse(Path(oracles.__file__).read_text())
    assert {"first_order_gap_bound", "first_order_generator", "first_order_expm"} <= {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    imported = {(node.module, alias.name) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported == {("iondeco.engines", "DensityMatrix"), ("iondeco.errors", "NumericalError"),
                        ("iondeco.model", "_SIGN_SIGNIFICANCE"), ("iondeco.model", "Spectrum"),
                        ("scipy.linalg", "expm"), ("dataclasses", "dataclass"), ("fractions", "Fraction")}
    assert {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names} == {
        "math", "numpy"}


def test_density_matrix_validation():
    rho = engines.DensityMatrix.basis_state(2, observables.GHZ_BASIS)
    assert rho.violations() == []
    bad = engines.DensityMatrix(np.eye(4, dtype=complex), observables.GHZ_BASIS)
    assert any("trace" in v for v in bad.violations())
    with pytest.raises(ValidationError):
        bad.require_valid()


def test_violations_report_the_least_eigenvalue_below_the_floor(system4, rho0):
    """A state with an eigenvalue below the floor fails the Cholesky certificate, and eigvalsh's
    least eigenvalue is reported, alone and as one state of a stack on the 91 times of ode_sweep."""
    bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    message = ["minimum eigenvalue -2.000e-01 below -1e-10"]
    assert engines.DensityMatrix(bad, observables.GHZ_BASIS).violations() == message
    block, spectrum = system4
    grid = np.radians(np.arange(0.0, 181.0, 2.0))
    stack = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=grid, gamma=100.0))
    assert stack.entries.shape == (91, 4, 4) and stack.violations() == []
    stack.entries[45] = bad
    assert stack.violations() == message


def placed_state(rng, least: float) -> np.ndarray:
    """A seeded Hermitian unit-trace 4x4 state with the eigenvalue least and three above 0.02, in a
    random unitary basis; least = 0 is kept exact as a zero row and column at a seeded index, the
    other three in a random 3x3 basis."""
    w = rng.uniform(0.05, 1.0, 3)
    eigenvalues = np.concatenate(([least], w * ((1.0 - least) / w.sum()))) if least else w / w.sum()
    n = eigenvalues.size
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    h = (q * eigenvalues) @ q.conj().T
    keep = np.arange(4) if least else np.delete(np.arange(4), rng.integers(4))
    rho = np.zeros((4, 4), dtype=complex)
    rho[np.ix_(keep, keep)] = 0.5 * (h + h.conj().T)
    return rho


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # the counter is cleared per example
@given(floor=st.sampled_from([-1e-10, -1e-7, 0.0]), size=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_positivity_certificate_gives_the_eigvalsh_verdict(linalg_calls, floor, size, seed):
    """violations() equals the eigvalsh formula it replaced on a seeded state or stack of up to
    four, each state's least eigenvalue at floor (1 + s) or floor (1 - s), s log-uniform in
    [s_min, 1].  s_min is 1e-6, or more where |floor| s_min would be below 1e-14, about 45 u |H|:
    that near the floor both methods are inside their rounding (at 1e-16, -1e-10 (1 +- 1e-6), they
    differed on 51 of 2,000 such states).  floor = 0 places an exact zero eigenvalue, which the
    factorisation refuses, so eigvalsh decides, rounding and all; elsewhere it runs only when a
    state lies below the floor."""
    linalg_calls.clear()
    rng = np.random.default_rng(seed)
    below = rng.random(size) < 0.5
    s = max(1e-6, 1e-14 / abs(floor) if floor else 1.0) ** rng.random(size)
    entries = np.array([placed_state(rng, least) for least in (floor * (1.0 + np.where(below, s, -s))).tolist()])
    entries = entries[0] if size == 1 else entries
    found = engines.DensityMatrix(entries, observables.GHZ_BASIS).violations(psd_floor=floor)
    assert linalg_calls == ["cholesky"] + ["eigvalsh"] * (floor == 0.0 or bool(below.any()))
    if floor:  # at 0 eigvalsh may read a singular state's zero as -1e-17, a verdict the certificate keeps
        assert bool(found) == bool(below.any())
    assert found == oracles.eigvalsh_violations(entries, psd_floor=floor)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_initial_state_is_a_validation_error(bad):
    """A non-finite entry is reported as a violation before the Cholesky factorisation or an
    eigen solve, which would raise LinAlgError on it, and before any arithmetic that would warn."""
    entries = engines.DensityMatrix.basis_state(2, observables.GHZ_BASIS).entries.copy()
    entries[1, 3] = bad
    rho = engines.DensityMatrix(entries, observables.GHZ_BASIS)
    assert rho.violations() == ["non-finite entries"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite entries"):
            engines.EvolutionRequest(rho, t=1.0)


def test_request_checks_every_state_but_the_shared_basis_arrays(linalg_calls):
    """Only the very read-only arrays of basis_state skip require_valid: a writable copy
    with the same values is checked with one Cholesky factorisation and no eigen solve,
    and bad states keep their messages."""
    rho = engines.DensityMatrix.basis_state(2, observables.GHZ_BASIS)
    with pytest.raises(ValueError):  # read-only for good: a view of a read-only array
        rho.entries.flags.writeable = True
    engines.EvolutionRequest(rho, t=1.0)
    assert linalg_calls == []
    engines.EvolutionRequest(engines.DensityMatrix(rho.entries.copy(), rho.basis_order), t=1.0)
    assert linalg_calls == ["cholesky"]
    nan = rho.entries.copy()
    nan[0, 0] = math.nan
    for entries, message in ((2.0 * rho.entries, "trace deviates from 1 by 1.000e+00"), (nan, "non-finite entries")):
        with pytest.raises(ValidationError, match=re.escape(f"invalid density matrix: {message}") + "$"):
            engines.EvolutionRequest(engines.DensityMatrix(entries, rho.basis_order), t=1.0)


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
    the first-order factor is still the bare phase of the exact differences: eigen and
    unitary give its bits, and mc (N kicks at t = N / gamma) the per-trajectory mean,
    with no RuntimeWarning."""
    block, spectrum = scaled_system(5e153)
    rho = experiments.initial_state()
    v = spectrum.eigenvectors
    delta = oracles.exact_differences(block)
    assert math.isinf(float(delta.max()) * float(delta.max()) * 6.0)
    bare = v @ ((v.T @ rho.entries @ v) * np.exp(-1j * delta * 6.0)) @ v.T
    for name in ("eigen", "unitary"):
        assert np.array_equal(engines.evolve(name, block, spectrum, engines.EvolutionRequest(rho, 6.0)).entries, bare)
    mc = engines.evolve_monte_carlo(block, spectrum, engines.EvolutionRequest(rho, 6.0, 2.0, n_traj=200, seed=1))
    per_trajectory = per_trajectory_monte_carlo(block, spectrum, rho, trajectory_kicks(6.0, 2.0, 200, 1), 2.0)
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
    bare phases exp(-i Delta T) of the exact differences bit for bit and agrees with
    U rho U^dag from a dense eigensolve of the block."""
    block, spectrum = scaled_system(alpha, model.ModeIndices(m, n))
    rho = random_state(np.random.default_rng(seed), spectrum.basis_order)
    out = engines.evolve_unitary(block, spectrum, engines.EvolutionRequest(rho, t=t, gamma=10.0)).entries
    v = spectrum.eigenvectors
    delta = oracles.exact_differences(block)
    assert np.array_equal(out, v @ ((v.T @ rho.entries @ v) * np.exp(-1j * delta * t)) @ v.T)
    w, q = np.linalg.eigh(block.entries)
    u = (q * np.exp(-1j * w * t)) @ q.conj().T
    assert np.abs(out - u @ rho.entries @ u.conj().T).max() <= 1e-12


# --------------------------------------------------------------------- poisson


def test_poisson_zero_block_is_stationary():
    modes = model.ModeIndices(1, 1)
    block = model.build_hamiltonian(0.0, 0.0, modes)
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


def test_ode_positivity_breach_is_a_numerical_error(system4, rho0):
    """Two steps of dt = 0.4 at gamma = 1 lie outside the Runge-Kutta stability region: the output
    keeps its trace and Hermiticity but not positivity, and the NumericalError names that alone."""
    block, spectrum = system4
    with pytest.raises(NumericalError, match=re.escape(
            "Runge-Kutta output invalid: minimum eigenvalue -6.765e+06 below -1e-07") + "$"):
        engines.evolve_ode(block, spectrum, engines.EvolutionRequest(rho0, t=0.8, gamma=1.0, dt=0.4))


def test_ode_output_state_invariants(system4, rho0):
    block, spectrum = system4
    out = engines.evolve_ode(block, spectrum, engines.EvolutionRequest(rho0, t=2.0, gamma=10.0))
    assert out.violations(trace_tol=1e-9, psd_floor=-1e-7) == []


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
        vec = engines._rk4_step(gen, dt, vec, remainder / dt)
    out = vec.reshape(4, 4)
    return 0.5 * (out + out.conj().T)


def test_ode_grid_march_equals_restarts(system4):
    """An unsorted grid, with repeated times and t = 0, gives each time the bits of a
    call at that time alone, and each of those is within rounding of a stepwise run.

    Both take n = int(t / dt) steps and the shortened step of length f dt,
    f = (t - n dt) / dt in [0, 1], on vec(rho0) with ||vec(rho0)||_2 = ||rho0||_F <= 1:
    the stepwise run the n steps first, the engine the shortened step first.  Both are
    polynomials in the generator G, so they commute in exact arithmetic.  Take the
    matrix-vector rounding bound: a 16-term complex product A x errs by at most
    c ||A||_2 ||x||_2 with c = 16u, u = 2^-53 (to first order in u).  G is normal and
    every z = dt x eigenvalue of G lies in the left half-disk |z| <= a = 1/2 (asserted
    below), where the step polynomial has |p(z)| <= 1 and |p(f z)| <= 1, so neither
    step amplifies an error; evaluating |p(z)| can still read 1 ulp above 1, and the
    bound carries the growth s^n of the computed s = max(1, |p(z)|).
    * The shortened step forms w_k = (dt / k) G w_(k-1), w_0 = x, ||w_k||_2 <= a^k / k!.
      w_k takes an error of at most c a^k / (k - 1)!, so the 4 products add at most
      c a e^a < c; the Horner sum in f rounds each entry at most 8 times, adding at
      most 8 u e^a < c more: under 2 c in each run, within the 4 c allowed for it.
    * The stepwise run then makes n products: at most n c.
    * The engine's ladder[j] is off step^(2^j) by e_j, where e_0 = 0 and a squaring
      gives e_(j+1) <= 2 e_j + c, so e_j <= (2^j - 1) c.  Applying it adds
      e_j + c = 2^j c, and over the set bits of n that sums to n c.
    Re-Hermitizing does not grow the Frobenius norm, which bounds the largest entry,
    so the two differ by at most 2 (n + 4) c s^n: 7.1e-12 at n = 2000, against a gap
    of 5.3e-14 there.
    """
    block, spectrum = system4
    dt, c = 1e-3, 16.0 * 2.0**-53
    mixed = random_state(np.random.default_rng(31), spectrum.basis_order)
    grid = np.concatenate([np.linspace(0.0, 2.0, 9), [1.3, 0.0, 0.25, 1.3, 2.0 / 3.0]])
    for gamma in (10.0, math.inf):
        zs = dt * np.linalg.eigvals(oracles.first_order_generator(block, gamma))
        assert np.abs(zs).max() <= 0.5 and zs.real.max() <= 1e-12
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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(alpha=st.floats(1.0, 20.0, exclude_min=True), r=st.one_of(st.just(0.0), st.floats(0.001, 0.5)),
       seed=st.integers(0, 2**32 - 1), dt=st.sampled_from([2.0**-12, 3e-4]),
       powers=st.lists(st.tuples(st.integers(0, 12), st.integers(-1, 1)), max_size=6),
       multiples=st.lists(st.integers(1, 5000), max_size=4), others=st.lists(st.floats(0.0, 1.5), max_size=4),
       repeats=st.integers(0, 3), zero=st.booleans())
@example(alpha=4.0, r=0.01, seed=0, dt=2.0**-12, powers=[(12, -1), (12, 0), (12, 1), (0, 0)],
         multiples=[3, 4096], others=[0.3, 1.0 + 2.0**-20], repeats=2, zero=True)
@example(alpha=4.0, r=0.01, seed=1, dt=3e-4, powers=[(12, 1)], multiples=[], others=[], repeats=0, zero=False)
@example(alpha=2.5, r=0.0, seed=2, dt=3e-4, powers=[], multiples=[], others=[0.0101, 0.01015], repeats=1,
         zero=False)
def test_ode_grid_gives_each_time_its_lone_bits(alpha, r, seed, dt, powers, multiples, others, repeats, zero):
    """The bits of test_ode_grid_march_equals_restarts over random grids: each time of
    an unsorted grid, with repeats and (when drawn) t = 0, reads exactly what a call at
    that time alone gives, so no time's rows leak into another's as the ladder is
    walked.  The grid holds step counts 2^k - 1, 2^k and 2^k + 1, whose set bits differ
    at every level up to k, and, at dt = 2^-12, exact multiples of dt that take no
    shortened step next to times that take one.  A one-time grid, or one whose times
    share one step count, gathers every time or none at each level, through the same
    product statement as any other grid: the examples hold both."""
    block, spectrum = scaled_system(alpha)
    gamma = experiments.kick_rate(r)
    rng = np.random.default_rng(seed)
    rho = random_state(rng, spectrum.basis_order)
    times = [0.0] * zero + [(2**k + offset) * dt for k, offset in powers] + [k * dt for k in multiples] + others
    grid = rng.permutation(times + times[:repeats])
    together = engines.evolve_ode(block, spectrum, engines.EvolutionRequest(rho, grid, gamma, dt=dt)).entries
    assert together.shape == (grid.size, 4, 4)
    for j, t in enumerate(grid.tolist()):
        one = engines.evolve_ode(block, spectrum, engines.EvolutionRequest(rho, t, gamma, dt=dt)).entries
        assert together[j].tobytes() == one.tobytes()


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
    modes = model.ModeIndices(1, 1)
    block = model.build_hamiltonian(0.0, 0.0, modes)
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


def test_closed_form_rho_damps_without_overflow():
    """At alpha = 9.4e153, R = 1e-308 (gamma = 1e308), 2 freq^2 t overflows from T of about 1
    while the decay exponent 2 freq^2 t / gamma stays near 3.5 at T = 2: the published rho(t)
    keeps the moduli of the reference engine's eigenbasis entries there (|rho_01| = 0.0073, not 0)
    as at T = 0.5.  Their phases, some u |D| t off, are rounding at this alpha."""
    block, spectrum = scaled_system(9.4e153)
    v, gamma = spectrum.eigenvectors, experiments.kick_rate(1e-308)
    t = np.array([0.5, 2.0])
    lit = v.T @ engines.closed_form_rho(block, spectrum, t, gamma).entries @ v
    req = engines.EvolutionRequest(experiments.initial_state(), t, gamma)
    ref = v.T @ engines.evolve_eigenbasis(block, spectrum, req).entries @ v
    assert np.abs(np.abs(lit) - np.abs(ref)).max() <= 1e-12
    assert abs(lit[1, 0, 1]) == pytest.approx(0.007294, abs=1e-6)


def test_closed_form_rho_rejects_degenerate_couplings(system4):
    _, spectrum = system4
    decoupled = model.build_hamiltonian(1.0, 0.0, model.ModeIndices(1, 1))
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
        assert state.violations(trace_tol=1e-9, psd_floor=-1e-7) == []


# ------------------------------------------------------ batched dephasing kernel


def per_point_transform(engine, block, spectrum, rho, t, gamma):
    """The 2-D per-point transform the engines computed before batching, on the exact differences."""
    v = spectrum.eigenvectors
    delta = oracles.exact_differences(block)
    if engine == "poisson":
        factor = np.exp(gamma * t * np.expm1(-1j * delta / gamma))
    elif engine == "unitary" or math.isinf(gamma):
        factor = np.exp(-1j * delta * t)
    else:
        factor = np.exp(-1j * delta * t - (delta * t) * (0.5 * delta / gamma))
    return v @ ((v.T @ rho.entries @ v) * factor) @ v.T


DEPHASING_ENGINES = ("eigen", "poisson", "unitary")


@pytest.mark.parametrize("engine", DEPHASING_ENGINES)
@pytest.mark.parametrize("alpha", [1.5, 4.0, 12.0])
def test_batched_engines_equal_per_point(engine, alpha):
    full = np.linspace(0.0, 2.0 * math.pi, 37)
    r_values = (0.0, 1e-3, 0.1, 0.5) if engine != "poisson" else (1e-3, 0.1, 0.5)
    if engine == "poisson":  # the exact kick average needs finite gamma, R > 0
        with pytest.raises(ValidationError):
            experiments.sweep(alpha, (0.0,), full, engine)
    block, spectrum = scaled_system(alpha)
    mixed = random_state(np.random.default_rng(17), spectrum.basis_order)
    targets = {sign: observables.ghz_state(sign) for sign in observables.SIGNS}
    # a full grid, a single-state stack (N = 1) and an empty one (N = 0)
    for grid in (full, np.array([1.3]), np.empty(0)):
        series = experiments.sweep(alpha, r_values, grid, engine)
        for r in r_values:
            gamma = experiments.kick_rate(r)
            assert series.purities[r].shape == grid.shape
            for rho0 in (experiments.initial_state(), mixed):
                batched = engines.evolve(engine, block, spectrum, engines.EvolutionRequest(rho0, grid, gamma))
                assert batched.entries.shape == (grid.size, 4, 4)
                for j, t in enumerate(grid):
                    one = engines.evolve(engine, block, spectrum, engines.EvolutionRequest(rho0, float(t), gamma))
                    assert np.array_equal(batched.entries[j], one.entries)
                    transform = per_point_transform(engine, block, spectrum, rho0, float(t), gamma)
                    assert np.array_equal(one.entries, transform)
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
    """At omega = 0 the gap 2 (mu - a) is 0, and its entry (3, 0) of Ep - Eq takes the
    conjugate of the factor at +0.0; the bits, signed zeros included, are those of the
    factor over all 16 exact differences."""
    block = model.build_hamiltonian(0.0, 0.05, model.ModeIndices(1, 1))
    spectrum = model.spectrum_analytic(block)
    grid = np.linspace(0.0, 30.0, 11)
    for gamma in ((10.0, 1e4) if engine == "poisson" else (math.inf, 10.0)):
        for rho0 in (engines.DensityMatrix.basis_state(2, spectrum.basis_order),
                     random_state(np.random.default_rng(5), spectrum.basis_order)):
            batched = engines.evolve(engine, block, spectrum, engines.EvolutionRequest(rho0, grid, gamma))
            for j, t in enumerate(grid):
                one = per_point_transform(engine, block, spectrum, rho0, float(t), gamma)
                assert batched.entries[j].view(np.uint64).tolist() == one.view(np.uint64).tolist()


def local_first_order_factor(delta, t, gamma):
    return np.exp(-1j * delta * t - (delta * t) * (0.5 * delta / gamma))


def one_finite_gamma(r):
    return 3.0 + r


def per_time_gamma(r):
    """One gamma for each of the 11 times, inf among them at R = 0."""
    return np.repeat([experiments.kick_rate(r), 3.0], [6, 5])


def per_time_finite_gamma(r):
    return np.repeat([experiments.kick_rate(r + 1e-3), 3.0], [6, 5])


@pytest.mark.parametrize("phi, gamma_of", [
    (local_first_order_factor, per_time_gamma),
    (engines.first_order_factor, one_finite_gamma),
    (engines.first_order_factor, lambda r: math.inf),
    (engines.first_order_factor, per_time_gamma),
    (engines.poisson_factor, one_finite_gamma),
    (engines.poisson_factor, per_time_finite_gamma),
], ids=["local", "first_order-finite", "first_order-inf", "first_order-per_time", "poisson-finite",
        "poisson-per_time"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(alpha=st.floats(1.0, 20.0, exclude_min=True), m=st.integers(1, 5), n=st.integers(1, 5),
       r=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
@example(alpha=1.0000000000000002, m=1, n=3, r=0.01, seed=0)  # omega ~ 2e-8: near-degenerate differences
def test_factor_from_distinct_differences_equals_full_factor(phi, gamma_of, alpha, m, n, r, seed):
    """_dephased evaluates phi once on each of the five gaps of the block, gathers, and
    conjugates the entries of a negative Ep - Eq; that has the bits of phi over all 16
    exact differences."""
    block, spectrum = scaled_system(alpha, model.ModeIndices(m, n))
    rho = random_state(np.random.default_rng(seed), spectrum.basis_order)
    t = np.linspace(0.0, 7.0, 11)
    gamma = gamma_of(r)
    delta = oracles.exact_differences(block)
    full = engines.dephase(spectrum, rho, phi(delta, t[:, None, None], np.reshape(gamma, (-1, 1, 1))))
    gathered = engines._dephased(block, spectrum, rho, t, gamma, phi)
    assert gathered.entries.view(np.uint64).tolist() == full.view(np.uint64).tolist()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(factor=st.sampled_from([engines.first_order_factor, engines.poisson_factor]),
       log_excess=st.floats(-8.0, 3.0), m=st.integers(1, 5), n=st.integers(1, 5),
       t=st.lists(st.floats(0.0, 1e5), min_size=1, max_size=20),
       gamma=st.one_of(st.floats(1e-3, 1e9), st.just(math.inf)), per_time=st.booleans())
@example(factor=engines.first_order_factor, log_excess=-8.0, m=1, n=3, t=[0.0, 1e5], gamma=math.inf,
         per_time=False)
@example(factor=engines.poisson_factor, log_excess=3.0, m=5, n=5, t=[0.0, 1.0, 1e5], gamma=1e9, per_time=True)
def test_factor_of_negated_difference_is_conjugate_bit_for_bit(factor, log_excess, m, n, t, gamma, per_time):
    """phi(-D) = conj(phi(D)) on raw bits for both factors, the identity by which
    _dephased conjugates the entries of a negative difference.  One zero is left out:
    where D t is 0 (t = 0, or D t underflows), the first-order factor is (x, +0.0) at
    D and at -D alike, so its conjugate carries -0.0; the engines' states keep their
    bits there (test_signed_zero_difference_keeps_the_bits)."""
    if factor is engines.poisson_factor and math.isinf(gamma):
        gamma = 1e9  # the Poisson factor takes finite gamma only
    block, _ = scaled_system(1.0 + 10.0**log_excess, model.ModeIndices(m, n))
    delta = oracles.exact_differences(block)
    delta = delta[delta > 0]
    t = np.array(t).reshape(-1, 1)
    gamma = np.full(t.shape, gamma) if per_time else gamma
    with np.errstate(over="ignore", under="ignore"):
        negated, conj = factor(-delta, t, gamma), factor(delta, t, gamma).conj()
    assert np.array_equal(negated, conj)
    same_bits = (negated.view(np.uint64) == conj.view(np.uint64)).reshape(negated.shape + (2,)).all(axis=-1)
    zero_phase = (delta * t == 0.0) & (factor is engines.first_order_factor)
    assert same_bits[~zero_phase].all()
    assert np.signbit(conj.imag[zero_phase]).all() and not np.signbit(negated.imag[zero_phase]).any()


def mix_uniforms(bits):
    """The uniform in [0,1) of each 64-bit mix: its top 53 bits times 2**-53."""
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


def trajectory_uniforms(seed, n):
    """The uniform of each trajectory 0..n-1, as the engine's floats once were."""
    return mix_uniforms(engines._trajectory_bits(seed, n))


def trajectory_kicks(t, gamma, n, seed, tail_tol=1e-12):
    """Kick count of each trajectory, each drawn by inverting the Poisson CDF at its float uniform."""
    if gamma * t == 0.0:
        return np.zeros(n, dtype=np.int64)
    k_max = engines._poisson_cutoff(gamma * t, tail_tol)
    cdf = engines._poisson_cdf(gamma * t, k_max, np.array([math.lgamma(k + 1.0) for k in range(k_max + 1)]))
    return np.searchsorted(cdf, trajectory_uniforms(seed, n), side="right")


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
    assert np.array_equal(trajectory_uniforms(seed, n), per_pass_uniforms(seed, n))


def per_trajectory_monte_carlo(block, spectrum, rho, kicks, gamma):
    """Mean over every trajectory, one state per draw, on the exact differences."""
    v = spectrum.eigenvectors
    delta = oracles.exact_differences(block)
    states = v @ ((v.T @ rho.entries @ v) * np.exp(-1j * delta * (kicks[:, None, None] / gamma))) @ v.T
    return states.mean(axis=0)


def assert_stack_equals_per_state(spectrum, rho, phi):
    """dephase of a stack of factors equals V X_k V^T taken one state at a time, bit for bit."""
    v = spectrum.eigenvectors
    stack = engines.dephase(spectrum, rho, phi)
    assert stack.shape == phi.shape
    per_state = np.array([v @ x @ v.T for x in (v.T @ rho.entries @ v) * phi]).reshape(phi.shape)
    assert stack.view(np.uint64).tolist() == per_state.view(np.uint64).tolist()


def test_grouped_monte_carlo_matches_per_trajectory_mean(system4, rho0):
    block, spectrum = system4
    mixed = random_state(np.random.default_rng(23), spectrum.basis_order)
    delta = spectrum.eigenvalues[:, None] - spectrum.eigenvalues[None, :]
    n = 5000
    for r, t, rho, seed in ((0.001, math.pi, rho0, 0), (0.01, math.pi / 4, rho0, 7), (0.1, 2.0, mixed, 99)):
        req = engines.EvolutionRequest(rho, t=t, gamma=1.0 / r, n_traj=n, seed=seed)
        result = engines.evolve_monte_carlo(block, spectrum, req)
        kicks = trajectory_kicks(t, 1.0 / r, n, seed)
        assert np.abs(result.entries - per_trajectory_monte_carlo(block, spectrum, rho, kicks, 1.0 / r)).max() <= 1e-13
        for stack_kicks in (kicks, kicks[:1], kicks[:0]):  # many distinct counts, one (N = 1), none (N = 0)
            phi = np.exp(-1j * delta * (np.unique(stack_kicks)[:, None, None] / (1.0 / r)))
            assert_stack_equals_per_state(spectrum, rho, phi)
    single = engines.evolve_monte_carlo(
        block, spectrum, engines.EvolutionRequest(rho0, t=1.0, gamma=100.0, n_traj=1, seed=3))
    one_kick_count = per_trajectory_monte_carlo(block, spectrum, rho0, trajectory_kicks(1.0, 100.0, 1, 3), 100.0)
    assert np.abs(single.entries - one_kick_count).max() <= 1e-13


@pytest.mark.parametrize("size", [0, 1, 2, 255, 256, 257, 1441, 5764])
def test_dephase_stack_equals_per_state(size):
    """Stack sizes about where the threaded GEMM splits its work, and those of the
    default sweep column (1441) and of the whole default grid (5764)."""
    rng = np.random.default_rng(size)
    _, spectrum = scaled_system(1.0 + 10.0 ** rng.uniform(-8, 3), model.ModeIndices(*rng.integers(1, 6, 2)))
    rho = random_state(rng, spectrum.basis_order)
    delta = spectrum.eigenvalues[:, None] - spectrum.eigenvalues[None, :]
    t = np.sort(rng.uniform(0.0, 100.0, size))[:, None, None]
    assert_stack_equals_per_state(spectrum, rho, engines.first_order_factor(delta, t, 50.0))


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


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n=st.one_of(st.integers(0, 1500).map(lambda k: 2 * k + 1), st.integers(-3, 3).map(lambda d: 65536 + d)),
       seed=st.integers(0, 2**64 - 1), r=st.floats(1e-3, 1.0),
       times=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=0, max_size=4))
@example(n=1, seed=0, r=0.01, times=[math.pi])
@example(n=65537, seed=7, r=0.001, times=[math.pi, 0.5])
def test_monte_carlo_split_keeps_kick_counts_and_bits(system4, rho0, n, seed, r, times):
    """Drawn in 1, 2 or 3 chunks, a call finds at each time of a grid holding t = 0 the histogram of
    kick counts of one whole array of per-trajectory draws, and returns the same bits for every split; n
    lies on both sides of 65,536, below which calls were once drawn whole on the calling thread."""
    block, spectrum = system4
    grid = np.array([0.0] + times)
    lams = (grid / r).tolist()
    k_maxes = [0 if lam == 0.0 else engines._poisson_cutoff(lam, 1e-12) for lam in lams]
    log_factorial = engines._log_factorials(max(k_maxes) + 1)
    req = engines.EvolutionRequest(rho0, t=grid, gamma=1.0 / r, n_traj=n, seed=seed)
    whole = [np.unique(trajectory_kicks(t, 1.0 / r, n, seed), return_counts=True) for t in grid.tolist()]
    results = []
    for chunks in (1, 2, 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engines, "_chunk_count", lambda n: chunks)
            keys = engines._sorted_chunks(seed, n)
            results.append(engines.evolve_monte_carlo(block, spectrum, req).entries)
        assert len(keys) == min(chunks, n)
        kicks, counts, firsts = engines._kick_counts(seed, keys, lams, k_maxes, log_factorial)
        for (k, c), lo, hi in zip(whole, firsts, firsts[1:]):
            assert (kicks[lo:hi].tolist(), counts[lo:hi].tolist()) == (k.tolist(), c.tolist())
    assert all(entries.view(np.uint64).tolist() == results[0].view(np.uint64).tolist() for entries in results[1:])
    with pytest.MonkeyPatch.context() as patch:  # two chunks from 2 trajectories up, whatever the CPU count
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        patch.setattr(os, "cpu_count", lambda: 1)
        assert [len(engines._sorted_chunks(seed, k)) for k in (1, 2, 3, 65535, 65536, 65537)] == [1, 2, 2, 2, 2, 2]


def test_uniform_on_a_cdf_entry_draws_the_kick_count_above_it(monkeypatch):
    """A uniform equal to cdf[k] draws k + 1 kicks, as searchsorted(cdf, u, side="right") gives, also
    where it is the least or the greatest uniform, which trim each time's CDF; in one chunk or two.
    The draws are set through the 64-bit mixes, so each shares its key with a CDF entry; at lam = 0.5
    every entry lies in [0.5, 1), where each float is a 53-bit uniform.  A least uniform one float
    below cdf[0], in the lower half of its key, draws none: the trim keeps the entries above it."""
    lam = 0.5
    k_max = engines._poisson_cutoff(lam, 1e-12)
    log_factorial = engines._log_factorials(k_max + 1)
    cdf = engines._poisson_cdf(lam, k_max, log_factorial)
    assert (cdf[0] * 2.0**32) % 1.0 < 0.5
    cases = ((np.array([cdf[0], cdf[1], 0.5 * (cdf[1] + cdf[2]), cdf[3]]), [[1, 2, 4], [1, 2, 1], [0, 3]]),
             (np.array([np.nextafter(cdf[0], 0.0), cdf[1], cdf[0], cdf[3]]), [[0, 1, 2, 4], [1, 1, 1, 1], [0, 4]]))
    for uniforms, expected in cases:
        for order, chunks in (((0, 1, 2, 3), 1), ((0, 1, 2, 3), 2), ((1, 2, 0, 3), 2)):
            bits = (uniforms[list(order)] * 2.0**53).astype(np.uint64) << np.uint64(11)
            monkeypatch.setattr(engines, "_trajectory_bits", lambda seed, hi, lo=0: bits[lo:hi].copy())
            monkeypatch.setattr(engines, "_chunk_count", lambda n: chunks)
            keys = engines._sorted_chunks(0, bits.size)
            assert len(keys) == chunks
            kicks, counts, firsts = engines._kick_counts(0, keys, [lam], [k_max], log_factorial)
            assert [kicks.tolist(), counts.tolist(), firsts] == expected


EXTREME_BITS = (0, 1 << 11, (2**21 - 1) << 43, 0xFFFFFFFF << 32, 2**64 - 1)  # the least and greatest z and keys


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n=st.one_of(st.sampled_from([1, 2, 3, 65535, 65536, 65537]), st.integers(1, 5000)),
       seed=st.integers(0, 2**64 - 1), chunks=st.integers(1, 3), data=st.data())
def test_draws_below_table_entries_equal_search_in_sorted_uniforms(n, seed, chunks, data):
    """Counted from the sorted keys, with a redraw where a key ties, the draws below each table entry
    are those that searchsorted finds in the sorted float uniforms, with entries at drawn uniforms and
    next to them (ties), at multiples of 2**-32 (a key's bounds, no tie), and at the ends of [0, 1].
    Some draws may be set to the extremes of z and of the keys, which a seeded draw almost never meets."""
    bits = engines._trajectory_bits(seed, n)
    for i, z in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(EXTREME_BITS)), max_size=3)):
        bits[i] = z
    uniforms = np.sort(mix_uniforms(bits))
    picked = uniforms[data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))]
    table = np.concatenate([picked, np.nextafter(picked, 0.0), np.nextafter(picked, 1.0),
                            np.floor(picked * 2.0**32) * 2.0**-32, np.ceil(picked * 2.0**32) * 2.0**-32,
                            data.draw(st.lists(st.integers(0, 2**32), max_size=4)) * np.array(2.0**-32),
                            [0.0, 5e-324, 1.0 - 2.0**-53, 1.0]])
    table = data.draw(st.permutations(table.tolist()).map(np.array))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engines, "_trajectory_bits", lambda seed, hi, lo=0: bits[lo:hi].copy())
        patch.setattr(engines, "_chunk_count", lambda n: chunks)
        keys = engines._sorted_chunks(seed, n)
        assert len(keys) == min(chunks, n)
        below = engines._draws_below(seed, keys, table)
    assert below.tolist() == np.searchsorted(uniforms, table, side="left").tolist()


def test_monte_carlo_threads_get_serial_bits_from_a_shared_pool_and_table(system4, rho0, monkeypatch):
    """Six threads, more than the cores, at a short switch interval: each starts or shares the worker
    pool, splits its calls and grows the process's log(k!) table, emptied before each of 10 rounds so
    that all grow it at once; every call returns the bits it returns alone, and every table handed out,
    and the one kept, holds math.lgamma's bits."""
    block, spectrum = system4
    monkeypatch.setattr(engines, "_chunk_count", lambda n: 2)
    reqs = [engines.EvolutionRequest(rho0, t=np.array([0.0, 0.3 * (j + 1)]), gamma=10.0 ** (j % 3 + 1),
                                     n_traj=3001 + j, seed=j) for j in range(6)]
    serial = [engines.evolve_monte_carlo(block, spectrum, req).entries.tobytes() for req in reqs]
    lgamma = np.array([math.lgamma(k + 1) for k in range(4096)]).view(np.uint64)
    monkeypatch.setattr(engines, "_log_factorial", np.zeros(0))
    monkeypatch.setattr(engines, "_worker", None)
    failures = []
    rounds = threading.Barrier(6, action=lambda: setattr(engines, "_log_factorial", np.zeros(0)), timeout=60)

    def work(j):
        try:
            for i in range(10):
                rounds.wait()
                size = 1 + 97 * (j + 1) * (i + 1) % 4096
                table = engines._log_factorials(size)
                assert table.size >= size and (table[:size].view(np.uint64) == lgamma[:size]).all()
                k = (j + i) % len(reqs)
                assert engines.evolve_monte_carlo(block, spectrum, reqs[k]).entries.tobytes() == serial[k]
        except Exception as exc:  # reported by the main thread
            failures.append(exc)
            rounds.abort()

    threads = [threading.Thread(target=work, args=(j,)) for j in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        if engines._worker is not None:
            engines._worker.shutdown()
    assert not any(thread.is_alive() for thread in threads) and not failures, failures
    cached = engines._log_factorial
    assert cached.size <= engines._LOG_FACTORIAL_CAP and (cached.view(np.uint64) == lgamma[:cached.size]).all()


def test_log_factorial_table_is_cached_read_only_and_capped(monkeypatch):
    """One read-only table of log(k!) per process, the bits of math.lgamma(k + 1), grown to powers of two
    and never past its cap; a longer table is a copy for that call, which gives the same CDF."""
    cap = engines._LOG_FACTORIAL_CAP
    monkeypatch.setattr(engines, "_log_factorial", np.zeros(0))
    for size in (1, 2, 3, 1000, 1025, cap - 1, cap, 5):
        table = engines._log_factorials(size)
        assert engines._log_factorial is table and size <= table.size <= cap and not table.flags.writeable
        fresh = np.array([math.lgamma(k + 1) for k in range(table.size)])
        assert table.view(np.uint64).tolist() == fresh.view(np.uint64).tolist()
    cached = engines._log_factorial
    assert cached.size == cap
    lam = 1.5 * cap  # its cut lies past the cap
    k_max = engines._poisson_cutoff(lam, 1e-12)
    longer = engines._log_factorials(k_max + 1)
    assert engines._log_factorial is cached and longer.size == k_max + 1 and not longer.flags.writeable
    fresh = np.array([math.lgamma(k + 1) for k in range(k_max + 1)])
    assert engines._poisson_cdf(lam, k_max, longer).tolist() == engines._poisson_cdf(lam, k_max, fresh).tolist()
    block, spectrum = scaled_system(4.0)
    rho = engines.DensityMatrix.basis_state(2, spectrum.basis_order)
    engines.evolve_monte_carlo(block, spectrum, engines.EvolutionRequest(rho, t=lam, gamma=1.0, n_traj=10, seed=1))
    assert engines._log_factorial is cached and not cached.flags.writeable


@settings(derandomize=True, max_examples=200, deadline=None)
@given(log_excess=st.floats(-6.0, 2.0), m=st.integers(1, 5), n=st.integers(1, 5), state_seed=st.integers(0, 2**32 - 1),
       gamma=st.floats(1e-3, 1e6), n_traj=st.integers(1, 3000), seed=st.integers(0, 2**64 - 1))
@example(log_excess=0.0, m=1, n=1, state_seed=0, gamma=100.0, n_traj=3, seed=0)
def test_monte_carlo_at_t_zero_is_the_unitary_state_bit_for_bit(log_excess, m, n, state_seed, gamma, n_traj, seed):
    """At t = 0 every trajectory drew N = 0, so the empirical factor is the float weight n/n = 1
    times exp(-i D 0): the factor of the unitary engine at t = 0, the same bits through dephase."""
    block, spectrum = scaled_system(1.0 + 10.0 ** log_excess, model.ModeIndices(m, n))
    rho = random_state(np.random.default_rng(state_seed), spectrum.basis_order)
    mc = engines.evolve_monte_carlo(
        block, spectrum, engines.EvolutionRequest(rho, t=0.0, gamma=gamma, n_traj=n_traj, seed=seed))
    unitary = engines.evolve_unitary(block, spectrum, engines.EvolutionRequest(rho, t=0.0))
    assert np.array_equal(mc.entries, unitary.entries)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(alpha=st.floats(1.0, 20.0, exclude_min=True), m=st.integers(1, 5), n=st.integers(1, 5),
       state_seed=st.integers(0, 2**32 - 1), r=st.floats(1e-3, 1.0), seed=st.integers(0, 2**32 - 1),
       times=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=4),
       n_traj=st.one_of(st.just(1), st.integers(1, 2000)))
@example(alpha=4.0, m=1, n=1, state_seed=0, r=0.01, seed=7, times=[math.pi], n_traj=1)
def test_monte_carlo_equals_per_trajectory_mean(alpha, m, n, state_seed, r, seed, times, n_traj):
    """Each time of a grid holding t = 0 and a repeated time is the mean of one state per trajectory."""
    block, spectrum = scaled_system(alpha, model.ModeIndices(m, n))
    rho = random_state(np.random.default_rng(state_seed), spectrum.basis_order)
    grid = np.array([0.0] + times + times[:1])
    result = engines.evolve_monte_carlo(
        block, spectrum, engines.EvolutionRequest(rho, t=grid, gamma=1.0 / r, n_traj=n_traj, seed=seed))
    for t, entries in zip(grid.tolist(), result.entries):
        per_trajectory = per_trajectory_monte_carlo(block, spectrum, rho, trajectory_kicks(t, 1.0 / r, n_traj, seed),
                                                    1.0 / r)
        assert np.abs(entries - per_trajectory).max() <= 1e-13


def test_violations_cover_every_state_of_a_stack(system4, rho0):
    block, spectrum = system4
    grid = np.linspace(0.0, math.pi, 16)
    stack = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=grid, gamma=30.0))
    assert stack.violations() == []
    stack.entries[5] *= 1.01  # one state of the stack loses unit trace
    assert [v for v in stack.violations() if "trace" in v]
