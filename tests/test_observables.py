import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iondeco import engines, experiments, observables
from iondeco.errors import ValidationError
from iondeco.experiments import initial_state, scaled_system

import oracles


def test_ghz_minus_vector():
    target = observables.ghz_state("minus")
    expected = np.array([0.0, -1j, 1.0, 0.0]) / math.sqrt(2.0)
    np.testing.assert_allclose(target.vector, expected, atol=1e-15)
    assert np.linalg.norm(target.vector) == pytest.approx(1.0, abs=1e-15)


def test_ghz_projector_properties():
    for sign in ("minus", "plus"):
        proj = observables.ghz_state(sign).projector
        assert np.trace(proj).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(proj @ proj - proj).max() <= 1e-12
        assert np.abs(proj - proj.conj().T).max() <= 1e-15


def test_ghz_targets_orthogonal():
    minus = observables.ghz_state("minus")
    plus = observables.ghz_state("plus")
    assert abs(np.vdot(plus.vector, minus.vector)) <= 1e-12


def test_shared_ghz_targets_reject_writes():
    for sign, target in observables.GHZ_TARGETS.items():
        assert target.sign == sign
        np.testing.assert_array_equal(target.projector, observables.ghz_state(sign).projector)
        for array in (target.vector, target.projector):
            with pytest.raises(ValueError, match="read-only"):
                array[1] = 0.0


def test_ghz_rejects_unknown_sign():
    with pytest.raises(ValidationError):
        observables.ghz_state("pm")


def test_p_ghz_initial_state(rho0, ghz_minus):
    assert observables.p_ghz(rho0, ghz_minus) == pytest.approx(0.5, abs=1e-12)


def test_p_ghz_of_projector_is_one(ghz_plus):
    rho = engines.DensityMatrix(ghz_plus.projector.copy(), ghz_plus.basis_order)
    assert observables.p_ghz(rho, ghz_plus) == pytest.approx(1.0, abs=1e-12)


def test_p_ghz_reference_value(system4, rho0, ghz_minus):
    block, spectrum = system4
    rho = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=math.pi / 4, gamma=1000.0))
    assert observables.p_ghz(rho, ghz_minus) == pytest.approx(0.988, abs=1e-3)


def test_p_ghz_basis_mismatch(ghz_minus):
    rho = engines.DensityMatrix.basis_state(0, ("a", "b", "c", "d"))
    with pytest.raises(ValidationError):
        observables.p_ghz(rho, ghz_minus)


def test_probability_sum_bounded(system4, rho0, ghz_minus, ghz_plus):
    block, spectrum = system4
    rng = np.random.default_rng(2)
    for _ in range(25):
        t = rng.uniform(0.0, 2.0 * math.pi)
        gamma = rng.uniform(5.0, 2000.0)
        rho = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=t, gamma=gamma))
        total = observables.p_ghz(rho, ghz_minus) + observables.p_ghz(rho, ghz_plus)
        assert total <= 1.0 + 1e-10


def test_clamp_probability():
    assert observables.clamp_probability(1.0 + 1e-12) == 1.0
    assert observables.clamp_probability(-1e-12) == 0.0
    assert observables.clamp_probability(0.25) == 0.25


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 1.0])
def test_closed_forms_reject_alpha_outside_domain(alpha):
    with pytest.raises(ValidationError, match="alpha"):
        observables.closed_form_pghz(math.pi / 4, alpha, 0.0, "minus")
    with pytest.raises(ValidationError, match="alpha"):
        observables.published_pghz(math.pi / 4, alpha, 0.0)


@pytest.mark.parametrize("r", [math.nan, math.inf, -1.0, -1e-300])
def test_closed_forms_and_kick_rate_share_the_r_check(r):
    """One R rule, with one message, before any arithmetic that would warn."""
    messages = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: observables.closed_form_pghz(0.5, 4.0, r, "minus"),
                     lambda: observables.published_pghz(0.5, 4.0, r),
                     lambda: experiments.kick_rate(r)):
            with pytest.raises(ValidationError, match="R must be finite and nonnegative") as exc:
                call()
            messages.add(str(exc.value))
    assert messages == {f"R must be finite and nonnegative, got {r}"}


def test_closed_form_trivial_points():
    for alpha in (2.0, 4.0, 8.0):
        for r in (0.0, 0.01, 0.1):
            for sign in ("minus", "plus"):
                assert observables.closed_form_pghz(0.0, alpha, r, sign) == pytest.approx(0.5, abs=1e-12)
    assert observables.closed_form_pghz(math.pi / 4, 4.0, 0.0, "minus") == pytest.approx(1.0, abs=1e-12)
    assert observables.closed_form_pghz(math.pi / 4, 4.0, 0.1, "minus") == pytest.approx(0.534, abs=1e-3)
    assert observables.closed_form_pghz(3 * math.pi / 4, 4.0, 0.0, "minus") == pytest.approx(0.0, abs=1e-12)
    assert observables.closed_form_pghz(3 * math.pi / 4, 4.0, 0.0, "plus") == pytest.approx(1.0, abs=1e-12)


def test_closed_form_peaks_at_shifted_quarters():
    for k in range(3):
        t_minus = math.pi / 4 + k * math.pi
        t_plus = 3 * math.pi / 4 + k * math.pi
        assert observables.closed_form_pghz(t_minus, 4.0, 0.0, "minus") == pytest.approx(1.0, abs=1e-9)
        assert observables.closed_form_pghz(t_plus, 4.0, 0.0, "plus") == pytest.approx(1.0, abs=1e-9)


def test_closed_form_matches_engine_small_grid(rho0, ghz_minus, ghz_plus):
    # the full grid runs in the acceptance suite; spot-check another alpha here
    block, spectrum = scaled_system(2.0)
    targets = {"minus": ghz_minus, "plus": ghz_plus}
    for r in (0.0, 0.01):
        gamma = math.inf if r == 0.0 else 1.0 / r
        for t in np.linspace(0.0, 2.0 * math.pi, 17):
            rho = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=float(t), gamma=gamma))
            for sign, target in targets.items():
                assert observables.p_ghz(rho, target) == pytest.approx(
                    observables.closed_form_pghz(float(t), 2.0, r, sign), abs=1e-9)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(alpha=st.floats(1.0, 20.0, exclude_min=True), r=st.floats(0.0, 0.5),
       t=st.floats(0.0, 2.0 * math.pi), sign=st.sampled_from(observables.SIGNS))
def test_closed_form_equals_reference_engine(alpha, r, t, sign):
    """The corrected closed-form P(T) is an identity with the reference engine
    over the whole parameter domain, not only at the spot-checked alphas."""
    block, spectrum = scaled_system(alpha)
    req = engines.EvolutionRequest(initial_state(), t=t, gamma=experiments.kick_rate(r))
    p = observables.p_ghz(engines.evolve_eigenbasis(block, spectrum, req), observables.ghz_state(sign))
    assert abs(p - observables.closed_form_pghz(t, alpha, r, sign)) <= 1e-9


def test_published_formula_values():
    assert observables.published_pghz(0.0, 4.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert observables.published_pghz(math.pi / 4, 4.0, 0.0) == pytest.approx(158.0 / 128.0, abs=1e-9)
    assert observables.published_pghz(3 * math.pi / 4, 4.0, 0.0) == pytest.approx(-15.0 / 64.0, abs=1e-9)


def test_published_formula_gap_pinned():
    gap = (observables.published_pghz(math.pi / 4, 4.0, 0.0)
           - observables.closed_form_pghz(math.pi / 4, 4.0, 0.0, "minus"))
    assert gap == pytest.approx(0.234375, abs=1e-9)
    agree_at_zero = (observables.published_pghz(0.0, 4.0, 0.0)
                     - observables.closed_form_pghz(0.0, 4.0, 0.0, "minus"))
    assert agree_at_zero == pytest.approx(0.0, abs=1e-12)


def test_purity_and_populations(system4, rho0):
    block, spectrum = system4
    assert observables.purity(rho0) == pytest.approx(1.0, abs=1e-12)
    mixed = engines.DensityMatrix(np.eye(4, dtype=complex) / 4.0, rho0.basis_order)
    assert observables.purity(mixed) == pytest.approx(0.25, abs=1e-12)
    np.testing.assert_allclose(observables.populations(rho0), [0.0, 0.0, 1.0, 0.0], atol=1e-15)
    # GHZ point: |e,1,1> and |g,0,0> each hold half the population
    rho = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=math.pi / 4))
    pops = observables.populations(rho)
    assert pops[1] == pytest.approx(0.5, abs=1e-9)
    assert pops[2] == pytest.approx(0.5, abs=1e-9)
    assert pops.sum() == pytest.approx(1.0, abs=1e-12)


def test_purity_range_under_dephasing(system4, rho0):
    block, spectrum = system4
    for t in np.linspace(0.0, 20.0, 9):
        rho = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=float(t), gamma=2.0))
        assert 0.25 <= observables.purity(rho) <= 1.0 + 1e-12


def test_eigenbasis_coherences_shape_and_decay(system4, rho0):
    block, spectrum = system4
    c0 = oracles.eigenbasis_coherences(rho0, spectrum)
    assert c0.shape == (6,)
    rho = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=3.0, gamma=5.0))
    c1 = oracles.eigenbasis_coherences(rho, spectrum)
    assert np.all(c1 <= c0 + 1e-12)
