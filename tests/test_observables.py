import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
@given(alpha=st.floats(2.0**-52, math.log(observables.MAX_ALPHA)).map(  # exp(2^-52) rounds to 1 + 2^-52
           lambda u: min(math.exp(u), observables.MAX_ALPHA)),
       r=st.one_of(st.floats(0.0, 0.5), st.floats(-308.0, -1.0).map(lambda x: 10.0**x)),
       t=st.floats(0.0, 2.0 * math.pi), sign=st.sampled_from(observables.SIGNS))
@example(alpha=9e153, r=1e-307, t=0.02, sign="minus")  # the damping's D^2 overflowed here
@example(alpha=9e153, r=1e-308, t=1.0, sign="plus")  # and 2 gamma here
@example(alpha=1e16, r=0.0, t=math.pi / 4, sign="minus")  # mu - a and mu + a round to one float
def test_closed_form_equals_reference_engine(alpha, r, t, sign):
    """The corrected closed-form P(T) is an identity with the reference engine over the whole
    domain: alpha log-uniform in (1, MAX_ALPHA], R in [0, 0.5] or down to 1e-308.

    Both are a constant, a slow term at frequency 2 and three rapid terms c_k e^{-x_k} trig(f_k T)
    with c_mu + c_plus + c_minus = 1/2.  The engine's frequencies are the block's gaps 2 mu,
    2 (mu + a), 2 (mu - a), mu = hypot(1, sqrt(alpha^2 - 1)) rounded, and the closed form's
    2 alpha, 2 (alpha + 1), 2 (alpha - 1).  Their phases fl(f T) differ by at most
    T |df| + u (f_e + f_c) T <= 3 T |df|, as u f <= ulp(f) <= |df| where df != 0 (and by 0 where
    df = 0); sine and cosine are 1-Lipschitz, so the rapid terms differ by at most
    (3/2) T max|df|.  The decays' exponents x agree to 2 |df| / f plus a few u relative, and
    x e^{-x} <= 1/e, so the decays differ by a few u; the coefficients, the slow term and the
    engine's transform differ by rounding alone, all far inside 1e-12."""
    block, spectrum = scaled_system(alpha)
    req = engines.EvolutionRequest(initial_state(), t=t, gamma=experiments.kick_rate(r))
    p = observables.p_ghz(engines.evolve_eigenbasis(block, spectrum, req), observables.ghz_state(sign))
    delta = oracles.exact_differences(block)
    engine = (delta[0, 1], delta[2, 1], delta[0, 3])  # 2 mu, 2 (mu + a), 2 (mu - a)
    closed = (2.0 * alpha, 2.0 * (alpha + 1.0), 2.0 * (alpha - 1.0))
    bound = 1e-12 + 1.5 * t * max(abs(f_e - f_c) for f_e, f_c in zip(engine, closed))
    assert abs(p - observables.closed_form_pghz(t, alpha, r, sign)) <= bound


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, np.array([0.5, -1e-300]), np.zeros((2, 2)), "1", 1j])
def test_closed_forms_check_t_as_the_request_does(t):
    """Both closed forms of P(T) and the published rho(t) refuse a T that is negative, not finite,
    not real or not at most 1-D, with the ValidationError of EvolutionRequest and no warning
    (T = -1 read 4.52, and rho(-1) had an eigenvalue of -28.8)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^t must be finite and nonnegative") as from_request:
            engines.EvolutionRequest(initial_state(), t)
        with pytest.raises(ValidationError) as from_closed_form:
            observables.closed_form_pghz(t, 4.0, 0.1, "minus")
        with pytest.raises(ValidationError) as from_published:
            observables.published_pghz(t, 4.0, 0.1)
        with pytest.raises(ValidationError) as from_rho:
            engines.closed_form_rho(*scaled_system(4.0), t, 10.0)
    assert str(from_closed_form.value) == str(from_published.value) == str(from_rho.value) == str(from_request.value)


@pytest.mark.parametrize("alpha", [7e153, 9e153])
def test_closed_form_keeps_its_coefficients_near_the_largest_alpha(alpha):
    """8 alpha^2 overflows from alpha = 4.74e153 and 4 alpha^2 from 6.7e153, which read
    P(T) as 0.0; each coefficient is a ratio over alpha^2 first.  The engine keeps the slow
    term -/+ e^{-2 T R} sin(2 T) / 4 of the closed form, since its gap 2a comes from the
    closed form, not from eigenvalues mu -/+ a that round to one float.  From T of about
    1.1 at 9e153, -2 alpha^2 T alone would overflow, so _decay forms T R first."""
    block, spectrum = scaled_system(alpha)
    t = np.linspace(0.0, 2.0 * math.pi, 33)
    for r in (0.0, 0.01, 0.1):
        rho = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(
            initial_state(), t=t, gamma=experiments.kick_rate(r)))
        for sign in observables.SIGNS:
            p = observables.p_ghz(rho, observables.GHZ_TARGETS[sign])
            assert np.abs(p - observables.closed_form_pghz(t, alpha, r, sign)).max() <= 1e-14
        assert np.isfinite(observables.published_pghz(t, alpha, r)).all()


@pytest.mark.parametrize("alpha", [7e153, 9e153, observables.MAX_ALPHA])
def test_decay_overflows_only_where_its_exponent_does(alpha):
    """Each decay factor of both closed forms is exp of the exact rate * T * R, rounded, with no
    warning: 0.0 where that exponent is below -DBL_MAX, and not 0.0 where a tiny R keeps it small
    although rate * T alone overflows (e^-32.4 at alpha = 9e153, T = 2, R = 1e-307)."""
    rates = (-2.0 * alpha * alpha, -2.0 * (alpha + 1.0) ** 2, -2.0 * (alpha - 1.0) ** 2, -2.0 * (alpha + 1.0), -2.0)
    t = np.array([0.0, 0.5, 1.1, 2.0, 2.0 * math.pi, 1e3, 1e300])
    for r in (1e-307, 1e-300, 0.01, 0.1, 1e300):
        for rate in rates:
            exponents = [Fraction(rate) * Fraction(t_i) * Fraction(r) for t_i in t.tolist()]
            exact = [math.exp(x) if x > -800 else 0.0 for x in exponents]
            np.testing.assert_allclose(observables._decay(rate, t, r), exact, rtol=1e-13, atol=0.0)
        t_grid = np.linspace(0.0, 2.0 * math.pi, 33)
        assert np.isfinite(observables.closed_form_pghz(t_grid, alpha, r, "minus")).all()
        assert np.isfinite(observables.published_pghz(t_grid, alpha, r)).all()
    assert observables._decay(rates[0], np.array(2.0), 1e-307) > 0.0


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


@pytest.mark.parametrize("rho", [
    engines.DensityMatrix(np.eye(5) / 5, observables.GHZ_BASIS),  # purity once read 0.2
    engines.DensityMatrix(np.eye(3) / 3, observables.GHZ_BASIS),  # 0.333, and p_ghz raised numpy's ValueError
    engines.DensityMatrix(np.full(4, 0.25), observables.GHZ_BASIS),  # populations raised numpy's ValueError
    engines.DensityMatrix(np.zeros((4, 4, 3)), observables.GHZ_BASIS),  # a stack laid out the wrong way
    np.eye(4) / 4,  # a bare array once raised AttributeError
    None,
], ids=["5x5", "3x3", "1-D", "4x4x3", "ndarray", "None"])
def test_observables_refuse_what_is_not_a_state(rho, ghz_minus):
    for call in (lambda: observables.p_ghz(rho, ghz_minus), lambda: observables.purity(rho),
                 lambda: observables.populations(rho)):
        with pytest.raises(ValidationError, match="rho must be a DensityMatrix"):
            call()


def test_populations_of_a_stack_are_those_of_each_state(system4, rho0):
    """One row per state, each with the bits of that state alone; a stack no longer raises."""
    block, spectrum = system4
    stack = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, np.linspace(0.0, 3.0, 7), 2.0))
    rows = observables.populations(stack)
    assert rows.shape == (7, 4) and rows.flags.writeable
    for row, entries in zip(rows, stack.entries):
        assert row.tolist() == observables.populations(engines.DensityMatrix(entries, stack.basis_order)).tolist()
        assert row.tolist() == np.diag(entries).real.tolist()


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
