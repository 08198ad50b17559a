"""Every callable the package re-exports refuses edge values and wrong types with
ValidationError, or returns a finite, valid result."""

import dataclasses
import math
import numbers
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iondeco
from iondeco import engines, experiments, model, observables
from iondeco.errors import NumericalError, ValidationError

BLOCK, SPECTRUM = experiments.scaled_system(4.0)
BASIS = observables.GHZ_BASIS
INITIAL = experiments.initial_state()

# scalar edge values and wrong types
EDGES = st.sampled_from((math.nan, math.inf, -math.inf, -0.0, -1e-300, 0.0, 1e-300, np.float64(0.75), 2, True, "1",
                         None, 1j, 10**400, -10**400))
TIME_EDGES = st.one_of(EDGES, st.sampled_from((
    np.array([0.0, 0.5, 2.0]), np.array([0.5, -1e-300]), np.zeros((2, 2)), np.zeros(0), np.array(["1"]), ["0.5", "x"])))
MIXED = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
MIXED[0, 1], MIXED[1, 0] = 0.1j, -0.1j
STATES = st.sampled_from((INITIAL, engines.DensityMatrix(MIXED, BASIS), engines.DensityMatrix(np.eye(4) / 4, BASIS),
                          engines.DensityMatrix(np.stack([MIXED, np.eye(4) / 4]), BASIS)))
FIXED = st.nothing()  # the edges of an argument drawn only from its valid values

# one (valid values, edge values and wrong types) pair per kind of argument
REALS = (st.floats(0.0, 50.0), EDGES)
TIMES = (st.one_of(st.floats(0.0, 10.0), st.lists(st.floats(0.0, 10.0), max_size=3, unique=True).map(sorted)),
         TIME_EDGES)
ALPHAS = (st.floats(1.0, 30.0, exclude_min=True), EDGES)
GAMMAS = (st.floats(0.5, 100.0), EDGES)  # a smaller gamma makes the default Runge-Kutta step unstable
R_LISTS = (st.lists(st.floats(0.0, 0.5), max_size=3, unique=True).map(tuple),
           st.lists(st.one_of(st.floats(0.0, 0.5), EDGES), min_size=1, max_size=3).map(tuple))
OMEGAS = (st.floats(1.0, 1e9), EDGES)
COUPLINGS = st.one_of(st.just(0.0), st.floats(5e-324, 50.0))
MODES = (st.builds(model.ModeIndices, st.integers(1, 5), st.integers(1, 5)), st.one_of(EDGES, st.just((1, 1))))
ENGINE_NAMES = (st.sampled_from(tuple(engines.ENGINES)), st.sampled_from(("bogus", None, 1)))
SIGNS = (st.sampled_from(observables.SIGNS), EDGES)
CONTROL_VALUES = {"tail_tol": st.floats(1e-15, 0.5), "dt": st.floats(1e-4, 5e-3),
                  "n_traj": st.integers(1, 2000), "seed": st.integers(0, 2**63)}
CONTROLS = (st.fixed_dictionaries({key: CONTROL_VALUES[key] for key in ("n_traj", "seed")},
                                  optional={key: CONTROL_VALUES[key] for key in ("tail_tol", "dt")}),
            st.tuples(st.sampled_from(sorted(CONTROL_VALUES)), EDGES).map(lambda pair: dict([pair])))
# entries a DensityMatrix may be handed: valid states and stacks, and what is no state
ENTRIES = (st.sampled_from((INITIAL.entries, np.eye(4) / 4, MIXED, observables.GHZ_TARGETS["plus"].projector,
                            np.stack([MIXED, np.eye(4) / 4]))),
           st.one_of(EDGES, st.sampled_from((
               np.eye(3) / 3, np.ones(4) / 4, np.diag([1.5, -0.5, 0.0, 0.0]), np.eye(4), np.full((4, 4), math.nan),
               np.triu(np.ones((4, 4))) / 4, np.zeros((0, 4, 4)), np.eye(4, dtype=bool)))))


def request(t, gamma, controls):
    return engines.EvolutionRequest(INITIAL, t, gamma, **controls)


def engine_call(fn):
    return lambda t, gamma, controls: fn(BLOCK, SPECTRUM, request(t, gamma, controls))


def assert_state(rho):
    """A stack of valid 4x4 states, by an oracle of its own: eigvalsh of the entries as given."""
    entries = np.asarray(rho.entries)
    assert entries.dtype.kind in "iufc" and entries.shape[-2:] == (4, 4), entries
    assert np.isfinite(entries).all()
    assert np.abs(entries - np.swapaxes(entries, -1, -2).conj()).max(initial=0.0) <= 1e-12
    assert np.abs(np.trace(entries, axis1=-2, axis2=-1) - 1.0).max(initial=0.0) <= 1e-9
    assert np.linalg.eigvalsh(entries).min(initial=0.0) >= -1e-9


def assert_probability(value):
    assert np.all((np.asarray(value) >= -1e-9) & (np.asarray(value) <= 1.0 + 1e-9)), value


def assert_finite(value):
    """Every number held by value, through dataclasses, dicts and sequences, is finite."""
    if isinstance(value, engines.DensityMatrix):
        assert_state(value)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            assert_finite(getattr(value, field.name))
    elif isinstance(value, dict):
        assert_finite(list(value.items()))
    elif isinstance(value, (list, tuple)):
        for item in value:
            assert_finite(item)
    elif isinstance(value, (np.ndarray, numbers.Number)):
        assert np.asarray(value).dtype.kind in "biufc" and np.isfinite(value).all(), value
    else:
        assert isinstance(value, str), value


def assert_series(series):
    assert_finite(series)
    for p in series.probabilities.values():
        assert_probability(p)
    for purity in series.purities.values():
        assert np.all((purity > 0.0) & (purity <= 1.0 + 1e-9))


def assert_clamped(value):
    """The clamp maps each value into [0, 1] and keeps NaN, as its docstring says."""
    value = np.asarray(value)
    assert value.dtype.kind == "f" and np.all(np.isnan(value) | (value >= 0.0) & (value <= 1.0)), value


# name -> (call, one (valid, edges) pair per argument, check of a result); each call may raise ValidationError
CALLS = {
    "ModeIndices": (model.ModeIndices, ((st.integers(0, 5), EDGES),) * 2, assert_finite),
    "build_hamiltonian": (model.build_hamiltonian, (REALS, REALS, MODES), assert_finite),
    # couplings below about 1.5e-154 give eigenvector norms whose squares are not normal floats
    "spectrum_analytic": (lambda omega, a: model.spectrum_analytic(
        model.build_hamiltonian(omega, a, model.ModeIndices(1, 1))), ((COUPLINGS, FIXED),) * 2, assert_finite),
    "DensityMatrix": (lambda entries: engines.DensityMatrix(entries, BASIS).require_valid(), (ENTRIES,), assert_state),
    # a request is checked by what it is for: the reference engine's state at its times
    "EvolutionRequest": (engine_call(engines.evolve_eigenbasis), (TIMES, GAMMAS, CONTROLS), assert_state),
    "closed_form_rho": (lambda t, gamma: engines.closed_form_rho(BLOCK, SPECTRUM, t, gamma),
                        (TIMES, GAMMAS), assert_state),
    "evolve": (lambda name, t, gamma, controls: engines.evolve(name, BLOCK, SPECTRUM, request(t, gamma, controls)),
               (ENGINE_NAMES, TIMES, GAMMAS, CONTROLS), assert_state),
    **{name: (engine_call(getattr(engines, name)), (TIMES, GAMMAS, CONTROLS), assert_state)
       for name in ("evolve_eigenbasis", "evolve_poisson", "evolve_unitary", "evolve_ode", "evolve_monte_carlo")},
    "ghz_state": (observables.ghz_state, (SIGNS,), assert_finite),
    "clamp_probability": (observables.clamp_probability, ((st.one_of(st.floats(-2.0, 2.0), st.just(
        np.array([-0.5, 0.5, 1.5]))), st.one_of(EDGES, st.sampled_from((np.array([1j]), np.array(["1"]))))),),
        assert_clamped),
    "closed_form_pghz": (observables.closed_form_pghz, (TIMES, ALPHAS, REALS, SIGNS), assert_probability),
    "published_pghz": (observables.published_pghz, (TIMES, ALPHAS, REALS), assert_finite),  # not a probability
    "p_ghz": (observables.p_ghz, ((STATES, FIXED), (st.sampled_from(tuple(observables.GHZ_TARGETS.values())), EDGES)),
              assert_probability),
    "purity": (observables.purity, ((STATES, FIXED),), assert_probability),
    "populations": (observables.populations, ((STATES, FIXED),), assert_probability),
    "sweep": (lambda alpha, r_values, t_grid, engine, controls: experiments.sweep(
        alpha, r_values, t_grid, engine, **controls), (ALPHAS, R_LISTS, TIMES, ENGINE_NAMES, CONTROLS), assert_series),
    "physical_units": (experiments.physical_units, (OMEGAS, ALPHAS, R_LISTS), assert_finite),
    "table1": (experiments.table1, (OMEGAS, ALPHAS), assert_finite),
    "audit": (experiments.audit, (ALPHAS,), assert_finite),
}
# the helpers that build every CLI point's system and initial state, fuzzed like the exported callables
FUZZED = {**CALLS, "scaled_system": (experiments.scaled_system, (ALPHAS, MODES), assert_finite),
          "initial_state": (experiments.initial_state, (MODES,), assert_state)}
# classes that hold what they are given and check nothing; the callables above make them
RECORDS = {"HamiltonianBlock", "Spectrum", "GHZTarget", "TimeSeries", "UnitReport", "Table1Row", "AuditReport",
           "ConfigError", "NumericalError", "ValidationError"}


def test_every_exported_callable_is_fuzzed_or_a_record():
    exported = {name for name, value in vars(iondeco).items()
                if callable(value) and getattr(value, "__module__", "").startswith("iondeco.")}
    assert exported == set(CALLS) | RECORDS


@pytest.mark.parametrize("name", sorted(FUZZED))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_public_callables_refuse_bad_input_or_return_a_valid_result(name, data):
    """Every argument is drawn from its valid values but at most one, drawn from edge values and
    wrong types (nan, +-inf, -0.0, -1e-300, a numpy float, an int, a bool, a str, None, 1j, ints
    past DBL_MAX, a tuple for a ModeIndices, and arrays of the wrong shape or kind); the call
    raises ValidationError, with no warning, or its result passes the check beside it.  The one
    NumericalError allowed is the Runge-Kutta engine's refusal of its own output, where the step
    is too long for the generator."""
    call, arguments, check = FUZZED[name]
    off = data.draw(st.sampled_from([None] + [i for i, (_, edges) in enumerate(arguments) if edges is not FIXED]))
    args = [data.draw(edges if i == off else valid) for i, (valid, edges) in enumerate(arguments)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(*args)
        except ValidationError:
            return
        except NumericalError as exc:
            assert str(exc).startswith("Runge-Kutta output invalid"), exc
            return
    check(result)
