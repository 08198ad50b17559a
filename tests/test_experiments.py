import math
import re

import numpy as np
import pytest

from iondeco import engines, experiments, model, observables
from iondeco.errors import ValidationError

import oracles

# Engine-oracle values frozen for the published-table comparison.
COMPUTED_QUARTER = {0.001: 0.988365661, 0.005: 0.944625263, 0.01: 0.895677539, 0.1: 0.533807989}
COMPUTED_THREE_QUARTER = {0.001: 0.965951975, 0.005: 0.852310295, 0.01: 0.748931593, 0.1: 0.414864394}


def small_sweep(**kwargs):
    args = dict(alpha=4.0, r_values=(0.0,), t_grid=np.linspace(0.0, math.pi, 65), engine="eigen")
    args.update(kwargs)
    return experiments.sweep(**args)


def test_sweep_decoherence_free_minus():
    series = small_sweep()
    col = series.probabilities[(0.0, "minus")]
    assert col[0] == pytest.approx(0.5, abs=1e-12)
    # grid point 16 is exactly T = pi/4
    assert series.t_rad[16] == pytest.approx(math.pi / 4, abs=1e-15)
    assert col[16] == pytest.approx(1.0, abs=1e-9)


def test_sweep_empty_r_values():
    series = small_sweep(r_values=())
    assert series.probabilities == {}
    assert series.purities == {}
    assert series.t_rad.size == 65


def test_sweep_engines_agree():
    grid = np.linspace(0.0, math.pi, 9)
    eig = small_sweep(r_values=(0.01,), t_grid=grid)
    ode = small_sweep(r_values=(0.01,), t_grid=grid, engine="ode")
    dev = np.abs(eig.probabilities[(0.01, "minus")] - ode.probabilities[(0.01, "minus")]).max()
    assert dev <= 1e-6


def test_sweep_deterministic_repeat():
    args = dict(r_values=(0.01,), engine="mc", t_grid=np.linspace(0.0, 1.0, 4), n_traj=2000, seed=11)
    a = small_sweep(**args)
    b = small_sweep(**args)
    assert np.array_equal(a.probabilities[(0.01, "minus")], b.probabilities[(0.01, "minus")])


def test_sweep_validation(monkeypatch):
    """Each bad input is refused before the first engine call, the engine's name also with no R."""
    calls = []
    monkeypatch.setattr(engines, "evolve_eigenbasis", lambda *args: calls.append(args))
    monkeypatch.setattr(engines, "gap_factors", lambda *args: calls.append(args))  # the eigen engine's factor
    with pytest.raises(ValidationError, match=re.escape(f"engine must be one of {tuple(engines.ENGINES)}, got 'magic'")):
        small_sweep(engine="magic", r_values=())
    with pytest.raises(ValidationError, match="alpha must exceed 1"):
        small_sweep(alpha=1.0)
    with pytest.raises(ValidationError, match="R must be finite and nonnegative, got -0.1"):
        small_sweep(r_values=(0.01, -0.1))
    with pytest.raises(ValidationError, match="strictly increasing"):
        small_sweep(t_grid=np.array([0.0, 1.0, 0.5]))
    assert calls == []
    with pytest.raises(ValidationError):
        experiments.scaled_system(1.0)


def test_sweep_checks_its_controls_with_no_r():
    """The request is built before the R loop, so its controls are refused also when there is no R,
    and gamma, which each R sets, is no control."""
    with pytest.raises(TypeError, match="bogus"):
        small_sweep(r_values=(), bogus=1)
    with pytest.raises(ValidationError, match="tail_tol must lie in"):
        small_sweep(r_values=(), tail_tol=5.0)
    with pytest.raises(ValidationError, match="n_traj must lie in"):
        small_sweep(r_values=(), n_traj=0)
    with pytest.raises(TypeError, match="gamma"):
        small_sweep(r_values=(0.01,), gamma=3.0)


def quarter_degree_series(r_values):
    grid = np.radians(np.arange(0, 1441, dtype=float) * 0.25)
    return small_sweep(r_values=r_values, t_grid=grid)


def test_find_peaks_decoherence_free():
    series = quarter_degree_series((0.0,))
    peaks = oracles.find_peaks(series)
    tall_minus = [p for p in peaks if p.target == "minus" and p.value > 0.99]
    tall_plus = [p for p in peaks if p.target == "plus" and p.value > 0.99]
    assert [round(math.degrees(p.t_peak_rad), 2) for p in tall_minus] == [45.0, 225.0]
    assert [round(math.degrees(p.t_peak_rad), 2) for p in tall_plus] == [135.0, 315.0]
    for p in tall_minus + tall_plus:
        assert p.value == pytest.approx(1.0, abs=1e-6)
        assert p.value <= 1.0 + 1e-9


def test_find_peaks_monotone_series_empty():
    grid = np.linspace(0.0, 1.0, 50)
    series = experiments.TimeSeries(
        t_rad=grid,
        probabilities={(0.0, "minus"): np.linspace(0.2, 0.9, 50)},
        purities={0.0: np.ones(50)})
    assert oracles.find_peaks(series) == []


def test_find_peaks_too_few_points():
    grid = np.array([0.0, 1.0])
    series = experiments.TimeSeries(
        t_rad=grid,
        probabilities={(0.0, "minus"): np.array([0.1, 0.2])},
        purities={0.0: np.ones(2)})
    assert oracles.find_peaks(series) == []


def test_find_peaks_plateau_resolves_to_smallest_t():
    grid = np.linspace(0.0, 6.0, 7)
    y = np.array([0.1, 0.5, 0.5, 0.5, 0.2, 0.6, 0.1])
    series = experiments.TimeSeries(
        t_rad=grid,
        probabilities={(0.0, "minus"): y},
        purities={0.0: np.ones(7)})
    peaks = oracles.find_peaks(series)
    assert [p.grid_index for p in peaks] == [1, 5]
    assert peaks[0].t_peak_rad == pytest.approx(1.0)  # no refinement across a plateau


def test_peak_values_decrease_with_r():
    series = quarter_degree_series((0.0, 0.001, 0.005, 0.01, 0.1))
    peaks = oracles.find_peaks(series)
    near_quarter = {}
    for p in peaks:
        deg = math.degrees(p.t_peak_rad)
        if p.target == "minus" and 35.0 < deg < 55.0:
            near_quarter[p.r] = p.value
    values = [near_quarter[r] for r in (0.0, 0.001, 0.005, 0.01, 0.1)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_table1_rows():
    rows = experiments.table1()
    assert len(rows) == 5
    free = rows[0]
    assert free.r == 0.0
    assert free.p_quarter == pytest.approx(1.0, abs=1e-9)
    assert free.p_three_quarter == pytest.approx(1.0, abs=1e-9)
    for row in rows[1:]:
        assert row.dev_quarter <= 0.01
        assert row.p_quarter == pytest.approx(COMPUTED_QUARTER[row.r], abs=1e-6)
        assert row.p_three_quarter == pytest.approx(COMPUTED_THREE_QUARTER[row.r], abs=1e-6)
    quarters = [row.p_quarter for row in rows]
    assert all(a > b for a, b in zip(quarters, quarters[1:]))  # peaks get lower with R


def test_physical_units_published_point():
    report = experiments.physical_units(8.95e6, 4.0, [0.001])
    assert report.a_rad_s == pytest.approx(2.311e6, rel=1e-3)
    assert report.inv_gamma_ns[0.001] == pytest.approx(0.433, abs=0.01)
    assert report.t_quarter_us == pytest.approx(0.340, abs=0.005)


def test_physical_units_large_r():
    report = experiments.physical_units(8.95e6, 4.0, [0.1])
    assert report.inv_gamma_ns[0.1] == pytest.approx(43.3, abs=0.2)


def test_physical_units_edge_cases():
    report = experiments.physical_units(8.95e6, 4.0, [0.0])
    assert report.inv_gamma_ns[0.0] == 0.0
    with pytest.raises(ValidationError):
        experiments.physical_units(8.95e6, 1.0, [0.001])
    with pytest.raises(ValidationError):
        experiments.physical_units(0.0, 4.0, [0.001])


def test_physical_units_self_consistent():
    report = experiments.physical_units(8.95e6, 4.0, [0.001])
    assert report.a_rad_s * report.t_quarter_us * 1e-6 == pytest.approx(math.pi / 4.0, rel=1e-15)


def test_audit_report_contents():
    report = experiments.audit()
    assert report.published_formula_quarter == pytest.approx(158.0 / 128.0, abs=1e-9)
    assert report.published_formula_three_quarter == pytest.approx(-15.0 / 64.0, abs=1e-9)
    assert report.published_formula_quarter > 1.0 or report.published_formula_three_quarter < 0.0
    assert report.closed_form_gap_quarter == pytest.approx(0.234375, abs=1e-9)
    assert report.transcription_max_dev <= 1e-9
    assert len(report.three_quarter_rows) == 4
    for r, computed, published, dev in report.three_quarter_rows:
        assert computed == pytest.approx(COMPUTED_THREE_QUARTER[r], abs=1e-6)
        assert published == experiments.PUBLISHED_P_THREE_QUARTER[r]
        assert 0.02 <= dev <= 0.11  # unresolved column, reported side by side


@pytest.mark.parametrize("alpha", [1e3, 1e8, 1e12])
def test_audit_transcription_stays_at_rounding_level_at_large_alpha(alpha):
    """closed_form_rho takes B = a / sqrt(4 mu (mu + omega)), not sqrt((mu - omega) / (4 mu)),
    whose cancelling mu - omega put the transcription 5e-9 off the reference engine at alpha = 1e8."""
    assert experiments.audit(alpha).transcription_max_dev <= 1e-15


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_table1_and_audit_make_one_engine_call_per_grid(monkeypatch):
    """table1's 5 R x 2 T and audit's 5 R x 64 T grids each go through the engine
    (and, in audit, the published rho(t)) in one call, not one call per R."""
    engine_calls = count_calls(monkeypatch, engines, "evolve_eigenbasis")
    closed_form_calls = count_calls(monkeypatch, engines, "closed_form_rho")
    experiments.table1()
    assert (len(engine_calls), len(closed_form_calls)) == (1, 0)
    engine_calls.clear()
    experiments.audit()
    assert (len(engine_calls), len(closed_form_calls)) == (2, 1)  # its grid, plus its table1


@pytest.mark.parametrize("alpha", [1.5, 4.0, 12.0])
def test_table1_and_audit_equal_their_per_r_loops(alpha):
    """The one-call grids give the values of one engine call per R.  At
    alpha = 1.5 the largest audit deviation is at R = 0.005, not in the first R block."""
    block, spectrum = experiments.scaled_system(alpha)
    rho0 = experiments.initial_state()
    r_values = (0.0,) + experiments.PUBLISHED_R_VALUES
    pair = np.array([math.pi / 4.0, 3.0 * math.pi / 4.0])
    grid = np.linspace(0.0, 2.0 * math.pi, 64)
    rows, per_r = experiments.table1(alpha=alpha), []
    for row, r in zip(rows, r_values, strict=True):
        gamma = experiments.kick_rate(r)
        states = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, pair, gamma))
        assert row.r == r
        assert row.p_quarter == observables.p_ghz(states, observables.GHZ_TARGETS["minus"])[0]
        assert row.p_three_quarter == observables.p_ghz(states, observables.GHZ_TARGETS["plus"])[1]
        ref = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, grid, gamma))
        per_r.append(float(np.abs(ref.entries - engines.closed_form_rho(block, spectrum, grid, gamma).entries).max()))
    assert experiments.audit(alpha).transcription_max_dev == max(per_r)


@pytest.mark.parametrize("bad", [dict(alpha=math.nan), dict(alpha=math.inf),
                                 dict(r_values=(math.nan,)), dict(r_values=(0.01, math.inf))])
def test_sweep_rejects_non_finite(bad):
    # the batched sweep evaluates a whole R column at once, so sweep checks
    # alpha and every R before its first engine call, not per grid point
    with pytest.raises(ValidationError):
        small_sweep(**bad)


@pytest.mark.parametrize("alpha", [1.0001, 4.0, 100.0, 5e153])
def test_scaled_block_has_sideband_coupling_exactly_one(alpha):
    """a = 1 is an input of the block, not the product of invented couplings, so
    every coupled (m, n) block holds 2.0 on (1,4) and reads a = 1.0 exactly."""
    for m in range(1, 40):
        for n in range(1, 40):
            block, _ = experiments.scaled_system(alpha, model.ModeIndices(m, n))
            assert (block.entries[0, 3], block.a) == (2.0, 1.0), (m, n)


@pytest.mark.parametrize("m,n", [(0, 3), (3, 0), (0, 0)])
def test_scaled_system_rejects_a_decoupled_block(m, n):
    with pytest.raises(ValidationError, match="m >= 1 and n >= 1"):
        experiments.scaled_system(4.0, model.ModeIndices(m, n))
