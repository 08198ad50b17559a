"""Independent physics reference and the per-op output gates.

Nothing here imports iondeco.  The 4x4 block is rebuilt from the model's
definition in scaled units (sideband coupling a = 1, so the (1,4) entry is
2 and omega = sqrt(alpha^2 - 1)) and diagonalised with numpy.linalg.eigh.
From that one spectrum come three density matrices:

* first order:    coherence (p,q) times exp(-i D T - D^2 T R / 2)
* exact Poisson:  coherence (p,q) times exp((T/R) (exp(-i D R) - 1))
* unitary:        R = 0 of either

with D = E_p - E_q.  The Monte Carlo standard error comes from the exact
kick-count distribution N ~ Poisson(T/R), never from the engine's output.

Every gate reads the file the CLI wrote and returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

# Published values (the paper's Table 1 and kick periods) that table1 echoes.
PUBLISHED_R = (0.001, 0.005, 0.01, 0.1)
PUBLISHED_P_QUARTER = {0.0: 1.0, 0.001: 0.99, 0.005: 0.94, 0.01: 0.89, 0.1: 0.53}
PUBLISHED_P_THREE_QUARTER = {0.0: 1.0, 0.001: 0.94, 0.005: 0.78, 0.01: 0.65, 0.1: 0.37}
PUBLISHED_OMEGA_RAD_S = 8.95e6
# The published P(T) at T = pi/4 and 3 pi/4 without decoherence, as the audit pins them.
AUDIT_PINNED = (1.234375, -0.234375)

FIRST_ORDER_TOL = 1e-9  # criterion 4: engines equal the first-order reference
ODE_TOL = 1e-6  # criterion 5a: RK4 against the first-order reference
MC_SIGMAS = 5.0
# Entries that vanish by symmetry have a zero standard error; allow rounding.
MC_FLOOR = 1e-12
INITIAL_INDEX = 2  # |g,0,0> (|g,m-1,n-1> of the block)


def fmt_slack(value: float) -> float:
    """Half a unit in the 9th significant digit: the CLI's rounding of `value`."""
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 8)


class Spectrum:
    """eigh of the scaled block, with the initial state in the eigenbasis."""

    def __init__(self, alpha: float):
        omega = math.sqrt(alpha * alpha - 1.0)
        h = np.zeros((4, 4))
        h[0, 1] = h[1, 0] = h[2, 3] = h[3, 2] = omega
        h[0, 3] = h[3, 0] = 2.0
        self.w, self.q = np.linalg.eigh(h)
        self.delta = self.w[:, None] - self.w[None, :]
        rho0 = np.zeros((4, 4))
        rho0[INITIAL_INDEX, INITIAL_INDEX] = 1.0
        self.rho_eig = self.q.T @ rho0 @ self.q

    def _rho(self, factor: np.ndarray) -> np.ndarray:
        return self.q @ (self.rho_eig * factor) @ self.q.T

    def first_order(self, t, r: float) -> np.ndarray:
        """rho at scaled times t (array -> stack of 4x4); r = 0 is unitary."""
        t = np.asarray(t, dtype=float)[..., None, None]
        d = self.delta
        return self._rho(np.exp(-1j * d * t - d * d * t * r / 2.0))

    def exact_poisson(self, t, r: float) -> np.ndarray:
        if r == 0.0:
            return self.first_order(t, 0.0)
        t = np.asarray(t, dtype=float)[..., None, None]
        return self._rho(np.exp((t / r) * np.expm1(-1j * self.delta * r)))

    def kick_standard_errors(self, t: float, r: float, n_traj: int) -> tuple[np.ndarray, np.ndarray]:
        """Standard errors of the real and imaginary parts of the n_traj-sample
        mean of U^N rho0 U^-N, N ~ Poisson(t/r), from the exact pmf of N."""
        lam = t / r
        if lam == 0.0:
            return np.zeros((4, 4)), np.zeros((4, 4))
        spread = 15.0 * math.sqrt(lam) + 30.0
        ks = np.arange(max(0, int(lam - spread)), int(lam + spread) + 1, dtype=float)
        log_pmf = ks * math.log(lam) - lam - np.array([math.lgamma(k + 1.0) for k in ks])
        pmf = np.exp(log_pmf)
        states = self._rho(np.exp(-1j * self.delta[None] * (ks * r)[:, None, None]))
        mean = np.tensordot(pmf, states, axes=1) / pmf.sum()
        var_re = np.tensordot(pmf, (states.real - mean.real) ** 2, axes=1) / pmf.sum()
        var_im = np.tensordot(pmf, (states.imag - mean.imag) ** 2, axes=1) / pmf.sum()
        return np.sqrt(var_re / n_traj), np.sqrt(var_im / n_traj)


def ghz_vector(sign: str) -> np.ndarray:
    """(|g,0,0> -/+ i |e,1,1>)/sqrt 2 in the basis (g11, e11, g00, e00)."""
    v = np.zeros(4, dtype=complex)
    v[2] = 1.0 / math.sqrt(2.0)
    v[1] = (-1j if sign == "minus" else 1j) / math.sqrt(2.0)
    return v


def probability(rho: np.ndarray, sign: str) -> np.ndarray:
    v = ghz_vector(sign)
    return np.einsum("i,...ij,j->...", v.conj(), rho, v).real


def purity(rho: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...ji->...", rho, rho).real


def _clamp(p):
    return np.clip(p, 0.0, 1.0)


def _compare(label: str, got: float, want: float, tol: float, problems: list[str]) -> None:
    slack = tol + max(fmt_slack(want), fmt_slack(got))
    if not abs(got - want) <= slack:
        problems.append(f"{label}: got {got!r}, want {want!r} (|diff| {abs(got - want):.3e} > {slack:.3e})")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError(f"{path}: missing metadata or header line")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def check_sweep(path: Path, sp: Spectrum, r_values, t_max_deg: float, t_step_deg: float,
                tol: float = FIRST_ORDER_TOL) -> list[str]:
    """Both-target sweep on the grid j * t_step_deg, j = 0 .. round(t_max/t_step)."""
    problems: list[str] = []
    header, rows = _read_csv(path)
    want_header = ["t_rad", "t_deg"]
    for r in r_values:
        want_header += [f"p_minus_r{r:.9g}", f"p_plus_r{r:.9g}", f"purity_r{r:.9g}"]
    if header != want_header:
        return [f"sweep header {header} != {want_header}"]
    n_t = int(round(t_max_deg / t_step_deg)) + 1
    if len(rows) != n_t:
        return [f"sweep has {len(rows)} rows, want {n_t}"]
    got = np.array(rows, dtype=float)
    t_deg = np.arange(n_t) * t_step_deg
    t_rad = np.radians(t_deg)
    want = [t_rad, t_deg]
    for r in r_values:
        rho = sp.first_order(t_rad, r)
        want += [_clamp(probability(rho, "minus")), _clamp(probability(rho, "plus")), purity(rho)]
    want = np.stack(want, axis=1)
    slack = np.where(np.arange(want.shape[1]) < 2, 0.0, tol) + 5e-9 * np.maximum(np.abs(want), np.abs(got))
    bad = np.argwhere(~(np.abs(got - want) <= slack))
    for i, j in bad[:5]:
        problems.append(f"sweep row {i} {header[j]}: got {got[i, j]!r}, want {want[i, j]!r}")
    if len(bad) > 5:
        problems.append(f"... {len(bad) - 5} more sweep cells off")
    return problems


def check_table1(path: Path, sp: Spectrum, alpha: float = 4.0) -> list[str]:
    problems: list[str] = []
    header, rows = _read_csv(path)
    if header[:3] != ["r", "inv_gamma_ns", "p_quarter"] or len(rows) != 1 + len(PUBLISHED_R):
        return [f"table1 layout unexpected: {header}, {len(rows)} rows"]
    a_rad_s = PUBLISHED_OMEGA_RAD_S / math.sqrt(alpha * alpha - 1.0)
    for row, r in zip(rows, (0.0,) + PUBLISHED_R):
        got = [float(x) for x in row]
        p_q = float(_clamp(probability(sp.first_order(math.pi / 4.0, r), "minus")))
        p_tq = float(_clamp(probability(sp.first_order(3.0 * math.pi / 4.0, r), "plus")))
        pub_q, pub_tq = PUBLISHED_P_QUARTER[r], PUBLISHED_P_THREE_QUARTER[r]
        want = [r, r / a_rad_s * 1e9, p_q, pub_q, abs(p_q - pub_q), p_tq, pub_tq, abs(p_tq - pub_tq)]
        for name, g, w in zip(header, got, want):
            _compare(f"table1 R={r} {name}", g, w, FIRST_ORDER_TOL, problems)
    return problems


def check_units(path: Path, alpha: float = 4.0) -> list[str]:
    """`units` at the published laser coupling and the CLI's default R list."""
    problems: list[str] = []
    header, rows = _read_csv(path)
    meta = dict(item.split("=", 1) for item in Path(path).read_text(encoding="utf-8").split("\n", 1)[0][2:].split())
    a_rad_s = PUBLISHED_OMEGA_RAD_S / math.sqrt(alpha * alpha - 1.0)
    _compare("units a_rad_s", float(meta.get("a_rad_s", "nan")), a_rad_s, 0.0, problems)
    _compare("units t_quarter_us", float(meta.get("t_quarter_us", "nan")), math.pi / 4.0 / a_rad_s * 1e6, 0.0,
             problems)
    if [float(row[0]) for row in rows] != list(PUBLISHED_R):
        return problems + [f"units rows {rows} do not cover R = {PUBLISHED_R}"]
    for r, inv_gamma_ns in rows:
        _compare(f"units R={r} inv_gamma_ns", float(inv_gamma_ns), float(r) / a_rad_s * 1e9, 0.0, problems)
    return problems


_AUDIT_PINNED = re.compile(r"T = (?:pi/4 |3pi/4) : (\S+)")
_AUDIT_ROW = re.compile(r"R=(\S+)\s+computed=(\S+)")


def check_audit(path: Path, sp: Spectrum) -> list[str]:
    problems: list[str] = []
    text = Path(path).read_text(encoding="utf-8")
    pinned = [float(x) for x in _AUDIT_PINNED.findall(text)]
    if len(pinned) != 2:
        return [f"audit: found {len(pinned)} pinned values, want 2"]
    for label, got, want in zip(("pi/4", "3pi/4"), pinned, AUDIT_PINNED):
        _compare(f"audit published P({label})", got, want, FIRST_ORDER_TOL, problems)
    rows = _AUDIT_ROW.findall(text)
    if [float(r) for r, _ in rows] != list(PUBLISHED_R):
        return problems + [f"audit: computed rows {rows} do not cover R = {PUBLISHED_R}"]
    for r, value in rows:
        want = float(probability(sp.first_order(3.0 * math.pi / 4.0, float(r)), "plus"))
        _compare(f"audit computed R={r}", float(value), want, FIRST_ORDER_TOL, problems)
    return problems


def check_evolve(path: Path, sp: Spectrum, engine: str, r: float, t_deg: float,
                 m: int = 1, n: int = 1, n_traj: int | None = None) -> list[str]:
    """`evolve` dump: scalars within 1e-9 of the engine's reference, or, for
    mc, rho entries within 5 exact standard errors of the Poisson average."""
    problems: list[str] = []
    header, rows = _read_csv(path)
    if header != ["quantity", "value"]:
        return [f"evolve header {header}"]
    got = {row[0]: float(row[1]) for row in rows}
    t = math.radians(t_deg)
    if engine == "eigen":
        rho = sp.first_order(t, r)
    elif engine == "unitary":
        rho = sp.first_order(t, 0.0)
    else:
        rho = sp.exact_poisson(t, r)
    labels = (f"g:{m}:{n}", f"e:{m}:{n}", f"g:{m - 1}:{n - 1}", f"e:{m - 1}:{n - 1}")
    want = {"t_scaled_rad": t, "r": r}
    if engine == "mc":
        se_re, se_im = sp.kick_standard_errors(t, r, n_traj)
    else:
        want["purity"] = float(purity(rho))
        want.update({f"population[{lab}]": float(rho[i, i].real) for i, lab in enumerate(labels)})
        if (m, n) == (1, 1):
            for sign in ("minus", "plus"):
                want[f"p_ghz_{sign}"] = float(_clamp(probability(rho, sign)))
    for i in range(4):
        for j in range(4):
            want[f"rho[{i}][{j}].re"] = float(rho[i, j].real)
            want[f"rho[{i}][{j}].im"] = float(rho[i, j].imag)
    for key, value in want.items():
        if key not in got:
            problems.append(f"evolve output lacks {key}")
            continue
        tol = FIRST_ORDER_TOL
        if engine == "mc" and key.startswith("rho["):
            i, j = int(key[4]), int(key[7])
            se = se_re if key.endswith(".re") else se_im
            tol = MC_SIGMAS * float(se[i, j]) + MC_FLOOR
        _compare(f"evolve {engine} {key}", got[key], value, tol, problems)
    return problems
