"""Negative tests of the benchmark itself: each gate must count a perturbed
output as failed, the tracer's self-time arithmetic must be exact, and a
forced non-zero exit must show in ops_failed_frac.

    python3 perfbench/selftest.py        # exit 0 when every check holds
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
import types

import numpy as np

import reference as ref
import run
import tracer as tracing
import workloads

WORK = run.WORK / "selftest"


def _cli(cli, argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")


def _rewrite_cell(path, row: int, col: int, value: float) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[row].split(",")
    cells[col] = f"{value:.9g}"
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")


def sweep_gate_catches_1e6(cli, sp) -> list[str]:
    out = WORK / "sweep.csv"
    _cli(cli, ["sweep", "--t-max-deg", "20", "--t-step-deg", "1", "--out", str(out)])
    args = (out, sp, workloads.DEFAULT_R, 20.0, 1.0)
    errors = [f"clean sweep rejected: {p}" for p in ref.check_sweep(*args)]
    row, col = 2 + 7, 2  # T = 7 deg, p_minus at R = 0.001
    moved = float(out.read_text().split("\n")[row].split(",")[col]) + 1e-6
    _rewrite_cell(out, row, col, moved)
    if not ref.check_sweep(*args):
        errors.append("sweep probability moved by 1e-6 passed the gate")
    return errors


def mc_gate_catches_6_se(cli, sp) -> list[str]:
    out, r, t_deg, n_traj = WORK / "mc.csv", 0.01, 100.0, 20_000
    _cli(cli, ["evolve", "--engine", "mc", "--n-traj", str(n_traj), "--seed", "11", "--r", str(r),
               "--t-max-deg", str(t_deg), "--out", str(out)])
    args = (out, sp, "mc", r, t_deg, 1, 1, n_traj)
    errors = [f"clean mc rejected: {p}" for p in ref.check_evolve(*args)]
    t = math.radians(t_deg)
    se_re, _ = sp.kick_standard_errors(t, r, n_traj)
    i, j = np.unravel_index(np.argmax(se_re), se_re.shape)
    exact = sp.exact_poisson(t, r)[i, j].real
    row = next(k for k, line in enumerate(out.read_text().split("\n")) if line.startswith(f"rho[{i}][{j}].re,"))
    # 4 SE from the exact average must pass and 6 SE must fail: the gate sits between
    _rewrite_cell(out, row, 1, exact + 4.0 * se_re[i, j])
    errors += [f"mc entry 4 SE off rejected: {p}" for p in ref.check_evolve(*args)]
    _rewrite_cell(out, row, 1, exact + 6.0 * se_re[i, j])
    if not ref.check_evolve(*args):
        errors.append(f"mc rho[{i}][{j}].re 6 SE off the exact average passed the gate")
    return errors


def tracer_self_time() -> list[str]:
    """outer (10 s) calls inner twice (2 s, 3 s); outer's self time is 5 s."""
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    fake = types.ModuleType("fake")

    def inner():
        return 0

    def outer():
        fake.inner()
        fake.inner()
        return 0

    fake.main, fake.inner, fake.outer = outer, inner, outer
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.install({"cli": fake}, traced={"cli": ("main", "inner", "gone")})
    fake.main()
    tracer.remove()
    layer = tracer.summary(n_ops=1, points=1)
    want = {"cli.main.calls": 1, "cli.main.total_ms": 10e3, "cli.main.self_ms": 5e3,
            "cli.inner.calls": 2, "cli.inner.total_ms": 5e3, "cli.inner.self_ms": 5e3,
            "cli.gone.calls": None, "cli.self_ms": 10e3}
    errors = [f"{k} = {layer.get(k)}, want {v}" for k, v in want.items() if layer.get(k) != v]
    if fake.outer is not outer or fake.inner is not inner:
        errors.append("tracer.remove did not restore the module")
    return errors


def failed_frac_counts_nonzero_exit(cli, sp) -> list[str]:
    good = next(workloads.point_evolve(random.Random(3), WORK, sp))
    bad = workloads.Op((("evolve", "--alpha", "0.5", "--out", str(WORK / "bad.csv")),), lambda: [])
    records = run.closed_loop(cli, iter([good, bad]), float("inf"), "interpreter")
    frac = run.ops_failed_frac(records)
    return [] if frac == 0.5 else [f"ops_failed_frac = {frac} for one forced exit in two ops, want 0.5"]


def main() -> int:
    _, modules = run.load_iondeco()
    cli = modules["cli"]
    WORK.mkdir(parents=True, exist_ok=True)
    sp = ref.Spectrum(4.0)
    checks = {
        "sweep gate counts a probability moved by 1e-6": lambda: sweep_gate_catches_1e6(cli, sp),
        "mc gate counts an entry moved by 6 SE": lambda: mc_gate_catches_6_se(cli, sp),
        "tracer self time on a synthetic nested call": tracer_self_time,
        "ops_failed_frac counts a forced non-zero exit": lambda: failed_frac_counts_nonzero_exit(cli, sp),
    }
    failed = 0
    for name, check in checks.items():
        errors = check()
        failed += bool(errors)
        print(f"{'FAIL' if errors else 'ok  '} {name}" + "".join(f"\n     {e}" for e in errors))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
