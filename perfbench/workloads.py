"""The four workloads: each turns a seed into an endless stream of ops.

An op is one or more `iondeco.cli.main(argv)` calls plus the gate that checks
the files they wrote.  The program sees only the generated argv.  Why each
workload exists, and which layer metric should move which end-to-end metric
on it, is written up in README.md next to this file.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import reference as ref

DEFAULT_R = ref.PUBLISHED_R  # the CLI's default --r is the published set
MC_TRAJECTORIES = 100_000


class Op(NamedTuple):
    calls: tuple[tuple[str, ...], ...]
    check: Callable[[], list[str]]


def grid_points(argv) -> int:
    """(R, T) points one cli call evaluates, read from its argv and the CLI defaults."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "sweep":
        n_t = int(round(float(flags.get("--t-max-deg", 360.0)) / float(flags.get("--t-step-deg", 0.25)))) + 1
        return n_t * len(flags.get("--r", ",".join(map(str, DEFAULT_R))).split(","))
    # table1: 5 R x 2 T; audit: 5 R x 64 T transcription grid + 4 R at 3 pi/4
    return {"table1": 10, "audit": 324, "evolve": 1}.get(argv[0], 0)


def op_points(op: Op) -> int:
    return sum(grid_points(argv) for argv in op.calls)


def paper_repro(rng: random.Random, work: Path, sp: ref.Spectrum) -> Iterator[Op]:
    sweep, table1, audit = work / "sweep.csv", work / "table1.csv", work / "audit.txt"
    calls = (("sweep", "--out", str(sweep)), ("table1", "--out", str(table1)), ("audit", "--out", str(audit)))

    def check():
        return (ref.check_sweep(sweep, sp, DEFAULT_R, 360.0, 0.25) + ref.check_table1(table1, sp)
                + ref.check_audit(audit, sp))

    while True:
        yield Op(calls, check)


def point_evolve(rng: random.Random, work: Path, sp: ref.Spectrum) -> Iterator[Op]:
    out = work / "evolve.csv"
    while True:
        engine = rng.choice(("eigen", "poisson", "unitary"))
        r = 0.1 * (1.0 - rng.random())  # (0, 0.1]
        t_deg = 360.0 * rng.random()
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        argv = ("evolve", "--engine", engine, "--r", repr(r), "--t-max-deg", repr(t_deg),
                "--m", str(m), "--n", str(n), "--out", str(out))
        yield Op((argv,), lambda e=engine, r=r, t=t_deg, m=m, n=n: ref.check_evolve(out, sp, e, r, t, m, n))


def mc_crosscheck(rng: random.Random, work: Path, sp: ref.Spectrum) -> Iterator[Op]:
    out = work / "mc.csv"
    while True:
        r = rng.choice(ref.PUBLISHED_R)
        t_deg = 180.0 * rng.random()
        argv = ("evolve", "--engine", "mc", "--n-traj", str(MC_TRAJECTORIES), "--seed", str(rng.randrange(2**31)),
                "--r", repr(r), "--t-max-deg", repr(t_deg), "--out", str(out))
        yield Op((argv,), lambda r=r, t=t_deg: ref.check_evolve(out, sp, "mc", r, t, n_traj=MC_TRAJECTORIES))


def ode_sweep(rng: random.Random, work: Path, sp: ref.Spectrum) -> Iterator[Op]:
    out = work / "ode.csv"
    while True:
        r = rng.choice(ref.PUBLISHED_R)
        argv = ("sweep", "--engine", "ode", "--r", repr(r), "--t-max-deg", "180", "--t-step-deg", "2",
                "--out", str(out))
        yield Op((argv,), lambda r=r: ref.check_sweep(out, sp, (r,), 180.0, 2.0, tol=ref.ODE_TOL))


WORKLOADS = {
    "paper_repro": paper_repro,
    "point_evolve": point_evolve,
    "mc_crosscheck": mc_crosscheck,
    "ode_sweep": ode_sweep,
}

# op_tail_ms is the highest of p50/75/90/95/99/99.9 that keeps at least ten
# ops beyond it at the op rate of a 25 s run, fixed per workload so that the
# parent and a faster change report the same percentile.
TAIL_PERCENTILE = {"paper_repro": 75, "point_evolve": 99, "mc_crosscheck": 90, "ode_sweep": 50}

# The calibration kernel (run.KERNELS) whose slowdown under contention tracks
# the workload's: interpreter-bound per-point loops, or the memory-bound MC.
KERNEL = {"paper_repro": "interpreter", "point_evolve": "interpreter", "mc_crosscheck": "memory",
          "ode_sweep": "interpreter"}

# The traced run prints each workload's share of op time next to the split
# the benchmark was designed around: (modules or functions, least share).
EXPECTED_SPLIT = {
    "paper_repro": (("engines", "observables", "experiments"), 0.80),
    "mc_crosscheck": (("engines.evolve_monte_carlo",), 0.95),
    "ode_sweep": (("engines.evolve_ode",), 0.95),
    "point_evolve": (("cli", "model"), None),  # None: the largest share of any layer
}
