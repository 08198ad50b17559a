"""iondeco benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The checkout's own src/ goes first on
sys.path (iondeco need not be installed), and every op goes through the
stable interface `iondeco.cli.main(argv)`.  Each op's output files are gated
against references computed here (reference.py); an op fails on a non-zero
exit, an exception, or a failed gate.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same ops twice,
first untraced and then under the outside-in tracer (tracer.py), and prints
the per-layer metrics.  The last line of stdout is the JSON result; the
environment and per-run details go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import reference as ref
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 11
WARMUP_SECONDS = 1.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# A fresh interpreter that imports the checkout's CLI and runs one `units`,
# then times the interpreter kernel and prints the median reading and the
# seconds that took, so the parent can take them out of the set-up time.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from iondeco.cli import main
code = main(['units', '--out', sys.argv[2]])
start = time.perf_counter()
sys.path.insert(0, sys.argv[3])
from run import interpreter_kernel
readings = sorted(interpreter_kernel() for _ in range(5))
print(readings[2], time.perf_counter() - start)
sys.exit(code)
"""


class BenchError(Exception):
    """The benchmark cannot measure this checkout; no result is printed."""


def load_iondeco():
    if not (SRC / "iondeco" / "cli.py").is_file():
        raise BenchError(f"no iondeco sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import iondeco
    from iondeco import cli, engines, experiments, model, observables

    if Path(iondeco.__file__).resolve().parent != (SRC / "iondeco").resolve():
        raise BenchError(f"imported iondeco from {iondeco.__file__}, not from {SRC}")
    modules = {"cli": cli, "experiments": experiments, "engines": engines,
               "observables": observables, "model": model}
    return iondeco, modules


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        if (git / ref_name).is_file():
            return (git / ref_name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(iondeco, seed: int) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "cpu_count": os.cpu_count(),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS}, "seed": seed,
            "iondeco_file": iondeco.__file__, "git_commit": git_commit()}


def measure_setup() -> list[tuple[float, float]]:
    """(seconds, slowdown) for a fresh interpreter to import iondeco.cli and
    finish one `units`, SETUP_REPEATS times.  The child times the kernel on
    its own core right after the work, since it need not run on the parent's."""
    out = WORK / "units.csv"
    times = []
    for _ in range(SETUP_REPEATS):
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(out), str(HERE)], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up `units` exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        kernel_s, kernel_overhead_s = map(float, proc.stdout.split()[-2:])
        times.append((elapsed - kernel_overhead_s, slowdown("interpreter", kernel_s, kernel_s)))
        problems = ref.check_units(out)
        if problems:
            raise BenchError("set-up `units` output wrong: " + "; ".join(problems))
    return times


class Record(NamedTuple):
    """One op's outcome.  Only numbers and strings, so the garbage collector
    stops tracking it and thousands of records do not lengthen the program's
    own collections."""

    points: int
    latency: float  # seconds inside the op's cli.main calls
    slowdown: float  # machine slowdown around the op, see slowdown()
    problems: tuple[str, ...]

    @property
    def corrected(self) -> float:
        """Latency at the reference speed: what the op takes on an uncontended core."""
        return self.latency / self.slowdown


def interpreter_kernel() -> float:
    """Seconds for small numpy calls and interpreter work: the per-point mix."""
    m = np.full((4, 4), 0.1) + 0.4 * np.eye(4)
    v = np.linspace(0.0, 1.0, 16).reshape(4, 4)
    acc = 0.0
    start = time.perf_counter()
    for i in range(100):
        acc += float(np.exp(-1j * (m @ v)).real.sum()) + 0.5 * i
    return time.perf_counter() - start


def memory_kernel() -> float:
    """Seconds for a few passes over megabyte arrays: the Monte Carlo mix."""
    start = time.perf_counter()
    x = np.exp(-1j * np.linspace(0.0, 1.0, 400_000))
    float((x * x.conj()).real.sum())
    return time.perf_counter() - start


# kernel -> its time on an uncontended core of the 2-core Xeon the benchmark
# was tuned on; workloads.KERNEL says which kernel matches which workload
KERNELS = {"interpreter": (interpreter_kernel, 0.5e-3), "memory": (memory_kernel, 14e-3)}


def slowdown(kernel: str, before: float, after: float) -> float:
    """How much slower than the reference the core ran around an op.

    On a shared host, co-tenants slow this process's core by up to 2x for
    seconds at a time (the interpreter kernel reads either ~0.5 ms or ~0.95 ms
    on the tuning machine).  Timing a kernel just before and just after each
    op, and dividing the op's latency by the mean reading over the reference,
    removes most of that slowdown from the reported times.  A kernel slows
    with contention the way its workload does only if it does the same kind
    of work, hence one kernel per kind.
    """
    return 0.5 * (before + after) / KERNELS[kernel][1]


def run_op(cli, op: workloads.Op, kernel: str) -> Record:
    """Run one op and gate its output; an op fails on a non-zero exit, an
    exception, or a failed gate."""
    latency = 0.0
    problems: list[str] = []
    before = KERNELS[kernel][0]()
    for argv in op.calls:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = cli.main(list(argv))
            except Exception as exc:  # an uncaught error is a failed op, not a dead benchmark
                code = f"{type(exc).__name__}: {exc}"
            latency += time.perf_counter() - start
        if code != 0:
            problems.append(f"`{' '.join(argv[:3])} ...` exit {code}: {sink.getvalue().strip()[-200:]}")
    after = KERNELS[kernel][0]()
    if not problems:
        try:
            problems = op.check()
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
    return Record(workloads.op_points(op), latency, slowdown(kernel, before, after), tuple(problems))


def closed_loop(cli, ops, seconds: float, kernel: str, tracer=None) -> list[Record]:
    """Run ops back to back until `seconds` have passed (at least one op)."""
    records: list[Record] = []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if records and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.begin_op(index)
        records.append(run_op(cli, op, kernel))
    return records


def ops_failed_frac(records: list[Record]) -> float:
    return sum(1 for rec in records if rec.problems) / len(records)


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def latency_metrics(records: list[Record], tail_pct: float) -> tuple[dict, str]:
    lat_ms = [1e3 * rec.corrected for rec in records]
    raw_ms = [1e3 * rec.latency for rec in records]
    tail_ms, beyond = percentile(lat_ms, tail_pct)
    # the median of per-op rates: one op that a co-tenant slowed unseen moves a
    # mean of rates, not this
    rate = statistics.median(rec.points / rec.corrected for rec in records)
    metrics = {"points_per_s": (rate, "1/s"), "op_p50_ms": (statistics.median(lat_ms), "ms"),
               "op_tail_ms": (tail_ms, "ms")}
    note = (f"op_tail_ms is p{tail_pct:g} of {len(lat_ms)} ops ({beyond} beyond it"
            f"{'' if beyond >= 10 else ', FEWER THAN TEN'}); uncorrected: "
            f"p50 {statistics.median(raw_ms):.4f} ms, tail {percentile(raw_ms, tail_pct)[0]:.4f} ms, "
            f"median slowdown {statistics.median(rec.slowdown for rec in records):.3f}")
    return metrics, note


def split_line(workload: str, layer: dict) -> str:
    """Share of op time (cli.main total) taken by the layers the workload is about."""
    op_ms = layer.get("cli.main.total_ms")
    if not op_ms:
        return "split: cli.main absent, no op time to divide"
    names, least = workloads.EXPECTED_SPLIT[workload]
    # a module counts with its self time, a single function with its total time
    share = sum(layer.get(name + (".total_ms" if "." in name else ".self_ms")) or 0.0 for name in names) / op_ms
    shares = {m: (layer.get(f"{m}.self_ms") or 0.0) / op_ms for m in tracing.TRACED}
    if least is None:
        rest = max(v for m, v in shares.items() if m not in names)
        verdict = "largest" if share > rest else "NOT largest"
        claim = f"{verdict} (next layer {rest:.1%})"
    else:
        claim = f"{'>=' if share >= least else 'BELOW'} {least:.0%}"
    detail = ", ".join(f"{m} {v:.1%}" for m, v in shares.items())
    return f"split: {'+'.join(names)} = {share:.1%} of op time, {claim}; self shares: {detail}"


def print_layer_table(layer: dict) -> None:
    print(f"{'function':36s} {'calls/op':>10s} {'total ms/op':>12s} {'self ms/op':>11s} {'ms/call':>10s}")
    for module, functions in tracing.TRACED.items():
        for fn in functions:
            name = f"{module}.{fn}"
            calls = layer.get(f"{name}.calls")
            if calls is None:
                print(f"{name:36s} {'absent':>10s}")
            elif calls:
                total = layer[f"{name}.total_ms"]
                print(f"{name:36s} {calls:10.1f} {total:12.4f} {layer[f'{name}.self_ms']:11.4f} {total / calls:10.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        iondeco, modules = load_iondeco()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = environment(iondeco, args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))

    try:
        setup = measure_setup() if args.trace == 0 else []
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    make_ops = workloads.WORKLOADS[args.workload]
    sp = ref.Spectrum(4.0)
    cli = modules["cli"]
    kernel = workloads.KERNEL[args.workload]
    warm = closed_loop(cli, make_ops(random.Random(~args.seed), WORK, sp), WARMUP_SECONDS, kernel)

    def ops():
        return make_ops(random.Random(args.seed), WORK, sp)

    records = closed_loop(cli, ops(), args.seconds / 2 if args.trace else args.seconds, kernel)

    result: dict = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "environment": env}
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace == 0:
        metrics, note = latency_metrics(records, workloads.TAIL_PERCENTILE[args.workload])
        metrics["setup_s"] = (statistics.median(elapsed / slow for elapsed, slow in setup), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        result["setup_runs"] = [{"seconds": elapsed, "slowdown": slow} for elapsed, slow in setup]
        print(note + f"; set-up uncorrected median {statistics.median(e for e, _ in setup):.4f} s")
    else:
        tracer = tracing.Tracer()
        tracer.install(modules)
        try:
            traced = closed_loop(cli, itertools.islice(ops(), len(records)), float("inf"), kernel, tracer)
        finally:
            tracer.remove()
        points = sum(rec.points for rec in traced)
        layer = tracer.summary(len(traced), points)
        untraced_s = sum(rec.corrected for rec in records)
        layer["trace.overhead_frac"] = sum(rec.corrected for rec in traced) / untraced_s - 1.0
        metrics = {name: (layer[name] or 0.0, unit) for name, unit in tracing.layer_metrics().items()}
        absent = sorted(name for name in tracing.layer_metrics() if layer[name] is None)
        result["absent"] = absent
        np.savez(WORK / f"spans-{args.workload}-seed{args.seed}.npz", names=np.array(tracer.names),
                 **tracer.span_table())
        print_layer_table(layer)
        print(split_line(args.workload, layer))
        print(f"absent: {', '.join(absent) or 'none'}")
        records = records + traced

    failures = [rec.problems for rec in warm + records if rec.problems]
    attempted, failed = len(records), sum(1 for rec in records if rec.problems)
    print(f"ops_failed_frac: {ops_failed_frac(records):.6g} ({failed} of {attempted} ops)"
          + (f"; {len(warm)} warm-up ops not counted" if warm else ""))
    for problems in failures[:3]:
        print("failed op: " + "; ".join(problems[:3]), file=sys.stderr)
    result.update({"attempted": attempted, "failed": failed, "warmup_failed": sum(1 for rec in warm if rec.problems),
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "failures": failures[:20],
                   "ops_latency_s_slowdown": [[rec.latency, rec.slowdown] for rec in records]})
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
