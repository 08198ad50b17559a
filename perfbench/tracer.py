"""Outside-in tracer: wraps public functions of iondeco's modules by replacing
the module attributes, so calls made through the module (``engines.evolve_ode``)
or through a module global (``emit_csv`` inside cli) both land in the wrapper.

Spans (function, start, end, parent span, op) are kept in flat arrays in
memory and reduced when the run ends.  Self time is a span's duration minus
the durations of its direct children; calls nest on one thread, so the
children never overlap.  A listed function that the module no longer has is
recorded as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import math
import time
from array import array

import numpy as np

TRACED = {
    "cli": ("main", "run", "emit_csv"),
    "experiments": ("sweep", "table1", "audit", "scaled_system"),
    "engines": ("EvolutionRequest", "evolve_eigenbasis", "evolve_poisson", "evolve_unitary",
                "evolve_ode", "evolve_monte_carlo", "closed_form_rho"),
    "observables": ("p_ghz", "purity", "clamp_probability", "ghz_state"),
    "model": ("build_hamiltonian", "spectrum_analytic"),
}
ENGINE_ENTRIES = ("engines.evolve_eigenbasis", "engines.evolve_poisson", "engines.evolve_unitary",
                  "engines.evolve_ode", "engines.evolve_monte_carlo")
COUNTS = ("engines.calls_per_point", "engines.ode_steps", "engines.ode_restart_ratio",
          "engines.mc_trajectories", "cli.emit_csv.bytes", "engines.errors", "cli.main.nonzero_exits")


def _find_attr(args, kwargs, attr):
    for value in list(args) + list(kwargs.values()):
        if hasattr(value, attr):
            return value
    raise LookupError(attr)


def _ode_dt(block, req) -> float:
    """The step evolve_ode takes: req.dt, else 1e-3 / mu of the block."""
    if req.dt is not None:
        return req.dt
    h = np.asarray(block.entries)
    return 1e-3 / math.hypot(0.5 * h[0, 3], h[0, 1])


def layer_metrics() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for module, functions in TRACED.items():
        for fn in functions:
            units.update({f"{module}.{fn}.calls": "count/op", f"{module}.{fn}.total_ms": "ms/op",
                          f"{module}.{fn}.self_ms": "ms/op"})
    units.update({f"{module}.self_ms": "ms/op" for module in TRACED})
    units.update(zip(COUNTS, ("calls/point", "steps/op", "ratio", "count/op", "B/op", "count", "count")))
    units["trace.overhead_frac"] = "fraction"
    return units


class Tracer:
    """Install with `install(modules)`, mark ops with `begin_op`, then `remove`
    and `summary(n_ops, points)`.  `clock` may be replaced by a test."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._fid, self._parent, self._op = array("i"), array("i"), array("i")
        self._start, self._end = array("d"), array("d")
        self._stack: list[int] = []
        self._current_op = -1
        self.errors = 0
        self.nonzero_exits = 0
        self.emit_bytes = 0
        self.mc_trajectories = 0
        self.ode_steps = 0.0
        self._ode_march: dict[int, float] = {}
        self.count_failures: set[str] = set()

    def install(self, modules: dict, traced: dict = TRACED) -> None:
        """Wrap `traced` (layer -> function names); modules maps layer -> module."""
        hooks = {"cli.main": self._on_main, "cli.emit_csv": self._on_emit,
                 "engines.evolve_ode": self._on_ode, "engines.evolve_monte_carlo": self._on_mc}
        for layer, functions in traced.items():
            module = modules[layer]
            for fn_name in functions:
                name = f"{layer}.{fn_name}"
                self.names.append(name)
                original = getattr(module, fn_name, None)
                if original is None:
                    self.absent.append(name)
                    continue
                self._saved.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap(original, len(self.names) - 1, hooks.get(name)))

    def remove(self) -> None:
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    def begin_op(self, op: int) -> None:
        self._current_op = op

    def _wrap(self, fn, fid: int, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer._fid)
            tracer._fid.append(fid)
            tracer._parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer._op.append(tracer._current_op)
            tracer._end.append(0.0)
            tracer._stack.append(sid)
            tracer._start.append(tracer.clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer._end[sid] = tracer.clock()
                tracer._stack.pop()
                if tracer.names[fid].startswith("engines."):
                    tracer.errors += 1
                raise
            tracer._end[sid] = tracer.clock()
            tracer._stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # counts taken at the layer boundary; a signature they cannot read marks
    # the count absent instead of failing the op
    def _on_main(self, args, kwargs, result):
        if result != 0:
            self.nonzero_exits += 1

    def _on_emit(self, args, kwargs, result):
        if isinstance(result, int):
            self.emit_bytes += result
        else:
            self.count_failures.add("cli.emit_csv.bytes")

    def _on_mc(self, args, kwargs, result):
        try:
            self.mc_trajectories += int(_find_attr(args, kwargs, "n_traj").n_traj)
        except (LookupError, TypeError):
            self.count_failures.add("engines.mc_trajectories")

    def _on_ode(self, args, kwargs, result):
        try:
            req = _find_attr(args, kwargs, "dt")
            steps = float(np.max(req.t)) / _ode_dt(_find_attr(args, kwargs, "entries"), req)
        except (LookupError, TypeError, ValueError, IndexError, ZeroDivisionError):
            self.count_failures.update(("engines.ode_steps", "engines.ode_restart_ratio"))
            return
        self.ode_steps += steps
        self._ode_march[self._current_op] = max(self._ode_march.get(self._current_op, 0.0), steps)

    def span_table(self) -> dict[str, np.ndarray]:
        fid = np.array(self._fid, dtype=np.int32)
        parent = np.array(self._parent, dtype=np.int32)
        dur = np.array(self._end, dtype=np.float64) - np.array(self._start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {"fid": fid, "parent": parent, "op": np.array(self._op, dtype=np.int32),
                "dur": dur, "self": dur - child}

    def summary(self, n_ops: int, points: int) -> dict[str, float | None]:
        """Per-layer metrics, normalised per op; None marks an absent one."""
        spans = self.span_table()
        k = len(self.names)
        calls = np.bincount(spans["fid"], minlength=k)
        total = np.bincount(spans["fid"], weights=spans["dur"], minlength=k)
        self_t = np.bincount(spans["fid"], weights=spans["self"], minlength=k)
        out: dict[str, float | None] = {}
        module_self: dict[str, float] = {}
        for i, name in enumerate(self.names):
            present = name not in self.absent
            out[f"{name}.calls"] = calls[i] / n_ops if present else None
            out[f"{name}.total_ms"] = 1e3 * total[i] / n_ops if present else None
            out[f"{name}.self_ms"] = 1e3 * self_t[i] / n_ops if present else None
            layer = name.split(".")[0]
            module_self[layer] = module_self.get(layer, 0.0) + 1e3 * self_t[i] / n_ops
        out.update({f"{layer}.self_ms": value for layer, value in module_self.items()})

        entry_ids = [i for i, name in enumerate(self.names) if name in ENGINE_ENTRIES]
        parent_fid = np.where(spans["parent"] >= 0, spans["fid"][np.maximum(spans["parent"], 0)], -1)
        engine_ids = [i for i, name in enumerate(self.names) if name.startswith("engines.")]
        entries = np.isin(spans["fid"], entry_ids) & ~np.isin(parent_fid, engine_ids)
        out["engines.calls_per_point"] = int(entries.sum()) / points if points else None
        one_march = sum(self._ode_march.values())
        out["engines.ode_steps"] = self.ode_steps / n_ops
        out["engines.ode_restart_ratio"] = self.ode_steps / one_march if one_march else 0.0
        out["engines.mc_trajectories"] = self.mc_trajectories / n_ops
        out["cli.emit_csv.bytes"] = self.emit_bytes / n_ops
        out["engines.errors"] = float(self.errors)
        out["cli.main.nonzero_exits"] = float(self.nonzero_exits)
        for name in self.count_failures:
            out[name] = None
        return out
