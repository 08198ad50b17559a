"""Command-line front end.

Configuration comes from an optional plain-text file (`key = value` lines,
`#` comments) overridden by command-line flags.  Exit codes: 0 success,
1 usage/parse error, 2 input validation error, 3 numerical or I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys

import numpy as np

from . import __version__, engines, experiments, model, observables
from .errors import ConfigError, NumericalError, ValidationError


# Each parser reads one key from a flag or from the config file; it is an
# argparse type, so a bad flag value is reported with the flag's name.
def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _parse_r_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(part.strip()) for part in text.split(",") if part.strip())


def _parse_choice(options):
    def parse(text: str) -> str:
        if text not in options:
            raise argparse.ArgumentTypeError(f"expected one of {options}, got {text!r}")
        return text
    return parse


def _parse_optional_float(text: str):
    if text in ("", "none", "None", "-"):
        return None
    return _parse_float(text)


# key -> (parser, default); this fixed order is also the metadata order
CONFIG_SPEC = {
    "alpha": (_parse_float, 4.0),
    "r": (_parse_r_list, experiments.PUBLISHED_R_VALUES),
    "t_max_deg": (_parse_float, 360.0),
    "t_step_deg": (_parse_float, 0.25),
    "target": (_parse_choice(observables.SIGNS + ("both",)), "both"),
    "engine": (_parse_choice(tuple(engines.ENGINES)), "eigen"),
    "omega_rad_s": (_parse_float, experiments.PUBLISHED_OMEGA_RAD_S),
    "m": (_parse_int, 1),
    "n": (_parse_int, 1),
    "dt": (_parse_optional_float, None),
    "tail_tol": (_parse_float, 1e-12),
    "n_traj": (_parse_int, 100_000),
    "seed": (_parse_int, 0),
    "out": (str, None),
}

# each flag, spelled in full -> its namespace key and its parser, which argparse calls too
_FLAGS = {"--config": ("config", str)} | {"--" + key.replace("_", "-"): (key, parse)
                                          for key, (parse, _) in CONFIG_SPEC.items()}
_UNSET = {key: None for key, _ in _FLAGS.values()}

# Largest sweep grid (T points x R values).  The batched engines peak at about
# 1,280 B per T point of one R column (tracemalloc); a one-R sweep at the cap peaks near 345 MB RSS.
MAX_GRID_POINTS = 250_000


def parse_config_file(text: str) -> dict:
    """Parse `key = value` lines; unknown keys, malformed lines, and duplicate
    keys are reported with their line number."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: malformed line (expected 'key = value'): {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_SPEC:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = CONFIG_SPEC[key][0](value)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    return values


def parse_config(file_text: str | None, flag_values: dict) -> dict:
    """Merge defaults, config file, and flags; flags win."""
    config = {key: default for key, (_, default) in CONFIG_SPEC.items()}
    if file_text is not None:
        config.update(parse_config_file(file_text))
    config.update({k: v for k, v in flag_values.items() if v is not None})
    return config


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit code 1
        raise ConfigError(message)


@functools.cache  # built on the first call, then shared by every main() of the process
def _build_parser() -> _Parser:
    """The top-level parser, one subparser per command."""
    common = argparse.ArgumentParser(add_help=False)
    for flag, (_, parse) in _FLAGS.items():
        common.add_argument(flag, type=parse, metavar="PATH" if flag == "--config" else None)
    parser = _Parser(prog="iondeco", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, text) in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=text)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The top-level parse_args.  A command and exact `--key value` pairs with no value
    starting with '-' skip argparse, which would make the same parser calls into the
    same namespace; any other argv goes to argparse."""
    pairs = list(zip(argv[1::2], argv[2::2]))
    if len(argv) % 2 and argv[0] in COMMANDS and all(f in _FLAGS and not t.startswith("-") for f, t in pairs):
        try:
            return argparse.Namespace(command=argv[0], **(_UNSET | {_FLAGS[f][0]: _FLAGS[f][1](t) for f, t in pairs}))
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            pass  # argparse reports the bad value
    return _build_parser().parse_args(argv)


def _reject_duplicate_flags(argv: list[str]) -> None:
    seen = set()
    for token in argv:
        if token.startswith("--"):
            flag = token.split("=", 1)[0]
            if flag in seen:
                raise ConfigError(f"duplicate flag {flag}")
            seen.add(flag)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value) if value else "-"
    return str(value)


# key, default and "key=default" text, reused for every key still holding its default object
_DEFAULT_PARTS = [(key, default, f"{key}={_fmt(default)}") for key, (_, default) in CONFIG_SPEC.items()]


def _metadata_line(command: str, config: dict) -> str:
    parts = [f"command={command}", f"version={__version__}"]
    parts += [text if config[k] is default else f"{k}={_fmt(config[k])}" for k, default, text in _DEFAULT_PARTS]
    return "# " + " ".join(parts)


def emit_csv(metadata: str, header: list[str], columns: list, dest: str) -> int:
    """Write a deterministic CSV: metadata line, header, then one line per row
    of the given columns, with 9-significant-digit numbers and LF terminators.
    Each row is one %-format: a float array column takes %.9g over tolist(),
    any other column its _fmt strings.  Returns bytes written."""
    row_format = ",".join("%.9g" if isinstance(col, np.ndarray) else "%s" for col in columns)
    cells = [col.tolist() if isinstance(col, np.ndarray) else [v if v.__class__ is str else _fmt(v) for v in col]
             for col in columns]
    return _emit_text(metadata, [",".join(header)] + [row_format % row for row in zip(*cells)], dest)


def _emit_text(metadata: str, body: list[str], dest: str) -> int:
    data = "\n".join([metadata, *body, ""]).encode("utf-8")
    # Overwrite in place and cut only a longer old file: on ext4 an O_TRUNC of an existing file
    # frees its blocks and (auto_da_alloc) flushes it at close, far slower than the write itself.
    # Not atomic, as before, and a system crash may leave old and new bytes mixed.  A failed write
    # empties a regular file (no old tail); unbuffered os.write leaves close() nothing to flush.
    fd = os.open(dest, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        old = os.fstat(fd)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if stat.S_ISREG(old.st_mode) and old.st_size > len(data):  # never /dev/null, a pipe or a tty
                os.ftruncate(fd, len(data))
        except BaseException:
            if stat.S_ISREG(old.st_mode):
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)
    return len(data)


def _t_grid_rad(config: dict) -> np.ndarray:
    step = config["t_step_deg"]
    t_max = config["t_max_deg"]
    if not 0.0 < step < math.inf:
        raise ValidationError(f"t_step_deg must be finite and positive, got {step}")
    if not 0.0 <= t_max < math.inf:
        raise ValidationError(f"t_max_deg must be finite and nonnegative, got {t_max}")
    n_t = t_max / step + 1.0  # counted before allocating; may be inf
    if n_t * max(len(config["r"]), 1) > MAX_GRID_POINTS:
        raise ValidationError(f"{n_t:.6g} T points x {len(config['r'])} R values exceed the grid budget of "
                              f"{MAX_GRID_POINTS} points; raise t_step_deg or lower t_max_deg")
    return np.radians(np.arange(round(t_max / step) + 1, dtype=float) * step)


def _require_unit_block(config: dict, command: str) -> None:
    if (config["m"], config["n"]) != (1, 1):
        raise ValidationError(f"{command} is defined on the m=1, n=1 block; got m={config['m']}, n={config['n']}")


def _cmd_sweep(config: dict, out: str) -> str:
    _require_unit_block(config, "sweep")
    series = experiments.sweep(config["alpha"], config["r"], _t_grid_rad(config), config["engine"],
                               dt=config["dt"], tail_tol=config["tail_tol"], n_traj=config["n_traj"],
                               seed=config["seed"])
    targets = observables.SIGNS if config["target"] == "both" else (config["target"],)
    header = ["t_rad", "t_deg"]
    columns = [series.t_rad, np.degrees(series.t_rad)]
    for r in config["r"]:
        header += [f"p_{sign}_r{_fmt(r)}" for sign in targets]
        header.append(f"purity_r{_fmt(r)}")
        columns += [observables.clamp_probability(series.probabilities[(r, sign)]) for sign in targets]
        columns.append(series.purities[r])
    n = emit_csv(_metadata_line("sweep", config), header, columns, out)
    return f"sweep: {series.t_rad.size} grid points x {len(config['r'])} R values -> {out} ({n} bytes)"


def _cmd_table1(config: dict, out: str) -> str:
    _require_unit_block(config, "table1")
    rows = experiments.table1(config["omega_rad_s"], config["alpha"])
    header = ["r", "inv_gamma_ns", "p_quarter", "published_quarter", "dev_quarter",
              "p_three_quarter", "published_three_quarter", "dev_three_quarter"]
    table = [[row.r, row.inv_gamma_ns,
              observables.clamp_probability(row.p_quarter), row.published_quarter, row.dev_quarter,
              observables.clamp_probability(row.p_three_quarter), row.published_three_quarter,
              row.dev_three_quarter] for row in rows]
    n = emit_csv(_metadata_line("table1", config), header, list(zip(*table)), out)
    worst = max(row.dev_quarter for row in rows)
    return f"table1: {len(rows)} rows, worst pi/4 deviation {worst:.4f} -> {out} ({n} bytes)"


def _cmd_units(config: dict, out: str) -> str:
    report = experiments.physical_units(config["omega_rad_s"], config["alpha"], config["r"])
    header = ["r", "inv_gamma_ns"]
    columns = [config["r"], [report.inv_gamma_ns[r] for r in config["r"]]]
    metadata = (_metadata_line("units", config)
                + f" a_rad_s={_fmt(report.a_rad_s)} t_quarter_us={_fmt(report.t_quarter_us)}")
    n = emit_csv(metadata, header, columns, out)
    return (f"units: a = {report.a_rad_s:.6g} rad/s, t(pi/4) = {report.t_quarter_us:.6g} us"
            f" -> {out} ({n} bytes)")


def _cmd_audit(config: dict, out: str) -> str:
    report = experiments.audit(config["alpha"])
    quarter, three_quarter = report.published_formula_quarter, report.published_formula_three_quarter
    body = [
        "published closed-form P(T), decoherence-free limit:",
        f"  T = pi/4  : {quarter:.9g}" + ("  (exceeds 1: inconsistent with probability bounds and the published"
                                        " peak value 1.0)" if quarter > 1.0 else ""),
        f"  T = 3pi/4 : {three_quarter:.9g}"
        + ("  (negative: inconsistent with probability bounds)" if three_quarter < 0.0 else ""),
        f"  gap to the corrected closed form at T = pi/4: {report.closed_form_gap_quarter:.9g}",
        "",
        "published rho(t) expression vs reference engine:",
        f"  max-entry deviation {report.transcription_max_dev:.3e} over {report.transcription_grid}",
        "",
        "T = 3pi/4 column, computed plus-target probability vs published value:",
    ]
    for r, computed, published, dev in report.three_quarter_rows:
        body.append(f"  R={_fmt(r):<6} computed={computed:.9f} published={published:.2f} |dev|={dev:.4f}")
    body.append("  (no evaluated reading reproduces the published 3pi/4 column;"
                " both value sets are reported side by side)")
    n = _emit_text(_metadata_line("audit", config), body, out)
    return f"audit: transcription max dev {report.transcription_max_dev:.3e} -> {out} ({n} bytes)"


@functools.lru_cache(maxsize=experiments.MAX_SCALED_SYSTEMS)  # as many as the scaled systems kept beside it
def _evolve_labels(m: int, n: int) -> tuple[str, ...]:
    """The quantity column of an evolve in the (m, n) block, built once per (m, n); the rho.entries
    labels come last, row-major with re before im."""
    labels = ["t_scaled_rad", "r", "purity"]
    labels += [f"population[{s.replace(',', ':')}]" for s in model.ModeIndices(m, n).basis_order()]
    if (m, n) == (1, 1):
        labels += [f"p_ghz_{sign}" for sign in observables.GHZ_TARGETS]
    labels += [f"rho[{i}][{j}].{part}" for i in range(4) for j in range(4) for part in ("re", "im")]
    return tuple(labels)


def _cmd_evolve(config: dict, out: str) -> str:
    modes = model.ModeIndices(config["m"], config["n"])
    # scaled units: sideband coupling 1, so t = T and gamma = 1/R
    block, spectrum = experiments.scaled_system(config["alpha"], modes)
    if len(config["r"]) > 1 and config["r"] is not CONFIG_SPEC["r"][1]:  # the default list runs at its first R
        raise ValidationError(f"evolve runs at one R value, got {len(config['r'])}: r={_fmt(config['r'])}")
    r = config["r"][0] if config["r"] else 0.0
    t_scaled = math.radians(config["t_max_deg"])
    req = engines.EvolutionRequest(
        initial=experiments.initial_state(modes), t=t_scaled,
        gamma=experiments.kick_rate(r), dt=config["dt"], tail_tol=config["tail_tol"],
        n_traj=config["n_traj"], seed=config["seed"],
    )
    rho = engines.evolve(config["engine"], block, spectrum, req)

    values = [[t_scaled, r, observables.purity(rho)], observables.populations(rho)]
    if (modes.m, modes.n) == (1, 1):
        values.append([observables.clamp_probability(observables.p_ghz(rho, target))
                       for target in observables.GHZ_TARGETS.values()])
    values.append(rho.entries.ravel().view(float))  # each entry's (re, im) pair
    n = emit_csv(_metadata_line("evolve", config), ["quantity", "value"],
                 [_evolve_labels(modes.m, modes.n), np.concatenate(values)], out)
    return f"evolve: engine={config['engine']} T={config['t_max_deg']:g} deg R={_fmt(r)} -> {out} ({n} bytes)"


# command -> (function, default output file, help line); this order is also the usage order
COMMANDS = {
    "sweep": (_cmd_sweep, "sweep.csv", "probability vs scaled time for each R value"),
    "table1": (_cmd_table1, "table1.csv", "peak probabilities at T = pi/4 and 3 pi/4 vs published values"),
    "units": (_cmd_units, "units.csv", "physical unit conversion for given omega and alpha"),
    "audit": (_cmd_audit, "audit.txt", "published closed-form audit report"),
    "evolve": (_cmd_evolve, "evolve.csv", "single-point evolution; dumps the density matrix"),
}


def run(command: str, config: dict) -> str:
    """Dispatch a command with a fully merged config; returns the summary line.  A non-finite
    number is a ValidationError in any key, also one the command does not read."""
    for key, value in config.items():
        if (isinstance(value, float) and not math.isfinite(value)
                or isinstance(value, tuple) and not all(map(math.isfinite, value))):
            raise ValidationError(f"{key} must be finite, got {_fmt(value)}")
    function, default_out, _ = COMMANDS[command]
    return function(config, config["out"] or default_out)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _reject_duplicate_flags(argv)
        args = _parse_args(argv)
        file_text = None
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as file:
                    file_text = file.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        config = parse_config(file_text, {key: getattr(args, key) for key in CONFIG_SPEC})
        print(run(args.command, config))
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_build_parser().format_usage().rstrip(), file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OSError) as exc:
        print(f"numerical/io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
