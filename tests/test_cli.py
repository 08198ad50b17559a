import argparse
import contextlib
import hashlib
import importlib.util
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iondeco
from iondeco import cli, engines, experiments, model, observables
from iondeco.errors import ConfigError, ValidationError


def run_cli(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    return cli.main(argv)


# ---------------------------------------------------------------- config layer


def test_parse_config_file_basic():
    text = "# comment\nalpha = 4\nr = 0.001,0.01   # inline comment\n\nseed=7\n"
    values = cli.parse_config_file(text)
    assert values == {"alpha": 4.0, "r": (0.001, 0.01), "seed": 7}


def test_parse_config_unknown_key_names_line():
    with pytest.raises(ConfigError, match=r"line 2.*alhpa"):
        cli.parse_config_file("alpha = 4\nalhpa = 4\n")


def test_parse_config_malformed_line():
    with pytest.raises(ConfigError, match="line 1"):
        cli.parse_config_file("alpha 4\n")


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match=r"line 2.*duplicate"):
        cli.parse_config_file("alpha = 4\nalpha = 5\n")


def test_parse_config_bad_value():
    with pytest.raises(ConfigError, match="line 1"):
        cli.parse_config_file("alpha = four\n")


def test_flags_override_file():
    config = cli.parse_config("r = 0.001\n", {"r": (0.01,)})
    assert config["r"] == (0.01,)
    config = cli.parse_config("r = 0.001\n", {"r": None})
    assert config["r"] == (0.001,)
    assert config["alpha"] == 4.0  # default fills the rest


def test_duplicate_flag_rejected(tmp_path, monkeypatch):
    code = run_cli(tmp_path, monkeypatch, ["sweep", "--r", "0.1", "--r", "0.2"])
    assert code == 1


def refuse_argparse(monkeypatch):
    def parse_args(self, args=None, namespace=None):
        raise AssertionError(f"argparse parsed {args}")
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_args)


@pytest.mark.parametrize("argv", [
    ["evolve", "--engine", "poisson", "--r", "0.05", "--t-max-deg", "77.5", "--m", "2", "--n", "3"],
    ["sweep"], ["table1"], ["audit"],
    ["evolve", "--engine", "mc", "--n-traj", "2000", "--seed", "7", "--r", "0.01", "--t-max-deg", "45"],
    ["sweep", "--engine", "ode", "--r", "0.1", "--t-max-deg", "180", "--t-step-deg", "2"],
], ids=lambda argv: " ".join(argv))
def test_benchmark_argvs_skip_argparse(tmp_path, monkeypatch, capsys, argv):
    """Each argv shape perfbench sends is exact `--key value` pairs, so main never
    calls argparse for it; its bytes and summary are those of the argparse parse
    of the same flags (an `--out=` flag takes argparse)."""
    assert run_cli(tmp_path, monkeypatch, argv + ["--out=x.out"]) == 0
    expected = (tmp_path / "x.out").read_bytes(), capsys.readouterr()
    (tmp_path / "x.out").unlink()
    refuse_argparse(monkeypatch)
    assert run_cli(tmp_path, monkeypatch, argv + ["--out", "x.out"]) == 0
    assert ((tmp_path / "x.out").read_bytes(), capsys.readouterr()) == expected


@pytest.mark.parametrize("argv", [["sweep", "--r", "0.1", "--r", "0.2"], ["evolve", "--r=0.1", "--r", "0.2"]])
def test_duplicate_flag_is_refused_before_any_parse(tmp_path, monkeypatch, capsys, argv):
    refuse_argparse(monkeypatch)
    assert run_cli(tmp_path, monkeypatch, argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error: duplicate flag --r" and err[-1].startswith("usage: iondeco")


def test_cached_parser_carries_nothing_between_calls(tmp_path, monkeypatch, capsys):
    """The parser is built once per process; no flag value, subcommand or
    config-file value of one main() call reaches the next."""
    (tmp_path / "run.cfg").write_text("alpha = 6\nr = 0.5\nomega_rad_s = 1e6\n")
    assert run_cli(tmp_path, monkeypatch, ["units", "--config", "run.cfg", "--seed", "9", "--out", "a.csv"]) == 0
    assert run_cli(tmp_path, monkeypatch, ["table1", "--m", "1", "--out", "b.csv"]) == 0
    assert run_cli(tmp_path, monkeypatch, ["units", "--out", "c.csv"]) == 0
    assert cli._build_parser() is cli._build_parser()
    capsys.readouterr()
    assert run_cli(tmp_path, monkeypatch, ["units", "--bogus", "1"]) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --bogus 1" in err and err.splitlines()[-1].startswith("usage: iondeco")
    assert run_cli(tmp_path, monkeypatch, ["--out", "d.csv"]) == 1  # no subcommand is taken from an earlier call
    defaults = {key: default for key, (_, default) in cli.CONFIG_SPEC.items()}
    assert (tmp_path / "b.csv").read_text().splitlines()[0] == cli._metadata_line("table1", defaults | {"out": "b.csv"})
    c = (tmp_path / "c.csv").read_text().splitlines()
    assert c[0].startswith(cli._metadata_line("units", defaults | {"out": "c.csv"}) + " a_rad_s=")
    cli._build_parser.cache_clear()  # a fresh parser writes the same file
    assert run_cli(tmp_path, monkeypatch, ["units", "--out", "c.csv"]) == 0
    assert (tmp_path / "c.csv").read_text().splitlines() == c


def test_parser_is_not_built_at_import():
    code = "import iondeco.cli as cli; print(cli._build_parser.cache_info().currsize)"
    src = str(Path(iondeco.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.strip() == "0"


def test_cached_system_carries_nothing_between_calls(tmp_path, monkeypatch):
    """scaled_system builds each (alpha, m, n) once and hands the same read-only
    block and spectrum to every later call; a rejected input is never kept."""
    block, spectrum = experiments.scaled_system(4.0)
    assert all(x is y for x, y in zip(experiments.scaled_system(4.0), (block, spectrum)))
    for alpha in (4, np.float64(4.0), np.array(4.0)):  # typed keys, a 0-d array as its scalar
        other_block, other = experiments.scaled_system(alpha)
        assert other_block is not block
        for x, y in ((other_block.entries, block.entries), (other.eigenvalues, spectrum.eigenvalues),
                     (other.eigenvectors, spectrum.eigenvectors)):
            assert x.view(np.uint64).tolist() == y.view(np.uint64).tolist()
    for array in (block.entries, spectrum.eigenvalues, spectrum.eigenvectors):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    for m, n in ((2, 3), (1, 1), (np.int64(1), np.int64(1))):  # equal ModeIndices of another type keep their labels
        modes = model.ModeIndices(m, n)
        for _ in range(2):
            assert experiments.scaled_system(4.0, modes)[0].basis_order == modes.basis_order()
            assert experiments.scaled_system(4.0, modes)[1].basis_order == modes.basis_order()
    for alpha in (1.0, math.nan, float(np.nextafter(observables.MAX_ALPHA, math.inf))):
        for _ in range(2):
            with pytest.raises(ValidationError, match="alpha"):
                experiments.scaled_system(alpha)

    def evolve_body(m, n):
        argv = ["evolve", "--m", str(m), "--n", str(n), "--r", "0.05", "--t-max-deg", "30", "--out", "e.csv"]
        assert run_cli(tmp_path, monkeypatch, argv) == 0
        return (tmp_path / "e.csv").read_text().split("\n", 1)[1]

    order = ((2, 3), (1, 1), (2, 3))
    warm = [evolve_body(m, n) for m, n in order]
    cold = []
    for m, n in order:
        experiments._scaled_system.cache_clear()
        cold.append(evolve_body(m, n))
    assert warm == cold and warm[0] != warm[1]


FLAGS = ["--config"] + ["--" + key.replace("_", "-") for key in cli.CONFIG_SPEC]
FLAG_FORMS = st.one_of(st.sampled_from(FLAGS),  # exact, or abbreviated (ambiguous ones too)
                       st.tuples(st.sampled_from(FLAGS), st.integers(3, 12)).map(lambda f: f[0][:f[1]]))
ARG_VALUES = st.one_of(
    st.integers(-10**6, 10**6).map(str), st.floats().map(repr),
    st.sampled_from(["-1", "-0.5", "-1e3", "-inf", "nan", "eigen", "mc", "minus", "both", "none", "-", "1,2,x", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=5),
)
ARG_CHUNKS = st.one_of(
    st.tuples(FLAG_FORMS, ARG_VALUES).map(list),  # --k v
    st.tuples(FLAG_FORMS, ARG_VALUES).map(lambda kv: ["=".join(kv)]),  # --k=v
    st.one_of(ARG_VALUES, FLAG_FORMS, st.sampled_from(list(cli.COMMANDS) + [
        "evolv", "frobnicate", "--", "-h", "--help", "--he", "-x", "---"])).map(lambda token: [token]),
)


def parse_outcome(parse, argv):
    """A parse's namespace (repr, so NaN equals NaN), its ConfigError text, or its SystemExit code and output."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            return "namespace", repr(sorted(vars(parse(argv)).items()))
    except ConfigError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(argv=st.lists(ARG_CHUNKS, max_size=5).map(lambda chunks: sum(chunks, [])),
       command=st.sampled_from(list(cli.COMMANDS) + [None]))
@example(argv=["-h"], command=None)
@example(argv=["--alpha=-3", "--r", "-0.5,nan", "--", "x"], command="evolve")
@example(argv=["--t", "1"], command="sweep")  # ambiguous abbreviation
def test_command_parse_equals_top_level_parse(argv, command):
    """main parses a leading command with its subparser alone; the namespace,
    the error text or the exit is what the top-level parser gives."""
    argv = ([command] if command else []) + argv
    assert parse_outcome(cli._parse_args, argv) == parse_outcome(cli._build_parser().parse_args, argv)


VALID_VALUES = {"--config": ["run.cfg"], "--r": ["0.05", "0.01,0.1", "0"], "--target": ["minus", "plus", "both"],
                "--engine": list(engines.ENGINES), "--dt": ["none", "1e-3"], "--out": ["e.csv", "a=b"]}
EXACT_PAIRS = st.tuples(st.sampled_from(FLAGS), st.integers(0, 3)).flatmap(lambda pick: st.tuples(  # 3 in 4 valid
    st.just(pick[0]), st.sampled_from(VALID_VALUES.get(pick[0], ["0.05", "4", "3", "45.5", "1e300", "0"]))
    if pick[1] else ARG_VALUES).map(list))


@settings(derandomize=True, max_examples=250, deadline=None)
@given(command=st.sampled_from(list(cli.COMMANDS)),
       pairs=st.lists(EXACT_PAIRS, max_size=6).map(lambda chunks: sum(chunks, [])))
@example(command="evolve", pairs=["--engine", "eigen", "--r", "0.05", "--t-max-deg", "45", "--m", "2", "--n", "3",
                                  "--out", "e.csv"])
@example(command="sweep", pairs=["--alpha", " -1", "--out", ""])  # a value may start with a blank, or be empty
@example(command="sweep", pairs=["--alpha", "4", "--alpha", "5"])  # a repeated flag: argparse keeps the last value
@example(command="units", pairs=["--m", "1.5", "--out", "u.csv"])  # a bad value: argparse names the flag
def test_exact_flag_pairs_parse_as_argparse_does(command, pairs):
    """A command followed only by exact `--key value` pairs is read without argparse
    unless a value starts with '-' or fails to parse; the namespace, the error text
    or the exit is what the top-level parser gives."""
    argv = [command] + pairs
    assert parse_outcome(cli._parse_args, argv) == parse_outcome(cli._build_parser().parse_args, argv)


# ------------------------------------------------------------------ exit codes


def test_unknown_command_exits_one(tmp_path, monkeypatch, capsys):
    assert run_cli(tmp_path, monkeypatch, ["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_one(tmp_path, monkeypatch):
    assert run_cli(tmp_path, monkeypatch, ["sweep", "--alhpa", "4"]) == 1


@pytest.mark.parametrize("flag,value", [("--alpha", "abc"), ("--engine", "foo"), ("--m", "1.5"), ("--dt", "x")])
def test_bad_flag_value_names_the_flag(tmp_path, monkeypatch, capsys, flag, value):
    assert run_cli(tmp_path, monkeypatch, ["sweep", flag, value]) == 1
    assert f"argument {flag}:" in capsys.readouterr().err


def test_flags_parse_like_the_config_file(tmp_path, monkeypatch):
    (tmp_path / "run.cfg").write_text("dt = none\nr = 0.01\n")
    args = ["evolve", "--engine", "ode", "--t-max-deg", "10"]
    assert run_cli(tmp_path, monkeypatch, args + ["--config", "run.cfg", "--out", "c.csv"]) == 0
    assert run_cli(tmp_path, monkeypatch, args + ["--dt", "none", "--r", "0.01", "--out", "f.csv"]) == 0
    c = (tmp_path / "c.csv").read_text().splitlines()
    f = (tmp_path / "f.csv").read_text().splitlines()
    assert c[0].replace("c.csv", "f.csv") == f[0] and c[1:] == f[1:]


def test_missing_config_file_exits_one(tmp_path, monkeypatch):
    assert run_cli(tmp_path, monkeypatch, ["sweep", "--config", "nope.cfg"]) == 1


def test_config_file_not_in_utf8_exits_one(tmp_path, monkeypatch, capsys):
    """A config file that does not decode is a usage error, not a traceback."""
    (tmp_path / "latin1.cfg").write_bytes("alpha = 4 # \xb5\n".encode("latin-1"))
    assert run_cli(tmp_path, monkeypatch, ["units", "--config", "latin1.cfg", "--out", "u.csv"]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read config file latin1.cfg: 'utf-8' codec")
    assert not (tmp_path / "u.csv").exists()


@pytest.mark.parametrize("engine", ["eigen", "poisson", "unitary"])
def test_evolve_solves_no_eigen_problem(tmp_path, monkeypatch, linalg_calls, engine):
    """The initial state evolve builds is a shared read-only basis state, valid by
    construction, so neither a Cholesky factorisation nor an eigvalsh runs to check it again."""
    assert run_cli(tmp_path, monkeypatch, ["evolve", "--engine", engine, "--r", "0.05"]) == 0
    assert linalg_calls == []


def test_validation_error_exits_two(tmp_path, monkeypatch):
    assert run_cli(tmp_path, monkeypatch, ["sweep", "--alpha", "0.5", "--t-max-deg", "10"]) == 2
    assert run_cli(tmp_path, monkeypatch, ["evolve", "--m", "0"]) == 2
    # Monte Carlo engine cannot run decoherence-free
    assert run_cli(tmp_path, monkeypatch,
                   ["sweep", "--engine", "mc", "--r", "0", "--t-max-deg", "1", "--t-step-deg", "1"]) == 2


def test_sweep_with_no_r_still_checks_its_controls(tmp_path, monkeypatch):
    """An empty --r list evolves nothing, yet a bad engine control still exits 2 and writes no file."""
    argv = ["sweep", "--r", ",", "--t-max-deg", "10", "--out", "s.csv"]
    assert run_cli(tmp_path, monkeypatch, argv + ["--tail-tol", "5", "--n-traj", "0"]) == 2
    assert run_cli(tmp_path, monkeypatch, argv + ["--n-traj", "0"]) == 2
    assert not (tmp_path / "s.csv").exists()
    assert run_cli(tmp_path, monkeypatch, argv) == 0


def test_numerical_error_exits_three(tmp_path, monkeypatch):
    # a wildly unstable integrator step blows up and is reported, not patched
    code = run_cli(tmp_path, monkeypatch,
                   ["evolve", "--engine", "ode", "--dt", "5", "--t-max-deg", "360", "--r", "0.5"])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["evolve", "--engine", "ode", "--dt", "5", "--r", "1", "--t-max-deg", "57300"],
    ["sweep", "--engine", "ode", "--dt", "5", "--r", "1", "--t-max-deg", "57300", "--t-step-deg", "5730"],
], ids=lambda argv: " ".join(argv))
def test_overflowing_ode_exits_three_without_traceback(tmp_path, monkeypatch, capsys, argv):
    # the step powers overflow to inf and NaN; the invariant check names them, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(tmp_path, monkeypatch, argv + ["--out", "x.out"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical/io error:") and "non-finite entries" in err and "Traceback" not in err


def test_ode_at_a_huge_generator_stays_finite(tmp_path, monkeypatch):
    # max |G| = 5e79 at alpha = 1e40, R = 0.5: G^4 x overflows, the step's scaled terms (dt G)^k x / k! do not
    argv = ["evolve", "--engine", "ode", "--alpha", "1e40", "--r", "0.5", "--dt", "1e-80", "--t-max-deg", "5.7e-74"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(tmp_path, monkeypatch, argv + ["--out", "x.out"]) == 0
    rows = [row.split(",") for row in (tmp_path / "x.out").read_text().splitlines()[2:]]  # quantity,value
    assert sum(name.startswith("rho[") for name, _ in rows) == 32
    assert all(math.isfinite(float(value)) for _, value in rows)


def test_io_error_exits_three(tmp_path, monkeypatch):
    code = run_cli(tmp_path, monkeypatch,
                   ["units", "--out", str(tmp_path / "missing_dir" / "units.csv")])
    assert code == 3


def test_success_exits_zero(tmp_path, monkeypatch, capsys):
    code = run_cli(tmp_path, monkeypatch,
                   ["sweep", "--r", "0.01", "--t-max-deg", "20", "--t-step-deg", "5"])
    assert code == 0
    assert "sweep" in capsys.readouterr().out
    assert (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command,default_out", [
    ("sweep", "sweep.csv"), ("table1", "table1.csv"), ("units", "units.csv"), ("audit", "audit.txt"),
    ("evolve", "evolve.csv"),
])
def test_each_command_writes_its_default_output(tmp_path, monkeypatch, capsys, command, default_out):
    assert run_cli(tmp_path, monkeypatch, [command, "--t-max-deg", "20", "--t-step-deg", "5"]) == 0
    assert capsys.readouterr().out.startswith(f"{command}: ")
    assert [p.name for p in tmp_path.iterdir()] == [default_out]


# ----------------------------------------------------------------- file output


def sweep_args(out):
    return ["sweep", "--alpha", "4", "--r", "0.001,0.01", "--t-max-deg", "30",
            "--t-step-deg", "7.5", "--target", "both", "--out", out]


def test_sweep_csv_shape_and_metadata(tmp_path, monkeypatch):
    assert run_cli(tmp_path, monkeypatch, sweep_args("grid.csv")) == 0
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0].startswith("# command=sweep version=")
    for token in ("alpha=4", "r=0.001,0.01", "t_max_deg=30", "t_step_deg=7.5",
                  "engine=eigen", "seed=0", "n_traj=100000"):
        assert token in lines[0]
    assert lines[1] == ("t_rad,t_deg,p_minus_r0.001,p_plus_r0.001,purity_r0.001,"
                        "p_minus_r0.01,p_plus_r0.01,purity_r0.01")
    assert len(lines) == 2 + 5  # metadata + header + 5 grid points
    assert all(line == line.rstrip("\r") for line in lines)  # LF only


@pytest.mark.parametrize("target,other", [("minus", "plus"), ("plus", "minus")])
def test_one_target_is_the_both_body_without_the_other_columns(tmp_path, monkeypatch, target, other):
    """Below the metadata line, --target minus or plus writes the --target both bytes
    less the other target's columns."""
    args = sweep_args("one.csv")
    args[args.index("both")] = target
    assert run_cli(tmp_path, monkeypatch, sweep_args("both.csv")) == 0
    assert run_cli(tmp_path, monkeypatch, args) == 0
    both = [line.split(",") for line in (tmp_path / "both.csv").read_text().splitlines()[1:]]
    dropped = [j for j, name in enumerate(both[0]) if name.startswith(f"p_{other}_")]
    assert len(dropped) == 2
    want = [",".join(cell for j, cell in enumerate(row) if j not in dropped) for row in both]
    assert (tmp_path / "one.csv").read_text().splitlines()[1:] == want


def test_byte_identical_reruns(tmp_path, monkeypatch):
    assert run_cli(tmp_path, monkeypatch, sweep_args("a.csv")) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert run_cli(tmp_path, monkeypatch, sweep_args("a.csv")) == 0
    assert first == (tmp_path / "a.csv").read_bytes()


def test_byte_identical_monte_carlo_reruns(tmp_path, monkeypatch):
    args = ["sweep", "--engine", "mc", "--r", "0.01", "--t-max-deg", "10", "--t-step-deg", "5",
            "--n-traj", "3000", "--seed", "42", "--out", "m.csv"]
    assert run_cli(tmp_path, monkeypatch, args) == 0
    first = (tmp_path / "m.csv").read_bytes()
    assert run_cli(tmp_path, monkeypatch, args) == 0
    assert first == (tmp_path / "m.csv").read_bytes()


def test_rewrite_over_longer_file_leaves_only_new_bytes(tmp_path, monkeypatch):
    assert run_cli(tmp_path, monkeypatch, sweep_args("a.csv")) == 0
    fresh = (tmp_path / "a.csv").read_bytes()
    (tmp_path / "a.csv").write_bytes(os.urandom(1 << 20))
    inode = (tmp_path / "a.csv").stat().st_ino
    assert run_cli(tmp_path, monkeypatch, sweep_args("a.csv")) == 0
    assert (tmp_path / "a.csv").read_bytes() == fresh
    assert (tmp_path / "a.csv").stat().st_ino == inode  # overwritten in place


@pytest.mark.parametrize("command", ["evolve", "units"])
@pytest.mark.parametrize("out,path", [("./x.csv", "x.csv"), ("sub//x.csv", "sub/x.csv")])
def test_out_is_written_and_echoed_as_typed(tmp_path, monkeypatch, capsys, command, out, path):
    """The output path goes to os.open as the string given: it writes the file the path names,
    whose bytes are those of a run naming that file plainly but for the metadata's out=, and the
    summary echoes the argument as typed."""
    (tmp_path / "sub").mkdir()
    argv = [command, "--r", "0.05", "--t-max-deg", "30", "--out"]
    assert run_cli(tmp_path, monkeypatch, argv + [path]) == 0
    plain = (tmp_path / path).read_bytes()
    (tmp_path / path).unlink()
    capsys.readouterr()
    assert run_cli(tmp_path, monkeypatch, argv + [out]) == 0
    data = (tmp_path / path).read_bytes()
    assert data == plain.replace(f" out={path}".encode(), f" out={out}".encode(), 1) != plain
    assert capsys.readouterr().out.endswith(f" -> {out} ({len(data)} bytes)\n")


def test_evolve_labels_are_kept_per_m_n_within_the_system_bound(tmp_path, monkeypatch):
    """The label column is built once per (m, n) and kept for at most as many (m, n) as the
    scaled systems beside it; an evicted (m, n) is built again with the same labels."""
    argv = ["evolve", "--m", "2", "--n", "3", "--r", "0.05", "--t-max-deg", "30", "--out", "e.csv"]
    assert run_cli(tmp_path, monkeypatch, argv) == 0
    column = [line.split(",")[0] for line in (tmp_path / "e.csv").read_text().splitlines()[2:]]
    assert list(cli._evolve_labels(2, 3)) == column and "population[e:1:2]" in column
    hits = cli._evolve_labels.cache_info().hits
    assert run_cli(tmp_path, monkeypatch, argv) == 0
    assert cli._evolve_labels.cache_info().hits == hits + 1
    for m in range(1, 13):
        for n in range(1, 13):  # 144 pairs
            cli._evolve_labels(m, n)
            assert cli._evolve_labels.cache_info().currsize <= experiments.MAX_SCALED_SYSTEMS
    assert cli._evolve_labels.cache_info().maxsize == experiments.MAX_SCALED_SYSTEMS
    assert list(cli._evolve_labels(2, 3)) == column


def test_out_to_devnull_exits_zero(tmp_path, monkeypatch):
    # /dev/null reports size 0 and cannot be truncated; the writer never cuts it
    assert run_cli(tmp_path, monkeypatch, sweep_args(os.devnull)) == 0


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
def test_symlinked_out_is_written_through(tmp_path, monkeypatch):
    assert run_cli(tmp_path, monkeypatch, sweep_args("link.csv")) == 0
    fresh = (tmp_path / "link.csv").read_bytes()
    (tmp_path / "link.csv").unlink()
    (tmp_path / "target.csv").write_bytes(b"\xff" * (4 * len(fresh)))
    (tmp_path / "link.csv").symlink_to("target.csv")
    assert run_cli(tmp_path, monkeypatch, sweep_args("link.csv")) == 0
    assert (tmp_path / "link.csv").is_symlink()
    assert (tmp_path / "target.csv").read_bytes() == fresh


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_FSIZE")
def test_failed_write_leaves_no_old_tail(tmp_path, monkeypatch):
    # The child may write 4096 bytes of a 234 KB sweep over a 360 KB old file;
    # the write fails with EFBIG, and what is left must be a prefix of the new
    # output (the writer empties the file), never new bytes ahead of the old tail.
    assert run_cli(tmp_path, monkeypatch, ["sweep", "--out", "big.csv"]) == 0
    full = (tmp_path / "big.csv").read_bytes()
    old = b"\xff" * 360_000  # 0xff never occurs in UTF-8 output
    assert len(full) < len(old)
    (tmp_path / "big.csv").write_bytes(old)
    code = ("import resource, signal, sys\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "from iondeco.cli import main\n"
            "sys.exit(main(['sweep', '--out', 'big.csv']))\n")
    src = str(Path(iondeco.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert child.returncode == 3, child.stderr
    assert child.stderr.startswith("numerical/io error:")
    left = (tmp_path / "big.csv").read_bytes()
    assert full.startswith(left) and b"\xff" not in left


def test_config_file_equals_flags(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 4\nr = 0.001,0.01\nt_max_deg = 30\nt_step_deg = 7.5\ntarget = both\n")
    assert run_cli(tmp_path, monkeypatch, ["sweep", "--config", str(cfg), "--out", "c.csv"]) == 0
    assert run_cli(tmp_path, monkeypatch, sweep_args("f.csv")) == 0
    c = (tmp_path / "c.csv").read_text().splitlines()
    f = (tmp_path / "f.csv").read_text().splitlines()
    assert c[1:] == f[1:]  # same header and data; metadata differs only in out=


def test_empty_sweep_has_header_only(tmp_path, monkeypatch):
    assert run_cli(tmp_path, monkeypatch,
                   ["sweep", "--r", "", "--t-max-deg", "10", "--t-step-deg", "5", "--out", "e.csv"]) == 0
    lines = (tmp_path / "e.csv").read_text().splitlines()
    assert lines[1] == "t_rad,t_deg"
    assert len(lines) == 2 + 3


def test_table1_roundtrip(tmp_path, monkeypatch):
    assert run_cli(tmp_path, monkeypatch, ["table1", "--out", "t.csv"]) == 0
    lines = (tmp_path / "t.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    expected = experiments.table1()
    assert len(rows) == len(expected)
    for parsed, row in zip(rows, expected):
        assert float(parsed["r"]) == pytest.approx(row.r, abs=1e-12)
        # 9 significant digits: probabilities round-trip within 1e-9 absolute,
        # larger magnitudes within 1e-8 relative
        assert float(parsed["inv_gamma_ns"]) == pytest.approx(row.inv_gamma_ns, rel=1e-8)
        assert float(parsed["p_quarter"]) == pytest.approx(min(row.p_quarter, 1.0), abs=1e-9)
        assert float(parsed["dev_quarter"]) == pytest.approx(row.dev_quarter, rel=1e-6, abs=1e-9)


def test_units_command(tmp_path, monkeypatch):
    assert run_cli(tmp_path, monkeypatch, ["units", "--r", "0.001,0.1", "--out", "u.csv"]) == 0
    lines = (tmp_path / "u.csv").read_text().splitlines()
    assert "a_rad_s=2310880.06" in lines[0]
    assert "t_quarter_us=0.339869721" in lines[0]
    values = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[2:]}
    assert values["0.001"] == pytest.approx(0.4327, abs=1e-3)
    assert values["0.1"] == pytest.approx(43.27, abs=0.01)


def test_audit_command(tmp_path, monkeypatch):
    assert run_cli(tmp_path, monkeypatch, ["audit", "--out", "a.txt"]) == 0
    text = (tmp_path / "a.txt").read_text()
    assert "1.234375" in text
    assert "-0.234375" in text
    assert "published=0.94" in text and "computed=0.9659" in text
    first = (tmp_path / "a.txt").read_bytes()
    assert run_cli(tmp_path, monkeypatch, ["audit", "--out", "a.txt"]) == 0
    assert first == (tmp_path / "a.txt").read_bytes()


def test_audit_labels_only_the_bounds_a_published_value_breaks(tmp_path, monkeypatch):
    # at alpha = 1.5 the published P(pi/4) lies in [0, 1] and only P(3 pi/4) is negative
    assert run_cli(tmp_path, monkeypatch, ["audit", "--alpha", "1.5", "--out", "a.txt"]) == 0
    lines = (tmp_path / "a.txt").read_text().splitlines()
    quarter, three_quarter = (next(line for line in lines if line.startswith(f"  T = {t}")) for t in ("pi/4", "3pi/4"))
    assert 0.0 <= float(quarter.split(":")[1]) <= 1.0 and "exceeds 1" not in quarter
    assert float(three_quarter.split(":")[1].split()[0]) < 0.0 and three_quarter.endswith(
        "(negative: inconsistent with probability bounds)")


def test_evolve_command_reports_state(tmp_path, monkeypatch):
    assert run_cli(tmp_path, monkeypatch,
                   ["evolve", "--r", "0", "--t-max-deg", "45", "--out", "e.csv"]) == 0
    values = {}
    for line in (tmp_path / "e.csv").read_text().splitlines()[2:]:
        key, _, value = line.partition(",")
        values[key] = float(value)
    assert values["p_ghz_minus"] == pytest.approx(1.0, abs=1e-9)
    assert values["purity"] == pytest.approx(1.0, abs=1e-9)
    assert values["population[e:1:1]"] == pytest.approx(0.5, abs=1e-9)
    assert values["t_scaled_rad"] == pytest.approx(math.pi / 4, abs=1e-9)


@pytest.mark.parametrize("argv,config", [
    (["--r", "0.5,0.2"], None),
    (["--r", "0.001,0.005,0.01,0.1"], None),  # the default values, named by the user
    ([], "r = 0.1,0.2\n"),
])
def test_evolve_rejects_more_than_one_r(tmp_path, monkeypatch, capsys, argv, config):
    if config is not None:
        (tmp_path / "e.cfg").write_text(config)
        argv = argv + ["--config", "e.cfg"]
    assert run_cli(tmp_path, monkeypatch, ["evolve"] + argv + ["--out", "e.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "one R value" in err
    assert not (tmp_path / "e.csv").exists()


def test_evolve_default_r_runs_at_its_first_value(tmp_path, monkeypatch, capsys):
    assert run_cli(tmp_path, monkeypatch, ["evolve", "--out", "e.csv"]) == 0
    assert "R=0.001 " in capsys.readouterr().out
    lines = (tmp_path / "e.csv").read_text().splitlines()
    assert " r=0.001,0.005,0.01,0.1 " in lines[0] and "r,0.001" in lines


@pytest.mark.parametrize("command", ["evolve", "sweep", "units"])
def test_bad_r_error_names_r_as_typed(tmp_path, monkeypatch, capsys, command):
    """Every command checks R with experiments.kick_rate; evolve no longer reports the
    gamma = 1/R it derived from it."""
    assert run_cli(tmp_path, monkeypatch, [command, "--r", "-0.1", "--t-max-deg", "10", "--out", "x.csv"]) == 2
    assert capsys.readouterr().err == "validation error: R must be finite and nonnegative, got -0.1\n"
    assert not (tmp_path / "x.csv").exists()


def test_metadata_reproduces_run(tmp_path, monkeypatch):
    """An output file carries enough configuration to reproduce itself."""
    assert run_cli(tmp_path, monkeypatch, sweep_args("orig.csv")) == 0
    meta = (tmp_path / "orig.csv").read_text().splitlines()[0]
    tokens = dict(part.split("=", 1) for part in meta[2:].split(" ") if "=" in part)
    args = ["sweep",
            "--alpha", tokens["alpha"], "--r", tokens["r"],
            "--t-max-deg", tokens["t_max_deg"], "--t-step-deg", tokens["t_step_deg"],
            "--target", tokens["target"], "--engine", tokens["engine"],
            "--seed", tokens["seed"], "--n-traj", tokens["n_traj"],
            "--out", "replay.csv"]
    assert run_cli(tmp_path, monkeypatch, args) == 0
    orig = (tmp_path / "orig.csv").read_text().splitlines()
    replay = (tmp_path / "replay.csv").read_text().splitlines()
    assert orig[1:] == replay[1:]


# ------------------------------------------------------- input domain, budget


@pytest.mark.parametrize("argv", [
    ["sweep", "--r", "nan", "--t-max-deg", "10"],
    ["sweep", "--r", "0.01,inf", "--t-max-deg", "10"],
    ["sweep", "--alpha", "nan", "--t-max-deg", "10"],
    ["sweep", "--t-step-deg", "nan"],
    ["sweep", "--t-max-deg", "inf"],
    ["evolve", "--t-max-deg", "inf"],
    ["evolve", "--t-max-deg", "nan"],
    ["evolve", "--alpha", "inf"],
    ["evolve", "--engine", "ode", "--dt", "inf"],
    ["units", "--omega-rad-s", "inf"],
    ["units", "--r", "nan,inf"],
    # alpha^2 overflows, so omega = sqrt(alpha^2 - 1) in units of a is inf
    ["units", "--alpha", "1e200"],
    ["table1", "--alpha", "1e200"],
    ["audit", "--alpha", "1e200"],
    ["sweep", "--alpha", "1e200", "--t-max-deg", "10"],
    # the sideband coupling a = omega / sqrt(alpha^2 - 1), or a value converted with it, is not finite
    ["units", "--omega-rad-s", "5e-324", "--alpha", "1e150"],  # a underflows to 0
    ["units", "--omega-rad-s", "1e308", "--alpha", "1.0000000000000002"],  # a overflows
    ["units", "--omega-rad-s", "1e-320"],  # t(pi/4) = (pi/4) / a overflows
    ["units", "--omega-rad-s", "1e-300", "--r", "0.1"],  # 1/gamma = R / a overflows
    # keys the command does not read
    ["audit", "--r", "nan"],
    ["units", "--t-max-deg", "inf"],
    ["table1", "--tail-tol", "nan"],
], ids=lambda argv: " ".join(argv))
def test_non_finite_input_exits_two(tmp_path, monkeypatch, capsys, argv):
    assert run_cli(tmp_path, monkeypatch, argv + ["--out", "x.out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "Traceback" not in err
    if "--alpha" in argv:
        assert "alpha" in err
    for flag, value in zip(argv[1::2], argv[2::2]):
        if "nan" in value or "inf" in value:  # refused by the key's name, whether the command reads it or not
            assert err.startswith(f"validation error: {flag[2:].replace('-', '_')} must be finite, got ")
    assert not (tmp_path / "x.out").exists()


def test_non_finite_config_file_value_exits_two(tmp_path, monkeypatch, capsys):
    (tmp_path / "run.cfg").write_text("omega_rad_s = -inf\n")
    assert run_cli(tmp_path, monkeypatch, ["audit", "--config", "run.cfg", "--out", "x.out"]) == 2
    assert capsys.readouterr().err == "validation error: omega_rad_s must be finite, got -inf\n"
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("argv", [
    ["evolve", "--alpha", "1e10", "--t-max-deg", "1e300", "--r", "0"],  # D t overflows at gamma = inf
    ["evolve", "--engine", "unitary", "--alpha", "1e10", "--t-max-deg", "1e300", "--r", "0.01"],
    ["evolve", "--engine", "mc", "--n-traj", "1000", "--alpha", "1e10", "--r", "1e300", "--t-max-deg", "1e300"],
    ["evolve", "--engine", "poisson", "--r", "1e-308", "--t-max-deg", "1e300"],  # gamma t = inf, inf * 0
], ids=lambda argv: " ".join(argv))
def test_non_finite_kick_count_factor_exits_two_with_no_warning(tmp_path, monkeypatch, capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(tmp_path, monkeypatch, argv + ["--out", "x.out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: the kick-count factor") and "DBL_MAX" in err
    assert not (tmp_path / "x.out").exists()


def test_poisson_factor_is_one_where_almost_no_kick_arrives(tmp_path, monkeypatch):
    """At R = 1e300, |D| / gamma overflows, but 2 gamma t ~ 3e-302 lies far below the rounding
    unit, and the exact kick average is within 2 gamma t of the initial state: the Poisson
    factor is 1, and both GHZ probabilities keep their value 1/2 at t = 0, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(tmp_path, monkeypatch, ["evolve", "--engine", "poisson", "--alpha", "1e10", "--r", "1e300",
                                               "--t-max-deg", "1", "--out", "x.out"]) == 0
    values = dict(line.split(",") for line in (tmp_path / "x.out").read_text().splitlines()[2:])
    assert all(math.isfinite(float(v)) for v in values.values())
    assert float(values["p_ghz_minus"]) == float(values["p_ghz_plus"]) == 0.5


def test_overflowing_phase_under_damping_writes_zero_coherences_with_no_warning(tmp_path, monkeypatch):
    """At finite gamma the damping D^2 t / (2 gamma) overflows with the phase D t, so each
    eigenbasis coherence is exactly 0 and the output finite, not a ValidationError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(tmp_path, monkeypatch, ["evolve", "--alpha", "1e10", "--t-max-deg", "1e300", "--r", "0.01",
                                               "--out", "x.out"]) == 0
    values = dict(line.split(",") for line in (tmp_path / "x.out").read_text().splitlines()[2:])
    assert all(math.isfinite(float(v)) for v in values.values())
    assert float(values["purity"]) < 1.0


@pytest.mark.parametrize("argv", [
    ["table1", "--alpha", "5e153"],
    ["audit", "--alpha", "5e153"],
    ["audit", "--alpha", "6.5e153"],
    ["audit", "--alpha", "7e153"],
    ["sweep", "--alpha", "7e153", "--t-max-deg", "1"],
    ["evolve", "--alpha", "7e153", "--t-max-deg", "0"],
    *([command, "--alpha", "9.48e153", "--t-max-deg", "1"] for command in ("sweep", "table1", "audit", "evolve")),
], ids=["table1", "audit", "audit-6.5e153", "audit-7e153", "sweep-7e153", "evolve-7e153",
        "sweep-largest", "table1-largest", "audit-largest", "evolve-largest"])
def test_largest_alpha_writes_no_nan(tmp_path, monkeypatch, argv):
    """At alpha = 5e153 the damping D^2 t / (2 gamma) overflows.  Where gamma = inf (the
    R = 0 rows) it is no damping, not inf / inf = NaN.  From about 6.2e153 the published
    P(T)'s exponent 2 alpha^2 T overflows too; at R = 0 its decay is 1, not inf * 0 = NaN.
    From about 6.7e153 D^2 itself overflows; at t = 0 the damping is 0, not inf * 0 = NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(tmp_path, monkeypatch, argv + ["--out", "x.out"]) == 0
    assert "nan" not in (tmp_path / "x.out").read_text()


def test_audit_gap_near_the_largest_alpha(tmp_path, monkeypatch):
    """From alpha = 6.7e153, 4 alpha^2 overflows; the corrected P(pi/4) keeps its value
    instead of reading 0.0, so the printed gap is the published value less the engine's
    P(pi/4), slow term included."""
    alpha = 7e153
    assert run_cli(tmp_path, monkeypatch, ["audit", "--alpha", "7e153", "--out", "a.txt"]) == 0
    gap = float(next(line for line in (tmp_path / "a.txt").read_text().splitlines()
                     if "gap to the corrected closed form" in line).rsplit(":", 1)[1])
    block, spectrum = experiments.scaled_system(alpha)
    rho = engines.evolve_eigenbasis(block, spectrum, engines.EvolutionRequest(
        experiments.initial_state(), t=math.pi / 4, gamma=math.inf))
    corrected = observables.p_ghz(rho, observables.GHZ_TARGETS["minus"])
    assert math.isfinite(gap)
    assert gap == pytest.approx(observables.published_pghz(math.pi / 4, alpha, 0.0) - corrected, abs=1e-8)


@pytest.mark.parametrize("alpha", ["1e154", "1.3e154"])
@pytest.mark.parametrize("command", ["sweep", "table1", "audit", "evolve", "units"])
def test_alpha_above_the_largest_exits_two_without_a_warning(tmp_path, monkeypatch, capsys, command, alpha):
    """From sqrt(DBL_MAX / 2) = 9.4807e153 on, the spectrum's squared eigenvector norms
    overflow; check_alpha refuses such an alpha before numpy can warn."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(tmp_path, monkeypatch, [command, "--alpha", alpha, "--t-max-deg", "1", "--out", "x.out"])
    assert (code, [str(w.message) for w in caught]) == (2, [])
    assert capsys.readouterr().err.startswith("validation error: alpha must exceed 1 and be at most 9.48e+153")


def test_grid_budget_exits_two_without_allocating(tmp_path, monkeypatch, capsys):
    # 1e12 T points would be a 7.3 TiB grid; the budget refuses it before numpy allocates
    assert cli.MAX_GRID_POINTS >= 40 * 1441 * 4  # the default grid stays far inside
    argv = ["sweep", "--t-max-deg", "1e9", "--t-step-deg", "1e-3", "--out", "big.csv"]
    assert run_cli(tmp_path, monkeypatch, argv) == 2
    assert "grid budget" in capsys.readouterr().err
    assert not (tmp_path / "big.csv").exists()


def test_trajectory_budget_exits_two_without_allocating(tmp_path, monkeypatch, capsys):
    # 1e9 trajectories would need about 32 GB; the request refuses them before any is drawn
    assert engines.MAX_TRAJECTORIES >= 100 * 100_000  # the test suite and benchmark draw 1e5
    monkeypatch.setattr(engines, "_trajectory_bits", lambda *args: pytest.fail("trajectories drawn"))
    argv = ["evolve", "--engine", "mc", "--n-traj", "1000000000", "--out", "big.csv"]
    assert run_cli(tmp_path, monkeypatch, argv) == 2
    assert "n_traj" in capsys.readouterr().err
    assert not (tmp_path / "big.csv").exists()


@pytest.mark.parametrize("argv", [
    ["evolve", "--engine", "ode", "--alpha", "1e100", "--t-max-deg", "10"],  # default dt = 1e-3 / mu = 1e-103
    ["evolve", "--engine", "ode", "--dt", "1e-300"],
    ["evolve", "--engine", "ode", "--dt", "5e-324"],  # t / dt overflows to inf
    ["sweep", "--engine", "ode", "--alpha", "1e100", "--t-max-deg", "10"],
], ids=lambda argv: " ".join(argv))
def test_ode_step_budget_exits_two_without_stepping(tmp_path, monkeypatch, capsys, argv):
    # the default sweep at alpha = 100 takes 2 pi / 1e-5, about 6.3e5 steps, and stays inside
    block, _ = experiments.scaled_system(100.0)
    assert 2.0 * math.pi / engines.default_ode_step(block) <= engines.MAX_ODE_STEPS
    monkeypatch.setattr(engines, "_rk4_step", lambda *args: pytest.fail("step matrix built"))
    assert run_cli(tmp_path, monkeypatch, argv + ["--out", "x.out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "steps exceed the budget" in err and "Traceback" not in err
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("argv", [
    ["evolve", "--engine", "ode"],  # one time
    ["sweep", "--engine", "ode", "--r", "0.01", "--t-max-deg", "180", "--t-step-deg", "2"],  # 91 times
], ids=lambda argv: " ".join(argv))
def test_ode_steps_a_grid_without_a_per_time_loop(tmp_path, monkeypatch, argv):
    # one evolve_ode call builds the base step on the identity and takes every time's shortened step
    # from one 16-entry vector, the initial state, so 4 products serve the whole grid
    steps, per_call = [], []
    rk4_step, evolve_ode = engines._rk4_step, engines.evolve_ode

    def counted_step(gen, dt, x, *args):
        steps.append(np.shape(x))
        return rk4_step(gen, dt, x, *args)

    def counted_evolve(*args):
        before = len(steps)
        out = evolve_ode(*args)
        per_call.append((sorted(steps[before:]), out.entries.size // 16))
        return out

    monkeypatch.setattr(engines, "_rk4_step", counted_step)
    monkeypatch.setattr(engines, "evolve_ode", counted_evolve)
    assert run_cli(tmp_path, monkeypatch, argv + ["--out", "x.out"]) == 0
    assert per_call and all(shapes == [(16,), (16, 16)] for shapes, _ in per_call)
    assert max(times for _, times in per_call) == (1 if argv[0] == "evolve" else 91)


def test_monte_carlo_dephases_a_grid_in_one_call(tmp_path, monkeypatch):
    # every time's empirical characteristic function goes through one dephase, whatever the grid size
    calls, per_call = [], []
    dephase, evolve_monte_carlo = engines.dephase, engines.evolve_monte_carlo

    def counted_dephase(*args):
        calls.append(args)
        return dephase(*args)

    def counted_evolve(*args):
        before = len(calls)
        out = evolve_monte_carlo(*args)
        per_call.append((len(calls) - before, out.entries.size // 16))
        return out

    monkeypatch.setattr(engines, "dephase", counted_dephase)
    monkeypatch.setattr(engines, "evolve_monte_carlo", counted_evolve)
    argv = ["sweep", "--engine", "mc", "--r", "0.01", "--t-max-deg", "20", "--t-step-deg", "5", "--out", "x.out"]
    assert run_cli(tmp_path, monkeypatch, argv) == 0
    assert per_call == [(1, 5)]


def test_monte_carlo_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the kick-count sums run in numpy, not BLAS; one child is pinned to one OpenBLAS thread
    src = str(Path(iondeco.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["sweep", "--engine", "mc", "--n-traj", "2000", "--seed", "3", "--t-max-deg", "90"]
    children = [subprocess.Popen([sys.executable, "-m", "iondeco.cli"] + argv + ["--out", f"{name}.csv"],
                                 cwd=tmp_path, env=dict(env, **extra), stdout=subprocess.DEVNULL)
                for name, extra in (("default", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"}))]
    assert [child.wait(timeout=60) for child in children] == [0, 0]
    default, one = ((tmp_path / f"{name}.csv").read_bytes().split(b"\n", 1)[1] for name in ("default", "one"))
    assert default.count(b"\n") == 362 and default == one


def test_units_starts_no_thread_and_monte_carlo_reruns_byte_identical(tmp_path):
    # set-up stays single-threaded: the Monte Carlo workers and their module load at the first Monte
    # Carlo call; a rerun on the started workers and the cached log(k!) table, a run drawn in one
    # chunk or in two, and a run in a child forked after the workers started (it has none of them,
    # so its draw starts a pool of its own) all write the same bytes
    src = str(Path(iondeco.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """
import os, sys, threading
from iondeco import cli, engines
assert cli.main(["units", "--out", "units.csv"]) == 0
assert threading.active_count() == 1 and "concurrent.futures" not in sys.modules, threading.enumerate()
argv = ["evolve", "--engine", "mc", "--n-traj", "100000", "--seed", "11", "--r", "0.001", "--out", "mc.csv"]
runs = []
for chunk_count in (engines._chunk_count, engines._chunk_count, lambda n: 1, lambda n: 2):
    assert ("concurrent.futures" in sys.modules) == bool(runs)
    engines._chunk_count = chunk_count
    assert cli.main(argv) == 0
    runs.append(open("mc.csv", "rb").read())
assert runs.count(runs[0]) == 4
if hasattr(os, "fork"):
    os.remove("mc.csv")
    pid = os.fork()
    if pid == 0:
        sys.exit(cli.main(argv))
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0 and open("mc.csv", "rb").read() == runs[0]
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_kick_table_budget_exits_two_without_building(tmp_path, monkeypatch, capsys):
    # the default sweep --engine mc at every published R, and the mc_grid fixture, stay inside the budget
    config = {key: default for key, (_, default) in cli.CONFIG_SPEC.items()}
    for r in experiments.PUBLISHED_R_VALUES:
        for grid in (cli._t_grid_rad(config), np.linspace(0.0, math.pi, 64)):
            lams = (experiments.kick_rate(r) * grid).tolist()
            assert sum(engines._poisson_cutoff(lam, 1e-12) if lam else 0 for lam in lams) + grid.size <= engines.MAX_KICK_TABLE
    monkeypatch.setattr(engines, "_poisson_cdf", lambda *args: pytest.fail("Poisson table built"))
    monkeypatch.setattr(engines, "_trajectory_bits", lambda *args: pytest.fail("trajectories drawn"))
    # about 4.6e8 entries on the default grid; the last argv is one time whose mean alone is 6e300
    for argv in (["sweep", "--engine", "mc", "--r", "0.00001"], ["evolve", "--engine", "mc", "--r", "1e-300"]):
        assert run_cli(tmp_path, monkeypatch, argv + ["--out", "x.out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "exceed the budget" in err and "Traceback" not in err
        assert not (tmp_path / "x.out").exists()


# the edge values of the domain: +-0, a subnormal, huge, non-finite, near and past the largest alpha,
# 2^63, negatives, and a few ordinary values
EDGE_NUMBERS = ["0", "-0", "5e-324", "1e300", "inf", "-inf", "nan", "1e8", "1e16", "4.74e153", "7e153",
                repr(observables.MAX_ALPHA), "1e154", str(2**63), "-1", "-0.5", "0.05", "1", "45"]
EDGE_INTEGERS = ["0", "-1", "1", "2", "3", str(2**63), "1e3", "70000"]
FUZZ_VALUES = {flag: EDGE_NUMBERS for flag, (_, parse) in cli._FLAGS.items() if parse is cli._parse_float} | {
    "--r": EDGE_NUMBERS + ["0.01,0.1", "0.05,nan", "0,1e16"], "--dt": EDGE_NUMBERS + ["none"],
    "--target": ["minus", "plus", "both"], "--engine": list(engines.ENGINES),
    "--m": EDGE_INTEGERS, "--n": EDGE_INTEGERS, "--seed": EDGE_INTEGERS, "--n-traj": EDGE_INTEGERS,
    "--config": ["ok.cfg", "nan.cfg", "missing.cfg"]}
# a small grid and trajectory count unless the argv sets them
SMALL = {"--t-max-deg": "2", "--t-step-deg": "1", "--n-traj": "300"}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(command=st.sampled_from(list(cli.COMMANDS)),
       pairs=st.lists(st.sampled_from(sorted(FUZZ_VALUES)), min_size=1, max_size=5, unique=True).flatmap(
           lambda flags: st.tuples(*(st.tuples(st.just(f), st.sampled_from(FUZZ_VALUES[f])) for f in flags))))
@example(command="evolve", pairs=(("--alpha", "1e16"), ("--t-max-deg", "1e300"), ("--r", "0")))
@example(command="audit", pairs=(("--r", "nan"), ("--t-max-deg", "nan")))
@example(command="sweep", pairs=(("--engine", "ode"), ("--dt", "1e8")))
def test_every_command_exits_cleanly_on_edge_values(command, pairs):
    """Each command with 1-5 flags drawn from the domain's edges, on a small grid: the exit
    code is 0, 1, 2 or 3, no warning escapes, and an exit-0 run writes finite numbers only."""
    with tempfile.TemporaryDirectory() as work, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        work = Path(work)
        (work / "ok.cfg").write_text("alpha = 6\nr = 0.05\n")
        (work / "nan.cfg").write_text("omega_rad_s = nan\n")
        out = work / "x.out"
        flags = SMALL | dict(pairs) | {"--out": str(out)}
        if "--config" in flags:
            flags["--config"] = str(work / flags["--config"])
        argv = [command] + [token for flag, value in flags.items() for token in (flag, value)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert [str(w.message) for w in caught] == [], argv
        assert "Traceback" not in err.getvalue()
        if code == 0:  # every number below the metadata line is finite
            for token in re.split(r"[\s,=:()\[\]|]+", out.read_text().split("\n", 1)[1]):
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(token)), (argv, token)


# ---------------------------------------------------------------- golden bytes


# sha256 of everything below the metadata line of the output of each argv.
# The default sweep, table1 and audit were hashed before they were batched,
# the rest before the unitary engine became the reference engine at
# gamma = inf; the current engines and CSV writer must reproduce these bytes.
GOLDEN_SHA256 = {
    "sweep": "bff671516b4a4924786e277ae7dac7b2bc18cdd6bde6af2bb593e472cfe5919b",
    "table1": "0165b069159396b21c4d45c81646dffac6f0abeab83a792fe489717d2b229004",
    "audit": "eb5836dee73f1fd645325d9d5cf2d9421f99e5da826f1b4ee570caf96eca0eae",
    "units": "332a36c681400d9758a45b6134245ed17c83a798be0d800d73406aceb658877b",
    "sweep --engine unitary": "889f5d8938024157e7891548cd444cc2acfc1068b72465abaf2274428560c557",
    "evolve --engine unitary": "6ddddc62807c04e2b256b0ed7136163d51dbb5b949b745027f66afd6dd8b36f6",
    "evolve --engine poisson": "f884985dd64f32bb11a61e6d1e49be08b455d68ef1c7dd9dfcc4c237a1720096",
    # re-pinned when the engine became one dephase with the empirical characteristic function:
    # only the 16 rho cells that are zero in exact arithmetic moved, each below 3e-17 in magnitude
    "evolve --engine mc --n-traj 2000 --seed 7": "7f2fe8825b7ed8fa32278faa0e3851d8cf1c165add212df947d6b8cca49c058d",
    # outside the m = n = 1 block (no p_ghz rows); hashed before evolve wrote one value column
    "evolve --engine eigen --m 3 --n 2 --r 0.05 --t-max-deg 77":
        "bfa9c74ea4108e787caa776f0e090d2a9883d7cc51017cc23440666e9c102bfc",
    # away from the default alpha; hashed while table1 and audit made one engine call per R
    "table1 --alpha 1.5": "cd2d07ab1644c164e12b9a03ce5d3e24863a44a0225ef049b66629099b04c5d1",
    # re-pinned when closed_form_rho took B without the cancelling mu - omega: only the
    # transcription max dev line moved, 3.336e-16 -> 3.334e-16
    "audit --alpha 12": "c8645824906238addc03d730dadbaded06ceb13886a412568bcf8e75846678df",
    # over a grid; hashed before the Monte Carlo engine shared the first-order factor
    "sweep --engine mc --n-traj 2000 --seed 7 --r 0.01,0.1 --t-step-deg 15":
        "2104f6e709a835116b63e263d03dfed7495a799a695a6eb72483b8b2c4198649",
    "sweep --engine poisson --t-step-deg 15": "7f5ea5f195a42849ef57d96a12dba85f4626e07ac7622e83ab1e74ad90a3ae3e",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256))
def test_default_output_golden_bytes(tmp_path, monkeypatch, argv):
    assert run_cli(tmp_path, monkeypatch, argv.split() + ["--out", "g.out"]) == 0
    body = (tmp_path / "g.out").read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == GOLDEN_SHA256[argv]


def per_cell_csv(metadata, header, columns):
    """The CSV bytes as formatted before each row became one %-format string:
    every cell alone, f"{x:.9g}" over a float array, _fmt otherwise."""
    cells = [[f"{x:.9g}" for x in col.tolist()] if isinstance(col, np.ndarray) else [cli._fmt(v) for v in col]
             for col in columns]
    return ("\n".join([metadata, ",".join(header)] + [",".join(row) for row in zip(*cells)]) + "\n").encode()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                  2.2250738585072014e-308, 1.7976931348623157e308, 1e-5, 123456789.5, 0.1]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True))
CELLS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6), st.none(), FLOATS, FLOATS.map(np.float64),
    st.integers(-10**12, 10**12), st.lists(FLOATS, max_size=3).map(tuple), st.booleans(),
)


@st.composite
def csv_columns(draw):
    n_rows = draw(st.integers(0, 8))
    column = st.one_of(st.lists(FLOATS, min_size=n_rows, max_size=n_rows).map(np.array),
                       st.lists(CELLS, min_size=n_rows, max_size=n_rows))
    return draw(st.lists(column, min_size=1, max_size=5))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(columns=csv_columns())
@example(columns=[np.array(SPECIAL_FLOATS), [None, "a%s", (), (0.5, -0.0), np.float64(-0.0), math.nan, "x",
                                              math.inf, 7, (math.nan,), "", np.float64(5e-324), -math.inf]])
def test_emit_csv_equals_per_cell_formatting(tmp_path_factory, columns):
    dest = tmp_path_factory.getbasetemp() / "emit_csv.csv"
    header = [f"c{i}" for i in range(len(columns))]
    n = cli.emit_csv("# meta", header, columns, dest)
    assert dest.read_bytes() == per_cell_csv("# meta", header, columns)
    assert n == dest.stat().st_size


# ------------------------------------------------------------ benchmark tracer


def test_benchmark_selftest_passes():
    """perfbench/selftest.py, the benchmark's own negative tests, exits 0."""
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run([sys.executable, str(root / "perfbench" / "selftest.py")], cwd=root,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr


def test_benchmark_tracer_sees_every_cli_engine_call(tmp_path, monkeypatch):
    """perfbench's tracer wraps module attributes, so it sees an engine only if the
    CLI reaches it through the engines module: each `evolve --engine X` must record
    exactly one span of X's engines.evolve_* function and none of the others'."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install({"cli": cli, "experiments": experiments, "engines": engines,
                    "observables": observables, "model": model})
    try:
        assert not set(tracing.ENGINE_ENTRIES) & set(tracer.absent)
        for op, name in enumerate(engines.ENGINES):
            tracer.begin_op(op)
            assert run_cli(tmp_path, monkeypatch, ["evolve", "--engine", name, "--out", "e.csv"]) == 0
    finally:
        tracer.remove()
    assert not hasattr(engines.evolve_eigenbasis, "__wrapped__")
    spans = tracer.span_table()
    for op, name in enumerate(engines.ENGINES):
        recorded = {entry: int(((spans["op"] == op) & (spans["fid"] == tracer.names.index(entry))).sum())
                    for entry in tracing.ENGINE_ENTRIES}
        assert recorded == {entry: int(entry == f"engines.{engines.ENGINES[name]}") for entry in recorded}
