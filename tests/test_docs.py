import contextlib
import io
import math
import re
from pathlib import Path

import pytest

from iondeco import cli, engines, experiments, model, observables
from iondeco.errors import ValidationError

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs_and_prints_what_it_says():
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README quick start", "exec"), {})
    eigen, closed_form, poisson = map(float, out.getvalue().split())
    assert repr(eigen).startswith("0.8956775") and abs(closed_form - eigen) <= 1e-15
    assert repr(poisson).startswith("0.8957159")


def test_readme_budgets_equal_the_constants():
    """README quotes each budget as `module.NAME` followed by its value in parentheses."""
    quotes = re.findall(r"`(cli|engines|experiments)\.(MAX_\w+)`\s*\(([\d,]+)", README.read_text())
    assert {(module, name) for module, name, _ in quotes} == {
        ("engines", "MAX_ODE_STEPS"), ("engines", "MAX_TRAJECTORIES"), ("engines", "MAX_KICK_TABLE"),
        ("cli", "MAX_GRID_POINTS"), ("experiments", "MAX_SCALED_SYSTEMS")}
    modules = {"cli": cli, "engines": engines, "experiments": experiments}
    for module, name, number in quotes:
        assert int(number.replace(",", "")) == getattr(modules[module], name), name


def test_readme_largest_alpha_is_the_checked_one():
    """Every place README names the largest alpha quotes the last float check_alpha accepts."""
    quotes = re.findall(r"largest allowed alpha,?\s+([\d.]+e\d+)", README.read_text())
    assert quotes
    for largest in map(float, quotes):
        observables.check_alpha(largest)
        with pytest.raises(ValidationError):
            observables.check_alpha(math.nextafter(largest, math.inf))


def test_readme_names_exist_in_their_modules():
    """Every `module.name` README cites, for the package's five modules, is an attribute of that module."""
    modules = {"cli": cli, "engines": engines, "experiments": experiments, "observables": observables, "model": model}
    text = README.read_text()
    citations = re.findall(r"`(cli|engines|experiments|observables|model)\.(\w+)", text)
    assert citations
    # no backticked module prefix escapes the citation pattern
    assert len(citations) == len(re.findall(r"`(?:cli|engines|experiments|observables|model)\.", text))
    cited = set(citations)
    assert [f"{module}.{name}" for module, name in sorted(cited) if not hasattr(modules[module], name)] == []
