import contextlib
import io
import re
from pathlib import Path

from iondeco import cli, engines

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
    quotes = re.findall(r"`(cli|engines)\.(MAX_\w+)`\s*\(([\d,]+)", README.read_text())
    assert {(module, name) for module, name, _ in quotes} == {
        ("engines", "MAX_ODE_STEPS"), ("engines", "MAX_TRAJECTORIES"), ("engines", "MAX_KICK_TABLE"),
        ("cli", "MAX_GRID_POINTS")}
    for module, name, number in quotes:
        assert int(number.replace(",", "")) == getattr({"cli": cli, "engines": engines}[module], name), name
