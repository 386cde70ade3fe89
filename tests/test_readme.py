"""The README's Python sessions, run as written."""

import os
import re

import pytest

from beltbound.sharp_family import cd_params

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _sessions():
    """The code of every fenced python block of the README, in order."""
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), re.DOTALL | re.MULTILINE)


def _printed(code, capsys):
    """The lines a session prints, run in a namespace of its own."""
    exec(compile(code, "README.md", "exec"), {})
    return capsys.readouterr().out.splitlines()


def test_readme_sessions_print_what_their_comments_state(capsys):
    family, pointwise = _sessions()
    assert "build_family(M=2.0, tau=0.5)" in family
    c, d = cd_params(2.0, 0.5)
    pair_line, residual, exponent = _printed(family, capsys)
    bound, alpha = map(float, pair_line.split())
    assert bound == pytest.approx(d / c, rel=0.0, abs=1e-12)  # bound matches d/c
    assert alpha == pytest.approx(d / c, rel=0.0, abs=1e-12)
    assert float(residual) < 1e-12  # ~1e-16
    assert abs(float(exponent) - d / c) < 0.01  # ~alpha
    (pointwise_bound,) = _printed(pointwise, capsys)
    assert pointwise_bound.startswith("0.895")  # 0.895...
