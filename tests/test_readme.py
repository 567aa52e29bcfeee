"""The README's library quick tour runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour_source() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def number(name: str, text: str) -> float:
    return float(re.search(rf"{name}=([-+0-9.eE]+)", text).group(1))


def test_quick_tour_output_matches_comments():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_tour_source(), str(README), "exec"), {})
    located, time, crossings, eps, moved = out.getvalue().splitlines()

    assert located.startswith("MinGapResult(")
    assert number("s_star", located) == pytest.approx(0.7479, abs=1e-4)
    assert number("delta_min", located) == pytest.approx(0.00182, abs=5e-6)
    assert located.endswith("interior=True)")
    assert float(time) == pytest.approx(3.0e5, rel=0.02)
    assert crossings.startswith("[AntiCrossing(") and crossings.count("AntiCrossing(") == 1
    assert float(eps) == pytest.approx(1.0126, abs=5e-5)
    assert float(moved) == pytest.approx(0.0400, abs=5e-5)
