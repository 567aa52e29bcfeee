"""The README's library quick tour and command-line block run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from annealgap import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour_source() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def command_line_sources() -> tuple[str, list[str]]:
    """The snippet that writes the problem file, and the command lines after it."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    setup = section.split("```python\n", 1)[1].split("```", 1)[0]
    block = section.split("then:\n\n```sh\n", 1)[1].split("```", 1)[0]
    return setup, block.splitlines()


def written_files(argv: list[str]) -> list[str]:
    """The files a command line names as its output."""
    if "--out" not in argv:
        return []
    out = argv[argv.index("--out") + 1]
    if argv[1] == "analyze":
        return [f"{out}{name}" for name in ("gaps.csv", "overlaps.csv", "report.json")]
    return [out]


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


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    setup, lines = command_line_sources()
    monkeypatch.chdir(tmp_path)
    exec(compile(setup, str(README), "exec"), {})
    assert (tmp_path / "chain004.json").is_file()
    assert lines
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "annealgap"
        assert cli.main(argv[1:]) == 0, line
        for name in written_files(argv):
            assert (tmp_path / name).is_file(), (line, name)
    assert "sigma: " in capsys.readouterr().out
