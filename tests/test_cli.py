"""Command-line behavior: conversions, transforms, reports, sweeps, exit codes."""

import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from annealgap import (
    IsingProblem,
    MisChainSpec,
    load_problem,
    mis_chain,
    save_problem,
)
from annealgap import cli
from annealgap.cli import main
from conftest import ROW_ISING, ROW_ISING_H0, assert_coefficients


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain004.json"
    save_problem(mis_chain(MisChainSpec(0.04)), path)
    return path


@pytest.fixture
def two_level_file(tmp_path):
    path = tmp_path / "single.json"
    save_problem(IsingProblem(n=1, J={}, h=(1.0,)), path)
    return path


def _no_scan(*args, **kwargs):
    raise AssertionError("a rejected argument must stop the run before the scan")


class TestConvert:
    def test_qubo_to_ising_golden(self, tmp_path, chain_file, capsys):
        out = tmp_path / "ising.json"
        assert main(["convert", "--problem", str(chain_file), "--to", "ising", "--out", str(out)]) == 0
        converted = load_problem(out)
        assert_coefficients(converted, ROW_ISING["J"], ROW_ISING["h"])
        assert "offset delta: -5.9" in capsys.readouterr().out

    def test_same_form_is_identity(self, tmp_path, chain_file):
        out = tmp_path / "copy.json"
        assert main(["convert", "--problem", str(chain_file), "--to", "qubo", "--out", str(out)]) == 0
        original = load_problem(chain_file)
        copied = load_problem(out)
        assert copied.Q == original.Q and copied.b == original.b

    @pytest.mark.parametrize("to, doc, message", [
        ("qubo", {"form": "ising", "n": 2, "quadratic": [[0, 1, 1e308]], "linear": [0, 0]},
         "ising_to_qubo: coupling (0,1) = 1e+308 overflows the float range"),
        ("ising", {"form": "qubo", "n": 3, "quadratic": [[0, 1, 1e308], [0, 2, 1e308]],
                   "linear": [0, 0, 0]},
         "qubo_to_ising: b[0] = 0.0 with the quadratic entries of variable 0 overflows"),
    ])
    def test_overflowing_conversion_is_input_error(self, tmp_path, capsys, to, doc, message):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "converted.json"
        assert main(["convert", "--problem", str(path), "--to", to, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["convert", "--problem", str(tmp_path / "nope.json"), "--to", "ising",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestTransform:
    def test_golden_pipeline(self, tmp_path, chain_file):
        out = tmp_path / "h0.json"
        assert main(["transform", "--problem", str(chain_file), "--k", "0", "--out", str(out)]) == 0
        assert_coefficients(load_problem(out), ROW_ISING_H0["J"], ROW_ISING_H0["h"])

    def test_twice_applied_restores(self, tmp_path, chain_file):
        once = tmp_path / "once.json"
        twice = tmp_path / "twice.json"
        main(["transform", "--problem", str(chain_file), "--k", "0", "--out", str(once)])
        main(["transform", "--problem", str(once), "--k", "0", "--out", str(twice)])
        assert_coefficients(load_problem(twice), ROW_ISING["J"], ROW_ISING["h"])

    def test_pivot_out_of_range(self, tmp_path, chain_file, capsys):
        rc = main(["transform", "--problem", str(chain_file), "--k", "9",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err


class TestBackmap:
    def test_sigma_form(self, capsys):
        assert main(["backmap", "--assignment=-1,-1,1,-1,1", "--form", "sigma", "--k", "0"]) == 0
        out = capsys.readouterr().out
        assert "sigma: -1,+1,-1,+1,-1" in out
        assert "q:     0,1,0,1,0" in out

    def test_control_off_unchanged(self, capsys):
        assert main(["backmap", "--assignment", "1,0,1", "--form", "q", "--k", "0"]) == 0
        assert "q:     1,0,1" in capsys.readouterr().out

    def test_malformed_assignment(self, capsys):
        assert main(["backmap", "--assignment", "1,zebra", "--k", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestAnalyze:
    def test_two_level_report(self, tmp_path, two_level_file):
        prefix = str(tmp_path / "run_")
        rc = main(["analyze", "--problem", str(two_level_file), "--out", prefix])
        assert rc == 0
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["delta_min"] == pytest.approx(1.4142136, abs=1e-6)
        assert report["s_star"] == pytest.approx(0.5, abs=1e-6)
        assert report["t_approx"] == pytest.approx(0.5, abs=1e-9)
        assert report["interior"] is True
        assert report["hyperbola"]["A"] == pytest.approx(2.8284271, abs=1e-6)
        assert report["grid"] == 2001 and report["s_tol"] == 1e-6
        gaps = (tmp_path / "run_gaps.csv").read_text().splitlines()
        assert gaps[0] == "s,E0,E1,gap"
        assert len(gaps) == 2002
        overlaps = (tmp_path / "run_overlaps.csv").read_text().splitlines()
        assert overlaps[0] == "s,a0,a1"

    def test_determinism(self, tmp_path, two_level_file):
        a = str(tmp_path / "a_")
        b = str(tmp_path / "b_")
        main(["analyze", "--problem", str(two_level_file), "--grid", "101", "--out", a])
        main(["analyze", "--problem", str(two_level_file), "--grid", "101", "--out", b])
        for name in ("gaps.csv", "overlaps.csv"):
            assert (tmp_path / f"a_{name}").read_bytes() == (tmp_path / f"b_{name}").read_bytes()

    def test_chain_interior(self, tmp_path, chain_file, capsys):
        prefix = str(tmp_path / "chain_")
        rc = main(["analyze", "--problem", str(chain_file), "--out", prefix])
        assert rc == 0
        [note] = capsys.readouterr().err.splitlines()
        assert note.startswith("note: hyperbola fit residual")
        report = json.loads((tmp_path / "chain_report.json").read_text())
        assert report["interior"] is True
        assert report["delta_min"] == pytest.approx(1.822812e-3, rel=1e-4)
        assert report["hyperbola"] is not None

    def test_fit_warnings_reach_the_caller(self, tmp_path, chain_file, capsys, monkeypatch):
        # Only the misfit becomes a note; any other warning raised in the fit
        # is left to the caller's filters.
        def fit_hyperbola(*args):
            warnings.warn("lstsq rcond is deprecated", DeprecationWarning)
            return real_fit(*args)

        real_fit = cli.fit_hyperbola
        monkeypatch.setattr(cli, "fit_hyperbola", fit_hyperbola)
        with pytest.warns(DeprecationWarning, match="rcond"):
            rc = main(["analyze", "--problem", str(chain_file), "--out", str(tmp_path / "w_")])
        assert rc == 0
        [note] = capsys.readouterr().err.splitlines()
        assert note.startswith("note: hyperbola fit residual")

    def test_transformed_chain_not_interior(self, tmp_path, chain_file):
        prefix = str(tmp_path / "moved_")
        rc = main(["analyze", "--problem", str(chain_file), "--k", "0", "--out", prefix])
        assert rc == 0
        report = json.loads((tmp_path / "moved_report.json").read_text())
        assert report["interior"] is False
        assert report["hyperbola"] is None
        assert report["k"] == 0
        assert report["t_approx"] == pytest.approx(report["delta_min"] ** -2, rel=1e-10)

    def test_coarse_grid_reports_without_the_fit(self, tmp_path, chain_file, capsys):
        # At grid 11 the +-0.05 fit window around the crossing holds 1 point.
        prefix = str(tmp_path / "coarse_")
        rc = main(["analyze", "--problem", str(chain_file), "--grid", "11", "--out", prefix])
        assert rc == 0
        report = json.loads((tmp_path / "coarse_report.json").read_text())
        assert report["interior"] is True
        assert report["hyperbola"] is None
        assert report["delta_min"] == pytest.approx(1.822812e-3, rel=1e-4)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "window +-0.05" in err[0] and "holds 1 trace points" in err[0]

    @pytest.mark.parametrize("levels, columns", [(2, 2), (100, 32)])
    def test_report_levels_match_gaps_columns(self, tmp_path, chain_file, levels, columns):
        prefix = str(tmp_path / "lv_")
        rc = main(["analyze", "--problem", str(chain_file), "--k", "0", "--grid", "201",
                   "--levels", str(levels), "--out", prefix])
        assert rc == 0
        header = (tmp_path / "lv_gaps.csv").read_text().splitlines()[0].split(",")
        assert header == ["s"] + [f"E{k}" for k in range(columns)] + ["gap"]
        report = json.loads((tmp_path / "lv_report.json").read_text())
        assert report["levels"] == columns

    def test_nonstoquastic_provenance(self, tmp_path, chain_file, capsys):
        prefix = str(tmp_path / "ns_")
        rc = main(["analyze", "--problem", str(chain_file), "--driver", "nonstoq",
                   "--grid", "201", "--out", prefix])
        assert rc == 0
        # a known misfit: residual 1.194e-2 against a minimum gap of 7.578e-3
        [note] = capsys.readouterr().err.splitlines()
        assert note.startswith("note: hyperbola fit residual 1.194e-02 exceeds")
        report = json.loads((tmp_path / "ns_report.json").read_text())
        assert report["driver"] == "nonstoquastic"
        assert report["lambda_path"] == "linear"
        assert report["normalizer"] == 5

    def test_degenerate_instance_is_numerical_failure(self, tmp_path, capsys):
        bad = tmp_path / "flat.json"
        save_problem(mis_chain(MisChainSpec(0.0)), bad)
        rc = main(["analyze", "--problem", str(bad), "--grid", "101",
                   "--out", str(tmp_path / "flat_")])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_rounding_noise_minimum_is_numerical_failure(self, tmp_path, capsys):
        # The delta_b = 1e-9 chain's refined gap is below the degeneracy tolerance.
        path = tmp_path / "tiny.json"
        save_problem(mis_chain(MisChainSpec(1e-9)), path)
        rc = main(["analyze", "--problem", str(path), "--grid", "201",
                   "--out", str(tmp_path / "tiny_")])
        assert rc == 3
        assert "E0 and E1 are degenerate at s=0.9999" in capsys.readouterr().err
        assert not (tmp_path / "tiny_report.json").exists()

    def test_non_finite_coefficient_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        doc = {"form": "qubo", "n": 2, "quadratic": [[0, 1, 1.0]],
               "linear": [float("nan"), -1.0], "offset": 0.0}
        bad.write_text(json.dumps(doc))
        rc = main(["analyze", "--problem", str(bad), "--grid", "11",
                   "--out", str(tmp_path / "nan_")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "b[0] must be finite, got nan" in err
        assert "symmetric" not in err
        assert not (tmp_path / "nan_report.json").exists()

    def test_non_numeric_coefficients_are_input_error(self, tmp_path, capsys):
        bad = tmp_path / "text.json"
        doc = {"form": "ising", "n": 2, "quadratic": [[0, 1, "1.5"]],
               "linear": [True, "2"], "offset": False}
        bad.write_text(json.dumps(doc))
        rc = main(["analyze", "--problem", str(bad), "--out", str(tmp_path / "text_")])
        assert rc == 2
        err = capsys.readouterr().err
        # load_problem checks the quadratic entries before the constructor
        # checks the linear vector and the offset, so the entry is named first.
        assert f"{bad}: bad quadratic entry [0, 1, '1.5']" in err
        assert not (tmp_path / "text_report.json").exists()

    def test_overflowing_energies_are_input_error(self, tmp_path, capsys):
        bad = tmp_path / "huge.json"
        doc = {"form": "ising", "n": 2, "quadratic": [[0, 1, 1e308]],
               "linear": [1e308, 1e308], "offset": 0.0}
        bad.write_text(json.dumps(doc))
        rc = main(["analyze", "--problem", str(bad), "--grid", "11",
                   "--out", str(tmp_path / "huge_")])
        assert rc == 2
        assert "overflow the float range" in capsys.readouterr().err
        assert not list(tmp_path.glob("huge_*"))

    def test_nonstoquastic_derivative_overflow_is_input_error(self, tmp_path, capsys):
        # Each energy is finite, but 2s E on the non-stoquastic dH/ds is not.
        bad = tmp_path / "half.json"
        doc = {"form": "ising", "n": 2, "quadratic": [], "linear": [8e307, 8e307]}
        bad.write_text(json.dumps(doc))
        rc = main(["analyze", "--problem", str(bad), "--driver", "nonstoq", "--grid", "51",
                   "--out", str(tmp_path / "ns_")])
        assert rc == 2
        assert "overflow the non-stoquastic dH/ds" in capsys.readouterr().err
        assert not list(tmp_path.glob("ns_*"))
        assert main(["analyze", "--problem", str(bad), "--grid", "51",
                     "--out", str(tmp_path / "stoq_")]) == 0
        assert json.loads((tmp_path / "stoq_report.json").read_text())["delta_min"] == 2.0

    @pytest.mark.parametrize("driver, message", [
        ("stoq", "spread E1 - E0 of the two lowest energies, -1e+308 and 1e+308, overflows"),
        ("nonstoq", "overflow the non-stoquastic dH/ds"),
    ])
    def test_overflowing_final_gap_is_input_error(self, tmp_path, capsys, driver, message):
        # E = +-1e308: each energy is finite, but E1 - E0 is not.
        bad = tmp_path / "spread.json"
        bad.write_text(json.dumps({"form": "ising", "n": 1, "quadratic": [], "linear": [1e308]}))
        rc = main(["analyze", "--problem", str(bad), "--driver", driver, "--grid", "51",
                   "--out", str(tmp_path / "spread_")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("spread_*"))

    def test_short_linear_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps({"form": "ising", "n": 3, "quadratic": [], "linear": []}))
        rc = main(["analyze", "--problem", str(bad), "--grid", "11",
                   "--out", str(tmp_path / "short_")])
        assert rc == 2
        assert f"{bad}: linear must be a list of n=3 numbers" in capsys.readouterr().err
        assert not (tmp_path / "short_report.json").exists()

    @pytest.mark.parametrize("form", [["qubo"], {"qubo": 1}])
    def test_unhashable_form_tag_is_input_error(self, tmp_path, capsys, form):
        bad = tmp_path / "tag.json"
        bad.write_text(json.dumps({"form": form, "n": 1, "quadratic": [], "linear": [0]}))
        rc = main(["analyze", "--problem", str(bad), "--out", str(tmp_path / "tag_")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}: unknown form tag {form!r}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "tag_report.json").exists()

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"form": "qubo", "n": 1, "quadratic": [], "linear": [0], "x": "\xff"}')
        rc = main(["analyze", "--problem", str(bad), "--out", str(tmp_path / "latin1_")])
        assert rc == 2
        assert f"error: {bad}: not UTF-8 text (" in capsys.readouterr().err
        assert not (tmp_path / "latin1_report.json").exists()

    @pytest.mark.parametrize("s_tol", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_is_input_error(self, tmp_path, chain_file, capsys, monkeypatch, s_tol):
        monkeypatch.setattr(cli, "gap_trace", _no_scan)
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--problem", str(chain_file), "--grid", "101",
                  f"--s-tol={s_tol}", "--out", str(tmp_path / "tol_")])
        assert excinfo.value.code == 2
        assert "argument --s-tol: must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "tol_report.json").exists()


class TestWriteTable:
    @staticmethod
    def reference(header: list[str], table: np.ndarray) -> bytes:
        """The table as ``csv.writer`` writes it with ``f"{x:.12g}"`` per value."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{x:.12g}" for x in row] for row in table.tolist())
        return out.getvalue().encode("utf-8")

    @pytest.fixture(scope="class")
    def table_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("table") / "table.csv"

    @settings(max_examples=300, deadline=None)
    @given(table=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
        elements=st.floats(),
    ))
    @example(table=np.array([[0.0, -0.0, 5e-324, -2.2250738585072014e-308],
                             [np.inf, -np.inf, np.nan, 1.0 / 3.0],
                             [1e22, 123456789012.5, -1e-5, 2.0 ** 60]]))
    def test_bytes_match_csv_writer(self, table_path, table):
        header = [f"c{k}" for k in range(table.shape[1])]
        cli._write_table(table_path, header, table)
        assert table_path.read_bytes() == self.reference(header, table)


class TestSweep:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "summary.csv"
        rc = main(["sweep", "--delta-b", "0.04", "--methods", "stoquastic,eltip-k0",
                   "--grid", "501", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "delta_b,method,s_star,delta_min,t_approx,epsilon,interior,"
            "ratio_vs_stoq,error"
        )
        assert len(lines) == 3
        stoq = lines[1].split(",")
        moved = lines[2].split(",")
        assert stoq[1] == "stoquastic" and moved[1] == "eltip-k0"
        assert stoq[6] == "true" and moved[6] == "false"
        assert float(stoq[7]) == 1.0
        assert float(moved[7]) > 10.0
        assert stoq[8] == "" and moved[8] == ""

    def test_failed_cell_recorded_and_sweep_continues(self, tmp_path):
        out = tmp_path / "summary.csv"
        rc = main(["sweep", "--delta-b", "0,0.04", "--methods", "stoquastic",
                   "--grid", "101", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        failed = lines[1].split(",")
        good = lines[2].split(",")
        assert failed[0] == "0" and "DegenerateLevelsError" in lines[1]
        assert failed[2] == ""
        assert good[0] == "0.04" and good[8] == ""

    @pytest.mark.parametrize("grid", ["201", "2001"])
    def test_rounding_noise_minimum_fails_its_cells(self, tmp_path, grid):
        out = tmp_path / "summary.csv"
        rc = main(["sweep", "--delta-b", "1e-9", "--methods", "stoquastic,nonstoquastic",
                   "--grid", grid, "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.read_text().splitlines()[1:]))
        assert [row[1] for row in rows] == ["stoquastic", "nonstoquastic"]
        for row in rows:
            assert row[2:8] == [""] * 6
            assert row[8].startswith("DegenerateLevelsError: E0 and E1 are degenerate at s=0.9999")

    def test_worker_count_does_not_change_output(self, tmp_path):
        serial = tmp_path / "serial.csv"
        base = ["sweep", "--delta-b", "0.04,0.08", "--methods", "stoquastic,eltip-k1",
                "--grid", "201"]
        assert main(base + ["--workers", "1", "--out", str(serial)]) == 0
        for workers in ("2", "4"):
            threaded = tmp_path / f"threaded{workers}.csv"
            assert main(base + ["--workers", workers, "--out", str(threaded)]) == 0
            assert serial.read_bytes() == threaded.read_bytes()

    def test_repeated_delta_b_scanned_once(self, tmp_path):
        out = tmp_path / "summary.csv"
        rc = main(["sweep", "--delta-b", "0.04,0.04,0.040", "--methods", "stoquastic",
                   "--grid", "101", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0.04,stoquastic,")

    def test_method_order_canonical(self, tmp_path):
        out = tmp_path / "summary.csv"
        rc = main(["sweep", "--delta-b", "0.08", "--methods", "eltip-k0,stoquastic",
                   "--grid", "201", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[1] == "stoquastic"
        assert lines[2].split(",")[1] == "eltip-k0"

    def test_unknown_method(self, tmp_path, capsys):
        rc = main(["sweep", "--methods", "quantum-leap", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "unknown method" in capsys.readouterr().err


class TestParser:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_bad_target_form(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["convert", "--problem", "x.json", "--to", "sudoku", "--out", "y.json"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--grid", "1"), ("--grid", "0"), ("--levels", "0"), ("--levels", "1"),
         ("--levels", "-3")],
    )
    def test_analyze_rejects_bad_number(self, tmp_path, chain_file, capsys, monkeypatch,
                                        flag, value):
        monkeypatch.setattr(cli, "gap_trace", _no_scan)
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--problem", str(chain_file), f"{flag}={value}",
                  "--out", str(tmp_path / "bad_")])
        assert excinfo.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert list(tmp_path.glob("bad_*")) == []

    @pytest.mark.parametrize(
        "flag, value",
        [("--s-tol", "nan"), ("--s-tol", "inf"), ("--s-tol", "0"), ("--s-tol", "-1"),
         ("--grid", "1"), ("--workers", "0"), ("--workers", "-2"), ("--grid", "abc"),
         ("--delta-b", "nan"), ("--delta-b", "inf"), ("--delta-b", "-0.04"),
         ("--delta-b", "0.04,nan"), ("--delta-b", "0.04,x")],
    )
    def test_sweep_rejects_bad_number(self, tmp_path, capsys, monkeypatch, flag, value):
        monkeypatch.setattr(cli, "gap_trace", _no_scan)
        out = tmp_path / "summary.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--delta-b", "0.04", "--methods", "stoquastic",
                  f"{flag}={value}", "--out", str(out)])
        assert excinfo.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()


#: Problem-file coefficients: ordinary floats, signed zeros, subnormals,
#: values up to the float maximum and integers beyond the float range.
FUZZ_NUMBERS = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e154, -1e300,
                     1e308, -1.7976931348623157e308]),
    st.sampled_from([0, -2, 7, 2 ** 53 + 1, 10 ** 309, -(10 ** 400)]),
)


@st.composite
def fuzz_problems(draw):
    """A random Ising or QUBO file document with n <= 4, or a delta_b chain QUBO."""
    if draw(st.booleans()):
        delta_b = draw(st.sampled_from([0.0, 1e-9, 1e-7, 0.01, 0.04]) | st.floats(0.0, 0.3))
        return mis_chain(MisChainSpec(delta_b))
    n = draw(st.integers(1, 4))
    pairs = [[i, j] for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique_by=tuple)) if pairs else []
    return {
        "form": draw(st.sampled_from(["ising", "qubo"])),
        "n": n,
        "quadratic": [pair + [draw(FUZZ_NUMBERS)] for pair in chosen],
        "linear": draw(st.lists(FUZZ_NUMBERS, min_size=n, max_size=n)),
        "offset": draw(FUZZ_NUMBERS),
    }


def json_numbers(doc):
    """Every number in a parsed JSON document."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for item in doc:
            yield from json_numbers(item)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield doc


class TestFuzz:
    @settings(max_examples=100, deadline=None)
    @given(problem=fuzz_problems(), driver=st.sampled_from(sorted(cli.DRIVER_TOKENS)),
           grid=st.sampled_from([5, 21, 101]), k=st.none() | st.integers(0, 4),
           form=st.sampled_from(["ising", "qubo"]))
    # The non-stoquastic chain's hyperbola misfit.
    @example(problem=mis_chain(MisChainSpec(0.04)), driver="nonstoq", grid=101, k=None,
             form="ising")
    # E1 - E0 = 1.7977e308 is finite; the gap slope at s = 0.5 is not.
    @example(problem={"form": "qubo", "n": 2, "quadratic": [[0, 1, -1.7976931348623157e308]],
                      "linear": [0, 0], "offset": 1e308}, driver="stoq", grid=5, k=None,
             form="ising")
    def test_random_files_exit_cleanly(self, problem, driver, grid, k, form):
        # Any warning is an error here, as under python -W error.
        n = problem["n"] if isinstance(problem, dict) else problem.n
        k = None if k is None else k % n
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "problem.json"
            if isinstance(problem, dict):
                path.write_text(json.dumps(problem), encoding="utf-8")
            else:
                save_problem(problem, path)
            runs = [
                (["analyze", "--driver", driver, "--grid", str(grid)]
                 + ([] if k is None else ["--k", str(k)]), Path(tmp) / "run_", "report.json"),
                (["transform", "--k", str(k or 0)], Path(tmp) / "moved.json", ""),
                (["convert", "--to", form], Path(tmp) / "converted.json", ""),
            ]
            for argv, out, suffix in runs:
                rc = main(argv + ["--problem", str(path), "--out", str(out)])
                assert rc in (0, 2, 3), argv
                written = Path(f"{out}{suffix}")
                assert written.exists() == (rc == 0), argv
                if rc == 0:
                    doc = json.loads(written.read_text(encoding="utf-8"))
                    assert all(math.isfinite(x) for x in json_numbers(doc)), (argv, doc)
