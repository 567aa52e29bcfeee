"""Problem containers, conversions, the chain generator, and serialization."""

import json
import re

import numpy as np
import pytest

from annealgap import (
    IsingProblem,
    MisChainSpec,
    ProblemFormatError,
    QuboProblem,
    SpinAssignment,
    ising_to_qubo,
    load_problem,
    mis_chain,
    qubo_to_ising,
    save_problem,
)
from conftest import (
    ROW_ISING,
    ROW_ISING_H0,
    ROW_QUBO,
    ROW_QUBO_H0,
    assert_coefficients,
    dense_ising_energy,
    dense_qubo_energy,
    enumerate_qubo,
    random_ising,
    random_qubo,
)


#: (build a problem with one coefficient set to x, the field it names), per field.
COEFFICIENT_FIELDS = [
    pytest.param(
        lambda x: IsingProblem(n=2, J={(0, 1): x}, h=(0, 0)),
        r"coupling \(0,1\)",
        id="ising-J",
    ),
    pytest.param(lambda x: IsingProblem(n=2, J={}, h=(0, x)), r"h\[1\]", id="ising-h"),
    pytest.param(
        lambda x: IsingProblem(n=2, J={}, h=(0, 0), offset=x), "offset", id="ising-offset"
    ),
    pytest.param(
        lambda x: QuboProblem(n=2, Q={(1, 0): x}, b=(0, 0)),
        r"quadratic \(0,1\)",
        id="qubo-Q",
    ),
    pytest.param(lambda x: QuboProblem(n=2, Q={}, b=(x, 0)), r"b\[0\]", id="qubo-b"),
    pytest.param(
        lambda x: QuboProblem(n=2, Q={}, b=(0, 0), offset=x), "offset", id="qubo-offset"
    ),
]


#: (build a 3-variable problem from a quadratic map, the field it names), per form.
QUADRATIC_FIELDS = [
    pytest.param(lambda quad: IsingProblem(n=3, J=quad), "coupling", id="ising"),
    pytest.param(lambda quad: QuboProblem(n=3, Q=quad), "quadratic", id="qubo"),
]

#: (build a 3-variable problem from a linear vector, the field it names), per form.
LINEAR_FIELDS = [
    pytest.param(lambda vec: IsingProblem(n=3, h=vec), "h", id="ising"),
    pytest.param(lambda vec: QuboProblem(n=3, b=vec), "b", id="qubo"),
]

#: (build a problem of size n, the field it names), per form.
SIZE_FIELDS = [
    pytest.param(lambda n: IsingProblem(n=n), "spin count", id="ising"),
    pytest.param(lambda n: QuboProblem(n=n), "variable count", id="qubo"),
]


class TestProblemConstruction:
    def test_self_coupling_rejected(self):
        with pytest.raises(ProblemFormatError, match="self-coupling"):
            IsingProblem(n=3, J={(1, 1): 1.0}, h=(0, 0, 0))

    def test_index_bounds(self):
        with pytest.raises(ProblemFormatError, match="out of range"):
            QuboProblem(n=3, Q={(0, 7): 1.0}, b=(0, 0, 0))

    def test_reversed_key_normalized(self):
        p = IsingProblem(n=3, J={(2, 0): 1.5}, h=(0, 0, 0))
        assert p.J == {(0, 2): 1.5}

    def test_duplicate_unordered_pair_rejected(self):
        with pytest.raises(ProblemFormatError, match="duplicate"):
            IsingProblem(n=3, J={(0, 1): 1.0, (1, 0): 2.0}, h=(0, 0, 0))

    def test_zero_entries_dropped(self):
        p = IsingProblem(n=2, J={(0, 1): 0.0}, h=(1.0, 2.0))
        assert p.J == {}

    def test_default_fields_are_zero(self):
        p = IsingProblem(n=3, J={(0, 1): 1.0})
        assert p.h == (0.0, 0.0, 0.0)

    def test_linear_length_mismatch(self):
        with pytest.raises(ProblemFormatError, match="length"):
            IsingProblem(n=3, J={}, h=(1.0, 2.0))

    def test_frozen(self):
        p = IsingProblem(n=2, J={}, h=(0, 0))
        with pytest.raises(AttributeError):
            p.offset = 1.0

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), pytest.param(10**400, id="huge-int")]
    )
    @pytest.mark.parametrize("build, field", COEFFICIENT_FIELDS)
    def test_non_finite_coefficient_rejected(self, build, field, bad):
        with pytest.raises(ProblemFormatError, match=field + " must be finite"):
            build(bad)

    @pytest.mark.parametrize("bad", ["1.5", True, False, np.bool_(True), None, 1j])
    @pytest.mark.parametrize("build, field", COEFFICIENT_FIELDS)
    def test_non_real_coefficient_rejected(self, build, field, bad):
        with pytest.raises(ProblemFormatError, match=rf"{field} must be a number, got {bad!r}"):
            build(bad)

    @pytest.mark.parametrize("good", [np.float64(1.5), np.float32(0.5), np.int64(-2), 3])
    @pytest.mark.parametrize("build, field", COEFFICIENT_FIELDS)
    def test_real_scalars_accepted_as_floats(self, build, field, good):
        # repr tells a stored numpy scalar from a float of the same value
        assert repr(build(good)) == repr(build(float(good)))

    @pytest.mark.parametrize("bad", [0.9, 2.0, "0", True, np.bool_(False), None])
    @pytest.mark.parametrize("build, field", QUADRATIC_FIELDS)
    def test_non_integer_index_rejected(self, build, field, bad):
        # int() would have truncated 0.9 to 0 and taken True for 1
        with pytest.raises(
            ProblemFormatError, match=rf"{field} index in .* must be an integer, got {bad!r}"
        ):
            build({(bad, 2): 1.0})

    @pytest.mark.parametrize("bad", [(0, 1, 2), (0,), (), 5, "ab", None])
    @pytest.mark.parametrize("build, field", QUADRATIC_FIELDS)
    def test_malformed_quadratic_key_rejected(self, build, field, bad):
        with pytest.raises(ProblemFormatError, match=rf"{field} key .* must be an \(i, j\) pair"):
            build({bad: 1.0})

    @pytest.mark.parametrize(
        "bad, kind", [([((0, 1), 1.0)], "list"), (((0, 1, 1.0),), "tuple"), (None, "NoneType")]
    )
    @pytest.mark.parametrize("build, field", QUADRATIC_FIELDS)
    def test_non_mapping_quadratic_rejected(self, build, field, bad, kind):
        with pytest.raises(
            ProblemFormatError, match=rf"{field} entries must map \(i, j\) pairs to values, got {kind}"
        ):
            build(bad)

    @pytest.mark.parametrize(
        "bad",
        [5, 1.5, True, object(),
         # A mapping would give its keys, a set its iteration order.
         pytest.param({0: 5.0, 1: 7.0, 2: 9.0}, id="mapping"),
         pytest.param({5.0, 7.0, 9.0}, id="set")],
    )
    @pytest.mark.parametrize("build, field", LINEAR_FIELDS)
    def test_non_sequence_linear_rejected(self, build, field, bad):
        with pytest.raises(ProblemFormatError, match=f"{field} must be a sequence of numbers"):
            build(bad)

    @pytest.mark.parametrize("build, field", LINEAR_FIELDS)
    def test_linear_vector_forms_accepted(self, build, field):
        p = build(np.array([1.0, -2.0, 0.5]))
        assert repr(p) == repr(build((1.0, -2.0, 0.5)))
        assert repr(build(None)) == repr(build(())) == repr(build((0.0, 0.0, 0.0)))

    @pytest.mark.parametrize("build, field", QUADRATIC_FIELDS)
    def test_numpy_integer_indices_accepted(self, build, field):
        p = build({(np.int64(2), np.int32(0)): 1.5})
        assert repr(p) == repr(build({(0, 2): 1.5}))

    @pytest.mark.parametrize(
        "bad, fault",
        [
            (True, "an integer, got True"),
            (2.5, r"an integer, got 2\.5"),
            (3.0, r"an integer, got 3\.0"),
            ("3", "an integer, got '3'"),
            (None, "an integer, got None"),
            (0, ">= 1, got 0"),
            (np.int64(-2), ">= 1, got -2"),
        ],
    )
    @pytest.mark.parametrize("build, field", SIZE_FIELDS)
    def test_bad_size_rejected(self, build, field, bad, fault):
        # int() would have taken True as one spin
        with pytest.raises(ProblemFormatError, match=f"{field} must be {fault}"):
            build(bad)

    @pytest.mark.parametrize("build, field", SIZE_FIELDS)
    def test_numpy_integer_size_accepted(self, build, field):
        p = build(np.int64(3))
        assert type(p.n) is int and repr(p) == repr(build(3))


class TestSpinAssignment:
    def test_q_to_sigma(self):
        a = SpinAssignment((1, 0, 1), "q")
        assert a.to_sigma().values == (1, -1, 1)

    def test_sigma_to_q(self):
        a = SpinAssignment((-1, 1, -1), "sigma")
        assert a.to_q().values == (0, 1, 0)

    def test_round_trip_exact(self):
        a = SpinAssignment((1, 0, 0, 1, 1), "q")
        assert a.to_sigma().to_q() == a

    def test_bad_values(self):
        with pytest.raises(ProblemFormatError):
            SpinAssignment((0, 2), "q")
        with pytest.raises(ProblemFormatError):
            SpinAssignment((0, 1), "sigma")

    @pytest.mark.parametrize(
        "values, form",
        [
            pytest.param((0.5, 1, 0.9), "q", id="q-fraction"),
            pytest.param((1.5, 0), "q", id="q-above-one"),
            pytest.param((-1.5, 1), "sigma", id="sigma-fraction"),
            pytest.param((1, -0.5), "sigma", id="sigma-toward-zero"),
            pytest.param((float("nan"), 1), "sigma", id="sigma-nan"),
            pytest.param(("1", 0), "q", id="q-text"),
        ],
    )
    def test_non_integral_values_rejected_not_truncated(self, values, form):
        with pytest.raises(ProblemFormatError, match=f"{form}-form assignment"):
            SpinAssignment(values, form)

    @pytest.mark.parametrize(
        "values, message",
        [pytest.param(5, "must be a sequence of numbers, got 5", id="int"),
         pytest.param(None, "must be a sequence of numbers, got None", id="none"),
         pytest.param(np.array([[1, 0]]), "must be a sequence of numbers", id="2d-array"),
         pytest.param({0: 1}, "must be a sequence of numbers, got {0: 1}", id="mapping"),
         pytest.param({0, 1}, "must be a sequence of numbers", id="set"),
         pytest.param((), "must hold at least one value", id="empty")],
    )
    def test_non_sequence_values_rejected(self, values, message):
        with pytest.raises(ProblemFormatError, match=f"assignment values {message}"):
            SpinAssignment(values)

    def test_integral_floats_accepted(self):
        a = SpinAssignment((1.0, -1.0), "sigma")
        assert a.values == (1, -1)
        assert all(type(v) is int for v in a.values)

    def test_basis_index_round_trip(self):
        for m in range(16):
            a = SpinAssignment.from_basis_index(m, 4)
            assert a.basis_index == m

    @pytest.mark.parametrize(
        "m, n, message",
        [(1.5, 3, "basis index m must be an integer, got 1.5"),
         (True, 3, "basis index m must be an integer, got True"),
         (1, 2.5, "spin count n must be an integer, got 2.5"),
         (0, False, "spin count n must be an integer, got False"),
         (0, 0, "spin count n must be >= 1, got 0"),
         (8, 3, "basis index 8 out of range for n=3"),
         (-1, 3, "basis index -1 out of range for n=3")],
    )
    def test_basis_index_arguments_checked(self, m, n, message):
        with pytest.raises(ProblemFormatError, match=re.escape(message)):
            SpinAssignment.from_basis_index(m, n)

    def test_basis_index_accepts_numpy_integers(self):
        a = SpinAssignment.from_basis_index(np.int64(5), np.int32(3))
        assert a.basis_index == 5

    def test_basis_convention(self):
        # bit 0 means q = 1 (sigma = +1)
        a = SpinAssignment.from_basis_index(0, 3)
        assert a.values == (1, 1, 1)
        assert a.to_sigma().values == (1, 1, 1)


class TestQuboToIsing:
    def test_golden_row(self):
        p = QuboProblem(n=5, Q=ROW_QUBO["Q"], b=ROW_QUBO["b"])
        assert_coefficients(qubo_to_ising(p), ROW_ISING["J"], ROW_ISING["h"])

    def test_golden_row_offset(self):
        p = QuboProblem(n=5, Q=ROW_QUBO["Q"], b=ROW_QUBO["b"])
        assert qubo_to_ising(p).offset == pytest.approx(-5.90, abs=1e-12)

    def test_zero_problem(self):
        p = QuboProblem(n=4, Q={}, b=(0, 0, 0, 0))
        out = qubo_to_ising(p)
        assert out.J == {} and out.h == (0, 0, 0, 0) and out.offset == 0

    def test_random_4_spin_energy_identity(self, rng):
        p = random_qubo(rng, 4)
        ising = qubo_to_ising(p)
        for q, expected in enumerate_qubo(p):
            sigma = tuple(2 * qi - 1 for qi in q)
            assert dense_ising_energy(ising, sigma) == pytest.approx(
                expected, abs=1e-12
            )


class TestIsingToQubo:
    def test_golden_transformed_row(self):
        p = IsingProblem(n=5, J=ROW_ISING_H0["J"], h=ROW_ISING_H0["h"])
        assert_coefficients(ising_to_qubo(p), ROW_QUBO_H0["Q"], ROW_QUBO_H0["b"])

    def test_zero_problem(self):
        p = IsingProblem(n=3, J={}, h=(0, 0, 0))
        out = ising_to_qubo(p)
        assert out.Q == {} and out.b == (0, 0, 0) and out.offset == 0

    def test_round_trip_on_golden_row(self):
        p = QuboProblem(n=5, Q=ROW_QUBO["Q"], b=ROW_QUBO["b"], offset=0.25)
        back = ising_to_qubo(qubo_to_ising(p))
        assert_coefficients(back, ROW_QUBO["Q"], ROW_QUBO["b"])
        assert back.offset == pytest.approx(0.25, abs=1e-12)

    def test_round_trip_random(self, rng):
        for n in (2, 5, 9):
            p = random_ising(rng, n)
            back = qubo_to_ising(ising_to_qubo(p))
            assert_coefficients(back, p.J, p.h)
            assert back.offset == pytest.approx(p.offset, abs=1e-12)


class TestConversionOverflow:
    """A converted coefficient beyond the float range names the conversion and its input."""

    @pytest.mark.parametrize("problem, message", [
        (IsingProblem(n=2, J={(0, 1): 1e308}), r"ising_to_qubo: coupling \(0,1\) = 1e\+308 "),
        (IsingProblem(n=2, h=(-1e308, 0.0), J={(0, 1): 1e308}),
         r"ising_to_qubo: coupling \(0,1\) = 1e\+308 "),
        (IsingProblem(n=2, h=(1e308, 0.0)),
         r"ising_to_qubo: h\[0\] = 1e\+308 with the couplings of spin 0 "),
        (IsingProblem(n=2, J={(0, 1): 1e307}, h=(-1e308, 0.0)),
         r"ising_to_qubo: h\[0\] = -1e\+308 with the couplings of spin 0 "),
        (IsingProblem(n=2, h=(8e307, 8e307), offset=-1e308),
         r"ising_to_qubo: offset = -1e\+308 with the sums of the couplings and of h "),
    ])
    def test_ising_to_qubo(self, problem, message):
        with pytest.raises(ProblemFormatError, match=message + "overflows the float range"):
            ising_to_qubo(problem)

    @pytest.mark.parametrize("problem, message", [
        (QuboProblem(n=3, Q={(0, 1): 1.5e308, (0, 2): 1.5e308}),
         r"qubo_to_ising: b\[0\] = 0\.0 with the quadratic entries of variable 0 "),
        (QuboProblem(n=2, b=(1.5e308, 1.5e308)),
         r"qubo_to_ising: offset = 0\.0 with the sums of b and of the quadratic entries "),
    ])
    def test_qubo_to_ising(self, problem, message):
        with pytest.raises(ProblemFormatError, match=message + "overflows the float range"):
            qubo_to_ising(problem)

    def test_largest_finite_results_convert(self):
        # 4 x 4e307 and 2 x 8.5e307 stay finite: nothing is rejected early.
        qubo = ising_to_qubo(IsingProblem(n=2, J={(0, 1): 4e307}, h=(8.5e307, 0.0)))
        assert qubo.Q == {(0, 1): 1.6e308} and qubo.b == (2 * 8.5e307 - 8e307, -8e307)


class TestEnergy:
    def test_chain_ground_assignment(self):
        p = mis_chain(MisChainSpec(0.04))
        energies = dict(enumerate_qubo(p))
        assert min(energies.values()) == pytest.approx(-12.0, abs=1e-12)
        winners = [q for q, e in energies.items() if e == pytest.approx(-12.0, abs=1e-9)]
        assert winners == [(1, 0, 1, 0, 1)]
        assert p.energy(SpinAssignment((1, 0, 1, 0, 1), "q")) == pytest.approx(
            -12.0, abs=1e-12
        )

    def test_chain_adjacent_pair(self):
        p = mis_chain(MisChainSpec(0.04))
        a = SpinAssignment((1, 1, 0, 0, 0), "q")
        assert p.energy(a) == pytest.approx(6.08 - 4.0 - 5.96, abs=1e-12)
        assert p.energy(a) == pytest.approx(dense_qubo_energy(p, a.values), abs=1e-12)

    def test_zero_problem_any_assignment(self):
        p = QuboProblem(n=3, Q={}, b=(0, 0, 0))
        assert p.energy(SpinAssignment((1, 1, 0), "q")) == 0.0

    def test_length_mismatch(self):
        p = QuboProblem(n=3, Q={}, b=(0, 0, 0))
        with pytest.raises(ProblemFormatError, match="length"):
            p.energy(SpinAssignment((1, 0), "q"))

    @pytest.mark.parametrize("problem", [
        IsingProblem(n=2, J={(0, 1): 1e308}, h=(1e308, 1e308)),
        QuboProblem(n=2, Q={(0, 1): 1e308}, b=(1e308, 1e308)),
    ], ids=["ising", "qubo"])
    def test_overflowing_energy_rejected(self, problem):
        # Every coefficient is finite; their sum over (1, 1) in either form is not.
        with pytest.raises(ProblemFormatError, match="overflow the float range"):
            problem.energy(SpinAssignment((1, 1), "q"))

    def test_form_auto_conversion(self, rng):
        p = random_ising(rng, 4)
        q = SpinAssignment((1, 0, 0, 1), "q")
        assert p.energy(q) == pytest.approx(p.energy(q.to_sigma()), abs=1e-14)


class TestMisChain:
    def test_golden_row(self):
        assert_coefficients(mis_chain(MisChainSpec(0.04)), ROW_QUBO["Q"], ROW_QUBO["b"])

    def test_low_spectrum(self):
        p = mis_chain(MisChainSpec(0.04))
        energies = sorted(e for _, e in enumerate_qubo(p))
        assert energies[0] == pytest.approx(-12.0, abs=1e-12)
        assert energies[1] == pytest.approx(-11.96, abs=1e-12)

    @pytest.mark.parametrize("delta_b", [0.01, 0.02, 0.04, 0.06, 0.08])
    def test_final_gap_equals_delta_b(self, delta_b):
        p = mis_chain(MisChainSpec(delta_b))
        energies = sorted(e for _, e in enumerate_qubo(p))
        assert energies[1] - energies[0] == pytest.approx(delta_b, abs=1e-12)

    def test_degenerate_at_zero(self):
        p = mis_chain(MisChainSpec(0.0))
        energies = sorted(e for _, e in enumerate_qubo(p))
        assert energies[1] - energies[0] == pytest.approx(0.0, abs=1e-12)
        assert energies[2] - energies[0] > 1.0

    def test_negative_delta_b_rejected(self):
        with pytest.raises(ProblemFormatError):
            MisChainSpec(-0.01)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (float("nan"), "delta_b must be finite, got nan"),
            (float("inf"), "delta_b must be finite, got inf"),
            ("x", "delta_b must be a number, got 'x'"),
            (None, "delta_b must be a number, got None"),
            (True, "delta_b must be a number, got True"),
        ],
    )
    def test_non_finite_delta_b_rejected(self, bad, message):
        with pytest.raises(ProblemFormatError, match=message):
            MisChainSpec(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (float("nan"), "coupling must be finite, got nan"),
            (float("-inf"), "coupling must be finite, got -inf"),
            ("x", "coupling must be a number, got 'x'"),
            (None, "coupling must be a number, got None"),
            (True, "coupling must be a number, got True"),
        ],
    )
    def test_bad_coupling_rejected(self, bad, message):
        with pytest.raises(ProblemFormatError, match=message):
            MisChainSpec(0.04, coupling=bad)

    def test_coupling_parameter(self):
        p = mis_chain(MisChainSpec(0.04, coupling=3.0))
        assert all(v == 3.0 for v in p.Q.values())


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        path = tmp_path / "chain.json"
        p = mis_chain(MisChainSpec(0.04))
        save_problem(p, path)
        loaded = load_problem(path)
        assert isinstance(loaded, QuboProblem)
        assert loaded.Q == p.Q
        assert loaded.b == p.b
        assert loaded.offset == p.offset

    def test_round_trip_ising(self, tmp_path):
        path = tmp_path / "ising.json"
        p = IsingProblem(n=5, J=ROW_ISING["J"], h=ROW_ISING["h"], offset=-5.9)
        save_problem(p, path)
        loaded = load_problem(path)
        assert isinstance(loaded, IsingProblem)
        assert loaded == p

    def test_save_non_problem_rejected(self, tmp_path):
        path = tmp_path / "none.json"
        with pytest.raises(ProblemFormatError, match="not a problem instance: object"):
            save_problem(object(), path)
        assert not path.exists()

    def _write(self, path, doc):
        path.write_text(json.dumps(doc))

    def test_self_coupling_file(self, tmp_path):
        path = tmp_path / "bad.json"
        self._write(
            path,
            {"form": "qubo", "n": 5, "quadratic": [[3, 3, 1.0]], "linear": [0] * 5, "offset": 0},
        )
        with pytest.raises(ProblemFormatError, match="self-coupling"):
            load_problem(path)

    def test_out_of_bounds_file(self, tmp_path):
        path = tmp_path / "bad.json"
        self._write(
            path,
            {"form": "qubo", "n": 5, "quadratic": [[0, 7, 1.0]], "linear": [0] * 5, "offset": 0},
        )
        with pytest.raises(ProblemFormatError, match="out of range"):
            load_problem(path)

    def test_duplicate_pair_file(self, tmp_path):
        path = tmp_path / "bad.json"
        self._write(
            path,
            {
                "form": "ising",
                "n": 3,
                "quadratic": [[0, 1, 1.0], [1, 0, 2.0]],
                "linear": [0, 0, 0],
                "offset": 0,
            },
        )
        with pytest.raises(ProblemFormatError, match="duplicate"):
            load_problem(path)

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(ProblemFormatError, match="JSON"):
            load_problem(path)

    def test_unknown_form(self, tmp_path):
        path = tmp_path / "bad.json"
        self._write(path, {"form": "maxcut", "n": 2, "quadratic": [], "linear": [0, 0]})
        with pytest.raises(ProblemFormatError, match="form"):
            load_problem(path)

    @pytest.mark.parametrize(
        "change, message",
        [
            pytest.param({"n": 2.9}, "n must be a positive integer, got 2.9", id="n-float"),
            pytest.param({"n": True}, "n must be a positive integer, got True", id="n-bool"),
            pytest.param({"n": "3"}, "n must be a positive integer, got '3'", id="n-string"),
            pytest.param({"n": 0, "linear": []}, "n must be a positive integer", id="n-zero"),
            pytest.param({"linear": []}, "linear must be a list of n=3 numbers", id="linear-empty"),
            pytest.param({"linear": [0, 0]}, "linear must be a list of n=3", id="linear-short"),
            pytest.param({"linear": {"0": 1}}, "linear must be a list", id="linear-dict"),
            pytest.param({"linear": ["x", 0, 0]}, r"h\[0\] must be a number", id="linear-text"),
            pytest.param({"quadratic": 5}, "quadratic must be a list", id="quadratic-int"),
            pytest.param({"quadratic": [[0, 1, "x"]]}, r"entry \[0, 1, 'x'\]", id="value-text"),
            pytest.param({"quadratic": [[0, 1.5, 1.0]]}, r"entry \[0, 1.5, 1.0\]", id="index-float"),
            pytest.param({"quadratic": [[0, None, 1]]}, r"entry \[0, None, 1\]", id="index-null"),
            pytest.param({"quadratic": [[0, 1]]}, r"bad quadratic entry \[0, 1\]", id="short-entry"),
            pytest.param({"quadratic": [[0, 1, "1.5"]]}, r"entry \[0, 1, '1.5'\]", id="value-numeric-text"),
            pytest.param({"quadratic": [[0, 1, True]]}, r"entry \[0, 1, True\]", id="value-bool"),
            pytest.param({"quadratic": [[0, 1, None]]}, r"entry \[0, 1, None\]", id="value-null"),
            pytest.param({"linear": [True, 0, 0]}, r"h\[0\] must be a number, got True", id="linear-bool"),
            pytest.param({"linear": [0, "2", 0]}, r"h\[1\] must be a number, got '2'", id="linear-numeric-text"),
            pytest.param({"linear": [0, 0, None]}, r"h\[2\] must be a number, got None", id="linear-null"),
            pytest.param({"form": "qubo", "linear": [0, False, 0]}, r"b\[1\] must be a number", id="qubo-linear-bool"),
            pytest.param({"offset": False}, "offset must be a number, got False", id="offset-bool"),
            pytest.param({"offset": "0.5"}, "offset must be a number, got '0.5'", id="offset-text"),
            pytest.param({"offset": None}, "offset must be a number, got None", id="offset-null"),
            pytest.param({"offset": 10**400}, "offset must be finite, got a number too large for a float", id="offset-huge-int"),
        ],
    )
    def test_malformed_field_names_the_file(self, tmp_path, change, message):
        path = tmp_path / "bad.json"
        doc = {"form": "ising", "n": 3, "quadratic": [[0, 1, 1.0]], "linear": [0, 0, 0]}
        self._write(path, {**doc, **change})
        with pytest.raises(ProblemFormatError, match=message) as excinfo:
            load_problem(path)
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_integer_coefficients_load_as_floats(self, tmp_path):
        path = tmp_path / "ok.json"
        self._write(
            path,
            {"form": "ising", "n": 2, "quadratic": [[0, 1, 2]], "linear": [1, 0.5], "offset": -1},
        )
        p = load_problem(path)
        assert p.J == {(0, 1): 2.0} and p.h == (1.0, 0.5) and p.offset == -1.0
        assert all(type(v) is float for v in (*p.J.values(), *p.h, p.offset))

    def test_reversed_single_key_accepted(self, tmp_path):
        path = tmp_path / "ok.json"
        self._write(
            path,
            {"form": "ising", "n": 2, "quadratic": [[1, 0, 0.5]], "linear": [0, 0], "offset": 0},
        )
        assert load_problem(path).J == {(0, 1): 0.5}


class TestEnergyConsistency:
    """Convention-independent identity: QUBO and converted Ising energies agree."""

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_exhaustive_n5(self, seed):
        rng = np.random.default_rng(seed)
        p = random_qubo(rng, 5)
        ising = qubo_to_ising(p)
        for q, expected in enumerate_qubo(p):
            a = SpinAssignment(q, "q")
            assert ising.energy(a.to_sigma()) == pytest.approx(expected, abs=1e-12)
            assert p.energy(a) == pytest.approx(expected, abs=1e-12)

    def test_exhaustive_n12(self, rng):
        p = random_qubo(rng, 12, density=0.3)
        ising = qubo_to_ising(p)
        for m in range(1 << 12):
            a = SpinAssignment.from_basis_index(m, 12)
            assert ising.energy(a) == pytest.approx(p.energy(a), abs=1e-12)
